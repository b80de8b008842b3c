import json

import pytest
from hypothesis import given, strategies as st

from hlevels import (
    DuplicateState,
    EnergyLevel,
    Environment,
    IllConditionedBasis,
    ParseError,
    QuantumState,
    SupercriticalCharge,
    builtin_reference,
    generate_table1,
    generate_table2,
    load_reference_csv,
    relative_error,
)
from hlevels.harness import (
    TABLE_STATES,
    table1_from_csv,
    table1_to_csv,
    table1_to_text,
    table2_to_csv,
    table2_to_text,
    tables_to_json,
)

# published table-1 energies, used to drive table-2 checks without a solver run
PUBLISHED_T = {
    "kg": [-13.60659871, -3.40144965, -1.51174769, -0.85035692, -0.54422814,
           -3.40157042, -1.51175484, -0.85035822, -1.51179063, -0.85036123],
    "ss": [-13.60442520, -3.40137418, -1.51173516, -0.85035328, -0.54393117,
           -3.40125344, -1.51172801, -0.85035199, -1.51169223, -0.85034897],
    "qc": [-13.59810653, -3.39956046, -1.51091854, -0.84989222, -0.54393115,
           -3.39956046, -1.51091854, -0.84989222, -1.51091854, -0.84989222],
}


def published_table1():
    ref = builtin_reference()
    rows = []
    for i, st_ in enumerate(TABLE_STATES):
        rows.append({
            "state": st_.label,
            "kg": PUBLISHED_T["kg"][i],
            "ss": PUBLISHED_T["ss"][i],
            "qc": PUBLISHED_T["qc"][i],
            "nist": ref.entries[st_],
        })
    return rows


def test_builtin_reference():
    ref = builtin_reference()
    assert ref.entries[QuantumState(0, 0)] == -13.59843445
    assert ref.entries[QuantumState(1, 0)] == -3.39962387
    assert QuantumState(3, 0) not in ref.entries
    assert len(ref.entries) == 10


def test_load_reference_csv(tmp_path):
    f = tmp_path / "ref.csv"
    f.write_text("# comment\nstate,k,l,T_eV\n1S,0,0,-13.59843445\n2P,1,1,-1.51093197\n")
    ref = load_reference_csv(f)
    assert ref.entries[QuantumState(0, 0)] == -13.59843445
    assert ref.entries[QuantumState(1, 1)] == -1.51093197
    assert ref.source == str(f)


def test_load_reference_csv_empty(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    assert load_reference_csv(f).entries == {}


def test_load_reference_csv_malformed(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("state,k,l,T_eV\n1S,0,0,abc\n")
    with pytest.raises(ParseError) as err:
        load_reference_csv(f)
    assert err.value.line == 2


def test_load_reference_csv_duplicate(tmp_path):
    f = tmp_path / "dup.csv"
    f.write_text("state,k,l,T_eV\n1S,0,0,-13.6\n1S,0,0,-13.5\n")
    with pytest.raises(DuplicateState):
        load_reference_csv(f)


def test_load_reference_csv_label_mismatch(tmp_path):
    f = tmp_path / "mislabel.csv"
    f.write_text("state,k,l,T_eV\n2S,0,0,-13.6\n")
    with pytest.raises(ParseError):
        load_reference_csv(f)


def test_load_reference_csv_positive_energy(tmp_path):
    f = tmp_path / "pos.csv"
    f.write_text("state,k,l,T_eV\n1S,0,0,13.6\n")
    with pytest.raises(ParseError):
        load_reference_csv(f)


def test_relative_error_examples():
    assert relative_error(-13.59810653, -13.59843445) == pytest.approx(2.41e-3, rel=0.02)
    assert relative_error(-3.39956046, -3.39962387) == pytest.approx(1.87e-3, rel=0.02)
    assert relative_error(-5.0, -5.0) == 0.0
    with pytest.raises(ZeroDivisionError):
        relative_error(-1.0, 0.0)


@given(st.floats(min_value=0.1, max_value=1e3), st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_relative_error_scale_invariant(t, ref, scale):
    assert relative_error(-t * scale, -ref * scale) == pytest.approx(
        relative_error(-t, -ref), rel=1e-9
    )


def test_generate_table1_closed_form_columns(C):
    rows = generate_table1(models=("kg", "qc", "nist"))
    assert [r["state"] for r in rows] == [s.label for s in TABLE_STATES]
    by_state = {r["state"]: r for r in rows}
    # QC column constant along fixed-N anti-diagonals
    assert by_state["1P"]["qc"] == by_state["2S"]["qc"]
    assert by_state["1D"]["qc"] == by_state["2P"]["qc"] == by_state["3S"]["qc"]
    for i, r in enumerate(rows):
        assert r["kg"] == pytest.approx(PUBLISHED_T["kg"][i], abs=5e-5)
        assert r["qc"] == pytest.approx(PUBLISHED_T["qc"][i], abs=5e-5)


def test_generate_table1_empty_states():
    assert generate_table1(models=("kg",), states=()) == []


def _raising_lowest_levels(exc):
    def lowest_levels(*args, **kwargs):
        raise exc

    return lowest_levels


def test_generate_table1_propagates_salpeter_bugs(monkeypatch):
    monkeypatch.setattr("hlevels.salpeter.lowest_levels",
                        _raising_lowest_levels(TypeError("solver bug")))
    with pytest.raises(TypeError, match="solver bug"):
        generate_table1(models=("kg", "ss"))


def test_generate_table1_propagates_level_bugs(monkeypatch):
    def broken_kg_level(*args):
        raise TypeError("level bug")

    monkeypatch.setattr("hlevels.harness.kg_level", broken_kg_level)
    with pytest.raises(TypeError, match="level bug"):
        generate_table1(models=("kg", "qc"))


def test_generate_table1_salpeter_failure_leaves_empty_cells(monkeypatch):
    monkeypatch.setattr("hlevels.salpeter.lowest_levels",
                        _raising_lowest_levels(IllConditionedBasis("overlap")))
    rows = generate_table1(models=("kg", "ss"))
    assert [r["ss"] for r in rows] == [None] * len(TABLE_STATES)
    assert all(r["kg"] is not None for r in rows)


def test_generate_table1_salpeter_failure_empties_only_its_l(monkeypatch):
    def s_wave_fails(l, count, *args, **kwargs):
        if l == 0:
            raise SupercriticalCharge("S wave")
        return [EnergyLevel(value=-1.0 - l - k, model="salpeter", state=QuantumState(k, l))
                for k in range(count)]

    monkeypatch.setattr("hlevels.salpeter.lowest_levels", s_wave_fails)
    rows = generate_table1(models=("ss",))
    assert {r["state"]: r["ss"] for r in rows} == {
        st_.label: None if st_.l == 0 else -1.0 - st_.l - st_.k for st_ in TABLE_STATES}


def test_generate_table2_from_published_energies():
    rows = generate_table2(table1=published_table1())
    by_state = {r["state"]: r for r in rows}
    assert by_state["1S"]["eps_qc"] == pytest.approx(2.41e-3, rel=0.02)
    assert by_state["1S"]["flags"]["qc"] == "MATCH"
    assert by_state["1S"]["flags"]["m_im"] == "MATCH"
    assert by_state["1S"]["m_im"] == pytest.approx(3.421587, abs=5e-6)
    # published 2P entry reads 8.89e-3 but the energies give 8.889e-4
    assert by_state["2P"]["eps_qc"] == pytest.approx(8.89e-4, rel=0.02)
    assert by_state["2P"]["flags"]["qc"] == "MISMATCH"
    # M_im scales as 1/N
    assert by_state["1G"]["m_im"] == pytest.approx(by_state["1S"]["m_im"] / 5.0, rel=1e-6)


def test_generate_table2_never_copies_published_numbers():
    rows = generate_table2(table1=published_table1())
    ref = builtin_reference()
    for i, r in enumerate(rows):
        for model in ("kg", "ss", "qc"):
            expected = relative_error(PUBLISHED_T[model][i], ref.entries[TABLE_STATES[i]])
            assert r[f"eps_{model}"] == expected


def test_generate_table2_unavailable_cells():
    table1 = published_table1()
    table1[0]["ss"] = None
    rows = generate_table2(table1=table1)
    assert rows[0]["eps_ss"] is None
    assert rows[0]["flags"]["ss"] == "UNAVAILABLE"


def test_table1_csv_round_trip():
    rows = published_table1()
    again = table1_from_csv(table1_to_csv(rows))
    assert again == rows  # exact at 17 significant digits


def test_serialization_formats():
    t1 = published_table1()
    t2 = generate_table2(table1=t1)
    text1, text2 = table1_to_text(t1), table2_to_text(t2)
    assert "1S" in text1 and "-13.60659871" in text1
    assert "MISMATCH" in text2
    csv2 = table2_to_csv(t2)
    assert csv2.splitlines()[0].startswith("state,eps_kg")
    doc = json.loads(tables_to_json(t1, t2))
    assert set(doc) == {"table", "models", "constants", "mismatches"}
    assert any(m["column"] == "qc" for m in doc["mismatches"])


def test_environment_defaults():
    env = Environment()
    assert env.z == 1
    assert env.solver.basis_size == 64
