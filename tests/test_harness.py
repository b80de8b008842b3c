import csv
import io
import json
import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from hlevels import (
    ComplexMass,
    DuplicateState,
    EnergyLevel,
    Environment,
    IllConditionedBasis,
    ParseError,
    QuantumState,
    ReferenceDataset,
    SupercriticalCharge,
    builtin_reference,
    generate_table1,
    generate_table2,
    load_reference_csv,
)
from hlevels.harness import TABLE_STATES, format_tables, tables_to_json
from hlevels.spectra import format_cell

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
    # each refusal names its line: a bad value, a bad header, a short row and a negative l
    f = tmp_path / "bad.csv"
    for text, line, message in [
        ("state,k,l,T_eV\n1S,0,0,abc\n", 2, "could not convert string to float: 'abc'"),
        ("# comment\nstate,k,T_eV\n", 2, "expected header 'state,k,l,T_eV'"),
        ("state,k,l,T_eV\n1S,0,-13.6\n", 2, "expected 4 fields, got 3"),
        ("state,k,l,T_eV\n1S,0,0,-13.6\n1S,0,-1,-3.4\n", 3,
         "quantum numbers must be non-negative: k=0, l=-1"),
    ]:
        f.write_text(text)
        with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$") as err:
            load_reference_csv(f)
        assert err.value.line == line


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


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_load_reference_csv_non_finite_energy(tmp_path, text):
    f = tmp_path / "nan.csv"
    f.write_text(f"state,k,l,T_eV\n1S,0,0,-13.6\n2S,1,0,{text}\n")
    with pytest.raises(ParseError, match=f"^line 3: binding energy must be negative and finite, "
                                         f"got {float(text)}$") as err:
        load_reference_csv(f)
    assert err.value.line == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_reference_dataset_refuses_a_non_finite_energy(value):
    with pytest.raises(ValueError, match="^reference energy for 1S must be"):
        ReferenceDataset(entries={QuantumState(0, 0): value})


def _table1_of(t: float, ref: float) -> list[dict]:
    """Table 1 with every model energy t and every reference energy ref."""
    return [{"state": st_.label, "kg": t, "ss": t, "qc": t, "nist": ref} for st_ in TABLE_STATES]


def test_relative_error_examples():
    # the relative error epsilon of table 2, in percent
    rows = generate_table2(Environment(), published_table1())
    assert rows[0]["eps_qc"] == pytest.approx(2.41e-3, rel=0.02)  # 1S
    assert rows[5]["eps_qc"] == pytest.approx(1.87e-3, rel=0.02)  # 2S
    assert generate_table2(Environment(), _table1_of(-5.0, -5.0))[0]["eps_kg"] == 0.0


@given(st.floats(min_value=0.1, max_value=1e3), st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_relative_error_scale_invariant(t, ref, scale):
    scaled = generate_table2(Environment(), _table1_of(-t * scale, -ref * scale))[0]
    assert scaled["eps_ss"] == pytest.approx(
        generate_table2(Environment(), _table1_of(-t, -ref))[0]["eps_ss"], rel=1e-9
    )


def test_generate_table1_closed_form_columns(C):
    rows = generate_table1(Environment())
    assert [r["state"] for r in rows] == [s.label for s in TABLE_STATES]
    by_state = {r["state"]: r for r in rows}
    # QC column constant along fixed-N anti-diagonals
    assert by_state["1P"]["qc"] == by_state["2S"]["qc"]
    assert by_state["1D"]["qc"] == by_state["2P"]["qc"] == by_state["3S"]["qc"]
    for i, r in enumerate(rows):
        assert r["kg"] == pytest.approx(PUBLISHED_T["kg"][i], abs=5e-5)
        assert r["qc"] == pytest.approx(PUBLISHED_T["qc"][i], abs=5e-5)


def _raising_lowest_levels(exc):
    def lowest_levels(*args, **kwargs):
        raise exc

    return lowest_levels


def test_generate_table1_propagates_salpeter_bugs(monkeypatch):
    monkeypatch.setattr("hlevels.salpeter.lowest_levels",
                        _raising_lowest_levels(TypeError("solver bug")))
    with pytest.raises(TypeError, match="solver bug"):
        generate_table1(Environment())


def test_generate_table1_propagates_level_bugs(monkeypatch):
    def broken_kg_level(*args):
        raise TypeError("level bug")

    monkeypatch.setattr("hlevels.harness.kg_level", broken_kg_level)
    with pytest.raises(TypeError, match="level bug"):
        generate_table1(Environment())


def test_generate_table1_salpeter_failure_leaves_empty_cells(monkeypatch):
    monkeypatch.setattr("hlevels.salpeter.lowest_levels",
                        _raising_lowest_levels(IllConditionedBasis("overlap")))
    rows = generate_table1(Environment())
    assert [r["ss"] for r in rows] == [None] * len(TABLE_STATES)
    assert all(r["kg"] is not None for r in rows)


def test_generate_table1_salpeter_failure_empties_only_its_l(monkeypatch):
    def s_wave_fails(l, count, *args, **kwargs):
        if l == 0:
            raise SupercriticalCharge("S wave")
        return [EnergyLevel(value=-1.0 - l - k, model="salpeter", state=QuantumState(k, l))
                for k in range(count)]

    monkeypatch.setattr("hlevels.salpeter.lowest_levels", s_wave_fails)
    rows = generate_table1(Environment())
    assert {r["state"]: r["ss"] for r in rows} == {
        st_.label: None if st_.l == 0 else -1.0 - st_.l - st_.k for st_ in TABLE_STATES}


def test_generate_table2_from_published_energies():
    rows = generate_table2(Environment(), published_table1())
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
    rows = generate_table2(Environment(), published_table1())
    ref = builtin_reference()
    for i, r in enumerate(rows):
        for model in ("kg", "ss", "qc"):
            t_ref = ref.entries[TABLE_STATES[i]]
            expected = abs((PUBLISHED_T[model][i] - t_ref) / t_ref) * 100.0
            assert r[f"eps_{model}"] == expected


def test_generate_table2_unavailable_cells():
    table1 = published_table1()
    table1[0]["ss"] = None
    rows = generate_table2(Environment(), table1)
    assert rows[0]["eps_ss"] is None
    assert rows[0]["flags"]["ss"] == "UNAVAILABLE"


@pytest.mark.parametrize("count", [1, 11])
def test_generate_table2_refuses_a_table1_of_another_length(count):
    table1 = (published_table1() * 2)[:count]
    with pytest.raises(ValueError, match="^table 1 rows must cover the standard ten states"):
        generate_table2(Environment(), table1)


def test_table1_csv_round_trip():
    rows = published_table1()
    table2 = generate_table2(Environment(), rows)
    records = list(csv.reader(io.StringIO(format_tables(rows, table2, "csv"))))[:len(rows) + 1]
    models = ["kg", "ss", "qc", "nist"]
    assert records[0] == ["state", *models]
    again = [{"state": r[0], **dict(zip(models, map(float, r[1:])))} for r in records[1:]]
    assert again == rows  # exact: each cell is the repr of its value
    assert [r[1:] for r in records[1:]] == [[repr(row[m]) for m in models] for row in rows]


@pytest.mark.parametrize("offset, flag", [(0.0199, "MATCH"), (-0.0199, "MATCH"),
                                          (0.0201, "MISMATCH"), (-0.0201, "MISMATCH"),
                                          (None, "UNAVAILABLE")])
def test_every_flag_column_applies_the_2_percent_rule(monkeypatch, offset, flag):
    # each eps and each M_im sits at published * (1 + offset); None empties the cell
    from hlevels.harness import _PUBLISHED_EPS, _PUBLISHED_M_IM

    scale = 1.0 + (offset or 0.0)
    table1 = published_table1()
    for i, row in enumerate(table1):
        for model in ("kg", "ss", "qc"):
            eps = _PUBLISHED_EPS[model][i] * scale
            row[model] = None if offset is None else row["nist"] * (1.0 - eps / 100.0)
    m_im = {st_.label: m * scale for st_, m in zip(TABLE_STATES, _PUBLISHED_M_IM)}

    def complex_mass(state, *args, **kwargs):
        if offset is None:
            raise SupercriticalCharge("no quasiclassical level")
        return ComplexMass(re=1.0, im=-m_im[state.label])

    monkeypatch.setattr("hlevels.harness.qc_complex_mass", complex_mass)
    rows = generate_table2(Environment(), table1)
    assert [list(r["flags"]) for r in rows] == [["kg", "ss", "qc", "m_im"]] * len(TABLE_STATES)
    assert {v for r in rows for v in r["flags"].values()} == {flag}
    if offset is not None:
        for i, r in enumerate(rows):
            assert r["eps_kg"] == pytest.approx(_PUBLISHED_EPS["kg"][i] * scale, rel=1e-9)
            assert r["m_im"] == pytest.approx(_PUBLISHED_M_IM[i] * scale, rel=1e-15)


def test_serialization_formats():
    t1 = published_table1()
    t2 = generate_table2(Environment(), t1)
    text = format_tables(t1, t2, "text").splitlines()
    text1, text2 = "\n".join(text[:len(t1) + 1]), "\n".join(text[len(t1) + 1:])
    assert "1S" in text1 and "-13.60659871" in text1
    assert "MISMATCH" in text2
    csv2 = format_tables(t1, t2, "csv").splitlines()[len(t1) + 1:]
    assert csv2[0].startswith("state,eps_kg")
    doc = json.loads(tables_to_json(t1, t2, Environment()))
    assert set(doc) == {"table", "models", "constants", "mismatches"}
    assert any(m["column"] == "qc" for m in doc["mismatches"])


@pytest.mark.parametrize("spec", [".3e", ".10g", ".4g"])
def test_a_finite_cell_never_rounds_to_inf(spec):
    top = sys.float_info.max
    assert math.isinf(float(format(top, spec)))  # the rounding the cell must not print
    assert format_cell(top, spec) == format_cell(-top, spec)[1:] == repr(top)
    assert format_cell(1.5, spec) == format(1.5, spec)
    assert format_cell(math.inf, spec) == "inf" and format_cell("1S", spec) == "1S"
    assert format_cell(None, spec) == ""
    t1 = published_table1()
    t2 = generate_table2(Environment(), t1)
    t2[0]["eps_kg"] = top  # a level 1e306 times its reference
    assert repr(top) in format_tables(t1, t2, "text").splitlines()[len(t1) + 2]


def test_environment_defaults():
    env = Environment()
    assert env.z == 1
    assert env.solver.basis_size == 64
