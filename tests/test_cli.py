import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hlevels
from hlevels import ParseError, QuantumState
from hlevels.cli import main, parse_state_label


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_state_label_examples():
    assert parse_state_label("1S") == QuantumState(0, 0)
    assert parse_state_label("1P") == QuantumState(0, 1)
    assert parse_state_label("2P") == QuantumState(1, 1)
    assert parse_state_label("3S") == QuantumState(2, 0)
    assert parse_state_label("2,1") == QuantumState(2, 1)


def test_parse_state_label_errors():
    for bad in ("0S", "S", "1X", "-1P", "x,y"):
        with pytest.raises(ParseError):
            parse_state_label(bad)


@given(st.integers(min_value=1, max_value=9), st.sampled_from("SPDFGH"))
def test_label_round_trip(radial, letter):
    label = f"{radial}{letter}"
    assert parse_state_label(label).label == label


def test_spectrum_qc_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "qc",
                       "--states", "1S,1P", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "state,model,T_eV"
    state, model, value = lines[1].split(",")
    assert (state, model) == ("1S", "qc")
    assert float(value) == pytest.approx(-13.59810653, abs=5e-5)
    assert float(lines[2].split(",")[2]) == pytest.approx(-3.39956046, abs=5e-5)


def test_spectrum_deterministic(capsys):
    argv = ("spectrum", "--model", "kg", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_spectrum_supercritical_exit_code(capsys):
    code, out, err = run(capsys, "spectrum", "--model", "sommerfeld",
                         "--z", "200", "--states", "1S")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_salpeter_aliased_grid_exit_code(capsys):
    # basis 192 on the default grid printed 1P = -5.43 eV and 1G = -2339.5 eV with exit 0
    code, out, err = run(capsys, "salpeter", "--basis-size", "192", "--states", "1S,1P,1G")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_salpeter_supercritical_s_wave_exit_code(capsys):
    code, out, err = run(capsys, "salpeter", "--z", "90", "--states", "1S")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--states", ""),
    ("widths", "--states", ","),
    ("salpeter", "--states", ""),
])
def test_empty_state_list_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "kg", "--z", "-1", "--states", "1S"),
    ("spectrum", "--model", "scalar", "--z", "0"),
    ("salpeter", "--z", "-1"),
    ("compare", "--z", "two"),
])
def test_charge_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--z" in err


@pytest.mark.parametrize("model", ["kg", "sommerfeld", "qc"])
def test_reduced_mass_is_rejected_where_it_has_no_effect(capsys, model):
    code, out, err = run(capsys, "spectrum", "--model", model, "--reduced-mass")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("model", ["schrodinger", "scalar"])
def test_reduced_mass_raises_the_level(capsys, model):
    argv = ("spectrum", "--model", model, "--states", "1S", "--format", "csv")
    bare = float(run(capsys, *argv)[1].splitlines()[1].split(",")[2])
    code, out, _ = run(capsys, *argv, "--reduced-mass")
    assert code == 0
    assert bare < float(out.splitlines()[1].split(",")[2]) < 0.0


def test_unknown_model_is_usage_error(capsys):
    assert run(capsys, "spectrum", "--model", "bogus")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_bad_state_label_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--states", "0S")
    assert code == 1
    assert "error:" in err


def test_widths(capsys):
    code, out, _ = run(capsys, "widths", "--states", "1S,2S", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1S,6.843173"
    assert lines[2] == "2S,3.421587"


def test_verify_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "--format", "csv")
    assert code == 0
    assert "residual" in out
    assert "within" in err


def test_verify_at_z_2_uses_the_z_2_root(capsys):
    # the Z=1 root in the Z=2 potential gives a max residual of 10
    code, out, err = run(capsys, "verify", "--z", "2", "--format", "csv")
    assert code == 0
    assert "within" in err


def test_constants_refuses_z(capsys):
    code, out, err = run(capsys, "constants", "--z", "2")
    assert (code, out) == (2, "")
    assert "--z" in err


# (argv, column, power): the nonrelativistic level scales as Z^2 and the
# quasiclassical width 2|M_im| ~ m_minus Z alpha/N as Z
@pytest.mark.parametrize("argv, column, power", [
    *[(("spectrum", "--model", model), "T_eV", 2)
      for model in ("schrodinger", "sommerfeld", "kg", "scalar", "qc")],
    (("widths",), "gamma_MeV", 1),
])
def test_z_reaches_every_model(capsys, argv, column, power):
    def values(z):
        code, out, _ = run(capsys, *argv, "--z", z, "--format", "json")
        assert code == 0
        return {r["state"]: r[column] for r in json.loads(out)}

    one, two = values("1"), values("2")
    assert list(one) == list(two)
    for state in one:
        assert abs(two[state] / (2**power * one[state]) - 1.0) < 1e-3, state


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "qc", "--z", "275", "--states", "1S"),  # printed -512866 eV
    ("widths", "--z", "100000", "--states", "1S"),  # printed Gamma = 685063 MeV
])
def test_quasiclassical_level_past_v_1_exit_code(capsys, argv):
    # v = Z*alpha/(2N) >= 1 leaves the quasiclassical quadratic without a bound root
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "no quasiclassical level" in err


def test_quasiclassical_level_just_below_v_1_prints(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "qc", "--z", "274", "--states", "1S",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["T_eV"] == pytest.approx(-511003.76608531, rel=1e-10)


def _reference_csv(tmp_path) -> str:
    """The built-in reference written as a --reference file."""
    from hlevels import builtin_reference

    ref = tmp_path / "ref.csv"
    lines = ["state,k,l,T_eV"]
    for st_, v in builtin_reference().entries.items():
        lines.append(f"{st_.label},{st_.k},{st_.l},{v}")
    ref.write_text("\n".join(lines) + "\n")
    return str(ref)


def test_compare_past_v_1_empties_the_quasiclassical_cells(capsys, tmp_path):
    code, out, _ = run(capsys, "compare", "--z", "275", "--reference", _reference_csv(tmp_path),
                       "--basis-size", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # v >= 1 only at N = 1, so only 1S loses its quasiclassical cells
    energies = {r["state"]: r for r in doc["table"]["energies"]}
    accuracies = {r["state"]: r for r in doc["table"]["accuracies"]}
    assert [s for s, r in energies.items() if r["qc"] is None] == ["1S"]
    assert [s for s, r in accuracies.items() if r["m_im"] is None] == ["1S"]
    assert accuracies["1S"]["flags"] == {k: "UNAVAILABLE" for k in ("kg", "ss", "qc", "m_im")}
    assert accuracies["2S"]["flags"]["m_im"] == "MISMATCH"


def test_cli_reports_the_grid_a_basis_needs(capsys):
    code, out, err = run(capsys, "salpeter", "--basis-size", "3000", "--states", "1S")
    assert (code, out) == (1, "")
    assert err == "error: basis_size 3000 needs quad_nodes >= 6000, have 4096\n"


def test_constants_json_with_override(capsys):
    code, out, _ = run(capsys, "constants", "--format", "json", "--alpha", "7.0e-3")
    assert code == 0
    rows = {r["name"]: r["value"] for r in json.loads(out)}
    assert rows["alpha"] == 7.0e-3
    assert rows["derived.m_plus"] == pytest.approx(938.7830802461)


def test_salpeter_subcommand(capsys):
    code, out, _ = run(capsys, "salpeter", "--states", "1S",
                       "--basis-size", "16", "--format", "csv")
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(-13.5992, abs=1e-3)


def test_compare_with_custom_reference(capsys, tmp_path):
    code, out, _ = run(capsys, "compare", "--reference", _reference_csv(tmp_path),
                       "--basis-size", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"table", "models", "constants", "mismatches"}
    first = doc["table"]["energies"][0]
    assert first["state"] == "1S"
    assert first["qc"] == pytest.approx(-13.59810653, abs=5e-5)


def test_compare_past_z_1_needs_a_reference(capsys, tmp_path):
    # the built-in reference is hydrogen's; against it every Z=2 cell read MISMATCH
    code, out, err = run(capsys, "compare", "--z", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--reference" in err
    code, _, _ = run(capsys, "compare", "--z", "2", "--reference", _reference_csv(tmp_path),
                     "--basis-size", "16")
    assert code == 0


def _cell(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


@pytest.mark.parametrize("z", ["1", "100"])  # at Z=100 the S-wave kg cells are empty
def test_compare_formats_agree_cell_by_cell(capsys, tmp_path, z):
    ref = () if z == "1" else ("--reference", _reference_csv(tmp_path))
    out = {fmt: run(capsys, "compare", "--basis-size", "16", "--z", z, *ref, "--format", fmt)[1]
           for fmt in ("text", "csv", "json")}
    doc = json.loads(out["json"])
    energies, accuracies = doc["table"]["energies"], doc["table"]["accuracies"]
    n = len(energies)
    text = out["text"].splitlines()
    records = list(csv.reader(out["csv"].splitlines()))
    assert len(text) == len(records) == 2 * n + 2
    models, flag_keys = ("kg", "ss", "qc", "nist"), ("kg", "ss", "qc", "m_im")
    for row, line, record in zip(energies, text[1:], records[1:]):
        assert line == f"{row['state']:>5} " + " ".join(
            f"{_cell(row[m], '.8f'):>14}" for m in models)
        assert record == [row["state"]] + [_cell(row[m], ".17g") for m in models]
    for row, line, record in zip(accuracies, text[n + 2:], records[n + 2:]):
        eps = [row[f"eps_{m}"] for m in ("kg", "ss", "qc")]
        flags = [row["flags"][k] for k in flag_keys]
        assert line == (f"{row['state']:>5} " + " ".join(f"{_cell(v, '.3e'):>10}" for v in eps)
                        + f" {row['m_im']:10.6f}  "
                        + ",".join(f"{k}={f}" for k, f in zip(flag_keys, flags)))
        assert record == ([row["state"]] + [_cell(v, ".17g") for v in eps]
                          + [_cell(row["m_im"], ".6f")] + flags)
    unavailable = {r["state"] for r in accuracies if r["flags"]["kg"] == "UNAVAILABLE"}
    assert unavailable == ({"1S", "2S", "3S"} if z == "100" else set())
    # past the S-wave critical coupling only the S cells of the Salpeter column are empty
    assert {r["state"] for r in accuracies if r["flags"]["ss"] == "UNAVAILABLE"} == unavailable


def _child_env(**extra) -> dict:
    src = str(Path(hlevels.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _compare_json(omp_threads: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "hlevels.cli", "compare", "--format", "json"],
                          capture_output=True, env=_child_env(OMP_NUM_THREADS=omp_threads),
                          timeout=300, check=True)
    return proc.stdout


def test_compare_json_is_independent_of_blas_threads():
    assert _compare_json("1") == _compare_json("2")


_CLOSED_FORM_PROBE = """
import contextlib, io, sys
from hlevels.cli import main
for argv in (["spectrum", "--model", "kg"], ["widths"], ["constants"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""


def test_closed_form_commands_load_neither_numpy_nor_scipy():
    proc = subprocess.run([sys.executable, "-c", _CLOSED_FORM_PROBE], capture_output=True,
                          text=True, env=_child_env(), timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


_SOLVER_PROBE = """
import contextlib, io, sys
from hlevels.cli import main
for argv in (["compare", "--basis-size", "16"], ["salpeter", "--basis-size", "16"], ["verify"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_solver_commands_do_not_load_scipy():
    proc = subprocess.run([sys.executable, "-c", _SOLVER_PROBE], capture_output=True,
                          text=True, env=_child_env(), timeout=300, check=True)
    assert proc.stdout.strip() == "[]"


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hlevels.__version__"}
