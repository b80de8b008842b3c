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
    ref = tmp_path / "ref.csv"
    lines = ["state,k,l,T_eV"]
    from hlevels import builtin_reference
    from hlevels.harness import TABLE_STATES

    for st_, v in builtin_reference().entries.items():
        lines.append(f"{st_.label},{st_.k},{st_.l},{v}")
    ref.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "compare", "--reference", str(ref),
                       "--basis-size", "16", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"table", "models", "constants", "mismatches"}
    first = doc["table"]["energies"][0]
    assert first["state"] == "1S"
    assert first["qc"] == pytest.approx(-13.59810653, abs=5e-5)


def _compare_json(omp_threads: str) -> bytes:
    src = str(Path(hlevels.__file__).resolve().parent.parent)
    env = dict(os.environ, OMP_NUM_THREADS=omp_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hlevels.cli", "compare", "--format", "json"],
                          capture_output=True, env=env, timeout=300, check=True)
    return proc.stdout


def test_compare_json_is_independent_of_blas_threads():
    assert _compare_json("1") == _compare_json("2")


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hlevels.__version__"}
