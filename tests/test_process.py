"""The CLI as a process, and the package's metadata.

The bare install (the package and pytest, without the test extra) runs this
module alone, so it imports only the standard library, pytest and hlevels:
no hypothesis, no scipy and no other test module.
"""
import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hlevels
from hlevels import cli
from hlevels.cli import BLAS_THREAD_VARIABLES, main

_ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env(**extra) -> dict:
    src = str(Path(hlevels.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _exit_by_raising(code):
    raise SystemExit(code)


# runs the module as `python -m hlevels.cli` does, then reports numpy's OpenBLAS threads;
# os._exit raises instead, so that the probe outlives the entry
_CLI_THREADS_PROBE = """
import ctypes, os, pathlib, runpy, sys
def _exit_by_raising(code):
    raise SystemExit(code)
os._exit = _exit_by_raising
sys.argv = ["hlevels", *sys.argv[1:]]
try:
    runpy.run_module("hlevels.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
import numpy
threads = "unknown"
for lib in (pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
            break
print(threads, file=sys.stderr)
sys.exit(code)
"""


def _compare_json(**threads) -> tuple:
    """(stdout, BLAS threads) of `compare --format json` with only the given thread variables."""
    env = {k: v for k, v in _child_env(**threads).items()
           if k not in BLAS_THREAD_VARIABLES or k in threads}
    proc = subprocess.run([sys.executable, "-c", _CLI_THREADS_PROBE, "compare", "--format", "json"],
                          capture_output=True, env=env, timeout=300, check=True)
    return proc.stdout, proc.stderr.decode().strip()


def test_compare_json_is_independent_of_blas_threads():
    default, one, two = (_compare_json(), _compare_json(OMP_NUM_THREADS="1"),
                         _compare_json(OMP_NUM_THREADS="2"))
    assert default[0] == one[0] == two[0]
    if "unknown" in (default[1], two[1]):
        pytest.skip("numpy's BLAS is not an OpenBLAS it ships")
    # the entry runs the default at one thread and leaves the user's two alone
    assert (default[1], one[1], two[1]) == ("1", "1", str(min(2, os.cpu_count())))


@pytest.mark.parametrize("chosen", [{}, {"OMP_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "2"},
                                    {"MKL_NUM_THREADS": "4"}], ids=["none", "omp", "openblas", "mkl"])
def test_entry_sets_one_blas_thread_unless_the_user_chose(monkeypatch, chosen):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in chosen.items():
        monkeypatch.setenv(name, value)
    seen = {}
    monkeypatch.setattr(cli, "main", lambda argv=None: seen.update(
        {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}) or 7)
    monkeypatch.setattr(os, "_exit", _exit_by_raising)
    with pytest.raises(SystemExit) as ended:
        cli.entry()
    assert ended.value.code == 7
    expected = chosen or {"OMP_NUM_THREADS": "1"}
    assert seen == {name: expected.get(name) for name in BLAS_THREAD_VARIABLES}


def _cli_process(*argv) -> subprocess.Popen:
    """`python -m hlevels.cli argv` with stdout block-buffered, as in a pipe outside pytest.

    Only the final flush in entry() writes a short output then, so a lost flush shows.
    """
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "hlevels.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv", [("compare", "--format", "json"), ("spectrum", "--format", "csv"),
                                  ("spectrum",)])
def test_process_entry_prints_the_bytes_of_main(capsys, argv):
    proc = _cli_process(*argv)
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0
    assert run(capsys, *argv)[:2] == (0, out.decode())


def _pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    return tomllib.loads((_ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def test_console_script_enters_through_entry():
    assert _pyproject()["project"]["scripts"] == {"hlevels": "hlevels.cli:entry"}


def test_console_script_prints_the_bytes_of_the_module():
    # an installed package puts the script on PATH; a plain checkout has none
    script = shutil.which("hlevels")
    if script is None:
        pytest.skip("no hlevels console script on PATH")
    argv = ("compare", "--format", "json")
    installed = subprocess.run([script, *argv], capture_output=True, env=_child_env(),
                               timeout=300, check=True)
    module, _ = _cli_process(*argv).communicate(timeout=300)
    assert installed.stdout == module and installed.stderr == b""


@pytest.mark.parametrize("argv, code", [
    (("salpeter", "--states", "1S", "--z", "88"), 1),
    (("spectrum", "--z", "0"), 2),
])
def test_process_entry_keeps_the_exit_codes(argv, code):
    proc = _cli_process(*argv)
    out, err = proc.communicate(timeout=300)
    assert (proc.returncode, out) == (code, b"")
    assert (b"Traceback" not in err) and (b"error:" in err.splitlines()[-1])


def test_process_entry_exits_1_quietly_on_a_closed_pipe():
    # the interpreter's own last flush printed "Exception ignored ... BrokenPipeError", exit 120
    proc = _cli_process("spectrum")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


@pytest.mark.parametrize("argv", [("spectrum",), ("compare", "--basis-size", "16")])
def test_process_entry_exits_1_with_an_error_line_when_stdout_is_closed(argv):
    # `hlevels spectrum >&-`: Python starts with sys.stdout None
    proc = subprocess.run([sys.executable, "-m", "hlevels.cli", *argv], env=_child_env(),
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == b"error: standard output is closed\n"


def test_main_leaves_the_environment_unchanged(capsys, monkeypatch):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert main(["compare", "--basis-size", "16", "--format", "json"]) == 0
    assert dict(os.environ) == before


_CLOSED_FORM_PROBE = """
import contextlib, io, sys
from hlevels.cli import main
for command in (["spectrum", "--model", "kg"], ["widths"], ["constants"]):
    for fmt in ("text", "csv", "json"):
        argv = [*command, "--format", fmt]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
print(sorted(m for m in ("numpy", "scipy", "dataclasses", "hlevels.harness") if m in sys.modules))
"""


def test_closed_form_commands_load_neither_numpy_nor_scipy():
    proc = subprocess.run([sys.executable, "-c", _CLOSED_FORM_PROBE], capture_output=True,
                          text=True, env=_child_env(), timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


_SOLVER_PROBE = """
import contextlib, io, sys
from hlevels.cli import main
for argv in (["compare", "--basis-size", "16"], ["salpeter", "--basis-size", "16"], ["verify"],
             ["salpeter", "--states", "1S,2P"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_solver_commands_do_not_load_scipy():
    proc = subprocess.run([sys.executable, "-c", _SOLVER_PROBE], capture_output=True,
                          text=True, env=_child_env(), timeout=300, check=True)
    assert proc.stdout.strip() == "[]"


def test_version_has_one_source():
    config = _pyproject()
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hlevels.__version__"}


def test_module_imports_only_the_standard_library_pytest_and_hlevels():
    imported = set()
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    allowed = sys.stdlib_module_names | {"pytest", "hlevels"}
    assert {name for name in imported if name.partition(".")[0] not in allowed} == set()
