"""The three benchmark workloads, their inputs and their correctness checks.

Each workload yields rounds of ops.  A round holds every input kind the
workload mixes in a fixed proportion, so the share of known-defect ops in a
run is exactly the share in one round.  An op returns a list of problems;
an empty list means it passed.  An op that raises has failed too.

hlevels is imported inside functions only, so that importing this module
leaves the cold import of the package to the set-up measurement.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

CLI_TIMEOUT_S = 150

# cli_closed: the closed-form commands, each once per round.
# (subcommand, model, z); the models with a z parameter also run at Z=2.
CLI_COMMANDS = (
    ("spectrum", "schrodinger", 1),
    ("spectrum", "sommerfeld", 1),
    ("spectrum", "kg", 1),
    ("spectrum", "scalar", 1),
    ("spectrum", "qc", 1),
    ("spectrum", "sommerfeld", 2),
    ("spectrum", "kg", 2),
    ("spectrum", "scalar", 2),
    ("spectrum", "qc", 2),  # known defect: the qc model ignores --z
    ("widths", None, 1),
    ("constants", None, 1),
)
# None means the command's default (the ten table states).
STATE_CHOICES = (
    None, "1S", "1P", "1D", "1F", "1G", "2S", "2P", "2D", "3S", "3P",
    "1S,2S,3S", "3P,1P,2P", "4F,5G,6H",
)
FORMATS = ("text", "csv", "json")

# basis_ladder: every (l, basis size), two levels each, no scale search.
LADDER_L = range(5)
LADDER_NB = (32, 64, 128, 256, 512)
LADDER_COUNT = 2
LADDER_ATOL_EV = 1.0e-6
LADDER_NEST_ATOL_EV = 1.0e-9
LADDER_SEED_MAX_NB = 128  # larger sizes raise IllConditionedBasis at the seed
LADDER_UNSOLVED_ATOL_EV = 1.0e-5  # for the sizes the seed could not solve

COMPARE_DECIMALS_ATOL_EV = 5.0e-9  # "equal to 8 decimals"
COMPARE_SS_ATOL_EV = 1.0e-6
COMPARE_M_IM_ATOL_MEV = 5.0e-7  # "equal to 6 decimals"
QC_Z_SCALING_RTOL = 1.0e-3


@dataclass
class Op:
    """One unit of user work: run() returns the list of problems found."""

    label: str
    run: Callable[[object], list]
    known_defect: bool = False


@dataclass
class Workload:
    name: str
    warm_up: Callable[[], None]
    rounds: Callable[[int], object]  # seed -> iterator of lists of Op


def child_env(extra=None) -> dict:
    """Environment for a CLI child: the checkout's src on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = ":".join(paths)
    env.update(extra or {})
    return env


def run_cli(argv, env=None) -> subprocess.CompletedProcess:
    """One cold `python -m hlevels.cli` invocation; waits for it to end."""
    return subprocess.run(
        [sys.executable, "-m", "hlevels.cli", *argv],
        capture_output=True,
        env=env or child_env(),
        cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
    )


@functools.cache
def goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


# --- compare -------------------------------------------------------------------

COMPARE_ARGV = ("compare", "--format", "json")


def check_compare(doc: dict, gold: dict) -> list:
    """Compare a `compare --format json` document with the recorded one.

    Keys the recorded document does not have are ignored.
    """
    problems = []
    rows = {r["state"]: r for r in doc["table"]["energies"]}
    for g in gold["table"]["energies"]:
        r = rows.get(g["state"])
        if r is None:
            problems.append(f"state {g['state']} missing")
            continue
        for model in ("kg", "qc", "nist", "ss"):
            tol = COMPARE_SS_ATOL_EV if model == "ss" else COMPARE_DECIMALS_ATOL_EV
            got, want = r.get(model), g[model]
            if want is None or got is None:
                if got is not want:
                    problems.append(f"{g['state']} {model}: {got!r} != {want!r}")
            elif abs(got - want) > tol:
                problems.append(f"{g['state']} {model}: {got!r} != {want!r}")
    acc = {r["state"]: r for r in doc["table"]["accuracies"]}
    for g in gold["table"]["accuracies"]:
        r = acc.get(g["state"])
        if r is None:
            problems.append(f"accuracy row {g['state']} missing")
            continue
        if abs(r["m_im"] - g["m_im"]) > COMPARE_M_IM_ATOL_MEV:
            problems.append(f"{g['state']} m_im: {r['m_im']!r} != {g['m_im']!r}")
        for column, flag in g["flags"].items():
            if r["flags"].get(column) != flag:
                problems.append(f"{g['state']} flag {column}: {r['flags'].get(column)} != {flag}")
    return problems


def _compare_op() -> Op:
    def run(tracer) -> list:
        with tracer.span("cli.subprocess", command="compare"):
            proc = run_cli(COMPARE_ARGV)
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"]
        gold = json.loads(goldens()["compare"]["stdout"])
        return check_compare(json.loads(proc.stdout), gold)

    return Op("compare", run)


def _compare_rounds(seed: int):
    # Inputs are the paper's fixed ten states; the seed is unused.
    while True:
        yield [_compare_op()]


def thread_selfcheck() -> list:
    """`compare --format json` must give the same bytes at one BLAS thread."""
    default = run_cli(COMPARE_ARGV)
    single = run_cli(COMPARE_ARGV, env=child_env({"OMP_NUM_THREADS": "1"}))
    problems = []
    if default.returncode != 0 or single.returncode != 0:
        problems.append(f"exit codes {default.returncode}, {single.returncode}")
    elif default.stdout != single.stdout:
        problems.append("compare --format json differs under OMP_NUM_THREADS=1")
    return problems


# --- cli_closed ----------------------------------------------------------------

def cli_argv(command, model, z, states, fmt) -> list:
    argv = [command]
    if model is not None:
        argv += ["--model", model]
    if command != "constants" and states is not None:
        argv += ["--states", states]
    argv += ["--format", fmt]
    if z != 1:
        argv += ["--z", str(z)]
    return argv


def cli_key(argv) -> str:
    return " ".join(argv)


def all_cli_argvs():
    """Every argv the cli_closed workload can draw."""
    for command, model, z in CLI_COMMANDS:
        for states in (STATE_CHOICES if command != "constants" else (None,)):
            for fmt in FORMATS:
                yield cli_argv(command, model, z, states, fmt)


def parse_levels(stdout: str, fmt: str) -> dict:
    """{state label: T_eV} from a `spectrum` output in any format."""
    if fmt == "json":
        return {r["state"]: float(r["T_eV"]) for r in json.loads(stdout)}
    if fmt == "csv":
        return {r["state"]: float(r["T_eV"]) for r in csv.DictReader(io.StringIO(stdout))}
    lines = stdout.splitlines()
    header = lines[0].split()
    i_state, i_t = header.index("state"), header.index("T_eV")
    return {cells[i_state]: float(cells[i_t]) for cells in (ln.split() for ln in lines[1:])}


def check_qc_z_scaling(stdout: str, fmt: str, z1_stdout: str) -> list:
    """T(Z) must be Z^2 times T(Z=1) to leading order: T(2)/(4 T(1)) ~ 1."""
    got = parse_levels(stdout, fmt)
    z1 = parse_levels(z1_stdout, fmt)
    problems = []
    if set(got) != set(z1):
        return [f"states {sorted(got)} != {sorted(z1)}"]
    for state, t2 in got.items():
        ratio = t2 / (4.0 * z1[state])
        if not abs(ratio - 1.0) < QC_Z_SCALING_RTOL:
            problems.append(f"{state}: T(Z=2)/(4 T(Z=1)) = {ratio:.6f}")
    return problems


def _cli_op(command, model, z, states, fmt) -> Op:
    argv = cli_argv(command, model, z, states, fmt)
    key = cli_key(argv)
    qc_scaling = command == "spectrum" and model == "qc" and z != 1

    def run(tracer) -> list:
        with tracer.span("cli.subprocess", command=key):
            proc = run_cli(argv)
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"]
        gold = goldens()["cli_closed"]
        if qc_scaling:
            z1 = gold[cli_key(cli_argv(command, model, 1, states, fmt))]
            return check_qc_z_scaling(proc.stdout.decode(), fmt, z1)
        if proc.stdout.decode() != gold[key]:
            return [f"stdout of `{key}` differs from the recorded bytes"]
        return []

    return Op(key, run, known_defect=qc_scaling)


def _cli_rounds(seed: int):
    rng = random.Random(seed)
    while True:
        commands = list(CLI_COMMANDS)
        rng.shuffle(commands)
        yield [
            _cli_op(command, model, z, rng.choice(STATE_CHOICES), rng.choice(FORMATS))
            for command, model, z in commands
        ]


# --- basis_ladder --------------------------------------------------------------

def ladder_config(nb: int):
    from hlevels import SolverConfig

    return SolverConfig(basis_size=nb, scale_search=False, quad_nodes=max(4096, 2 * nb))


def ladder_levels(l: int, nb: int) -> list:
    from hlevels import default_constants, lowest_levels

    levels = lowest_levels(l, LADDER_COUNT, ladder_config(nb), default_constants())
    return [level.value for level in levels]


def ladder_key(l, nb) -> str:
    return f"{l},{nb}"


def check_ladder(l: int, nb: int, values: list, smaller: list, gold: dict) -> list:
    """Levels agree with the seed's; the ground level never rises with nb.

    `smaller` holds this run's levels at basis size nb/2, when solved.  A
    size the seed could not solve is held to the seed's levels at
    LADDER_SEED_MAX_NB within LADDER_UNSOLVED_ATOL_EV instead.
    """
    problems = []
    if nb <= LADDER_SEED_MAX_NB:
        want, tol = gold[ladder_key(l, nb)], LADDER_ATOL_EV
    else:
        want, tol = gold[ladder_key(l, LADDER_SEED_MAX_NB)], LADDER_UNSOLVED_ATOL_EV
    for k, (got, ref) in enumerate(zip(values, want)):
        if not abs(got - ref) <= tol:
            problems.append(f"l={l} nb={nb} level {k}: {got!r} vs seed {ref!r}")
    if smaller is not None and not values[0] <= smaller[0] + LADDER_NEST_ATOL_EV:
        problems.append(f"l={l}: ground level rose from {smaller[0]!r} to {values[0]!r} at nb={nb}")
    return problems


def _ladder_op(l: int, nb: int, solved: dict) -> Op:
    def run(tracer) -> list:
        with tracer.span("salpeter.lowest_levels", l=l, nb=nb):
            values = ladder_levels(l, nb)
        solved[(l, nb)] = values
        return check_ladder(l, nb, values, solved.get((l, nb // 2)), goldens()["basis_ladder"])

    return Op(f"ladder l={l} nb={nb}", run, known_defect=nb > LADDER_SEED_MAX_NB)


def _ladder_rounds(seed: int):
    # Inputs are fixed; each l is climbed in ascending nb for the nesting check.
    while True:
        solved = {}
        yield [_ladder_op(l, nb, solved) for l in LADDER_L for nb in LADDER_NB]


def _ladder_warm_up():
    ladder_levels(0, LADDER_NB[0])


def _import_only():
    import hlevels  # noqa: F401


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare", _import_only, _compare_rounds),
        Workload("cli_closed", _import_only, _cli_rounds),
        Workload("basis_ladder", _ladder_warm_up, _ladder_rounds),
    )
}
