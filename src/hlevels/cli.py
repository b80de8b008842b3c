"""Command-line front end.

Subcommands: spectrum, compare, verify, widths, salpeter, constants.
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 computational error (supercritical charge, ill-conditioned basis, ...),
2 usage error.

The console script and `python -m hlevels.cli` enter through `entry()`,
which runs BLAS on one thread unless the user chose a thread count, and
ends the process without interpreter teardown once its output is flushed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NoReturn

from .constants import Constants, default_constants, derive
from .errors import HlevelsError, ParseError
from .potential import DEFAULT_LAMBDA_MEV, PotentialParams
from .spectra import (
    SPECTROSCOPIC_LETTERS,
    TABLE_STATES,
    DiracState,
    QuantumState,
    format_cell,
    format_rows,
    kg_level,
    qc_level,
    qc_width,
    scalar_coulomb_level,
    schrodinger_level,
    sommerfeld_level,
)
# salpeter and verifier load numpy, most of a cold start, and harness is
# compare's alone: the commands that use them import them when they run

# the variables OpenBLAS, MKL and OpenMP read their thread count from
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_DEFAULT_LABELS = ",".join(st.label for st in TABLE_STATES)
_VERIFY_LIMIT = 1.0e-5


def parse_state_label(text: str) -> QuantumState:
    """'1S' -> (k=0, l=0), '2P' -> (1, 1); also accepts an explicit 'k:l'."""
    text = text.strip()
    if ":" in text:
        try:
            k_text, l_text = text.split(":")
            return QuantumState(k=int(k_text), l=int(l_text))
        except ValueError:
            raise ParseError(f"cannot parse state {text!r} as 'k:l'") from None
    if len(text) < 2:
        raise ParseError(f"state label too short: {text!r}")
    head, letter = text[:-1], text[-1].upper()
    if letter not in SPECTROSCOPIC_LETTERS:
        raise ParseError(f"unknown spectroscopic letter {text[-1]!r}")
    try:
        radial = int(head)
    except ValueError:
        raise ParseError(f"bad radial number in {text!r}") from None
    if radial < 1:
        raise ParseError(f"radial number must be >= 1 in {text!r}")
    return QuantumState(k=radial - 1, l=SPECTROSCOPIC_LETTERS.index(letter))


def _split_states(text: str) -> list[QuantumState]:
    # labels are comma separated, so a pair takes the form k:l
    out = [parse_state_label(part) for part in text.split(",") if part.strip()]
    if not out:
        raise ParseError(f"no state labels in {text!r}")
    for state in out:
        state.label  # every command prints it: an l past the letters is refused before any solve
    return out


def _nuclear_charge(text: str) -> int:
    """argparse type of --z: an integer Z >= 1, as PotentialParams requires."""
    try:
        z = int(text)
    except ValueError:
        z = 0
    if z < 1:
        raise argparse.ArgumentTypeError(f"Z must be an integer >= 1, got {text!r}")
    return z


def _solver_from(args):
    from .salpeter import SolverConfig

    return SolverConfig() if args.basis_size is None else SolverConfig(basis_size=args.basis_size)


def _refuse_non_finite(rows):
    """Raise OverflowError before any output when a row holds a number that is not finite.

    The formulas overflow only at extreme inputs, such as masses near 1e150 MeV.
    """
    for r in rows:
        for name, value in r.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise OverflowError(f"{name} of {next(iter(r.values()))} is {value}")


def _emit_rows(rows, header, fmt, float_spec=".8f"):
    """Write dict rows in text/csv/json with deterministic formatting."""
    _refuse_non_finite(rows)
    if fmt == "json":
        sys.stdout.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return
    columns = [(h, max(len(h), 14), lambda r, h=h: format_cell(r[h], float_spec)) for h in header]
    sys.stdout.write(format_rows(rows, columns, fmt))


# spectrum's --model choices: each model's level of a state from (derive(c), c, Z, --reduced-mass)
_MODELS = {
    "schrodinger": lambda st, d, c, z, reduced: schrodinger_level(st.n_principal(), c, reduced, z),
    "sommerfeld": lambda st, d, c, z, reduced: sommerfeld_level(
        DiracState(n=st.n_principal(), two_j=2 * st.l + 1), z, c),
    "kg": lambda st, d, c, z, reduced: kg_level(st, z, c),
    "scalar": lambda st, d, c, z, reduced: scalar_coulomb_level(st, z, c, use_reduced=reduced),
    "qc": lambda st, d, c, z, reduced: qc_level(st, d, c, z),
}
_REDUCED_MASS_MODELS = ("schrodinger", "scalar")  # --reduced-mass reaches these alone


def _cmd_spectrum(args, c: Constants) -> int:
    if args.reduced_mass and args.model not in _REDUCED_MASS_MODELS:
        print(f"error: --reduced-mass does not apply to --model {args.model}", file=sys.stderr)
        return 2
    d = derive(c)  # refuses masses whose sum overflows, whatever the model
    level_of = _MODELS[args.model]
    rows = [{"state": st.label, "model": args.model,
             "T_eV": level_of(st, d, c, args.z, args.reduced_mass).value}
            for st in _split_states(args.states)]
    _emit_rows(rows, ["state", "model", "T_eV"], args.format)
    return 0


def _cmd_compare(args, c: Constants) -> int:
    from .harness import (
        Environment,
        builtin_reference,
        format_tables,
        generate_table1,
        generate_table2,
        load_reference_csv,
        tables_to_json,
    )

    if args.z > 1 and not args.reference:
        print(f"error: --z {args.z} needs --reference (built-in is hydrogen)", file=sys.stderr)
        return 2
    reference = load_reference_csv(args.reference) if args.reference else builtin_reference()
    env = Environment(constants=c, solver=_solver_from(args), reference=reference, z=args.z)
    table1 = generate_table1(env=env)
    table2 = generate_table2(env=env, table1=table1)
    _refuse_non_finite(table1 + table2)
    sys.stdout.write(tables_to_json(table1, table2, env) if args.format == "json"
                     else format_tables(table1, table2, args.format))
    return 0


def _cmd_verify(args, c: Constants) -> int:
    from .verifier import verification_report

    d = derive(c)
    params = PotentialParams(alpha=c.alpha, lam=args.lambda_mev, z=args.z)
    rows = verification_report(TABLE_STATES, d, c, params)
    _emit_rows(
        rows,
        ["state", "s_plus", "r1", "r2", "residual", "i_inf_defect"],
        args.format,
        float_spec=".8e",
    )
    worst = max(abs(r["residual"]) for r in rows)
    if worst > _VERIFY_LIMIT:
        print(f"verification failed: max residual {worst:.3e} > {_VERIFY_LIMIT}",
              file=sys.stderr)
        return 1
    print(f"all residuals within {_VERIFY_LIMIT}", file=sys.stderr)
    return 0


def _cmd_widths(args, c: Constants) -> int:
    d = derive(c)
    rows = [
        {"state": st.label, "gamma_MeV": qc_width(st, d, c, args.z)}
        for st in _split_states(args.states)
    ]
    _emit_rows(rows, ["state", "gamma_MeV"], args.format, float_spec=".6f")
    return 0


def _cmd_salpeter(args, c: Constants) -> int:
    from .salpeter import salpeter_levels

    cfg = _solver_from(args)
    levels = salpeter_levels(_split_states(args.states), cfg, c, z=args.z)
    rows = [{"state": st.label, "T_eV": value} for st, value in levels.items()]
    _emit_rows(rows, ["state", "T_eV"], args.format)
    return 0


def _cmd_constants(args, c: Constants) -> int:
    d = derive(c)
    rows = [{"name": k, "value": v} for k, v in sorted(c._asdict().items())]
    rows += [{"name": f"derived.{k}", "value": v} for k, v in sorted(d._asdict().items())]
    _emit_rows(rows, ["name", "value"], args.format, float_spec=".10g")
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    codata = default_constants()
    p.add_argument("--alpha", type=float, default=codata.alpha)
    p.add_argument("--me-mev", type=float, default=codata.m_e)
    p.add_argument("--mp-mev", type=float, default=codata.m_p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hlevels",
                                     description="Relativistic hydrogen level models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form level energies")
    p.add_argument("--model", choices=tuple(_MODELS), default="qc")
    p.add_argument("--states", default=_DEFAULT_LABELS)
    p.add_argument("--reduced-mass", action="store_true")
    _add_common(p)
    p.add_argument("--z", type=_nuclear_charge, default=1)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("compare", help="regenerate the comparison tables")
    p.add_argument("--reference", default=None, help="reference CSV (default: builtin, Z=1 only)")
    p.add_argument("--basis-size", type=int, default=None)
    _add_common(p)
    p.add_argument("--z", type=_nuclear_charge, default=1)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="quasiclassical quantization check")
    p.add_argument("--lambda-mev", type=float, default=DEFAULT_LAMBDA_MEV)
    _add_common(p)
    p.add_argument("--z", type=_nuclear_charge, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("widths", help="level widths Gamma = 2|M_im|")
    p.add_argument("--states", default=_DEFAULT_LABELS)
    _add_common(p)
    p.add_argument("--z", type=_nuclear_charge, default=1)
    p.set_defaults(func=_cmd_widths)

    p = sub.add_parser("salpeter", help="variational Salpeter levels")
    p.add_argument("--states", default=_DEFAULT_LABELS)
    p.add_argument("--basis-size", type=int, default=None)
    _add_common(p)
    p.add_argument("--z", type=_nuclear_charge, default=1)
    p.set_defaults(func=_cmd_salpeter)

    p = sub.add_parser("constants", help="print the constant set in use")
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    if sys.stdout is None:  # file descriptor 1 was closed when Python started
        print("error: standard output is closed", file=sys.stderr)
        return 1
    try:
        return args.func(args, Constants(alpha=args.alpha, m_e=args.me_mev, m_p=args.mp_mev))
    except (HlevelsError, ValueError, ArithmeticError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, (OverflowError, FloatingPointError)):
            message += ": the inputs exceed the range of double precision"
        print(f"error: {message}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """Process entry point: main() with BLAS on one thread unless the user set a
    count, then the end of the process as soon as its output is flushed.

    The solver's 64 x 64 products are too small for a thread pool to pay: on
    two cores the default pool costs `compare` 1.7 times the CPU for no wall
    time.  The variable must be set before numpy loads; main() leaves the
    environment of in-process callers alone.

    os._exit skips the interpreter's teardown (atexit handlers, module and
    object finalization, a last garbage collection): 13 ms of CPU time after
    a cold closed-form command has written its output, 29 ms with numpy loaded.  An exception main() does not
    catch still ends with Python's traceback.  A flush that fails (a closed
    pipe, no stdout) exits 1.
    """
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OMP_NUM_THREADS"] = "1"
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError):
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
