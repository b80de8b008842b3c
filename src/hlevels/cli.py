"""Command-line front end.

Subcommands: spectrum, compare, verify, widths, salpeter, constants.
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 computational error (supercritical charge, ill-conditioned basis, ...),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING

from .constants import Constants, default_constants, derive
from .errors import HlevelsError, ParseError
from .harness import (
    Environment,
    TABLE_STATES,
    builtin_reference,
    format_rows,
    generate_table1,
    generate_table2,
    load_reference_csv,
    table1_to_csv,
    table1_to_text,
    table2_to_csv,
    table2_to_text,
    tables_to_json,
)
from .potential import DEFAULT_LAMBDA_MEV, PotentialParams
from .spectra import (
    DiracState,
    QuantumState,
    SPECTROSCOPIC_LETTERS,
    kg_level,
    qc_level,
    qc_width,
    scalar_coulomb_level,
    schrodinger_level,
    sommerfeld_level,
)

# salpeter and verifier load numpy, most of a cold start: the commands that
# solve import them when they run
if TYPE_CHECKING:
    from .salpeter import SolverConfig

_DEFAULT_LABELS = ",".join(st.label for st in TABLE_STATES)
_VERIFY_LIMIT = 1.0e-5


def parse_state_label(text: str) -> QuantumState:
    """'1S' -> (k=0, l=0), '2P' -> (1, 1); also accepts explicit 'k,l'."""
    text = text.strip()
    if "," in text:
        try:
            k_text, l_text = text.split(",")
            return QuantumState(k=int(k_text), l=int(l_text))
        except ValueError:
            raise ParseError(f"cannot parse state {text!r} as 'k,l'") from None
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
    # labels are comma separated; a 'k,l' pair uses a colon form k:l instead
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            k_text, l_text = part.split(":")
            out.append(parse_state_label(f"{k_text},{l_text}"))
        else:
            out.append(parse_state_label(part))
    if not out:
        raise ParseError(f"no state labels in {text!r}")
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


def _constants_from(args) -> Constants:
    base = default_constants()
    return Constants(
        alpha=args.alpha if args.alpha is not None else base.alpha,
        m_e=args.me_mev if args.me_mev is not None else base.m_e,
        m_p=args.mp_mev if args.mp_mev is not None else base.m_p,
        hbar_c=base.hbar_c,
    )


def _solver_from(args) -> SolverConfig:
    from .salpeter import SolverConfig

    kwargs = {"basis_size": args.basis_size, "scale": args.scale}
    return SolverConfig(**{k: v for k, v in kwargs.items() if v is not None})


def _emit_rows(rows, header, fmt, float_fmt="{:.8f}"):
    """Write dict rows in text/csv/json with deterministic formatting."""
    if fmt == "json":
        sys.stdout.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return
    columns = [
        (h, max(len(h), 14),
         lambda r, h=h: float_fmt.format(r[h]) if isinstance(r[h], float) else str(r[h]))
        for h in header
    ]
    sys.stdout.write(format_rows(rows, columns, fmt))


def _cmd_spectrum(args) -> int:
    if args.reduced_mass and args.model not in ("schrodinger", "scalar"):
        print(f"error: --reduced-mass does not apply to --model {args.model}", file=sys.stderr)
        return 2
    c = _constants_from(args)
    d = derive(c)
    states = _split_states(args.states)
    rows = []
    for st in states:
        if args.model == "schrodinger":
            level = schrodinger_level(st.n_principal(), c, args.reduced_mass, args.z)
        elif args.model == "sommerfeld":
            dirac = DiracState(n=st.n_principal(), two_j=2 * st.l + 1)
            level = sommerfeld_level(dirac, args.z, c)
        elif args.model == "kg":
            level = kg_level(st, args.z, c)
        elif args.model == "scalar":
            level = scalar_coulomb_level(st, args.z, c, use_reduced=args.reduced_mass)
        else:  # qc
            level = qc_level(st, d, c, args.z)
        rows.append({"state": st.label, "model": args.model, "T_eV": level.value})
    _emit_rows(rows, ["state", "model", "T_eV"], args.format)
    return 0


def _cmd_compare(args) -> int:
    if args.z > 1 and not args.reference:
        print(f"error: --z {args.z} needs --reference (built-in is hydrogen)", file=sys.stderr)
        return 2
    c = _constants_from(args)
    reference = load_reference_csv(args.reference) if args.reference else builtin_reference()
    env = Environment(constants=c, solver=_solver_from(args), reference=reference, z=args.z)
    table1 = generate_table1(env=env)
    table2 = generate_table2(env=env, table1=table1)
    if args.format == "json":
        sys.stdout.write(tables_to_json(table1, table2, env))
    elif args.format == "csv":
        sys.stdout.write(table1_to_csv(table1))
        sys.stdout.write(table2_to_csv(table2))
    else:
        sys.stdout.write(table1_to_text(table1))
        sys.stdout.write(table2_to_text(table2))
    return 0


def _cmd_verify(args) -> int:
    from .verifier import verification_report

    c = _constants_from(args)
    d = derive(c)
    params = PotentialParams(alpha=c.alpha, lam=args.lambda_mev, z=args.z)
    rows = verification_report(TABLE_STATES, d, c, params)
    _emit_rows(
        rows,
        ["state", "s_plus", "r1", "r2", "residual", "i_inf_defect"],
        args.format,
        float_fmt="{:.8e}",
    )
    worst = max(abs(r["residual"]) for r in rows)
    if worst > _VERIFY_LIMIT:
        print(f"verification failed: max residual {worst:.3e} > {_VERIFY_LIMIT}",
              file=sys.stderr)
        return 1
    print(f"all residuals within {_VERIFY_LIMIT}", file=sys.stderr)
    return 0


def _cmd_widths(args) -> int:
    c = _constants_from(args)
    d = derive(c)
    rows = [
        {"state": st.label, "gamma_MeV": qc_width(st, d, c, args.z)}
        for st in _split_states(args.states)
    ]
    _emit_rows(rows, ["state", "gamma_MeV"], args.format, float_fmt="{:.6f}")
    return 0


def _cmd_salpeter(args) -> int:
    from .salpeter import salpeter_levels

    c = _constants_from(args)
    cfg = _solver_from(args)
    levels = salpeter_levels(_split_states(args.states), cfg, c, z=args.z)
    rows = [{"state": st.label, "T_eV": value} for st, value in levels.items()]
    _emit_rows(rows, ["state", "T_eV"], args.format)
    return 0


def _cmd_constants(args) -> int:
    c = _constants_from(args)
    d = derive(c)
    rows = [{"name": k, "value": v} for k, v in sorted(asdict(c).items())]
    rows += [{"name": f"derived.{k}", "value": v} for k, v in sorted(asdict(d).items())]
    _emit_rows(rows, ["name", "value"], args.format, float_fmt="{:.10g}")
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--me-mev", type=float, default=None)
    p.add_argument("--mp-mev", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hlevels",
                                     description="Relativistic hydrogen level models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form level energies")
    p.add_argument("--model", choices=("schrodinger", "sommerfeld", "kg", "scalar", "qc"),
                   default="qc")
    p.add_argument("--states", default=_DEFAULT_LABELS)
    p.add_argument("--reduced-mass", action="store_true")
    _add_common(p)
    p.add_argument("--z", type=_nuclear_charge, default=1)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("compare", help="regenerate the comparison tables")
    p.add_argument("--reference", default=None, help="reference CSV (default: builtin, Z=1 only)")
    p.add_argument("--basis-size", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
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
    p.add_argument("--scale", type=float, default=None)
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
    try:
        return args.func(args)
    except (HlevelsError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
