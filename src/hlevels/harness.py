"""Reference-data ingestion and regeneration of the comparison tables.

Builds the ten-state comparison grid (Klein-Gordon, spinless Salpeter,
quasiclassical, reference) in machine-readable form, recomputes the
relative-accuracy table from those live values, and annotates each cell
MATCH or MISMATCH against the previously published numbers.  Published
epsilon values are only ever compared against, never copied into output.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .constants import Constants, _checked, default_constants, derive
from .errors import DuplicateState, HlevelsError, ParseError
from .salpeter import SolverConfig, salpeter_levels
from .spectra import (
    TABLE_STATES,
    QuantumState,
    format_cell,
    format_rows,
    kg_level,
    qc_complex_mass,
    qc_level,
)

MODELS = ("kg", "ss", "qc", "nist")

# Reference level energies (eV), spin-averaged, as published.
_REFERENCE_EV = {
    QuantumState(0, 0): -13.59843445,
    QuantumState(0, 1): -3.39959812,
    QuantumState(0, 2): -1.51092434,
    QuantumState(0, 3): -0.84989357,
    QuantumState(0, 4): -0.54393196,
    QuantumState(1, 0): -3.39962387,
    QuantumState(1, 1): -1.51093197,
    QuantumState(1, 2): -0.84989548,
    QuantumState(2, 0): -1.51093960,
    QuantumState(2, 1): -0.84989834,
}

# Published relative accuracies (percent) and imaginary masses (MeV), used
# only for MATCH/MISMATCH annotation.  The 2S quasiclassical entry is kept
# with the exponent consistent with the underlying energies (1.87e-3, not
# the misprinted 1.87e-4).
_PUBLISHED_EPS = {
    "kg": (6.00e-2, 5.45e-2, 5.45e-2, 5.45e-2, 5.45e-2,
           5.73e-2, 5.45e-2, 5.54e-2, 5.63e-2, 5.45e-2),
    "ss": (4.41e-2, 5.22e-2, 5.37e-2, 5.41e-2, 5.42e-2,
           4.79e-2, 5.27e-2, 5.37e-2, 4.98e-2, 5.30e-2),
    "qc": (2.41e-3, 1.11e-3, 2.41e-3, 3.84e-4, 1.59e-4,
           1.87e-3, 8.89e-3, 3.84e-4, 1.39e-3, 7.20e-4),
}
_PUBLISHED_M_IM = (3.421587, 1.710793, 1.140530, 0.855397, 0.684317,
                   1.710793, 1.140530, 0.855397, 1.140530, 0.855397)

_EPS_MATCH_RTOL = 0.02


@_checked
class ReferenceDataset(NamedTuple):
    """Map from quantum state to reference binding energy (eV)."""

    entries: dict
    source: str = "builtin"

    def _check(self):
        for state, value in self.entries.items():
            if value >= 0.0:
                raise ValueError(f"reference energy for {state.label} must be negative")
            if not math.isfinite(value):
                raise ValueError(f"reference energy for {state.label} must be finite, got {value}")


class Environment(NamedTuple):
    """Shared inputs for table generation: by default the frozen constants,
    the default solver and the built-in reference, for hydrogen."""

    constants: Constants = default_constants()
    solver: SolverConfig = SolverConfig()
    reference: ReferenceDataset = None
    z: int = 1


def builtin_reference() -> ReferenceDataset:
    """The ten tabulated reference states 1S..3P."""
    return ReferenceDataset(entries=dict(_REFERENCE_EV), source="builtin")


def load_reference_csv(path) -> ReferenceDataset:
    """Parse a reference dataset CSV with header state,k,l,T_eV.

    Lines starting with '#' and blank lines are skipped.  Raises
    ParseError with the offending line number, DuplicateState on repeats.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    entries = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if [f.strip() for f in line.split(",")] != ["state", "k", "l", "T_eV"]:
                raise ParseError("expected header 'state,k,l,T_eV'", line=lineno)
            header_seen = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=lineno)
        label, k_text, l_text, t_text = fields
        try:
            k, l = int(k_text), int(l_text)
            value = float(t_text)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        try:
            state = QuantumState(k=k, l=l)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if label != state.label:
            raise ParseError(f"label {label!r} does not match (k={k}, l={l})", line=lineno)
        if state in entries:
            raise DuplicateState(f"state {label} appears more than once (line {lineno})")
        if not -math.inf < value < 0.0:
            raise ParseError(f"binding energy must be negative and finite, got {value}",
                             line=lineno)
        entries[state] = value
    return ReferenceDataset(entries=entries, source=str(path))


def _unless_refused(value):
    """value(), or None where a model refuses the input: the one path to an empty cell."""
    try:
        return value()
    except HlevelsError:
        return None


def generate_table1(env: Environment) -> list[dict]:
    """Rows of the energy-comparison table, one per state of TABLE_STATES.

    Each row maps 'state' to the label and each model name to its energy
    in eV, or None when that cell fails to compute.
    """
    reference = env.reference or builtin_reference()
    ss_values = {}
    # one solve per l, so that a channel that fails empties only its own cells
    for l in sorted({st.l for st in TABLE_STATES}):
        ss_values.update(_unless_refused(
            lambda: salpeter_levels([st for st in TABLE_STATES if st.l == l],
                                    env.solver, env.constants, z=env.z)) or {})
    d = derive(env.constants)
    return [
        {
            "state": st.label,
            "kg": _unless_refused(lambda: kg_level(st, env.z, env.constants).value),
            "ss": ss_values.get(st),
            "qc": _unless_refused(lambda: qc_level(st, d, env.constants, env.z).value),
            "nist": reference.entries.get(st),
        }
        for st in TABLE_STATES
    ]


def _flag(value, published: float) -> str:
    """MATCH within _EPS_MATCH_RTOL of the published number, else MISMATCH; UNAVAILABLE for None."""
    if value is None:
        return "UNAVAILABLE"
    return "MATCH" if abs(value - published) <= _EPS_MATCH_RTOL * abs(published) else "MISMATCH"


def generate_table2(env: Environment, table1: list[dict]) -> list[dict]:
    """Relative-accuracy rows recomputed from live table-1 values.

    Each row carries eps_kg/eps_ss/eps_qc (percent), m_im (MeV), and a
    'flags' dict marking every cell MATCH or MISMATCH against the
    published number at 2% relative tolerance (UNAVAILABLE when the
    underlying energy or m_im could not be computed).
    """
    if [t1["state"] for t1 in table1] != [st.label for st in TABLE_STATES]:
        raise ValueError("table 1 rows must cover the standard ten states in order")
    d = derive(env.constants)
    rows = []
    for i, (st, t1) in enumerate(zip(TABLE_STATES, table1)):
        t_ref = t1.get("nist")
        # epsilon = |(t_model - t_ref)/t_ref| * 100 in percent; no reference energy is 0
        eps = {m: None if t1.get(m) is None or t_ref is None
               else abs((t1[m] - t_ref) / t_ref) * 100.0 for m in ("kg", "ss", "qc")}
        m_im = _unless_refused(lambda: abs(qc_complex_mass(st, d, env.constants, z=env.z).im))
        flags = {m: _flag(value, _PUBLISHED_EPS[m][i]) for m, value in eps.items()}
        flags["m_im"] = _flag(m_im, _PUBLISHED_M_IM[i])
        rows.append({"state": st.label, "flags": flags,
                     **{f"eps_{m}": value for m, value in eps.items()}, "m_im": m_im})
    return rows


# --- serialization -----------------------------------------------------------

def _cell(key: str, spec: str = ""):
    """Cell that formats row[key] with spec; without one, a float prints in round-trip form."""
    return lambda r: format_cell(r.get(key), spec)


# the columns of each table by format: (header, text width, cell)
_TABLE1 = {
    "text": [("state", 5, _cell("state"))] + [
        (f"T_{name}", 14, _cell(m, ".8f")) for name, m in zip(("KG", "SS", "QC", "ref"), MODELS)
    ],
    "csv": [(key, 0, _cell(key)) for key in ("state", *MODELS)],
}
_TABLE2 = {
    "text": (
        [("state", 5, _cell("state"))]
        + [(f"eps_{m.upper()}", 10, _cell(f"eps_{m}", ".3e")) for m in ("kg", "ss", "qc")]
        + [("M_im", 10, _cell("m_im", ".6f")),
           # the flags sit two spaces after M_im
           (" flags", 0, lambda r: " " + ",".join(f"{k}={v}" for k, v in r["flags"].items()))]
    ),
    "csv": (
        [(key, 0, _cell(key)) for key in ("state", "eps_kg", "eps_ss", "eps_qc", "m_im")]
        + [(f"flag_{k}", 0, lambda r, k=k: r["flags"][k]) for k in ("kg", "ss", "qc", "m_im")]
    ),
}


def format_tables(table1, table2, fmt: str) -> str:
    """Both tables, energies first, as 'text' or 'csv'.

    The CSV prints each number in its shortest round-trip form, as the JSON does.
    """
    return format_rows(table1, _TABLE1[fmt], fmt) + format_rows(table2, _TABLE2[fmt], fmt)


def tables_to_json(table1, table2, env: Environment) -> str:
    mismatches = [
        {"state": r["state"], "column": column, "flag": flag}
        for r in table2
        for column, flag in r["flags"].items()
        if flag != "MATCH"
    ]
    doc = {
        "table": {"energies": table1, "accuracies": table2},
        "models": list(MODELS),
        "constants": env.constants._asdict(),
        "mismatches": mismatches,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
