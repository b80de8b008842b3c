"""Reference-data ingestion and regeneration of the comparison tables.

Builds the ten-state comparison grid (Klein-Gordon, spinless Salpeter,
quasiclassical, reference) in machine-readable form, recomputes the
relative-accuracy table from those live values, and annotates each cell
MATCH or MISMATCH against the previously published numbers.  Published
epsilon values are only ever compared against, never copied into output.
"""

from __future__ import annotations

import json
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
        if value >= 0.0:
            raise ParseError(f"binding energy must be negative, got {value}", line=lineno)
        entries[state] = value
    return ReferenceDataset(entries=entries, source=str(path))


def relative_error(t_model: float, t_ref: float) -> float:
    """epsilon = |(t_model - t_ref)/t_ref| * 100, in percent."""
    if t_ref == 0.0:
        raise ZeroDivisionError("reference energy is zero")
    return abs((t_model - t_ref) / t_ref) * 100.0


def generate_table1(env: Environment) -> list[dict]:
    """Rows of the energy-comparison table, one per state of TABLE_STATES.

    Each row maps 'state' to the label and each model name to its energy
    in eV, or None when that cell fails to compute.
    """
    reference = env.reference or builtin_reference()
    ss_values = {}
    # one solve per l, so that a channel that fails empties only its own cells
    for l in sorted({st.l for st in TABLE_STATES}):
        try:
            ss_values.update(salpeter_levels([st for st in TABLE_STATES if st.l == l],
                                             env.solver, env.constants, z=env.z))
        except HlevelsError:
            pass
    d = derive(env.constants)
    rows = []
    for st in TABLE_STATES:
        row = {"state": st.label}
        for model in MODELS:
            try:
                if model == "kg":
                    row[model] = kg_level(st, env.z, env.constants).value
                elif model == "qc":
                    row[model] = qc_level(st, d, env.constants, env.z).value
                elif model == "ss":
                    row[model] = ss_values.get(st)
                else:  # nist
                    row[model] = reference.entries.get(st)
            except HlevelsError:
                row[model] = None
        rows.append(row)
    return rows


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
        row = {"state": st.label, "flags": {}}
        for model in ("kg", "ss", "qc"):
            value = t1.get(model)
            if value is None or t_ref is None:
                row[f"eps_{model}"] = None
                row["flags"][model] = "UNAVAILABLE"
                continue
            eps = relative_error(value, t_ref)
            row[f"eps_{model}"] = eps
            published = _PUBLISHED_EPS[model][i]
            ok = abs(eps - published) <= _EPS_MATCH_RTOL * abs(published)
            row["flags"][model] = "MATCH" if ok else "MISMATCH"
        try:
            m_im = abs(qc_complex_mass(st, d, env.constants, z=env.z).im)
        except HlevelsError:
            row["m_im"] = None
            row["flags"]["m_im"] = "UNAVAILABLE"
        else:
            row["m_im"] = m_im
            ok = abs(m_im - _PUBLISHED_M_IM[i]) <= _EPS_MATCH_RTOL * _PUBLISHED_M_IM[i]
            row["flags"]["m_im"] = "MATCH" if ok else "MISMATCH"
        rows.append(row)
    return rows


# --- serialization -----------------------------------------------------------

def _cell(key: str, spec: str = ""):
    """Cell that formats row[key] with spec, or is empty when it is None."""
    return lambda r: "" if r.get(key) is None else format_cell(r[key], spec)


_TABLE1_TEXT = [("state", 5, _cell("state"))] + [
    (f"T_{name}", 14, _cell(m, ".8f")) for name, m in zip(("KG", "SS", "QC", "ref"), MODELS)
]
_TABLE1_CSV = [("state", 0, _cell("state"))] + [(m, 0, _cell(m, ".17g")) for m in MODELS]
_TABLE2_TEXT = (
    [("state", 5, _cell("state"))]
    + [(f"eps_{m.upper()}", 10, _cell(f"eps_{m}", ".3e")) for m in ("kg", "ss", "qc")]
    + [("M_im", 10, _cell("m_im", ".6f")),
       # the flags sit two spaces after M_im
       (" flags", 0, lambda r: " " + ",".join(f"{k}={v}" for k, v in r["flags"].items()))]
)
_TABLE2_CSV = (
    [("state", 0, _cell("state"))]
    + [(f"eps_{m}", 0, _cell(f"eps_{m}", ".17g")) for m in ("kg", "ss", "qc")]
    + [("m_im", 0, _cell("m_im", ".6f"))]
    + [(f"flag_{k}", 0, lambda r, k=k: r["flags"][k]) for k in ("kg", "ss", "qc", "m_im")]
)


def table1_to_text(rows) -> str:
    return format_rows(rows, _TABLE1_TEXT, "text")


def table2_to_text(rows) -> str:
    return format_rows(rows, _TABLE2_TEXT, "text")


def table1_to_csv(rows) -> str:
    """Round-trippable CSV (17 significant digits)."""
    return format_rows(rows, _TABLE1_CSV, "csv")


def table2_to_csv(rows) -> str:
    return format_rows(rows, _TABLE2_CSV, "csv")


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
