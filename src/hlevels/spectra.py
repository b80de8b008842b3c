"""Closed-form energy levels for the five analytic models.

All binding energies here ride on rest masses of order 1e9 eV while the
tables quote 8 decimals in eV, so every operation is written in a
cancellation-safe algebraic form.  The naive subtractions they replace are
exercised only by the extended-precision test oracle.

Also home to the ten standard table states and the text/CSV row formatter,
which the closed-form commands and the comparison harness share.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .constants import Constants, DerivedMasses, _checked, derive
from .errors import HlevelsError, SupercriticalCharge

SPECTROSCOPIC_LETTERS = "SPDFGHIK"


@_checked
class QuantumState(NamedTuple):
    """Radial (k) and orbital (l) quantum numbers of a spinless level."""

    k: int
    l: int

    def _check(self):
        if self.k < 0 or self.l < 0:
            raise ValueError(f"quantum numbers must be non-negative: k={self.k}, l={self.l}")

    def n_principal(self) -> int:
        return self.k + self.l + 1

    @property
    def label(self) -> str:
        if self.l >= len(SPECTROSCOPIC_LETTERS):
            raise ValueError(f"no spectroscopic letter for l={self.l}")
        return f"{self.k + 1}{SPECTROSCOPIC_LETTERS[self.l]}"


@_checked
class DiracState(NamedTuple):
    """Principal quantum number n and total angular momentum j.

    j is stored doubled (two_j) so that half-integers never enter hash keys.
    """

    n: int
    two_j: int

    def _check(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.two_j < 1 or self.two_j % 2 == 0:
            raise ValueError(f"two_j must be a positive odd integer, got {self.two_j}")
        if (self.two_j + 1) // 2 > self.n:
            raise ValueError(f"j + 1/2 must not exceed n (n={self.n}, two_j={self.two_j})")


class ComplexMass(NamedTuple):
    """Centered eigenmass: real and imaginary part (MeV)."""

    re: float
    im: float


class EnergyLevel(NamedTuple):
    """A binding energy in eV together with its state."""

    value: float
    state: object


# --- helpers ----------------------------------------------------------------

def _state_name(s: QuantumState) -> str:
    """The state's label, or k:l past the spectroscopic letters, for an error message."""
    return s.label if s.l < len(SPECTROSCOPIC_LETTERS) else f"{s.k}:{s.l}"


def _binding_ev(m_mev: float, x: float, ev_per_mev: float) -> float:
    """m*((1+x)^(-1/2) - 1) in eV without subtractive cancellation.

    Identity: (1+x)^(-1/2) - 1 = -x / (sqrt(1+x)*(1 + sqrt(1+x))).
    """
    s = math.sqrt(1.0 + x)
    return -m_mev * x / (s * (1.0 + s)) * ev_per_mev


def _vector_coulomb_ev(n: int, h: float, z: int, c: Constants) -> float:
    """Vector-Coulomb binding energy in eV at principal number n and h = j+1/2 or l+1/2."""
    za = z * c.alpha
    if za >= h:
        raise SupercriticalCharge(
            f"Z*alpha = {za:.6f} >= angular bound {h}; state destroyed (Z={z})"
        )
    lam = math.sqrt(h * h - za * za)
    x = (za / (n - h + lam)) ** 2
    return _binding_ev(c.m_e, x, c.ev_per_mev)


def _refuse_abnormal(s: QuantumState, c: Constants, z: int, *values: float) -> None:
    """Raise HlevelsError, naming the inputs, unless every value is a normal double.

    Below the normal doubles a quasiclassical level would lose digits, and above them it overflows.
    """
    if not all(sys.float_info.min <= x <= sys.float_info.max for x in values):
        raise HlevelsError(f"quasiclassical {_state_name(s)} at Z = {z}, m_e = {c.m_e} MeV and "
                           f"m_p = {c.m_p} MeV: the inputs exceed the range of double precision")


def _qc_parts(s: QuantumState, d: DerivedMasses, c: Constants, z: int):
    """(v, e2, b, |eps^2|) for the quasiclassical quadratic of the state's N at Z.

    Past v = 1, e_N^2 = m_a^2 (1 - v^2) turns negative and the quadratic
    has no bound root, so v >= 1 raises SupercriticalCharge.  2 b^2, the
    masses' fourth power, must be a normal double, and so must m_a^2.
    """
    n_principal = s.n_principal()
    v = z * c.alpha / (2.0 * n_principal)
    if v >= 1.0:
        raise SupercriticalCharge(
            f"Z*alpha/(2N) = {v:.6f} >= 1 at N = {n_principal:g}; "
            f"no quasiclassical level (Z={z})"
        )
    b = d.m_a * d.m_minus * v
    # equal masses make b = 0 exactly
    _refuse_abnormal(s, c, z, d.m_a * d.m_a, 2.0 * b * b if d.m_minus else 1.0)
    e2 = d.m_a**2 * (1.0 - v * v)
    return v, e2, b, math.hypot(e2, b)


# --- level operations --------------------------------------------------------

def schrodinger_level(
    n_principal: int, c: Constants, use_reduced: bool = False, z: int = 1
) -> EnergyLevel:
    """Nonrelativistic level -m*(Z*alpha)^2/(2 N^2) in eV."""
    if n_principal < 1:
        raise ValueError(f"N must be >= 1, got {n_principal}")
    m = derive(c).mu if use_reduced else c.m_e
    value = -m * (z * c.alpha) ** 2 / (2.0 * n_principal**2) * c.ev_per_mev
    return EnergyLevel(value=value, state=n_principal)


def sommerfeld_level(s: DiracState, z: int, c: Constants) -> EnergyLevel:
    """Fine-structure level from the relativistic vector-Coulomb formula."""
    value = _vector_coulomb_ev(s.n, (s.two_j + 1) / 2.0, z, c)
    return EnergyLevel(value=value, state=s)


def kg_level(s: QuantumState, z: int, c: Constants) -> EnergyLevel:
    """Vector-Coulomb Klein-Gordon level; static equation, bare electron mass."""
    value = _vector_coulomb_ev(s.n_principal(), s.l + 0.5, z, c)
    return EnergyLevel(value=value, state=s)


def scalar_coulomb_level(
    s: QuantumState, z: int, c: Constants, use_reduced: bool = False
) -> EnergyLevel:
    """Scalar-Coulomb level m*(sqrt(1-y^2) - 1); regular for every Z."""
    za = z * c.alpha
    lh = s.l + 0.5
    lam = math.sqrt(lh * lh + za * za)  # plus sign: real for all Z
    n = s.n_principal()
    y = za / (n - lh + lam)
    if y >= 1.0:
        raise ValueError(f"y = {y} >= 1: no bound state")
    m = derive(c).mu if use_reduced else c.m_e
    # sqrt(1-y^2) - 1 = -y^2 / (1 + sqrt(1-y^2))
    value = -m * y * y / (1.0 + math.sqrt(1.0 - y * y)) * c.ev_per_mev
    return EnergyLevel(value=value, state=s)


def qc_root_gaps(
    s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1
) -> tuple[float, float, float]:
    """(s_plus, s_plus - m_minus^2, m_plus^2 - s_plus) in stable closed form.

    The upper gap rationalizes to
        8 m_a^2 v^2 m_e m_p / (m_a^2 (1+v^2) + |eps^2|),
    which is O(v^2) with no cancellation; the lower gap follows from
    m_plus^2 - m_minus^2 = 4 m_e m_p.
    """
    v, e2, b, abs_eps2 = _qc_parts(s, d, c, z)
    s_plus = 2.0 * (e2 + abs_eps2)
    numerator = 8.0 * d.m_a**2 * v * v * c.m_e * c.m_p
    _refuse_abnormal(s, c, z, numerator)
    gap_high = numerator / (d.m_a**2 * (1.0 + v * v) + abs_eps2)
    gap_low = 4.0 * c.m_e * c.m_p - gap_high
    return s_plus, gap_low, gap_high


def qc_complex_mass(s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1) -> ComplexMass:
    """Complex eigenmass M_re + i*M_im of the state.

    M_im^2 = 2(|eps^2| - Re eps^2) is evaluated as 2 b^2/(|eps^2| + e_N^2).
    """
    _, e2, b, abs_eps2 = _qc_parts(s, d, c, z)
    re = math.sqrt(2.0 * (abs_eps2 + e2))
    im = b * math.sqrt(2.0 / (abs_eps2 + e2))
    return ComplexMass(re=re, im=im)


def qc_level(s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1) -> EnergyLevel:
    """Quasiclassical binding energy |M_re| - m_plus in eV.

    Evaluated as (M_re^2 - m_plus^2)/(M_re + m_plus), where the numerator
    reduces to 2 b^2/(|eps^2| + e_N^2) - m_plus^2 v^2: every term is O(v^2),
    so the ~1e-8 relative difference of the masses is never formed by
    subtracting the masses themselves.  Depends on (k, l) only through N.
    Each term is F = m_plus^2/(4 m_e m_p) times the level (460 at CODATA), so the
    level is refused past F = 2^20, where its error F * 2^-52 reaches 2.3e-10.
    """
    v, e2, b, abs_eps2 = _qc_parts(s, d, c, z)
    if d.m_plus / c.m_e * (d.m_plus / c.m_p) > 2.0**22:  # F > 2^20
        raise HlevelsError(f"quasiclassical {_state_name(s)} at m_e = {c.m_e} MeV and m_p = "
                           f"{c.m_p} MeV: its two terms cancel past m_plus^2/(4 m_e m_p) = 2^20")
    re = math.sqrt(2.0 * (abs_eps2 + e2))
    num = 2.0 * b * b / (abs_eps2 + e2) - d.m_plus**2 * v * v
    value = num / (re + d.m_plus) * c.ev_per_mev
    return EnergyLevel(value=value, state=s)


def qc_width(s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1) -> float:
    """Total width Gamma = 2|M_im| in MeV."""
    return 2.0 * abs(qc_complex_mass(s, d, c, z=z).im)


# --- tables ------------------------------------------------------------------

# the ten states of the comparison tables, 1S..3P
TABLE_STATES = (
    QuantumState(0, 0),
    QuantumState(0, 1),
    QuantumState(0, 2),
    QuantumState(0, 3),
    QuantumState(0, 4),
    QuantumState(1, 0),
    QuantumState(1, 1),
    QuantumState(1, 2),
    QuantumState(2, 0),
    QuantumState(2, 1),
)


def format_cell(value, spec: str = "") -> str:
    """A table cell: "" for None, str(value) for a label, and a float as
    format(value, spec), or repr(value) where rounding to spec carries a
    finite float past the largest double, so that no finite value prints as inf."""
    if not isinstance(value, float):
        return "" if value is None else str(value)
    text = format(value, spec)
    if math.isfinite(value) and not math.isfinite(float(text)):
        return repr(value)
    return text


def format_rows(rows, columns, fmt: str) -> str:
    """Header and one line per row, as 'text' or 'csv'.

    Each column is (header, width, cell), where cell(row) gives the string.
    Text right-aligns every cell to its width and joins with one space; CSV
    ignores the widths.
    """
    if fmt == "csv":
        # imported here, so that a command printing text or JSON starts without csv
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([header for header, _, _ in columns])
        writer.writerows([cell(r) for _, _, cell in columns] for r in rows)
        return buf.getvalue()
    lines = [[header for header, _, _ in columns]]
    lines += [[cell(r) for _, _, cell in columns] for r in rows]
    return "".join(
        " ".join(text.rjust(width) for text, (_, width, _) in zip(line, columns)) + "\n"
        for line in lines
    )
