"""Closed-form energy levels for the five analytic models.

All binding energies here ride on rest masses of order 1e9 eV while the
tables quote 8 decimals in eV, so every operation is written in a
cancellation-safe algebraic form.  The naive subtractions they replace are
exercised only by the extended-precision test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import Constants, DerivedMasses, derive
from .errors import SupercriticalCharge

SPECTROSCOPIC_LETTERS = "SPDFGHIK"


@dataclass(frozen=True, order=True)
class QuantumState:
    """Radial (k) and orbital (l) quantum numbers of a spinless level."""

    k: int
    l: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0:
            raise ValueError(f"quantum numbers must be non-negative: k={self.k}, l={self.l}")

    def n_principal(self) -> int:
        return self.k + self.l + 1

    @property
    def label(self) -> str:
        if self.l >= len(SPECTROSCOPIC_LETTERS):
            raise ValueError(f"no spectroscopic letter for l={self.l}")
        return f"{self.k + 1}{SPECTROSCOPIC_LETTERS[self.l]}"


@dataclass(frozen=True)
class DiracState:
    """Principal quantum number n and total angular momentum j.

    j is stored doubled (two_j) so that half-integers never enter hash keys.
    """

    n: int
    two_j: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.two_j < 1 or self.two_j % 2 == 0:
            raise ValueError(f"two_j must be a positive odd integer, got {self.two_j}")
        if (self.two_j + 1) // 2 > self.n:
            raise ValueError(f"j + 1/2 must not exceed n (n={self.n}, two_j={self.two_j})")

    @property
    def j(self) -> float:
        return self.two_j / 2.0


@dataclass(frozen=True)
class ComplexMass:
    """Centered eigenmass: real part, imaginary part and branch sign."""

    re: float
    im: float
    sign: int = 1

    def width(self) -> float:
        # total width Gamma = 2|M_im|
        return 2.0 * abs(self.im)


@dataclass(frozen=True)
class EnergyLevel:
    """A binding energy in eV together with its model tag and state."""

    value: float
    model: str
    state: object


# --- helpers ----------------------------------------------------------------

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


def _qc_parts(n_principal: float, d: DerivedMasses, c: Constants, z: int):
    """(v, e2, b, |eps^2|) for the quasiclassical quadratic at given N and Z.

    Past v = 1, e_N^2 = m_a^2 (1 - v^2) turns negative and the quadratic
    has no bound root, so v >= 1 raises SupercriticalCharge.
    """
    v = z * c.alpha / (2.0 * n_principal)
    if v >= 1.0:
        raise SupercriticalCharge(
            f"Z*alpha/(2N) = {v:.6f} >= 1 at N = {n_principal:g}; "
            f"no quasiclassical level (Z={z})"
        )
    e2 = d.m_a**2 * (1.0 - v * v)
    b = d.m_a * d.m_minus * v
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
    return EnergyLevel(value=value, model="schrodinger", state=n_principal)


def sommerfeld_level(s: DiracState, z: int, c: Constants) -> EnergyLevel:
    """Fine-structure level from the relativistic vector-Coulomb formula."""
    value = _vector_coulomb_ev(s.n, (s.two_j + 1) / 2.0, z, c)
    return EnergyLevel(value=value, model="sommerfeld", state=s)


def kg_level(s: QuantumState, z: int, c: Constants) -> EnergyLevel:
    """Vector-Coulomb Klein-Gordon level; static equation, bare electron mass."""
    value = _vector_coulomb_ev(s.n_principal(), s.l + 0.5, z, c)
    return EnergyLevel(value=value, model="kg", state=s)


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
    return EnergyLevel(value=value, model="scalar", state=s)


def qc_squared_mass(
    s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1
) -> tuple[float, float]:
    """Both real roots (s_plus, s_minus) of the eigenmass quadratic, in MeV^2.

    s_pm = 2 e_N^2 +- 2 sqrt(e_N^4 + b^2); the minus root is written as
    -2 b^2/(|eps^2| + e_N^2) to avoid subtracting near-equal quantities.
    """
    _, e2, b, abs_eps2 = _qc_parts(s.n_principal(), d, c, z)
    s_plus = 2.0 * (e2 + abs_eps2)
    s_minus = -2.0 * b * b / (abs_eps2 + e2)
    return s_plus, s_minus


def qc_root_gaps(
    s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1
) -> tuple[float, float, float]:
    """(s_plus, s_plus - m_minus^2, m_plus^2 - s_plus) in stable closed form.

    The upper gap rationalizes to
        8 m_a^2 v^2 m_e m_p / (m_a^2 (1+v^2) + |eps^2|),
    which is O(v^2) with no cancellation; the lower gap follows from
    m_plus^2 - m_minus^2 = 4 m_e m_p.
    """
    v, e2, b, abs_eps2 = _qc_parts(s.n_principal(), d, c, z)
    s_plus = 2.0 * (e2 + abs_eps2)
    gap_high = (8.0 * d.m_a**2 * v * v * c.m_e * c.m_p) / (d.m_a**2 * (1.0 + v * v) + abs_eps2)
    gap_low = 4.0 * c.m_e * c.m_p - gap_high
    return s_plus, gap_low, gap_high


def qc_complex_mass(
    s: QuantumState, d: DerivedMasses, c: Constants, antiparticle: bool = False, z: int = 1
) -> ComplexMass:
    """Complex eigenmass M_re + i*M_im of the state (or its negative branch).

    M_im^2 = 2(|eps^2| - Re eps^2) is evaluated as 2 b^2/(|eps^2| + e_N^2).
    """
    _, e2, b, abs_eps2 = _qc_parts(s.n_principal(), d, c, z)
    re = math.sqrt(2.0 * (abs_eps2 + e2))
    im = b * math.sqrt(2.0 / (abs_eps2 + e2))
    sign = -1 if antiparticle else 1
    return ComplexMass(re=sign * re, im=sign * im, sign=sign)


def qc_level(s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1) -> EnergyLevel:
    """Quasiclassical binding energy |M_re| - m_plus in eV.

    Evaluated as (M_re^2 - m_plus^2)/(M_re + m_plus), where the numerator
    reduces to 2 b^2/(|eps^2| + e_N^2) - m_plus^2 v^2: every term is O(v^2),
    so the ~1e-8 relative difference of the masses is never formed by
    subtracting the masses themselves.  Depends on (k, l) only through N.
    """
    v, e2, b, abs_eps2 = _qc_parts(s.n_principal(), d, c, z)
    re = math.sqrt(2.0 * (abs_eps2 + e2))
    num = 2.0 * b * b / (abs_eps2 + e2) - d.m_plus**2 * v * v
    value = num / (re + d.m_plus) * c.ev_per_mev
    return EnergyLevel(value=value, model="qc", state=s)


def qc_width(s: QuantumState, d: DerivedMasses, c: Constants, z: int = 1) -> float:
    """Total width Gamma = 2|M_im| in MeV."""
    return qc_complex_mass(s, d, c, z=z).width()


def critical_z(model: str, angular, c: Constants) -> int:
    """Largest integer Z for which the level still exists.

    model='sommerfeld' takes j (half-integer), model='kg' takes l (integer);
    the bound is Z*alpha < angular + 1/2 in both cases.
    """
    if model not in ("sommerfeld", "kg"):
        raise ValueError(f"unknown model {model!r}")
    threshold = angular + 0.5
    z = math.floor(threshold / c.alpha)
    while z * c.alpha >= threshold:
        z -= 1
    return z
