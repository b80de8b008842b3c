"""Numerical verification of the quasiclassical machinery.

Checks that the closed-form eigenmasses really solve the quantization
condition: turning points of the radial radicand are located by
bracketing + bisection, the phase-space integral between them is done by
quadrature with an endpoint-singularity-removing substitution, and the
result is compared against pi*(k + 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import Constants, DerivedMasses
from .errors import NoBoundRegion, QuadratureFailure
from .potential import PotentialParams, potential_r
from .spectra import QuantumState, qc_root_gaps

_SCAN_POINTS = 3000
_SCAN_LOG10_LO = -6.0
_SCAN_LOG10_HI = 9.0
_BISECT_RTOL = 4.0 * np.finfo(float).eps  # well below the 1e-13 requirement


def angular_eigenmomentum(l: int) -> float:
    """Quasiclassical angular eigenvalue l + 1/2 (potential-independent)."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return l + 0.5


@dataclass(frozen=True)
class RadialProblem:
    """Radial radicand K(s)*[s - M(r)^2] - (l+1/2)^2/r^2 at trial mass^2 s.

    s_gap_high holds m_plus^2 - s.  When s is a root of the eigenmass
    quadratic the gap is supplied in closed form (see qc_root_gaps); the
    radicand then expands the square of the mass function so that the
    near-total cancellation of s against m_plus^2 never occurs in floats.
    """

    s: float
    l: int
    params: PotentialParams
    derived: DerivedMasses
    s_gap_high: float = None  # m_plus^2 - s; computed if omitted
    k_factor: float = field(init=False)
    m_l: float = field(init=False)

    def __post_init__(self):
        if self.s_gap_high is None:
            object.__setattr__(self, "s_gap_high", self.derived.m_plus**2 - self.s)
        object.__setattr__(self, "k_factor", (1.0 - self.derived.m_minus**2 / self.s) / 4.0)
        object.__setattr__(self, "m_l", angular_eigenmomentum(self.l))

    def radicand(self, r: float) -> float:
        return self.p_squared(r) - (self.m_l / r) ** 2

    def p_squared(self, r: float) -> float:
        """Squared relative momentum K(s)*[s - M(r)^2]."""
        # s - M(r)^2 = (s - m_plus^2) - W*(2 m_plus + W)
        w = potential_r(r, self.params)
        return self.k_factor * (-self.s_gap_high - w * (2.0 * self.derived.m_plus + w))


@dataclass(frozen=True)
class TurningPoints:
    r1: float
    r2: float

    def __post_init__(self):
        if not (0.0 < self.r1 < self.r2):
            raise ValueError(f"need 0 < r1 < r2, got {self.r1}, {self.r2}")


def find_turning_points(p: RadialProblem) -> TurningPoints:
    """Bracket both zeros of the radicand on a log grid, then bisect."""
    if p.s_gap_high <= 0.0:
        raise NoBoundRegion(f"s = {p.s} at or above the two-particle threshold")
    rs = np.logspace(_SCAN_LOG10_LO, _SCAN_LOG10_HI, _SCAN_POINTS)
    q = np.array([p.radicand(r) for r in rs])
    imax = int(np.argmax(q))
    if q[imax] <= 0.0:
        raise NoBoundRegion("radicand is nowhere positive on the scan grid")
    lo = imax
    while lo > 0 and q[lo] > 0.0:
        lo -= 1
    hi = imax
    while hi < len(rs) - 1 and q[hi] > 0.0:
        hi += 1
    if q[lo] > 0.0 or q[hi] > 0.0:
        raise NoBoundRegion("bound region extends beyond the scan grid")
    r1 = _bisect(p.radicand, float(rs[lo]), float(rs[lo + 1]), q[lo])
    r2 = _bisect(p.radicand, float(rs[hi - 1]), float(rs[hi]), q[hi - 1])
    return TurningPoints(r1=r1, r2=r2)


def _bisect(f, a: float, b: float, fa: float) -> float:
    """Zero of f between a and b, where f changes sign; fa = f(a)."""
    if fa == 0.0:
        return a
    xtol = float(np.finfo(float).tiny)  # the relative tolerance dominates
    dm = b - a
    while True:
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm


def phase_integral(
    p: RadialProblem,
    tps: TurningPoints = None,
    rtol: float = 1.0e-9,
    max_nodes: int = 8192,
) -> float:
    """Action integral of sqrt(radicand) between the turning points.

    The substitution r = r1 + (r2-r1)*sin^2(theta) removes the
    inverse-square-root endpoint behavior; Gauss-Legendre node counts are
    doubled until two successive values agree to rtol.
    """
    if tps is None:
        tps = find_turning_points(p)
    d = tps.r2 - tps.r1
    previous = None
    n = 32
    while n <= max_nodes:
        x, w = leggauss(n)
        theta = (math.pi / 4.0) * (x + 1.0)
        r = tps.r1 + d * np.sin(theta) ** 2
        q = np.array([max(p.radicand(ri), 0.0) for ri in r])
        value = (math.pi / 4.0) * float(np.sum(w * np.sqrt(q) * d * np.sin(2.0 * theta)))
        if previous is not None and abs(value - previous) <= rtol * abs(value):
            return value
        previous = value
        n *= 2
    raise QuadratureFailure(
        f"phase integral not converged to rtol={rtol} at {max_nodes} nodes "
        f"(last delta {abs(value - previous):.3e})"
    )


def analytic_i_infinity(
    s: float,
    d: DerivedMasses,
    c: Constants,
    gap_low: float = None,
    gap_high: float = None,
    z: int = 1,
) -> float:
    """Residue contribution pi*Z*alpha*m_plus*sqrt((s-m_minus^2)/(s*(m_plus^2-s))).

    gap_low/gap_high may supply s - m_minus^2 and m_plus^2 - s in closed
    form when s is a quadratic root (the direct differences would be
    limited by the rounding of s itself).
    """
    if gap_low is None:
        gap_low = s - d.m_minus**2
    if gap_high is None:
        gap_high = d.m_plus**2 - s
    if gap_low <= 0.0 or gap_high <= 0.0:
        raise ValueError(f"s = {s} outside the open interval (m_minus^2, m_plus^2)")
    return math.pi * (z * c.alpha) * d.m_plus * math.sqrt(gap_low / (s * gap_high))


def _check_state(st: QuantumState, d: DerivedMasses, c: Constants, params: PotentialParams):
    """Root, turning points, residual and I_infinity defect of one state."""
    s_plus, gap_low, gap_high = qc_root_gaps(st, d, c, params.z)
    problem = RadialProblem(s=s_plus, l=st.l, params=params, derived=d, s_gap_high=gap_high)
    tps = find_turning_points(problem)
    integral = phase_integral(problem, tps)
    target = math.pi * (st.k + 0.5)
    i_inf = analytic_i_infinity(s_plus, d, c, gap_low, gap_high, params.z)
    return {
        "s_plus": s_plus,
        "r1": tps.r1,
        "r2": tps.r2,
        "residual": (integral - target) / target,
        "i_inf_defect": i_inf / (2.0 * math.pi * st.n_principal()) - 1.0,
    }


def quantization_residual(
    k: int,
    l: int,
    d: DerivedMasses,
    c: Constants,
    params: PotentialParams,
) -> float:
    """Normalized defect of the phase integral against pi*(k + 1/2)."""
    return _check_state(QuantumState(k, l), d, c, params)["residual"]


def verification_report(
    states,
    d: DerivedMasses,
    c: Constants,
    params: PotentialParams,
) -> list[dict]:
    """One row per state: root, turning points, residual and I_infinity check."""
    return [{"state": st.label, **_check_state(st, d, c, params)} for st in states]
