"""Numerical verification of the quasiclassical machinery.

Checks that the closed-form eigenmasses really solve the quantization
condition: turning points of the radial radicand are located by
bracketing + bisection, the phase-space integral between them is done by
quadrature with an endpoint-singularity-removing substitution, and the
result is compared against pi*(k + 1/2).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import Constants, DerivedMasses, _checked
from .errors import NoBoundRegion, QuadratureFailure
from .potential import PotentialParams, potential_r
from .quadrature import gauss_legendre
from .spectra import QuantumState, _state_name, qc_root_gaps

_SCAN_POINTS = 3000
_SCAN_LOG10_LO = -6.0
_SCAN_LOG10_HI = 9.0
_BISECT_RTOL = 4.0 * np.finfo(float).eps  # well below the 1e-13 requirement
_PHASE_RTOL = 1.0e-9  # two successive phase integrals agree to this
# the largest node count tried: the states of Z 1-274, lambda 0.84-8.4e6 MeV,
# k <= 30 and l <= 7 that have a bound region converge by 256 nodes, k = 150,
# l = 0 at Z = 137 by 512, and building the rule costs about n^3
_PHASE_MAX_NODES = 1024


@_checked
class RadialProblem(NamedTuple):
    """Radial radicand K(s)*[s - M(r)^2] - (l+1/2)^2/r^2 at trial mass^2 s.

    s_gap_high holds m_plus^2 - s, in closed form for a root of the
    eigenmass quadratic (see qc_root_gaps); the radicand then expands the
    square of the mass function so that the near-total cancellation of s
    against m_plus^2 never occurs in floats.
    """

    s: float
    l: int
    params: PotentialParams
    derived: DerivedMasses
    s_gap_high: float

    def _check(self):
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")

    @property
    def k_factor(self) -> float:
        return (1.0 - self.derived.m_minus**2 / self.s) / 4.0

    @property
    def m_l(self) -> float:
        """Quasiclassical angular eigenvalue l + 1/2 (potential-independent)."""
        return self.l + 0.5

    def radicand(self, r):
        return self.p_squared(r) - (self.m_l / r) ** 2

    def p_squared(self, r):
        """Squared relative momentum K(s)*[s - M(r)^2], of a float or a numpy array r."""
        # s - M(r)^2 = (s - m_plus^2) - W*(2 m_plus + W)
        w = potential_r(r, self.params)
        return self.k_factor * (-self.s_gap_high - w * (2.0 * self.derived.m_plus + w))


@_checked
class TurningPoints(NamedTuple):
    r1: float
    r2: float

    def _check(self):
        if not (0.0 < self.r1 < self.r2):
            raise ValueError(f"need 0 < r1 < r2, got {self.r1}, {self.r2}")


def find_turning_points(p: RadialProblem) -> TurningPoints:
    """Bracket both zeros of the radicand on a log grid, then bisect."""
    if p.s_gap_high <= 0.0:
        raise NoBoundRegion(f"s = {p.s} at or above the two-particle threshold")
    rs = np.logspace(_SCAN_LOG10_LO, _SCAN_LOG10_HI, _SCAN_POINTS)
    with np.errstate(over="raise", invalid="raise"):  # an overflow raises, not a NaN bracket
        q = p.radicand(rs)
    imax = int(np.argmax(q))
    if q[imax] <= 0.0:
        raise NoBoundRegion("radicand is nowhere positive on the scan grid")
    # the grid points just outside the positive run that holds the maximum
    below, above = np.flatnonzero(q[:imax] <= 0.0), np.flatnonzero(q[imax:] <= 0.0)
    if below.size == 0 or above.size == 0:
        raise NoBoundRegion("bound region extends beyond the scan grid")
    lo, hi = int(below[-1]), imax + int(above[0])
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


def phase_integral(p: RadialProblem, tps: TurningPoints) -> float:
    """Action integral of sqrt(radicand) between the turning points tps.

    The substitution r = r1 + (r2-r1)*sin^2(theta) removes the
    inverse-square-root endpoint behavior; Gauss-Legendre node counts are
    doubled from 32 until two successive values agree to _PHASE_RTOL.  A
    value that is not finite, or no agreement by _PHASE_MAX_NODES nodes,
    raises QuadratureFailure.
    """
    d = tps.r2 - tps.r1
    previous = math.nan  # agrees with no value
    n = 32
    while n <= _PHASE_MAX_NODES:
        x, w = gauss_legendre(n)
        theta = (math.pi / 4.0) * (x + 1.0)
        r = tps.r1 + d * np.sin(theta) ** 2
        q = np.maximum(p.radicand(r), 0.0)
        value = (math.pi / 4.0) * float(np.sum(w * np.sqrt(q) * d * np.sin(2.0 * theta)))
        if not math.isfinite(value):
            raise QuadratureFailure(f"phase integral is {value} at {n} nodes")
        delta = abs(value - previous)
        if delta <= _PHASE_RTOL * abs(value):
            return value
        previous = value
        n *= 2
    raise QuadratureFailure(
        f"phase integral not converged to rtol={_PHASE_RTOL:g} at {_PHASE_MAX_NODES} nodes "
        f"(last delta {delta:.3e})"
    )


def _check_state(st: QuantumState, d: DerivedMasses, c: Constants, params: PotentialParams):
    """Root, turning points, residual and I_infinity defect of one state."""
    s_plus, gap_low, gap_high = qc_root_gaps(st, d, c, params.z)
    problem = RadialProblem(s=s_plus, l=st.l, params=params, derived=d, s_gap_high=gap_high)
    tps = find_turning_points(problem)
    integral = phase_integral(problem, tps)
    target = math.pi * (st.k + 0.5)
    # the residue pi*Z*alpha*m_plus*sqrt((s-m_minus^2)/(s*(m_plus^2-s))), with the gaps in
    # closed form: the direct differences would be limited by the rounding of s itself
    if gap_low <= 0.0 or gap_high <= 0.0:
        raise ValueError(f"s = {s_plus} outside the open interval (m_minus^2, m_plus^2)")
    i_inf = math.pi * (params.z * c.alpha) * d.m_plus * math.sqrt(gap_low / (s_plus * gap_high))
    return {
        "s_plus": s_plus,
        "r1": tps.r1,
        "r2": tps.r2,
        "residual": (integral - target) / target,
        "i_inf_defect": i_inf / (2.0 * math.pi * st.n_principal()) - 1.0,
    }


def verification_report(
    states,
    d: DerivedMasses,
    c: Constants,
    params: PotentialParams,
) -> list[dict]:
    """One row per state, named by its label or k:l: root, turning points, residual and
    I_infinity check.  The root and I_infinity take alpha from c, the potential from params."""
    if params.alpha != c.alpha:
        raise ValueError(f"the potential's alpha {params.alpha} is not the constants' alpha "
                         f"{c.alpha}")
    return [{"state": _state_name(st), **_check_state(st, d, c, params)} for st in states]
