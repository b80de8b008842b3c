import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hlevels import (
    DEFAULT_LAMBDA_MEV,
    PotentialParams,
    RadialProblem,
    default_params,
    potential_r,
    running_alpha_r,
)


@pytest.fixture(scope="module")
def P(C):
    return default_params(C)


def test_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(alpha=0.0)
    with pytest.raises(ValueError):
        PotentialParams(alpha=7e-3, lam=-1.0)
    with pytest.raises(ValueError):
        PotentialParams(alpha=7e-3, z=0)
    with pytest.raises(ValueError):
        PotentialParams(alpha=7e-3, z=1.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^alpha and lambda must be finite"):
            PotentialParams(alpha=7e-3, lam=bad)
        with pytest.raises(ValueError, match="^alpha and lambda must be finite"):
            PotentialParams(alpha=bad)


def test_default_lambda(P):
    assert P.lam == DEFAULT_LAMBDA_MEV == 840.0


def test_running_alpha_r_values(P):
    assert running_alpha_r(0.0, P) == 0.0
    assert running_alpha_r(1.0 / P.lam, P) == pytest.approx(P.alpha / 4.0, rel=1e-15)
    # large-distance saturation: alpha*(1 - 2/(lam*r)^2 + ...)
    assert running_alpha_r(1000.0 / P.lam, P) == pytest.approx(
        P.alpha * (1.0 - 2e-6), abs=P.alpha * 1e-7
    )


@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
)
def test_running_alpha_r_monotone(r1, r2):
    p = PotentialParams(alpha=7.2973525664e-3)
    lo, hi = sorted((r1, r2))
    assert running_alpha_r(lo, p) <= running_alpha_r(hi, p)


def test_potential_origin_and_scale_point(P):
    assert potential_r(0.0, P) == 0.0
    assert potential_r(1.0 / P.lam, P) == pytest.approx(-P.alpha * P.lam / 4.0, rel=1e-15)


def test_potential_is_coulomb_at_bohr_radius(C, D, P):
    a_b = 1.0 / (D.mu * C.alpha)
    assert potential_r(a_b, P) == pytest.approx(-C.alpha / a_b, rel=1e-14)


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_potential_non_positive(r):
    p = PotentialParams(alpha=7.2973525664e-3)
    assert potential_r(r, p) <= 0.0


def test_potential_single_minimum(P):
    # V -> 0 at both ends with exactly one interior sign change of the slope
    rs = np.logspace(-6, 6, 4000)
    v = np.array([potential_r(r, P) for r in rs])
    slope_sign = np.sign(np.diff(v))
    changes = np.count_nonzero(np.diff(slope_sign[slope_sign != 0]) != 0)
    assert changes == 1
    assert abs(v[0]) < 1e-8 and abs(v[-1]) < 1e-7
    assert v.min() < -1e-3


def test_z_scales_linearly(P):
    p2 = PotentialParams(alpha=P.alpha, lam=P.lam, z=3)
    assert potential_r(2.0, p2) == pytest.approx(3.0 * potential_r(2.0, P), rel=1e-15)


def test_mass_function(D, P):
    # the radial equation's p^2 = K(s) [s - M(r)^2] with mass function M = m_plus + W(r)
    problem = RadialProblem(s=2.0e6, l=0, params=P, derived=D, s_gap_high=D.m_plus**2 - 2.0e6)
    for r in (0.0, 1e-3, 3.7, 1e9):
        mass = D.m_plus + potential_r(r, P)
        expected = problem.k_factor * (problem.s - mass * mass)
        assert problem.p_squared(r) == pytest.approx(expected, rel=1e-12)
