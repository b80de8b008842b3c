import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from hlevels import (
    NoBoundRegion,
    QuantumState,
    RadialProblem,
    analytic_i_infinity,
    angular_eigenmomentum,
    default_params,
    find_turning_points,
    phase_integral,
    qc_root_gaps,
    quantization_residual,
    verification_report,
)
from hlevels.harness import TABLE_STATES
from hlevels.verifier import _BISECT_RTOL, _SCAN_LOG10_HI, _SCAN_LOG10_LO, _SCAN_POINTS


@pytest.fixture(scope="module")
def P(C):
    return default_params(C)


def _problem(C, D, P, k=0, l=0):
    s_plus, _, gap_high = qc_root_gaps(QuantumState(k, l), D, C)
    return RadialProblem(s=s_plus, l=l, params=P, derived=D, s_gap_high=gap_high)


def test_angular_eigenmomentum():
    assert angular_eigenmomentum(0) == 0.5
    assert angular_eigenmomentum(1) == 1.5
    with pytest.raises(ValueError):
        angular_eigenmomentum(-1)


def test_radial_problem_kinematic_factor(C, D, P):
    p = _problem(C, D, P)
    assert 0.0 < p.k_factor <= 0.25
    assert p.k_factor == pytest.approx((p.s - D.m_minus**2) / (4.0 * p.s), rel=1e-14)
    # K = (s - m_minus^2)/(4s), hence p^2(r) = radicand(r) + (m_l/r)^2
    for r in (50.0, 100.0, 400.0):
        assert p.p_squared(r) == pytest.approx(
            p.radicand(r) + (p.m_l / r) ** 2, rel=1e-10
        )


def test_turning_points_ground_state(C, D, P):
    p = _problem(C, D, P)
    tps = find_turning_points(p)
    assert 0.0 < tps.r1 < tps.r2
    rs = np.logspace(-2, 6, 500)
    q_max = max(p.radicand(r) for r in rs)
    assert abs(p.radicand(tps.r1)) <= 1e-10 * q_max
    assert abs(p.radicand(tps.r2)) <= 1e-10 * q_max
    # strictly positive inside
    mid = math.sqrt(tps.r1 * tps.r2)
    assert p.radicand(mid) > 0.0


def test_inner_turning_point_shrinks_with_coupling(C, D, P):
    from hlevels import PotentialParams

    p1 = _problem(C, D, P, l=1)
    strong = PotentialParams(alpha=2.0 * C.alpha, lam=P.lam)
    p2 = RadialProblem(s=p1.s, l=1, params=strong, derived=D, s_gap_high=p1.s_gap_high)
    assert find_turning_points(p2).r1 < find_turning_points(p1).r1


def test_no_bound_region_above_threshold(C, D, P):
    with pytest.raises(NoBoundRegion):
        find_turning_points(RadialProblem(s=D.m_plus**2 * 1.001, l=0, params=P, derived=D))


def test_no_bound_region_for_huge_angular_momentum(C, D, P):
    p = _problem(C, D, P)
    bad = RadialProblem(s=p.s, l=500, params=P, derived=D, s_gap_high=p.s_gap_high)
    with pytest.raises(NoBoundRegion):
        find_turning_points(bad)


def test_phase_integral_quantization(C, D, P):
    for k, l in ((0, 0), (1, 0), (0, 1)):
        p = _problem(C, D, P, k=k, l=l)
        target = math.pi * (k + 0.5)
        assert phase_integral(p) == pytest.approx(target, rel=1e-6)


def test_phase_integral_monotone_in_s(C, D, P):
    p0 = _problem(C, D, P, k=2, l=0)
    values = []
    for shift in (4.0, 2.0, 1.0):
        p = RadialProblem(
            s=p0.s, l=0, params=P, derived=D, s_gap_high=p0.s_gap_high * shift
        )
        values.append(phase_integral(p))
    assert values[0] < values[1] < values[2]


def test_analytic_i_infinity_at_roots(C, D):
    for k, l in ((0, 0), (1, 1), (0, 4)):
        st = QuantumState(k, l)
        s_plus, gap_low, gap_high = qc_root_gaps(st, D, C)
        value = analytic_i_infinity(s_plus, D, C, gap_low=gap_low, gap_high=gap_high)
        assert value == pytest.approx(2.0 * math.pi * st.n_principal(), rel=1e-10)


# The quasiclassical closed form drops an O((Z alpha)^2) term of the
# quantization condition, so the residual grows as Z^2: 5.39e-8 to 5.86e-8
# times Z^2 over Z = 1..80, which keeps `verify`'s 1e-5 limit up to Z = 13.
_RESIDUAL_PER_Z2 = 6.0e-8


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=1, max_value=80))
@example(1)
@example(13)
@example(80)
def test_verifier_residual_grows_as_z_squared(C, D, z):
    rows = verification_report(TABLE_STATES, D, C, default_params(C, z=z))
    assert max(abs(r["residual"]) for r in rows) <= _RESIDUAL_PER_Z2 * z * z
    # I_inf = 2 pi N holds to rounding at every Z
    assert max(abs(r["i_inf_defect"]) for r in rows) <= 2.0 * np.finfo(float).eps


def test_verify_limit_holds_up_to_z_13(C, D):
    worst = {z: max(abs(r["residual"])
                    for r in verification_report(TABLE_STATES, D, C, default_params(C, z=z)))
             for z in (13, 14)}
    assert worst[13] <= 1e-5 < worst[14]


def test_analytic_i_infinity_limits(C, D):
    near_lower = D.m_minus**2 * (1.0 + 1e-9)
    assert analytic_i_infinity(near_lower, D, C) < 1e-3
    with pytest.raises(ValueError):
        analytic_i_infinity(D.m_plus**2 * 1.1, D, C)
    with pytest.raises(ValueError):
        analytic_i_infinity(D.m_minus**2 * 0.9, D, C)


def test_quantization_residuals_small(C, D, P):
    for k, l in ((0, 0), (0, 1), (2, 2), (0, 8)):  # l = 8 has no spectroscopic letter
        assert abs(quantization_residual(k, l, D, C, P)) <= 1e-6
    with pytest.raises(ValueError):
        quantization_residual(-1, 0, D, C, P)


def test_verification_report(C, D, P):
    states = [QuantumState(0, 0), QuantumState(1, 1)]
    rows = verification_report(states, D, C, P)
    assert [r["state"] for r in rows] == ["1S", "2P"]
    for r in rows:
        assert 0.0 < r["r1"] < r["r2"]
        assert abs(r["residual"]) <= 1e-6
        assert abs(r["i_inf_defect"]) <= 1e-10


def test_turning_points_agree_with_brentq(C, D, P):
    rs = np.logspace(_SCAN_LOG10_LO, _SCAN_LOG10_HI, _SCAN_POINTS)
    tiny = float(np.finfo(float).tiny)
    for st in TABLE_STATES:
        problem = _problem(C, D, P, st.k, st.l)
        tps = find_turning_points(problem)
        for r in (tps.r1, tps.r2):
            i = int(np.searchsorted(rs, r)) - 1  # the scan bracket that holds r
            reference = brentq(problem.radicand, rs[i], rs[i + 1], xtol=tiny, rtol=_BISECT_RTOL)
            assert abs(r - reference) <= 4.0 * np.finfo(float).eps * reference, st.label
