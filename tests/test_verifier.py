import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from hlevels import (
    NoBoundRegion,
    PotentialParams,
    QuadratureFailure,
    QuantumState,
    RadialProblem,
    TurningPoints,
    default_params,
    find_turning_points,
    phase_integral,
    potential_r,
    qc_root_gaps,
    verification_report,
)
from hlevels.harness import TABLE_STATES
from hlevels.quadrature import gauss_legendre
from hlevels.verifier import _BISECT_RTOL, _SCAN_LOG10_HI, _SCAN_LOG10_LO, _SCAN_POINTS


@pytest.fixture(scope="module")
def P(C):
    return default_params(C)


def _problem(C, D, P, k=0, l=0):
    s_plus, _, gap_high = qc_root_gaps(QuantumState(k, l), D, C, P.z)
    return RadialProblem(s=s_plus, l=l, params=P, derived=D, s_gap_high=gap_high)


def test_radial_problem_m_l_is_l_plus_a_half(C, D, P):
    # m_l = l + 1/2 whatever the potential; l = -1 is refused in test_records.py
    assert _problem(C, D, P, l=0).m_l == 0.5
    assert _problem(C, D, P, l=1).m_l == 1.5


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
        s = D.m_plus**2 * 1.001
        find_turning_points(RadialProblem(s, 0, P, D, s_gap_high=D.m_plus**2 - s))


def test_no_bound_region_for_huge_angular_momentum(C, D, P):
    p = _problem(C, D, P)
    bad = RadialProblem(s=p.s, l=500, params=P, derived=D, s_gap_high=p.s_gap_high)
    with pytest.raises(NoBoundRegion):
        find_turning_points(bad)


def test_phase_integral_quantization(C, D, P):
    for k, l in ((0, 0), (1, 0), (0, 1)):
        p = _problem(C, D, P, k=k, l=l)
        target = math.pi * (k + 0.5)
        assert phase_integral(p, find_turning_points(p)) == pytest.approx(target, rel=1e-6)


def test_phase_integral_monotone_in_s(C, D, P):
    p0 = _problem(C, D, P, k=2, l=0)
    values = []
    for shift in (4.0, 2.0, 1.0):
        p = RadialProblem(
            s=p0.s, l=0, params=P, derived=D, s_gap_high=p0.s_gap_high * shift
        )
        values.append(phase_integral(p, find_turning_points(p)))
    assert values[0] < values[1] < values[2]


def test_phase_integral_refuses_a_value_that_is_not_finite(C, D, P):
    p = RadialProblem(s=_problem(C, D, P).s, l=0, params=P, derived=D, s_gap_high=math.nan)
    with pytest.raises(QuadratureFailure, match="^phase integral is nan at 32 nodes$"):
        phase_integral(p, TurningPoints(1.0, 2.0))


def test_phase_integral_gives_up_at_its_node_cap(C, D, P):
    # past r2 the radicand is clipped to 0, a kink that Gauss-Legendre resolves only slowly
    p = _problem(C, D, P)
    tps = find_turning_points(p)
    with pytest.raises(QuadratureFailure, match=r"^phase integral not converged to rtol=1e-09 "
                                                r"at 1024 nodes \(last delta [1-9]"):
        phase_integral(p, TurningPoints(tps.r1, 2.0 * tps.r2))


def test_analytic_i_infinity_at_roots(C, D, P):
    states = [QuantumState(0, 0), QuantumState(1, 1), QuantumState(0, 4)]
    for st_, row in zip(states, verification_report(states, D, C, P)):
        assert abs(row["i_inf_defect"]) <= 1e-10, st_


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
    rows = verification_report(TABLE_STATES, D, C, PotentialParams(alpha=C.alpha, z=z))
    assert max(abs(r["residual"]) for r in rows) <= _RESIDUAL_PER_Z2 * z * z
    # I_inf = 2 pi N holds to rounding at every Z
    assert max(abs(r["i_inf_defect"]) for r in rows) <= 2.0 * np.finfo(float).eps


def test_verify_limit_holds_up_to_z_13(C, D):
    worst = {z: max(abs(r["residual"])
                    for r in verification_report(TABLE_STATES, D, C,
                                                 PotentialParams(alpha=C.alpha, z=z)))
             for z in (13, 14)}
    assert worst[13] <= 1e-5 < worst[14]


def test_analytic_i_infinity_limits(C, D, P, monkeypatch):
    # I_infinity refuses a root at or below m_minus^2; one at or above m_plus^2 has no bound
    # region and is refused first, by find_turning_points
    for gap_low in (0.0, -1.0):
        def root_below_m_minus(st_, d, c, z, gap_low=gap_low):
            s_plus, _, gap_high = qc_root_gaps(st_, d, c, z)
            return s_plus, gap_low, gap_high

        monkeypatch.setattr("hlevels.verifier.qc_root_gaps", root_below_m_minus)
        with pytest.raises(ValueError, match=r"^s = \S+ outside the open interval "
                                             r"\(m_minus\^2, m_plus\^2\)$"):
            verification_report([QuantumState(0, 0)], D, C, P)


@pytest.mark.parametrize("alpha", [0.01, 0.0073])
def test_verification_report_refuses_a_potential_of_another_alpha(C, D, alpha):
    # the root comes from C.alpha and the potential from params: unchecked, 1S read a
    # residual of 0.74 at alpha 0.01 and 7.3e-4 at 0.0073 with no error
    with pytest.raises(ValueError, match=rf"^the potential's alpha {alpha} is not the "
                                         rf"constants' alpha {C.alpha}$"):
        verification_report([QuantumState(0, 0)], D, C, PotentialParams(alpha=alpha))


def test_quantization_residuals_small(C, D, P):
    states = [QuantumState(0, 0), QuantumState(0, 1), QuantumState(2, 2), QuantumState(0, 8)]
    rows = verification_report(states, D, C, P)
    assert [r["state"] for r in rows] == ["1S", "1P", "3D", "0:8"]  # l = 8 has no letter
    for r in rows:
        assert abs(r["residual"]) <= 1e-6
    with pytest.raises(ValueError):
        verification_report([QuantumState(-1, 0)], D, C, P)


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


@pytest.mark.parametrize("order", [32, 64])
def test_gauss_legendre_rule_is_shared_and_read_only(order):
    nodes, weights = gauss_legendre(order)
    assert gauss_legendre(order)[0] is nodes and gauss_legendre(order)[1] is weights
    fresh = leggauss(order)
    np.testing.assert_array_equal(nodes, fresh[0])
    np.testing.assert_array_equal(weights, fresh[1])
    for shared in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def _coulomb_radicand(problem):
    """(A, B, C) of the radicand -A + 2B/r - C/r^2 for a point Coulomb potential -Z alpha/r.

    K*[s - M(r)^2] - (l+1/2)^2/r^2 takes this form with A = K*(m_plus^2 - s),
    B = K*m_plus*Z alpha and C = (l+1/2)^2 + K*(Z alpha)^2, and its action between
    the turning points is exactly pi*(B/sqrt(A) - sqrt(C)).
    """
    k, za = problem.k_factor, problem.params.z * problem.params.alpha
    return k * problem.s_gap_high, k * problem.derived.m_plus * za, problem.m_l**2 + k * za * za


@pytest.mark.parametrize("z", [1, 40, 80, 136])
def test_phase_integral_matches_the_exact_coulomb_action(C, D, z):
    # the form factor's share of the action falls as 1/lambda^2, and at lambda = 8.4e6 MeV
    # it is below 1e-13 up to Z = 80; measured: 7.4e-14 and 5.7e-14 at worst
    params = PotentialParams(alpha=C.alpha, lam=8.4e6, z=z)
    for st in TABLE_STATES:
        s_plus, _, gap_high = qc_root_gaps(st, D, C, z)
        problem = RadialProblem(s=s_plus, l=st.l, params=params, derived=D, s_gap_high=gap_high)
        a, b, c = _coulomb_radicand(problem)
        action = math.pi * (b / math.sqrt(a) - math.sqrt(c))
        integral = phase_integral(problem, find_turning_points(problem))
        assert abs(integral / action - 1.0) <= 1e-12, st.label
        # the closed-form root solves B/sqrt(A) = k + l + 1: it drops the K (Z alpha)^2 of C
        assert abs(b / math.sqrt(a) / (st.k + st.l + 1) - 1.0) <= 1e-12, st.label


def _phase_nodes(problem, n):
    """The radii at which phase_integral evaluates the radicand with an n-node rule."""
    tps = find_turning_points(problem)
    x, _ = gauss_legendre(n)
    return tps.r1 + (tps.r2 - tps.r1) * np.sin((math.pi / 4.0) * (x + 1.0)) ** 2


# The array path runs the float path's operations, except that numpy squares an
# array as x*x where a float's ** 2 calls pow: the two round about one square in
# a thousand one ulp apart.  Through u = x/(1+x) and its square that moves the
# potential by at most a few eps relative (3 eps measured), and the radicand, which
# cancels its terms next to its zeros, by a few eps times the size of its terms.
_ARRAY_PATH_EPS = 8.0 * np.finfo(float).eps


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=136),
       st.floats(min_value=math.log10(0.84), max_value=math.log10(8.4e6)),
       st.integers(min_value=0, max_value=7))
@example(80, math.log10(8.4e6), 0)
@example(1, math.log10(840.0), 7)
def test_array_path_matches_the_float_path(C, D, z, log10_lam, l):
    params = PotentialParams(alpha=C.alpha, lam=10.0**log10_lam, z=z)
    r = np.concatenate([np.logspace(_SCAN_LOG10_LO, _SCAN_LOG10_HI, _SCAN_POINTS)]
                       + [_phase_nodes(_problem(C, D, params, st_.k, st_.l), n)
                          for st_ in TABLE_STATES for n in (32, 64, 128, 256)])
    v = potential_r(r, params)
    np.testing.assert_allclose(v, [potential_r(ri, params) for ri in r.tolist()],
                               rtol=_ARRAY_PATH_EPS, atol=0.0)
    p = _problem(C, D, params, l=l)
    w = np.abs(v)
    terms = p.k_factor * (p.s_gap_high + w * (2.0 * D.m_plus + w)) + (p.m_l / r) ** 2
    defect = np.abs(p.radicand(r) - [p.radicand(ri) for ri in r.tolist()])
    assert np.all(defect <= _ARRAY_PATH_EPS * terms)
    # the origin keeps its limit V(0) = 0.0, as a float and inside an array
    origin = potential_r(0.0, params)
    assert origin == 0.0 and math.copysign(1.0, origin) == 1.0
    np.testing.assert_array_equal(potential_r(np.array([0.0, r[0]]), params), [0.0, v[0]])
