import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh
from scipy.optimize import minimize_scalar

from hlevels import (
    Constants,
    IllConditionedBasis,
    QuantumState,
    SolverConfig,
    SupercriticalCharge,
    build_matrices,
    convergence_report,
    derive,
    lowest_levels,
    salpeter_levels,
)
from hlevels.harness import TABLE_STATES
from hlevels.salpeter import (
    _KINETIC_SCREEN,
    _SCALE_BRACKET,
    _SCALE_RTOL,
    _SCALE_XATOL,
    _ScaledCore,
    _coulomb_matrix,
    _golden_section_min,
    _momentum_basis,
    _momentum_grid,
    _resolve_scale,
    _tau,
)

# `hlevels compare --format json` SS column (default SolverConfig) as solved
# by the golden-section search that preceded the scale-covariant core.
FROZEN_SS_EV = {
    "1S": -13.599182208492211,
    "1P": -3.3995981447685186,
    "1D": -1.5109248107960889,
    "1F": -0.84989405629371761,
    "1G": -0.54393190369325917,
    "2S": -3.3997175054431197,
    "2P": -1.5109319509923822,
    "2D": -0.84989534727397487,
    "3S": -1.5109672923398916,
    "3P": -0.84989835954367132,
}


def small_cfg(**kw):
    defaults = dict(basis_size=16, quad_nodes=2048, scale_search=False)
    defaults.update(kw)
    return SolverConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(basis_size=2)
    with pytest.raises(ValueError):
        SolverConfig(scale=-1.0)
    with pytest.raises(ValueError, match=r"basis_size 64 needs quad_nodes >= 128, have 100"):
        SolverConfig(basis_size=64, quad_nodes=100)
    # the default grid carries basis sizes up to half its nodes, no further
    SolverConfig(basis_size=2048)
    with pytest.raises(ValueError, match=r"basis_size 2049 needs quad_nodes >= 4098, have 4096"):
        SolverConfig(basis_size=2049)


def test_matrices_symmetric_and_orthonormal(C):
    m = build_matrices(0, small_cfg(), C)
    for a in (m.kinetic, m.potential, m.overlap, m.kinetic_binding):
        defect = np.max(np.abs(a - a.T)) / np.max(np.abs(a))
        assert defect <= 1e-12
    # the basis is orthonormal, so the quadrature overlap is Parseval's check
    assert np.max(np.abs(m.overlap - np.eye(m.overlap.shape[0]))) < 1e-10
    assert np.all(np.linalg.eigvalsh(m.overlap) > 0.0)


def test_kinetic_includes_rest_mass(C, D):
    m = build_matrices(0, small_cfg(), C)
    assert np.max(np.abs(m.kinetic - m.kinetic_binding - D.m_plus * m.overlap)) < 1e-9


def test_free_threshold_with_tiny_coupling(D):
    c = Constants(alpha=1e-10)
    m = build_matrices(0, small_cfg(scale=1.0), c)
    # binding operator is positive: all eigenvalues above the threshold
    vals = eigh(m.kinetic_binding + m.potential, m.overlap, eigvals_only=True)
    assert vals[0] > -1e-8
    full = eigh(m.kinetic, m.overlap, eigvals_only=True)
    assert full[0] >= D.m_plus * (1.0 - 1e-10)


def test_equal_mass_kinetic_is_twice_single_mass(C):
    cfg = small_cfg()
    m_equal = build_matrices(0, cfg, C, masses=(C.m_e, C.m_e))
    # single square-root operator built from the exposed internals
    a = 1.0 / _resolve_scale(cfg, C)
    p, w = _momentum_grid(a, cfg.quad_nodes)
    phi = _momentum_basis(p, cfg.basis_size, 0, a)
    single = (phi * (w * p * p * _tau(p, C.m_e))) @ phi.T
    assert np.allclose(m_equal.kinetic_binding, 2.0 * single, rtol=1e-12, atol=1e-12)


def test_equal_mass_reduction_matches_single_operator_solver(C):
    cfg = small_cfg(basis_size=32)
    m = build_matrices(0, cfg, C, masses=(C.m_e, C.m_e))
    two_body = eigh(m.kinetic_binding + m.potential, m.overlap, eigvals_only=True)
    a = 1.0 / _resolve_scale(cfg, C)
    p, w = _momentum_grid(a, cfg.quad_nodes)
    phi = _momentum_basis(p, cfg.basis_size, 0, a)
    doubled_single = 2.0 * ((phi * (w * p * p * _tau(p, C.m_e))) @ phi.T)
    independent = eigh(doubled_single + m.potential, m.overlap, eigvals_only=True)
    for x, y in zip(two_body[:4], independent[:4]):
        assert x == pytest.approx(y, rel=1e-6)


def test_ground_state_value(C):
    cfg = SolverConfig(basis_size=64)
    levels = lowest_levels(0, 1, cfg, C)
    # frozen from an independent perturbative estimate of the two-body value
    assert levels[0].value == pytest.approx(-13.599180, abs=1e-4)
    assert levels[0].state.label == "1S"


def test_p_wave_value(C):
    cfg = SolverConfig(basis_size=64)
    levels = lowest_levels(1, 1, cfg, C)
    assert levels[0].value == pytest.approx(-3.3995981, abs=2e-5)


def test_variational_monotonicity(C):
    values = []
    for nb in (8, 16, 32, 64):
        cfg = small_cfg(basis_size=nb, quad_nodes=max(2048, 2 * nb))
        values.append(lowest_levels(0, 1, cfg, C)[0].value)
    for better, worse in zip(values[1:], values[:-1]):
        assert better <= worse + 1e-12


def test_nonrelativistic_limit():
    c = Constants(m_e=0.5109989461e3, m_p=938.2720813e3)
    d = derive(c)
    cfg = small_cfg(basis_size=32)
    value = lowest_levels(0, 1, cfg, c)[0].value
    expected = -d.mu * c.alpha**2 / 2.0 * c.ev_per_mev
    assert value == pytest.approx(expected, rel=1e-2)


def test_count_validation(C):
    with pytest.raises(ValueError):
        lowest_levels(0, 0, small_cfg(), C)
    with pytest.raises(ValueError):
        lowest_levels(0, 9, small_cfg(), C)
    with pytest.raises(ValueError):
        lowest_levels(-1, 1, small_cfg(scale_search=True), C)


def test_nonphysical_scale_is_flagged(C):
    # a scale 1e6 times off either breaks conditioning or stalls convergence
    cfg = small_cfg(scale=1e6 / (derive(C).mu * C.alpha))
    try:
        rows = convergence_report(0, 0, (8, 16, 32, 64), cfg, C)
    except IllConditionedBasis:
        return
    assert rows[0]["flagged"]


def test_convergence_report_ladder(C):
    # slightly detuned scale gives a clean geometric approach to the limit
    cfg = small_cfg(scale=3.0 / (derive(C).mu * C.alpha))
    rows = convergence_report(0, 0, (8, 16, 32, 64), cfg, C)
    assert [r["basis_size"] for r in rows] == [8, 16, 32, 64]
    assert rows[0]["delta_ev"] is None
    assert abs(rows[-1]["delta_ev"]) <= 1e-4
    assert not rows[0]["flagged"]
    with pytest.raises(ValueError):
        convergence_report(0, 0, (8, 16), small_cfg(), C)


def test_table_column_matches_frozen_values(C):
    values = salpeter_levels(TABLE_STATES, SolverConfig(), C)
    for state in TABLE_STATES:
        assert abs(values[state] - FROZEN_SS_EV[state.label]) <= 1e-9, state.label


def test_salpeter_levels_fills_lower_levels(C):
    cfg = small_cfg()
    states = [QuantumState(2, 0), QuantumState(0, 1)]
    values = salpeter_levels(states, cfg, C)
    assert list(values) == [QuantumState(0, 0), QuantumState(1, 0), QuantumState(2, 0),
                            QuantumState(0, 1)]
    expected = lowest_levels(0, 3, cfg, C) + lowest_levels(1, 1, cfg, C)
    assert list(values.values()) == [level.value for level in expected]


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=4), st.floats(min_value=0.05, max_value=4.0))
def test_core_spectrum_matches_generalized_eigh(C, l, bohr_multiple):
    cfg = small_cfg(scale=bohr_multiple / (derive(C).mu * C.alpha))
    m = build_matrices(l, cfg, C)
    reference = eigh(m.kinetic_binding + m.potential, m.overlap, eigvals_only=True)
    a = 1.0 / cfg.scale
    got = _ScaledCore(l, cfg, C, 1, (a, a)).spectrum(a)
    # eigenvalues near zero are held to 1e-10 of the Rydberg energy instead
    rydberg = derive(C).mu * C.alpha**2 / 2.0
    np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-10 * rydberg)


def test_core_refuses_a_scale_outside_its_screened_range(C):
    a = 1.0 / _resolve_scale(SolverConfig(), C)
    core = _ScaledCore(0, small_cfg(), C, 1, (a, 2.0 * a))
    for inside in (a, 1.5 * a, 2.0 * a):
        assert np.all(np.isfinite(core.spectrum(inside)))
    for outside in (0.5 * a, 2.5 * a):
        with pytest.raises(ValueError, match=r"outside the range \[.+, .+\] MeV"):
            core.spectrum(outside)


def _tau_sum(p, masses):
    return sum(_tau(p, m) for m in masses)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([16, 32, 64, 128]), st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=87), st.floats(min_value=0.05, max_value=4.0),
       st.booleans())
def test_screened_spectrum_matches_the_full_grid(C, D, nb, l, z, bohr_multiple, searched):
    cfg = SolverConfig(basis_size=nb)
    base = _resolve_scale(cfg, C, z)
    a = 1.0 / (base * bohr_multiple)
    lo, hi = _SCALE_BRACKET
    count = min(4, nb // 2)
    # the range lowest_levels screens for when it searches, or the one scale
    a_range = (1.0 / (base * hi * (count + l)), 1.0 / (base * lo)) if searched else (a, a)
    core = _ScaledCore(l, cfg, C, z, a_range)

    # oracle: the plain weighted product over every node of the grid
    p, w = _momentum_grid(a_range[0], cfg.quad_nodes)
    u = p / a_range[0]
    weight = w / a_range[0] * u * u
    phi = _momentum_basis(u, nb, l, 1.0)
    masses = (C.m_e, C.m_p)
    kinetic = (phi * (weight * _tau_sum(a * u, masses))) @ phi.T
    overlap = (phi * weight) @ phi.T
    l_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (overlap + overlap.T)))
    h = kinetic + a * _coulomb_matrix(nb, l, 1.0, C.alpha, z)
    full = np.linalg.eigvalsh(l_inv @ h @ l_inv.T)
    rydberg = D.mu * C.alpha**2 / 2.0
    got = core.spectrum(a)
    assert np.max(np.abs(got[:count] - full[:count])) <= 1e-10 * z * z * rydberg

    # the kept nodes are one contiguous slice holding every node above the screen
    assert core.kept.step is None
    np.testing.assert_array_equal(core.u, u[core.kept])
    g = np.einsum("ij,ij->j", phi, phi * weight)
    above = np.zeros(u.size, dtype=bool)
    for end in a_range:
        share = g * _tau_sum(end * u, masses)
        above |= share > _KINETIC_SCREEN * share.sum() / nb
    first, last = np.flatnonzero(above)[[0, -1]]
    assert (core.kept.start, core.kept.stop) == (first, last + 1)
    assert core.kept.stop - core.kept.start < u.size


def test_basis_256_is_ill_conditioned(C):
    cfg = SolverConfig(basis_size=256, quad_nodes=4096, scale_search=False)
    with pytest.raises(IllConditionedBasis):
        lowest_levels(0, 1, cfg, C)


@pytest.mark.parametrize("z", [1, 2, 20, 40])
def test_scale_search_is_no_worse_than_the_bohr_scale(C, D, z):
    # the bracket is in units of 1/(mu*Z*alpha), so it holds the optimum at every Z
    bohr = 1.0 / (D.mu * z * C.alpha)
    assert _resolve_scale(SolverConfig(), C, z) == pytest.approx(bohr, rel=1e-15)
    searched = lowest_levels(0, 1, SolverConfig(), C, z=z)[0].value
    fixed = lowest_levels(0, 1, SolverConfig(scale=bohr, scale_search=False), C, z=z)[0].value
    assert searched <= fixed


@pytest.mark.parametrize("l, z", [(0, 88), (1, 216)])
def test_level_above_critical_coupling_raises(C, l, z):
    # Herbst's bound is 2/pi for l=0 (Z=87 is below it) and pi/2 for l=1 (Z=215 is below it)
    assert z * C.alpha > (2 / math.pi if l == 0 else math.pi / 2)
    with pytest.raises(SupercriticalCharge):
        lowest_levels(l, 1, SolverConfig(), C, z=z)


@pytest.mark.parametrize("l, z", [(0, 87), (1, 88), (1, 215)])
def test_level_below_critical_coupling_is_finite(C, l, z):
    assert z * C.alpha < (2 / math.pi if l == 0 else math.pi / 2)
    level = lowest_levels(l, 1, SolverConfig(), C, z=z)[0].value
    assert math.isfinite(level) and level < 0.0


@pytest.mark.parametrize("cfg", [
    SolverConfig(basis_size=192),
    SolverConfig(basis_size=224),
    SolverConfig(basis_size=192, scale_search=False),
    SolverConfig(quad_nodes=1024),
], ids=["nb192", "nb224", "nb192-fixed-scale", "nodes1024"])
@pytest.mark.parametrize("l", [0, 1, 4])
def test_aliased_grid_raises_instead_of_a_spurious_level(C, cfg, l):
    # these grids alias the basis; they printed 1P = -5.43 eV, 1G = -2339.5 eV and
    # 1S = -8.3e8 eV (nb 192, 224) and 1S = -215870 eV (1024 nodes)
    with pytest.raises(IllConditionedBasis, match="overlap deviates from the identity"):
        lowest_levels(l, 1, cfg, C)


_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_STOP_WIDTH = 2.0 * _SCALE_XATOL


def _golden_section_evaluations(lo, hi):
    return max(0, math.ceil(math.log((hi - lo) / _STOP_WIDTH, _PHI))) + 2


@pytest.mark.parametrize("l", range(5))
def test_scale_search_agrees_with_scipy_bounded(C, l):
    # scipy's bounded Brent search on the same objective is the oracle; the two
    # stop at different points, so they agree to the search noise, not to the bit
    cfg = SolverConfig()
    base = _resolve_scale(cfg, C)
    lo, hi = _SCALE_BRACKET
    core = _ScaledCore(l, cfg, C, 1, (1.0 / (base * hi * (l + 1)), 1.0 / (base * lo)))
    calls = []

    def objective(log_scale):
        calls.append(log_scale)
        return core.spectrum(math.exp(-log_scale))[0]

    bounds = (math.log(base * lo), math.log(base * hi * (l + 1)))
    _, fx = _golden_section_min(objective, *bounds)
    # the values stop the search first here; the bracket width bounds the count
    assert len(calls) <= _golden_section_evaluations(*bounds)
    searched = lowest_levels(l, 1, cfg, C)[0].value
    assert searched == float(fx) * C.ev_per_mev
    oracle = minimize_scalar(objective, bounds=bounds, method="bounded").fun
    assert abs(searched - float(oracle) * C.ev_per_mev) <= 1e-10


@pytest.mark.parametrize("z", [1, 10, 60, 87])
@pytest.mark.parametrize("nb", [32, 64])
def test_value_stop_keeps_the_levels_of_the_width_stop(C, monkeypatch, nb, z):
    # stopping once the values agree moves no level by more than 1e-11 relative
    # against the search that runs until the bracket is 2e-5 wide
    cfg, states = SolverConfig(basis_size=nb), [QuantumState(2, l) for l in range(5)]
    searched = salpeter_levels(states, cfg, C, z=z)
    monkeypatch.setattr("hlevels.salpeter._SCALE_RTOL", 0.0)
    width_only = salpeter_levels(states, cfg, C, z=z)
    for state, value in width_only.items():
        assert abs(searched[state] - value) <= 1e-11 * abs(value), state


# f and its minimizer on the real line; the minimizer on [lo, hi] is that point
# clamped to the bracket (None: every point is a minimizer)
_ANALYTIC = {
    "parabola": (lambda x: (x - 0.3) * (x - 0.3), 0.3),
    # as flat near its minimum as a level in log(scale): the values stop this search
    "offset parabola": (lambda x: 1e-6 * (x - 0.3) * (x - 0.3) - 1.0, 0.3),
    "quartic": (lambda x: x * x * x * x - x, 0.25 ** (1.0 / 3.0)),
    "kink": (lambda x: abs(x - 1.0 / 3.0), 1.0 / 3.0),
    "increasing": (math.atan, -math.inf),
    "decreasing": (lambda x: -math.atan(x), math.inf),
    "flat": (lambda x: 1.0, None),
}


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(_ANALYTIC)), st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=1e-6, max_value=20.0))
def test_golden_section_finds_known_minimizers(name, lo, width):
    f, unconstrained = _ANALYTIC[name]
    hi = lo + width
    calls = []
    x, fx = _golden_section_min(lambda t: calls.append(t) or f(t), lo, hi)
    assert lo <= x <= hi and fx == f(x)
    assert len(calls) <= _golden_section_evaluations(lo, hi)
    if unconstrained is None:
        return
    x_star = min(max(unconstrained, lo), hi)
    if name == "offset parabola" and lo < x_star < hi:  # the values may stop it first
        assert fx - f(x_star) <= 2.0 * _SCALE_RTOL * abs(f(x_star))
        return
    assert abs(x - x_star) <= _STOP_WIDTH
    for end in (lo, hi):
        if abs(end - x_star) > 2.0 * _STOP_WIDTH:  # an end next to x* may beat x
            assert fx <= f(end)


def test_golden_section_value_stop():
    lo, hi = -10.0, 10.0
    f, _ = _ANALYTIC["offset parabola"]
    calls = []
    x, fx = _golden_section_min(lambda t: calls.append(t) or f(t), lo, hi)
    assert len(calls) < _golden_section_evaluations(lo, hi)
    assert abs(x - 0.3) > _STOP_WIDTH  # the values agreed before the bracket closed in
    assert fx - f(0.3) <= 2.0 * _SCALE_RTOL * abs(f(0.3))
    # a NaN never agrees, and a monotone f leaves one end unevaluated: both run to the width
    for g in (lambda t: math.nan, math.atan, lambda t: -math.atan(t), lambda t: 1.0 + 1e-13 * t):
        calls.clear()
        _golden_section_min(lambda t: calls.append(t) or g(t), lo, hi)
        assert len(calls) == _golden_section_evaluations(lo, hi)
