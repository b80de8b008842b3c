import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh
from scipy.optimize import minimize_scalar
from scipy.special import eval_gegenbauer

from hlevels import (
    Constants,
    HlevelsError,
    IllConditionedBasis,
    QuantumState,
    ScaleSearchFailure,
    SolverConfig,
    SupercriticalCharge,
    build_matrices,
    derive,
    lowest_levels,
    salpeter,
    salpeter_levels,
)
from hlevels.harness import TABLE_STATES
from hlevels.salpeter import (
    _KINETIC_SCREEN,
    _OVERLAP_DEFECT_MAX,
    _SCALE_BRACKET,
    _SCALE_GUARD,
    _SCALE_RTOL,
    _SCALE_WIDEN,
    _SCALE_WIDENINGS,
    _SCALE_XATOL,
    _ScaledCore,
    _basis_prefactor,
    _coulomb_matrix,
    _golden_section_min,
    _momentum_basis,
    _momentum_grid,
    _norm_ratios,
    _tau,
    _widened_min,
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
    with pytest.raises(ValueError, match=r"basis_size 64 needs quad_nodes >= 128, have 100"):
        SolverConfig(basis_size=64, quad_nodes=100)
    # the default grid carries basis sizes up to half its nodes, no further
    SolverConfig(basis_size=2048)
    with pytest.raises(ValueError, match=r"basis_size 2049 needs quad_nodes >= 4098, have 4096"):
        SolverConfig(basis_size=2049)


def test_matrices_symmetric_and_orthonormal(C):
    m = build_matrices(0, small_cfg(), C)
    for a in (m.potential, m.overlap, m.kinetic_binding):
        defect = np.max(np.abs(a - a.T)) / np.max(np.abs(a))
        assert defect <= 1e-12
    # the basis is orthonormal, so the quadrature overlap is Parseval's check
    assert np.max(np.abs(m.overlap - np.eye(m.overlap.shape[0]))) < 1e-10
    assert np.all(np.linalg.eigvalsh(m.overlap) > 0.0)


def test_free_threshold_with_tiny_coupling(D):
    c = Constants(alpha=1e-10)
    m = build_matrices(0, small_cfg(), c)
    # binding operator is positive: all eigenvalues above the threshold
    vals = eigh(m.kinetic_binding + m.potential, m.overlap, eigvals_only=True)
    assert vals[0] > -1e-8
    # the full kinetic operator, kinetic_binding + m_plus S, lies above the rest mass
    kinetic = eigh(m.kinetic_binding, m.overlap, eigvals_only=True)
    assert kinetic[0] >= -D.m_plus * 1e-10


def test_kinetic_is_the_sum_of_the_single_mass_operators(C, D):
    cfg = small_cfg()
    m = build_matrices(0, cfg, C)
    # the single square-root operators in MeV built from the exposed internals, with the
    # basis at the Bohr momentum a as a^(-3/2) times the unit-scale basis at u = p/a
    a = D.mu * C.alpha
    u, w = _momentum_grid(cfg.quad_nodes, cfg.basis_size)
    p = a * u
    phi = _allocating_momentum_basis(u, cfg.basis_size, 0, 1.0)
    electron, proton = ((phi * (w * u * u * _tau(p, mass))) @ phi.T
                        for mass in (C.m_e, C.m_p))
    assert np.allclose(m.kinetic_binding, electron + proton, rtol=1e-12, atol=1e-12)


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


def _bohr_scale_ladder(l, sizes, c):
    """The lowest level at each basis size on the fixed Bohr-scale path, in eV."""
    return [lowest_levels(l, 1, SolverConfig(basis_size=nb, scale_search=False), c)[0].value
            for nb in sizes]


def test_bohr_scale_1s_steps_grow_from_32_to_128(C):
    # the 1S steps -1.10e-6 and then -1.13e-6 eV: the second step is the larger
    e32, e64, e128 = _bohr_scale_ladder(0, (32, 64, 128), C)
    assert -1.11e-6 < e64 - e32 < -1.09e-6
    assert -1.14e-6 < e128 - e64 < -1.12e-6


def test_bohr_scale_ladder_steps(C):
    # steps in eV: l = 0 grows, 5.3e-7, 8.2e-7, 1.1e-6; l = 1 falls, 6.0e-5, 4.7e-11,
    # 1.1e-11; l = 2 falls, 2.1e-2, 1.2e-5, 3.7e-13
    for l, growing in ((0, True), (1, False), (2, False)):
        values = _bohr_scale_ladder(l, (8, 16, 32, 64), C)
        steps = [abs(b - a) for a, b in zip(values, values[1:])]
        assert steps[-1] <= 2e-6
        assert all((b > a) is growing for a, b in zip(steps, steps[1:])), (l, steps)


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
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=87))
def test_core_spectrum_matches_generalized_eigh(C, D, l, z):
    # the Bohr scale follows Z, so the sweep over Z sweeps the scale; the core's energy unit
    # is the Bohr momentum mu*Z*alpha, and build_matrices returns MeV
    cfg = small_cfg()
    m = build_matrices(l, cfg, C, z)
    reference = eigh(m.kinetic_binding + m.potential, m.overlap, eigvals_only=True)
    core = _ScaledCore(l, cfg, C, z)
    got = D.mu * (z * C.alpha) * core.spectrum(1.0)
    # eigenvalues near zero are held to 1e-10 of the Rydberg energy instead
    rydberg = D.mu * (z * C.alpha) ** 2 / 2.0
    np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-10 * rydberg)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([16, 32, 64, 128]), st.integers(min_value=0, max_value=7),
       st.integers(min_value=1, max_value=87), st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=-11.0, max_value=13.0))
def test_screened_spectrum_matches_the_full_grid(C, D, nb, l, z, bohr_multiple, far_log2):
    cfg = SolverConfig(basis_size=nb)
    count = min(4, nb // 2)
    core = _ScaledCore(l, cfg, C, z)

    # oracle: the plain weighted product over every node of a grid in u = p/(mu*Z*alpha)
    # whose 68 octave panels, u in [2^-40, 2^28], all take quad_nodes // 68 nodes, the
    # most a graded panel takes; energies in units of mu*Z*alpha
    x, gauss_w = np.polynomial.legendre.leggauss(cfg.quad_nodes // 68)
    edges = 2.0 ** np.arange(-40, 29)
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x).ravel()
    weight = (half[:, None] * gauss_w).ravel() * u * u
    phi = _allocating_momentum_basis(u, nb, l, 1.0)
    overlap = (phi * weight) @ phi.T
    l_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (overlap + overlap.T)))
    v1 = _coulomb_matrix(nb, l, C.alpha, z)
    bohr_masses = [m / D.mu / (z * C.alpha) for m in (C.m_e, C.m_p)]

    def full_spectrum(s):
        tau = sum(_tau(s * u, r) for r in bohr_masses)
        h = (phi * (weight * tau)) @ phi.T + s * v1
        return np.linalg.eigvalsh(l_inv @ h @ l_inv.T)[:count]

    scale = z * C.alpha / 2.0  # Z^2 Ry in units of mu*Z*alpha
    # the search's first bracket, held to the Rydberg energy
    s = 1.0 / bohr_multiple
    assert np.max(np.abs(core.spectrum(s)[:count] - full_spectrum(s))) <= 1e-10 * scale
    # neither the graded orders nor the screen depend on the scale: they hold far past the
    # search's 1024-fold reach
    s = 2.0**-far_log2
    full = full_spectrum(s)
    bound = 1e-10 * np.maximum(scale, np.abs(full))
    assert np.all(np.abs(core.spectrum(s)[:count] - full) <= bound)

    # the kept nodes are one contiguous slice of the graded grid holding every node whose
    # g u^2 is above the screen
    u, w = _momentum_grid(cfg.quad_nodes, nb)
    weight = w * u * u
    phi = _allocating_momentum_basis(u, nb, l, 1.0)
    assert core.kept.step is None
    np.testing.assert_array_equal(core.u, u[core.kept])
    share = np.einsum("ij,ij->j", phi, phi * weight) * u * u
    first, last = np.flatnonzero(share > _KINETIC_SCREEN * share.sum() / nb)[[0, -1]]
    assert (core.kept.start, core.kept.stop) == (first, last + 1)
    assert core.kept.stop - core.kept.start < u.size


@pytest.mark.parametrize("z", [1, 73, 87])
def test_table_column_builds_one_core_per_l(C, monkeypatch, z):
    # the S-wave bracket widens from Z = 73 on; the scale-free screen keeps its core
    built, init = [], _ScaledCore.__init__

    def counting_init(self, l, *args):
        init(self, l, *args)
        built.append((l, self.u.size))

    monkeypatch.setattr(_ScaledCore, "__init__", counting_init)
    salpeter_levels(TABLE_STATES, SolverConfig(), C, z=z)
    assert [l for l, _ in built] == [0, 1, 2, 3, 4]
    # the graded panels: with 60 nodes in every panel the Z = 1 S-wave core kept 2546
    assert built[0][1] < 1000


@pytest.mark.parametrize("l", [0, 4])
def test_searched_and_fixed_solves_share_one_grid(C, monkeypatch, l):
    # the search built its core at 1/(4(l+1)) of the inverse Bohr scale, on more octave
    # panels of fewer nodes: at nb = 128 its l = 4 overlap deviated by 3.1e-6, not 2.3e-8
    built, init = [], _ScaledCore.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(_ScaledCore, "__init__", recording_init)
    for scale_search in (True, False):
        lowest_levels(l, 1, SolverConfig(basis_size=128, scale_search=scale_search), C)
    searched, fixed = built
    assert searched.ratios == fixed.ratios
    for name in ("u", "b", "overlap"):
        assert getattr(searched, name).tobytes() == getattr(fixed, name).tobytes(), name
    assert np.max(np.abs(fixed.overlap - np.eye(128))) < 1e-7


def test_core_build_holds_one_basis_array(C):
    # a build holds one basis-size by node-count array, B = phi sqrt(w), and no second one
    cfg = SolverConfig(basis_size=128, scale_search=False)
    nodes = _momentum_grid(cfg.quad_nodes, cfg.basis_size)[0].size
    tracemalloc.start()
    try:
        _ScaledCore(0, cfg, C, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cfg.basis_size * nodes * 8


def test_refused_build_forms_no_gram_product(C):
    # the diagonal of S refuses basis 512 before the nb x nb product S = B B^T is formed
    cfg = SolverConfig(basis_size=512, scale_search=False)
    nodes = _momentum_grid(cfg.quad_nodes, cfg.basis_size)[0].size
    tracemalloc.start()
    try:
        with pytest.raises(IllConditionedBasis):
            _ScaledCore(0, cfg, C, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (nodes + cfg.basis_size) * cfg.basis_size * 8


@pytest.mark.parametrize("l, sizes", [(l, range(150, 161)) for l in range(9)]
                         + [(l, (256, 512)) for l in (0, 4)])
def test_core_refuses_exactly_where_the_overlap_fails(C, l, sizes):
    # checking S's diagonal row by row refuses no grid that the whole of S accepts, and the
    # message gives the first row over the limit with its deviation, else the whole S's
    for nb in sizes:
        cfg = SolverConfig(basis_size=nb, scale_search=False)
        u, w = _momentum_grid(cfg.quad_nodes, nb)
        b = _allocating_momentum_basis(u, nb, l, np.sqrt(w) * u)
        overlap = b @ b.T
        rows = np.abs(np.diag(overlap) - 1.0)
        whole = float(np.max(np.abs(overlap - np.eye(nb))))
        if whole <= _OVERLAP_DEFECT_MAX:
            _ScaledCore(l, cfg, C, 1)
            continue
        failing = np.flatnonzero(rows > _OVERLAP_DEFECT_MAX)
        if failing.size:
            n = int(failing[0])
            shown = (rf"{rows[n]:.3e} \(limit 0\.001\); the momentum grid is too coarse for "
                     rf"basis function {n} of l = {l}$")
        else:
            shown = f"{whole:.3e} "
        with pytest.raises(IllConditionedBasis,
                           match=f"^overlap deviates from the identity by {shown}"):
            _ScaledCore(l, cfg, C, 1)


@pytest.mark.parametrize("l, first", [(0, 158), (4, 155)])
def test_refused_basis_checks_no_row_past_its_first_aliased_one(C, monkeypatch, l, first):
    # the row check runs as the recurrence makes each row: a basis-512 core checks rows
    # 0 to its first aliased one, and neither a later row nor the whole of S
    checked = []
    inner = salpeter._refuse_aliasing

    def counting(defect, channel, row=None):
        checked.append(row)
        inner(defect, channel, row)

    monkeypatch.setattr(salpeter, "_refuse_aliasing", counting)
    with pytest.raises(IllConditionedBasis, match=f"basis function {first} of l = {l}$"):
        _ScaledCore(l, SolverConfig(basis_size=512, scale_search=False), C, 1)
    assert checked == list(range(first + 1))


@pytest.mark.parametrize("l, largest", enumerate([158, 157, 156, 155, 155, 154, 153, 152]))
def test_largest_basis_per_l(C, D, l, largest):
    # the README's largest basis per l solves, and one more is refused at that row
    level = lowest_levels(l, 1, SolverConfig(basis_size=largest, scale_search=False), C)[0]
    n = level.state.n_principal()
    assert level.value == pytest.approx(-D.mu * C.alpha**2 / (2 * n * n) * C.ev_per_mev, rel=1e-4)
    with pytest.raises(IllConditionedBasis, match=rf"; the momentum grid is too coarse for basis "
                                                  rf"function {largest} of l = {l}$"):
        lowest_levels(l, 1, SolverConfig(basis_size=largest + 1, scale_search=False), C)


def _scaled(c, k):
    """The constant set with both masses times 2^k."""
    return c._replace(m_e=math.ldexp(c.m_e, k), m_p=math.ldexp(c.m_p, k))


@pytest.mark.parametrize("l", [0, 4])
def test_core_grid_and_basis_are_the_same_for_every_input(C, l):
    # in Bohr units no mass and no charge enters the grid or the basis; the grid that ended
    # at p = 1e6 MeV gave Z = 87 and CODATA x 2^20 other panels, and (1e-260, 1.5e-60) a NaN basis
    cfg = SolverConfig()
    reference = _ScaledCore(l, cfg, C, 1)
    for c, z in [(C, 87), (_scaled(C, 20), 1), (C._replace(m_e=1e-260, m_p=1.5e-60), 1)]:
        core = _ScaledCore(l, cfg, c, z)
        for name in ("u", "b", "overlap"):
            assert getattr(core, name).tobytes() == getattr(reference, name).tobytes(), (z, name)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=-1020, max_value=1014), st.integers(min_value=0, max_value=4),
       st.booleans())
@example(-1020, 0, True)
@example(1014, 0, True)
@example(514, 4, False)
def test_levels_scale_with_the_masses(C, k, l, scale_search):
    # the Hamiltonian is homogeneous in the masses: both times 2^k put every level at 2^k
    # times its value.  While m_e*m_p is a normal double mu scales exactly, so the core sees
    # the same inputs and the levels agree to the bit; past it mu takes its quotient form
    # and may differ by an ulp, which the search can carry to its value stop
    cfg = small_cfg(scale_search=scale_search)
    expected = [math.ldexp(level.value, k) for level in lowest_levels(l, 3, cfg, C)]
    got = [level.value for level in lowest_levels(l, 3, cfg, _scaled(C, k))]
    if abs(k) <= 500:
        assert got == expected
    else:
        for value, bound in zip(got, expected):
            assert abs(value - bound) <= 1e-11 * abs(bound), (value, bound)


@pytest.mark.parametrize("k", [20, 21, -100])
def test_table_column_scales_with_the_masses(C, k):
    # the grid that ended at p = 1e6 MeV printed 2S 1.7e-3 relative too deep at 2^20 and
    # 1S 1.3e-2 too deep at 2^21, where the search's trial scales ran past its top, and it
    # refused 1G at 2^-100 as too coarse for the basis
    expected = {state: math.ldexp(value, k)
                for state, value in salpeter_levels(TABLE_STATES, SolverConfig(), C).items()}
    assert salpeter_levels(TABLE_STATES, SolverConfig(), _scaled(C, k)) == expected


def test_basis_256_is_ill_conditioned(C):
    cfg = SolverConfig(basis_size=256, quad_nodes=4096, scale_search=False)
    with pytest.raises(IllConditionedBasis):
        lowest_levels(0, 1, cfg, C)


@pytest.mark.parametrize("z", [1, 2, 20, 40])
def test_scale_search_is_no_worse_than_the_bohr_scale(C, D, z):
    # the bracket starts in Bohr lengths 1/(mu*Z*alpha) and widens off an end that holds
    # the optimum, as the S wave's lower end does from Z = 73 on; the sweep below
    # covers Z up to 87
    searched = lowest_levels(0, 1, SolverConfig(), C, z=z)[0].value
    fixed = lowest_levels(0, 1, SolverConfig(scale_search=False), C, z=z)[0].value
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


@pytest.mark.parametrize("l", [8, 17, 36, 73, 100, 150])
def test_levels_past_the_spectroscopic_letters(C, D, l):
    # l = 8 has no letter, which the searched path's failure label once required; from
    # l = 17 the direct basis prefactor's powers overflowed on the top octaves, and from
    # l = 73 the Coulomb matrix's partial sums (2l+1+i)!/i! overflowed at basis 64
    for level in lowest_levels(l, 2, SolverConfig(), C):
        n = level.state.n_principal()
        assert level.value == pytest.approx(-D.mu * C.alpha**2 / (2 * n * n) * C.ev_per_mev,
                                            rel=1e-5)


def test_a_small_basis_holds_an_l_whose_direct_prefactor_zeroed_it(C, D):
    # the direct prefactor's 2^(2l+1) l! p^l overflowed over the central octaves from about
    # l = 126, and the mask that zeroed those entries had basis 8 refused as too coarse
    level = lowest_levels(130, 1, SolverConfig(basis_size=8), C)[0]
    assert level.value == pytest.approx(-D.mu * C.alpha**2 / (2 * 131**2) * C.ev_per_mev,
                                        rel=1e-5)


@pytest.mark.parametrize("l", [17, 36, 100])
def test_basis_prefactor_matches_its_direct_form_where_that_is_finite(l):
    # N_0 sqrt(2/pi) 2^(2l+1) l! u^l (u^2+1)^-(l+2), formed directly, overflows on the top
    # octaves from l = 17 and to inf/inf from l = 35; its log form is finite everywhere,
    # agrees with it wherever both powers are normal doubles, and is below 1e-100 of its
    # peak elsewhere
    u = _momentum_grid(4096, 64)[0]
    got = _basis_prefactor(u, l)
    with np.errstate(all="ignore"):
        power, denominator = u**l, (u * u + 1.0) ** (l + 2)
    normal = (power >= np.finfo(float).tiny) & np.isfinite(denominator)
    constant = (math.exp(0.5 * (math.log(8.0) - math.lgamma(2 * l + 3))) * math.sqrt(2.0 / math.pi)
                * 2.0 ** (2 * l + 1) * math.factorial(l))
    assert np.all(np.isfinite(got)) and not normal.all()
    np.testing.assert_allclose(got[normal], constant * power[normal] / denominator[normal],
                               rtol=1e-12)
    assert np.all(got[~normal] <= 1e-100 * got.max())


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=80), st.integers(min_value=4, max_value=155))
@example(0, 155)
@example(72, 64)
@example(65, 155)
def test_coulomb_matrix_matches_its_partial_sums_where_they_are_finite(C, l, nb):
    # the unit-scale Coulomb matrix against -z*alpha N_m N_n 2^-2 sum_{i<=min(m,n)}
    # Gamma(2l+2+i)/i!, its sums formed from lgamma, wherever they are doubles
    i = np.arange(nb)
    lgamma = np.vectorize(math.lgamma)
    with np.errstate(over="ignore"):
        partial = np.cumsum(np.exp(lgamma(2 * l + 2 + i) - lgamma(i + 1)))
    if not math.isfinite(partial[-1]):
        return
    norms = np.exp(0.5 * (3.0 * math.log(2.0) + lgamma(i + 1) - lgamma(i + 2 * l + 3)))
    expected = -C.alpha * np.outer(norms, norms) * partial[np.minimum.outer(i, i)] / 4.0
    np.testing.assert_allclose(_coulomb_matrix(nb, l, C.alpha, 1), expected, rtol=1e-12)


def test_an_l_past_the_grid_is_refused_by_row(C):
    # the Coulomb matrix's sums overflowed from l = 73 at basis 64, and from l = 171 the
    # direct prefactor's l! raised a bare OverflowError; the overlap check now sets the range
    assert lowest_levels(72, 1, SolverConfig(), C)[0].value < 0.0
    for l, nb, row in [(200, 64, 58), (250, 8, 6), (1000, 8, 1)]:
        with pytest.raises(IllConditionedBasis, match=rf"; the momentum grid is too coarse for "
                                                      rf"basis function {row} of l = {l}$"):
            lowest_levels(l, 1, SolverConfig(basis_size=nb), C)


# the README's range for the l of lowest_levels: the largest l at each basis (a sweep accepted
# none from l + 1 to l + 199) and the holes at basis 38, 39, 56 and 57: each edge of the
# refused range and the l on either side of it
_LARGEST_L = [(4, 77), (8, 171), (16, 501), (23, 830), (32, 483), (64, 174), (128, 34), (155, 4)]


@pytest.mark.parametrize("nb, l, accepted", [
    *((nb, l + past, not past) for nb, l in _LARGEST_L for past in (0, 1)),
    (38, 371, True), *((38, l, False) for l in range(372, 378)), (38, 384, True),
    *((39, l, True) for l in (357, 370, 371)), *((39, l, False) for l in (358, 369, 372)),
    *((56, l, True) for l in (213, 216, 218)), *((56, l, False) for l in (214, 215, 219)),
    *((57, l, True) for l in (207, 212, 213)), *((57, l, False) for l in (208, 211, 214)),
])
def test_the_overlap_check_accepts_the_documented_l_range(C, nb, l, accepted):
    cfg = SolverConfig(basis_size=nb)
    if accepted:
        _ScaledCore(l, cfg, C, 1)
        return
    with pytest.raises(IllConditionedBasis, match="^overlap deviates from the identity by "):
        _ScaledCore(l, cfg, C, 1)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=4, max_value=64),
       st.booleans())
@example(171, 8, True)
@example(172, 8, False)
@example(174, 64, True)
@example(175, 64, False)
def test_every_l_solves_or_is_refused_by_type(C, l, nb, scale_search):
    try:
        levels = lowest_levels(l, 2, SolverConfig(basis_size=nb, scale_search=scale_search), C)
    except HlevelsError:
        return
    assert all(math.isfinite(level.value) for level in levels)


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
def test_scale_search_agrees_with_scipy_bounded(C, D, l):
    # scipy's bounded Brent search on the same objective is the oracle; the two
    # stop at different points, so they agree to the search noise, not to the bit
    cfg = SolverConfig()
    lo, hi = _SCALE_BRACKET
    core = _ScaledCore(l, cfg, C, 1)
    calls = []

    def objective(log_length):
        calls.append(log_length)
        return core.spectrum(math.exp(-log_length))[0]

    # the objective is in units of mu*alpha over the log of the length in Bohr lengths
    bounds = (math.log(lo), math.log(hi * (l + 1)))
    _, fx = _golden_section_min(objective, *bounds)
    # the values stop the search first here; the bracket width bounds the count
    assert len(calls) <= _golden_section_evaluations(*bounds)
    searched = lowest_levels(l, 1, cfg, C)[0].value
    assert searched == float(fx) * C.ev_per_mev * D.mu * C.alpha
    oracle = minimize_scalar(objective, bounds=bounds, method="bounded").fun
    assert abs(searched - float(oracle) * C.ev_per_mev * D.mu * C.alpha) <= 1e-10


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


def _allocating_momentum_basis(p, nb, l, root_weight):
    # the whole-row recurrence of D_j = (j+l+1) C_j and the np.cumsum that _momentum_basis
    # runs in place, on scratch rows
    y2 = 2.0 * (p * p - 1.0) / (p * p + 1.0)
    d = np.empty((nb, p.size))
    d[0] = l + 1.0
    d[1] = (l + 2.0) * (l + 1.0) * y2
    for j in range(1, nb - 1):
        d[j + 1] = (y2 * d[j] - (j + 2.0 * l + 1.0) / (j + l) * d[j - 1]) * ((j + l + 2.0) / (j + 1.0))
    weight = _basis_prefactor(p, l) * root_weight
    return np.cumsum(d, axis=0) * _norm_ratios(nb, l)[:, None] * weight


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=4, max_value=128))
@example(0, 128)
@example(4, 128)
@example(0, 158)
@example(7, 152)
def test_momentum_basis_matches_scipy_gegenbauer(l, nb):
    # the reference basis against the docstring's layers from scipy's Gegenbauer
    # polynomials, summed by np.cumsum
    u = np.geomspace(1e-6, 1e6, 257)
    y = (u * u - 1.0) / (u * u + 1.0)
    j = np.arange(nb)
    prefactor = (math.sqrt(2.0 / math.pi) * 2.0 ** (2 * l + 1) * math.factorial(l)
                 * u**l / (u * u + 1.0) ** (l + 2))
    layers = eval_gegenbauer(j[:, None], l + 1.0, y[None, :]) * (j + l + 1)[:, None] * prefactor
    norms = np.exp(0.5 * (3.0 * math.log(2.0)
                          + np.array([math.lgamma(n + 1) - math.lgamma(n + 2 * l + 3) for n in j])))
    expected = np.cumsum(layers, axis=0) * norms[:, None]
    # the partial sums cancel; hold each to the sum of the magnitudes of its layers
    scale = np.cumsum(np.abs(layers), axis=0) * norms[:, None]
    got = _allocating_momentum_basis(u, nb, l, 1.0)
    assert got.shape == (nb, u.size)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)
    # the in-place recurrence, row sums, per-row weight and row check keep the float order
    # of the allocating ones, on the default grid, which holds every row of these bases
    u, w = _momentum_grid(4096, nb)
    root_weight = np.sqrt(w) * u
    np.testing.assert_array_equal(_momentum_basis(u, nb, l, root_weight),
                                  _allocating_momentum_basis(u, nb, l, root_weight))


def _recording_searches(monkeypatch):
    """{objective: (lo, x, hi)} of the last golden-section search on each objective."""
    searches = {}
    inner = _golden_section_min

    def recording(f, lo, hi):
        x, fx = inner(f, lo, hi)
        searches[f] = (lo, x, hi)
        return x, fx

    monkeypatch.setattr("hlevels.salpeter._golden_section_min", recording)
    return searches


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=87), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2))
@example(73, 0, 0)
@example(87, 0, 2)
def test_searched_minimizer_sits_inside_its_final_bracket(C, z, l, k):
    # the unwidened search ended 1S on the lower end of its bracket from Z = 73 on
    with pytest.MonkeyPatch.context() as mp:
        searches = _recording_searches(mp)
        searched = lowest_levels(l, k + 1, SolverConfig(), C, z=z)
    assert len(searches) == k + 1  # one objective per level
    for lo, x, hi in searches.values():
        assert lo + 2.0 * _SCALE_XATOL <= x <= hi - 2.0 * _SCALE_XATOL
    # the Bohr scale is inside every bracket; where it is the optimum (1D) the value
    # stop promises the least value to 2 * _SCALE_RTOL, as for the analytic minima
    fixed = lowest_levels(l, k + 1, SolverConfig(scale_search=False), C, z=z)
    for level, at_bohr in zip(searched, fixed):
        assert level.value <= at_bohr.value + 2.0 * _SCALE_RTOL * abs(at_bohr.value), level.state


def test_s_wave_optimum_below_the_first_bracket_is_found(C):
    # at Z = 87 the 1S optimum is at 0.032 Bohr lengths, below the bracket's 0.05;
    # the search that did not widen printed -202752.38 eV, 346.6 eV too high
    assert lowest_levels(0, 1, SolverConfig(), C, z=87)[0].value <= -203098.9


def test_table_searches_do_not_widen(C, monkeypatch):
    # at Z = 1 every minimizer is 0.78 or more from an end: one search per level
    searches = _recording_searches(monkeypatch)
    values = salpeter_levels(TABLE_STATES, SolverConfig(), C)
    assert len(searches) == len(values)
    lo, hi = _SCALE_BRACKET
    for (lo_x, x, hi_x), state in zip(searches.values(), values):
        assert lo_x == math.log(lo)
        assert hi_x == math.log(hi * (state.k + state.l + 1))
        assert min(x - lo_x, hi_x - x) > _SCALE_GUARD


def test_widened_min_moves_an_end_that_holds_the_minimizer():
    # the minimizer -3 lies five widenings of log(2) below the bracket [0, 1]
    x, fx, lo, hi = _widened_min(lambda t: (t + 3.0) ** 2, 0.0, 1.0, "1S")
    moves = math.ceil((3.0 + _SCALE_GUARD) / math.log(_SCALE_WIDEN))
    assert (lo, hi) == (-moves * math.log(_SCALE_WIDEN), 1.0)
    assert abs(x + 3.0) <= _STOP_WIDTH and fx == (x + 3.0) ** 2
    # an interior minimizer keeps the bracket
    assert _widened_min(lambda t: (t - 0.5) ** 2, 0.0, 1.0, "1S")[2:] == (0.0, 1.0)


@pytest.mark.parametrize("f, edge", [(math.atan, "lower"), (lambda t: -math.atan(t), "upper"),
                                     (lambda t: math.nan, "upper")])
def test_widened_min_refuses_a_minimum_past_its_widest_bracket(f, edge):
    calls = []
    with pytest.raises(ScaleSearchFailure, match=rf"^2P: the scale search still ends on its "
                                                  rf"{edge} edge, .* after widening it 1024-fold$"):
        _widened_min(lambda t: calls.append(t) or f(t), 0.0, 1.0, "2P")
    reach = _SCALE_WIDENINGS * math.log(_SCALE_WIDEN)
    assert -reach < min(calls) and max(calls) < 1.0 + reach
