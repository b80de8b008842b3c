"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The published tables hold defects that criteria 3 and 5 detect and print
rather than reproduce (see README):

- the SS column is the one-body scalar-Coulomb spectrum with the bare
  electron mass, not a two-body Salpeter solve;
- its 1G energy is the QC value;
- the eps_qc entries of rows 1D-1G are shifted down one row;
- the 2P eps_qc has the wrong exponent (8.89e-3 for 8.89e-4);
- the 2D eps_kg reads 5.54e-2 against 5.445e-2 from the energies, which is
  inside the 2% tolerance.

Criterion 3 holds the live Salpeter column to the closed-form O(alpha^4)
two-body expansion at 5e-5 eV, and every self-consistent printed SS energy
to the bare-mass scalar-Coulomb level at 1e-7 eV.  Criterion 5 holds each
live kg/qc epsilon to its printed value at 2% where that value is the
epsilon of the printed energy, the printed eps_ss to the scalar-Coulomb
epsilon, and every harness flag to the same 2% rule.  A printed number that
disagrees with its own printed energy is set aside, found from the data.
"""

import math
import time

import pytest
from scipy.linalg import eigh

from _ddouble import DD
from hlevels import (
    Constants,
    DerivedMasses,
    DiracState,
    QuantumState,
    SolverConfig,
    SupercriticalCharge,
    builtin_reference,
    default_constants,
    default_params,
    derive,
    kg_level,
    qc_complex_mass,
    qc_level,
    qc_root_gaps,
    relative_error,
    scalar_coulomb_level,
    sommerfeld_level,
    analytic_i_infinity,
    verification_report,
)
from hlevels.harness import (
    TABLE_STATES,
    Environment,
    generate_table1,
    generate_table2,
)
from hlevels.salpeter import lowest_levels, salpeter_levels

C = default_constants()
D = derive(C)

PUBLISHED_QC = [-13.59810653, -3.39956046, -1.51091854, -0.84989222, -0.54393115,
                -3.39956046, -1.51091854, -0.84989222, -1.51091854, -0.84989222]
PUBLISHED_KG = [-13.60659871, -3.40144965, -1.51174769, -0.85035692, -0.54422814,
                -3.40157042, -1.51175484, -0.85035822, -1.51179063, -0.85036123]
PUBLISHED_SS = [-13.60442520, -3.40137418, -1.51173516, -0.85035328, -0.54393117,
                -3.40125344, -1.51172801, -0.85035199, -1.51169223, -0.85034897]
PUBLISHED_M_IM = [3.421587, 1.710793, 1.140530, 0.855397, 0.684317,
                  1.710793, 1.140530, 0.855397, 1.140530, 0.855397]
PUBLISHED_EPS = {
    "kg": [6.00e-2, 5.45e-2, 5.45e-2, 5.45e-2, 5.45e-2,
           5.73e-2, 5.45e-2, 5.54e-2, 5.63e-2, 5.45e-2],
    "ss": [4.41e-2, 5.22e-2, 5.37e-2, 5.41e-2, 5.42e-2,
           4.79e-2, 5.27e-2, 5.37e-2, 4.98e-2, 5.30e-2],
    "qc": [2.41e-3, 1.11e-3, 2.41e-3, 3.84e-4, 1.59e-4,
           1.87e-3, 8.89e-3, 3.84e-4, 1.39e-3, 7.20e-4],
}


PUBLISHED = {"kg": PUBLISHED_KG, "ss": PUBLISHED_SS, "qc": PUBLISHED_QC}
REFERENCE = builtin_reference().entries
EPS_RTOL = 0.02  # relative tolerance of every published-epsilon comparison


def eps_agrees(eps: float, published: float) -> bool:
    return abs(eps - published) <= EPS_RTOL * published


def printed_eps_consistent(model: str, i: int) -> bool:
    """Whether the printed epsilon of a cell is that of its printed energy."""
    st = TABLE_STATES[i]
    return eps_agrees(relative_error(PUBLISHED[model][i], REFERENCE[st]), PUBLISHED_EPS[model][i])


def salpeter_weak_coupling(st: QuantumState) -> float:
    """Two-body spinless-Salpeter level to O(alpha^4), in eV.

    First-order perturbation theory in the p^4 term of the kinetic
    expansion around the reduced-mass Schrodinger levels (cf. Lucha &
    Schoberl, PRA 54, 3790 (1996)):
        E = -mu a^2/(2n^2) - (mu a)^4/(8n^4) (1/m_e^3 + 1/m_p^3) (8n/(2l+1) - 3).
    The remainder is O(alpha^5) and, for l = 0 only, falls off as 1/n^3.
    """
    n, mu_alpha = st.n_principal(), D.mu * C.alpha
    inv_m3 = 1.0 / C.m_e**3 + 1.0 / C.m_p**3
    value = (-mu_alpha * C.alpha / (2.0 * n * n)
             - mu_alpha**4 / (8.0 * n**4) * inv_m3 * (8.0 * n / (2 * st.l + 1) - 3.0))
    return value * C.ev_per_mev


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ss_column():
    """Salpeter column at basis 64 with scale search, with its wall time."""
    cfg = SolverConfig(basis_size=64, scale_search=True)
    start = time.perf_counter()
    values = salpeter_levels(TABLE_STATES, cfg, C)
    elapsed = time.perf_counter() - start
    return {st: values[st] for st in TABLE_STATES}, elapsed


def test_criterion_1_qc_column():
    start = time.perf_counter()
    worst = max(
        abs(qc_level(st, D, C).value - ref)
        for st, ref in zip(TABLE_STATES, PUBLISHED_QC)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-5 and elapsed < 1.0
    report(1, ok, f"QC column max deviation {worst:.2e} eV (limit 5e-5), {elapsed:.3f}s")


def test_criterion_2_kg_column():
    start = time.perf_counter()
    worst = max(
        abs(kg_level(st, 1, C).value - ref)
        for st, ref in zip(TABLE_STATES, PUBLISHED_KG)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-5 and elapsed < 1.0
    report(2, ok, f"KG column max deviation {worst:.2e} eV (limit 5e-5), {elapsed:.3f}s")


def test_criterion_3_ss_column(ss_column):
    values, elapsed = ss_column
    gaps = {st.label: abs(values[st] - salpeter_weak_coupling(st)) for st in TABLE_STATES}
    worst_state = max(gaps, key=gaps.get)
    worst = gaps[worst_state]
    # The printed column is the one-body scalar-Coulomb spectrum with the
    # bare electron mass.  A row whose printed energy disagrees with its own
    # printed epsilon is a misprint and is set aside.
    held = [i for i in range(len(TABLE_STATES)) if printed_eps_consistent("ss", i)]
    set_aside = [st.label for i, st in enumerate(TABLE_STATES) if i not in held]
    printed = max(
        (abs(PUBLISHED_SS[i] - scalar_coulomb_level(TABLE_STATES[i], 1, C).value) for i in held),
        default=math.inf,
    )
    ok = worst <= 5e-5 and printed <= 1e-7 and elapsed < 120.0
    report(
        3,
        ok,
        f"SS column vs O(alpha^4) two-body expansion max gap {worst:.2e} eV at {worst_state} "
        f"(limit 5e-5); printed SS vs bare-mass scalar Coulomb max gap {printed:.2e} eV "
        f"on {len(held)} rows (limit 1e-7), set aside {set_aside or 'none'}; {elapsed:.1f}s",
    )


def test_criterion_4_m_im_column():
    start = time.perf_counter()
    worst = max(
        abs(abs(qc_complex_mass(st, D, C).im) - ref)
        for st, ref in zip(TABLE_STATES, PUBLISHED_M_IM)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-6 and elapsed < 1.0
    report(4, ok, f"M_im column max deviation {worst:.2e} MeV (limit 5e-6), {elapsed:.3f}s")


def test_criterion_5_epsilon_columns(ss_column):
    values, _ = ss_column
    table1 = generate_table1(Environment())
    for row, st in zip(table1, TABLE_STATES):
        row["ss"] = values[st]
    table2 = generate_table2(Environment(), table1)
    devs = {"kg": {}, "qc": {}, "ss": {}}
    set_aside, wrong_flags = [], []
    for i, (row, st) in enumerate(zip(table2, TABLE_STATES)):
        for model, model_devs in devs.items():
            published = PUBLISHED_EPS[model][i]
            eps = row[f"eps_{model}"]
            if row["flags"][model] != ("MATCH" if eps_agrees(eps, published) else "MISMATCH"):
                wrong_flags.append(f"{st.label}/{model}")
            if model == "ss":
                # the printed eps_ss are those of the bare-mass scalar-Coulomb
                # column; the live two-body energies are held by criterion 3
                eps = relative_error(scalar_coulomb_level(st, 1, C).value, REFERENCE[st])
            elif not printed_eps_consistent(model, i):
                set_aside.append(f"{st.label}/{model}")
                continue
            model_devs[st.label] = abs(eps - published) / published
    bad = [f"{label}/{model}" for model, model_devs in devs.items()
           for label, dev in model_devs.items() if dev > EPS_RTOL]
    gaps = []
    for model, name in (("kg", "live eps_kg"), ("qc", "live eps_qc"),
                        ("ss", "printed eps_ss vs bare-mass scalar Coulomb")):
        worst = max(devs[model], key=devs[model].get)
        gaps.append(f"{name} max {devs[model][worst]:.2%} at {worst} ({len(devs[model])} cells)")
    ok = not bad and not wrong_flags
    report(
        5,
        ok,
        f"{', '.join(gaps)} (limit 2%); over limit {bad or 'none'}; "
        f"flags disagreeing with the 2% rule {wrong_flags or 'none'} of 30; "
        f"set aside {set_aside or 'none'}",
    )


def test_criterion_6_quantization_residuals():
    params = default_params(C)
    start = time.perf_counter()
    states = [QuantumState(k, l) for k in range(5) for l in range(5 - k)]
    worst = max(abs(row["residual"]) for row in verification_report(states, D, C, params))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    report(6, ok, f"quantization residual max {worst:.2e} (limit 1e-5), {elapsed:.1f}s")


def test_criterion_7_algebraic_identities():
    start = time.perf_counter()
    worst_quad = worst_prod = worst_sum = worst_iinf = worst_deg = 0.0
    for n in range(1, 21):
        st = QuantumState(n - 1, 0)
        v = C.alpha / (2.0 * n)
        e2 = D.m_a**2 * (1.0 - v * v)
        b = D.m_a * D.m_minus * v
        m = qc_complex_mass(st, D, C)
        s_plus, gap_low, gap_high = qc_root_gaps(st, D, C)
        # M^2 = 4 (e_N^2 + i b): the quadratic's roots are M_re^2 = s_plus and -M_im^2
        for root in (s_plus, -m.im**2):
            resid = root * root - 4.0 * e2 * root - 4.0 * b * b
            worst_quad = max(worst_quad, abs(resid) / max(root * root, 4 * b * b))
        worst_prod = max(worst_prod, abs(m.re * m.im / (2.0 * b) - 1.0))
        worst_sum = max(
            worst_sum, abs((m.re**2 + m.im**2) / (4.0 * math.hypot(e2, b)) - 1.0)
        )
        i_inf = analytic_i_infinity(s_plus, D, C, gap_low=gap_low, gap_high=gap_high)
        worst_iinf = max(worst_iinf, abs(i_inf / (2.0 * math.pi * n) - 1.0))
        values = [qc_level(QuantumState(k, n - 1 - k), D, C).value for k in range(n)]
        worst_deg = max(worst_deg, (max(values) - min(values)) / abs(values[0]))
    elapsed = time.perf_counter() - start
    ok = (worst_quad <= 1e-12 and worst_prod <= 1e-10 and worst_sum <= 1e-10
          and worst_iinf <= 1e-10 and worst_deg <= 1e-14 and elapsed < 1.0)
    report(
        7,
        ok,
        f"quadratic {worst_quad:.1e}, re*im {worst_prod:.1e}, re^2+im^2 {worst_sum:.1e}, "
        f"I_inf {worst_iinf:.1e}, degeneracy {worst_deg:.1e}, {elapsed:.3f}s",
    )


def test_criterion_8_double_double_stability():
    worst = 0.0
    for st in TABLE_STATES:
        n = st.n_principal()
        v = DD.of(C.alpha) / (2.0 * n)
        m_a, m_minus, m_plus = DD.of(D.m_a), DD.of(D.m_minus), DD.of(D.m_plus)
        e2 = m_a * m_a * (DD.of(1.0) - v * v)
        b = m_a * m_minus * v
        abs_eps2 = (e2 * e2 + b * b).sqrt()
        re = (DD.of(2.0) * (abs_eps2 + e2)).sqrt()
        naive = ((re - m_plus) * C.ev_per_mev).to_float()
        worst = max(worst, abs(qc_level(st, D, C).value - naive))
    ok = worst <= 1e-10
    report(8, ok, f"stable vs double-double naive max gap {worst:.2e} eV (limit 1e-10)")


def test_criterion_9_limits_and_properties():
    # equal masses: imaginary part vanishes identically
    m = 0.5
    d_eq = DerivedMasses(m_plus=2 * m, m_minus=0.0, m_a=m, mu=m / 2)
    equal_ok = qc_complex_mass(QuantumState(0, 0), d_eq, C).im == 0.0

    c_small = Constants(alpha=1e-4)
    d_small = derive(c_small)
    ratio = qc_level(QuantumState(0, 0), d_small, c_small).value / (
        -d_small.mu * c_small.alpha**2 / 2.0 * c_small.ev_per_mev
    )
    limit_ok = abs(ratio - 1.0) <= 1e-4

    values = []
    for nb in (8, 16, 32, 64):
        cfg = SolverConfig(basis_size=nb, quad_nodes=max(2048, 2 * nb), scale_search=False)
        values.append(lowest_levels(0, 1, cfg, C)[0].value)
    mono_ok = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    ok = equal_ok and limit_ok and mono_ok
    report(
        9,
        ok,
        f"equal-mass M_im=0 {equal_ok}, alpha->0 ratio defect {abs(ratio - 1):.1e}, "
        f"variational ladder monotone {mono_ok}",
    )


def _last_bound_z(level, state):
    """The largest Z at which the level exists: the first Z + 1 whose level is refused."""
    z = 1
    while True:
        try:
            level(state, z + 1, C)
        except SupercriticalCharge:
            return z
        z += 1


def test_criterion_10_critical_z():
    got = (
        _last_bound_z(sommerfeld_level, DiracState(1, 1)),
        _last_bound_z(sommerfeld_level, DiracState(2, 3)),
        _last_bound_z(kg_level, QuantumState(0, 0)),
    )
    ok = got == (137, 274, 68)
    report(10, ok, f"critical Z (sommerfeld j=1/2, j=3/2, kg l=0) = {got}, expect (137, 274, 68)")
