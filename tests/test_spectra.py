import math
import sys

import pytest
from hypothesis import given, strategies as st

from _ddouble import DD
from hlevels import (
    Constants,
    DerivedMasses,
    DiracState,
    HlevelsError,
    QuantumState,
    SupercriticalCharge,
    derive,
    kg_level,
    qc_complex_mass,
    qc_level,
    qc_root_gaps,
    qc_width,
    scalar_coulomb_level,
    schrodinger_level,
    sommerfeld_level,
)

TABLE_STATES = [
    QuantumState(0, 0), QuantumState(0, 1), QuantumState(0, 2), QuantumState(0, 3),
    QuantumState(0, 4), QuantumState(1, 0), QuantumState(1, 1), QuantumState(1, 2),
    QuantumState(2, 0), QuantumState(2, 1),
]

# frozen extended-precision oracle values (eV), one per principal number
QC_ORACLE = {
    1: -13.5981066128,
    2: -3.39956050377,
    3: -1.51091856554,
    4: -0.849892241629,
    5: -0.543931197128,
}


# Z=1 quasiclassical floats as computed before Z entered the model, one per
# principal number: (level eV, M_re, M_im, s_plus, m_plus^2 - s_plus)
QC_Z1_FROZEN = {
    1: (-13.598106612793657, 938.7830666479933, 3.421586670053713, 881313.6462250107,
        0.025531344638033433),
    2: (-3.399560503770537, 938.7830768465395, 1.7107933164415146, 881313.6653734557,
        0.006382899750867053),
    3: (-1.5109185655415798, 938.7830787351814, 1.1405288753331626, 881313.6689195058,
        0.002836849567637039),
    4: (-0.8498922416296468, 938.7830793962078, 0.8553966558975604, 881313.6701606265,
        0.00159572891222607),
    5: (-0.5439311971281684, 938.7830797021688, 0.6843173244950209, 881313.6707350886,
        0.0010212668090678492),
}


def _equal_mass_derived(m=0.5109989461):
    return DerivedMasses(m_plus=2 * m, m_minus=0.0, m_a=m, mu=m / 2)


# --- quantum numbers ---------------------------------------------------------

def test_quantum_state_labels():
    assert QuantumState(0, 0).label == "1S"
    assert QuantumState(0, 1).label == "1P"
    assert QuantumState(1, 0).label == "2S"
    assert QuantumState(2, 1).label == "3P"
    with pytest.raises(ValueError):
        QuantumState(0, 8).label


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        QuantumState(-1, 0)
    with pytest.raises(ValueError):
        QuantumState(0, -1)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
def test_principal_numbers_agree(k, l):
    st_ = QuantumState(k, l)
    assert st_.n_principal() == k + l + 1


def test_dirac_state_validation():
    DiracState(n=1, two_j=1)
    with pytest.raises(ValueError):
        DiracState(n=0, two_j=1)
    with pytest.raises(ValueError):
        DiracState(n=1, two_j=2)
    with pytest.raises(ValueError):
        DiracState(n=1, two_j=3)  # j+1/2 > n


# --- nonrelativistic and fine-structure levels -------------------------------

def test_schrodinger_ground_state(C):
    assert schrodinger_level(1, C).value == pytest.approx(-13.605693, abs=1e-5)


def test_schrodinger_scaling(C):
    e1 = schrodinger_level(1, C).value
    assert schrodinger_level(2, C).value == e1 / 4.0
    assert abs(schrodinger_level(400, C).value) < 1e-4
    with pytest.raises(ValueError):
        schrodinger_level(0, C)


def test_schrodinger_reduced_mass(C):
    assert schrodinger_level(1, C, use_reduced=True).value == pytest.approx(
        -13.59828715, abs=1e-7
    )


def test_sommerfeld_ground_state_collapses(C):
    # n=1, j=1/2: denominator reduces to lambda, T = m_e(sqrt(1-(Z a)^2)-1)
    level = sommerfeld_level(DiracState(1, 1), 1, C)
    direct = C.m_e * (math.sqrt(1.0 - C.alpha**2) - 1.0) * C.ev_per_mev
    assert level.value == pytest.approx(direct, rel=1e-11)
    # frozen extended-precision value of the collapsed form
    assert level.value == pytest.approx(-13.60587414, abs=2e-5)


def test_sommerfeld_supercritical(C):
    with pytest.raises(SupercriticalCharge):
        sommerfeld_level(DiracState(1, 1), 138, C)
    sommerfeld_level(DiracState(1, 1), 137, C)  # still bound


def test_kg_table_values(C):
    assert kg_level(QuantumState(0, 0), 1, C).value == pytest.approx(-13.60659871, abs=5e-5)
    assert kg_level(QuantumState(0, 1), 1, C).value == pytest.approx(-3.40144965, abs=5e-5)
    # frozen oracle at tighter tolerance
    assert kg_level(QuantumState(0, 0), 1, C).value == pytest.approx(-13.6065987617, abs=1e-7)


def test_kg_supercritical(C):
    with pytest.raises(SupercriticalCharge):
        kg_level(QuantumState(0, 0), 69, C)
    kg_level(QuantumState(0, 0), 68, C)


def test_scalar_coulomb_values(C):
    level = scalar_coulomb_level(QuantumState(0, 0), 1, C)
    assert level.value == pytest.approx(-13.60423, abs=2e-4)
    # frozen extended-precision oracle
    assert level.value == pytest.approx(-13.60442525, abs=1e-6)


def test_scalar_coulomb_regular_at_large_z(C):
    # plus sign under the root: real for every Z
    assert scalar_coulomb_level(QuantumState(0, 0), 500, C).value < 0.0


def test_scalar_coulomb_small_alpha():
    c = Constants(alpha=1e-9)
    assert abs(scalar_coulomb_level(QuantumState(0, 0), 1, c).value) < 1e-9


# --- quasiclassical complex-mass spectrum ------------------------------------

def _squared_mass_roots(st_, d, c):
    # the eigenmass quadratic s^2 - 4 e_N^2 s - 4 b^2 = 0 has the roots M_re^2 = s_plus and
    # -M_im^2, since M^2 = 4 (e_N^2 + i b)
    return qc_root_gaps(st_, d, c)[0], -qc_complex_mass(st_, d, c).im ** 2


def test_qc_squared_mass_satisfies_quadratic(C, D):
    for st_ in TABLE_STATES:
        n = st_.n_principal()
        v = C.alpha / (2.0 * n)
        e2 = D.m_a**2 * (1.0 - v * v)
        b = D.m_a * D.m_minus * v
        for root in _squared_mass_roots(st_, D, C):
            residual = root * root - 4.0 * e2 * root - 4.0 * b * b
            assert abs(residual) <= 1e-12 * max(abs(root * root), 4.0 * b * b)


def test_qc_squared_mass_equal_masses(C):
    d = _equal_mass_derived()
    s_plus, s_minus = _squared_mass_roots(QuantumState(0, 0), d, C)
    v = C.alpha / 2.0
    assert s_plus == pytest.approx(4.0 * d.m_a**2 * (1.0 - v * v), rel=1e-15)
    assert s_minus == 0.0


def test_qc_root_position(C, D):
    s_plus = qc_root_gaps(QuantumState(0, 0), D, C)[0]
    assert s_plus / D.m_plus**2 - 1.0 == pytest.approx(-2.899e-8, abs=2e-10)
    assert D.m_minus**2 < s_plus < D.m_plus**2


def test_qc_root_gaps_consistency(C, D):
    for st_ in TABLE_STATES:
        s_plus, gap_low, gap_high = qc_root_gaps(st_, D, C)
        assert gap_low + gap_high == pytest.approx(4.0 * C.m_e * C.m_p, rel=1e-14)
        # closed-form gap agrees with direct subtraction to its rounding level
        assert gap_high == pytest.approx(D.m_plus**2 - s_plus, rel=1e-6)
        assert gap_high > 0.0 and gap_low > 0.0


def test_qc_complex_mass_table(C, D):
    assert abs(qc_complex_mass(QuantumState(0, 0), D, C).im) == pytest.approx(
        3.421587, abs=5e-6
    )
    m1p = qc_complex_mass(QuantumState(0, 1), D, C)
    assert abs(m1p.im) == pytest.approx(3.421587 / 2.0, abs=5e-6)


def test_qc_complex_mass_equal_masses(C):
    assert qc_complex_mass(QuantumState(0, 0), _equal_mass_derived(), C).im == 0.0


def test_qc_complex_mass_identities(C, D):
    for n in range(1, 21):
        st_ = QuantumState(n - 1, 0)
        m = qc_complex_mass(st_, D, C)
        v = C.alpha / (2.0 * n)
        b = D.m_a * D.m_minus * v
        e2 = D.m_a**2 * (1.0 - v * v)
        abs_eps2 = math.hypot(e2, b)
        assert m.re * m.im == pytest.approx(2.0 * b, rel=1e-10)
        assert m.re**2 + m.im**2 == pytest.approx(4.0 * abs_eps2, rel=1e-10)


def test_qc_level_oracle_values(C, D):
    for st_ in TABLE_STATES:
        n = st_.n_principal()
        assert qc_level(st_, D, C).value == pytest.approx(QC_ORACLE[n], abs=5e-8)


def test_qc_degeneracy(C, D):
    for n in range(1, 7):
        values = {
            qc_level(QuantumState(k, n - 1 - k), D, C).value for k in range(n)
        }
        spread = max(values) - min(values)
        assert spread <= 1e-14 * abs(QC_ORACLE.get(n, -0.1))


def test_qc_nonrelativistic_limit():
    c = Constants(alpha=1e-4)
    d = derive(c)
    for z in (1, 2, 10):
        for n in (1, 2, 3):
            expected = -d.mu * (z * c.alpha) ** 2 / (2.0 * n * n) * c.ev_per_mev
            ratio = qc_level(QuantumState(n - 1, 0), d, c, z).value / expected
            assert ratio == pytest.approx(1.0, abs=1e-4)


def test_qc_z1_values_are_unchanged(C, D):
    for n, frozen in QC_Z1_FROZEN.items():
        st_ = QuantumState(n - 1, 0)
        m = qc_complex_mass(st_, D, C)
        s_plus, _, gap_high = qc_root_gaps(st_, D, C)
        assert (qc_level(st_, D, C).value, m.re, m.im, s_plus, gap_high) == frozen


def test_schrodinger_scales_exactly_as_z_squared(C):
    for n in (1, 2, 7):
        assert schrodinger_level(n, C, z=2).value == 4.0 * schrodinger_level(n, C).value
        assert schrodinger_level(n, C, True, 3).value == pytest.approx(
            9.0 * schrodinger_level(n, C, use_reduced=True).value, rel=1e-15)


def _qc_naive_dd(st_, d, c, z=1):
    """Naive M_re - m_plus in eV, evaluated in ~32-digit arithmetic."""
    v = DD.of(z * c.alpha) / (2.0 * st_.n_principal())
    m_a, m_minus, m_plus = DD.of(d.m_a), DD.of(d.m_minus), DD.of(d.m_plus)
    e2 = m_a * m_a * (DD.of(1.0) - v * v)
    b = m_a * m_minus * v
    abs_eps2 = (e2 * e2 + b * b).sqrt()
    re = (DD.of(2.0) * (abs_eps2 + e2)).sqrt()
    return ((re - m_plus) * c.ev_per_mev).to_float()


def test_qc_width(C, D):
    assert qc_width(QuantumState(0, 0), D, C) == pytest.approx(6.843174, abs=1e-5)
    assert qc_width(QuantumState(0, 0), _equal_mass_derived(), C) == 0.0
    gamma_n = [
        qc_width(QuantumState(0, l), D, C) * (l + 1) for l in range(5)
    ]
    for g in gamma_n[1:]:
        assert g == pytest.approx(gamma_n[0], rel=1e-6)


def test_levels_monotone_in_n(C, D):
    for model in ("schrodinger", "kg", "scalar", "qc", "sommerfeld"):
        previous = None
        for n in range(1, 7):
            if model == "schrodinger":
                t = schrodinger_level(n, C).value
            elif model == "kg":
                t = kg_level(QuantumState(n - 1, 0), 1, C).value
            elif model == "scalar":
                t = scalar_coulomb_level(QuantumState(n - 1, 0), 1, C).value
            elif model == "qc":
                t = qc_level(QuantumState(n - 1, 0), D, C).value
            else:
                t = sommerfeld_level(DiracState(n, 1), 1, C).value
            assert t < 0.0
            if previous is not None:
                assert previous < t
            previous = t


def test_stable_binding_identity():
    # (1+x)^(-1/2)-1 stable form equals the direct expression at benign x
    x = 0.25
    s = math.sqrt(1.0 + x)
    stable = -x / (s * (1.0 + s))
    direct = 1.0 / math.sqrt(1.0 + x) - 1.0
    assert stable == pytest.approx(direct, rel=1e-15)


def test_qc_level_matches_double_double_naive(C, D):
    for st_ in TABLE_STATES:
        assert abs(qc_level(st_, D, C).value - _qc_naive_dd(st_, D, C)) <= 1e-10


@given(st.integers(min_value=1, max_value=80), st.sampled_from(TABLE_STATES))
def test_qc_level_matches_double_double_naive_at_every_z(C, D, z, st_):
    naive = _qc_naive_dd(st_, D, C, z)
    assert abs(qc_level(st_, D, C, z).value - naive) <= 1e-10 * z * z
    # the nonrelativistic limit scales as Z^2; the rest is O((Z alpha)^2)
    ratio = naive / (z * z * _qc_naive_dd(st_, D, C))
    assert abs(ratio - 1.0) <= (z * C.alpha) ** 2


def test_naive_double_precision_is_worse(C, D):
    # documents why the stable form exists: plain doubles lose ~8 digits
    st_ = QuantumState(0, 0)
    v = C.alpha / 2.0
    e2 = D.m_a**2 * (1.0 - v * v)
    b = D.m_a * D.m_minus * v
    naive = (math.sqrt(2.0 * (math.hypot(e2, b) + e2)) - D.m_plus) * C.ev_per_mev
    assert abs(naive - qc_level(st_, D, C).value) < 1e-6  # still close...
    assert naive != qc_level(st_, D, C).value  # ...but not clean


# each closed-form model at Z = 1 as a function of the state and the constant set
_MASS_MODELS = {
    "schrodinger": lambda st_, c: schrodinger_level(st_.n_principal(), c).value,
    "sommerfeld": lambda st_, c: sommerfeld_level(
        DiracState(st_.n_principal(), 2 * st_.l + 1), 1, c).value,
    "kg": lambda st_, c: kg_level(st_, 1, c).value,
    "scalar": lambda st_, c: scalar_coulomb_level(st_, 1, c).value,
    "schrodinger_reduced": lambda st_, c: schrodinger_level(st_.n_principal(), c, True).value,
    "scalar_reduced": lambda st_, c: scalar_coulomb_level(st_, 1, c, use_reduced=True).value,
    "qc_level": lambda st_, c: qc_level(st_, derive(c), c).value,
    "qc_width": lambda st_, c: qc_width(st_, derive(c), c),
}


def test_closed_form_models_are_homogeneous_in_the_masses(C):
    # both masses times 2^k scale every level and width by 2^k, exactly while no intermediate
    # leaves the normal doubles (the bare-mass levels from k = -1001, where the level in MeV
    # is one); the reduced mass is a quotient formed one of two ways (measured: within
    # 4.1e-16), and the quasiclassical model refuses masses that take its intermediates out
    # of the normal doubles (its b^2 scales as 2^4k)
    codata = {(name, st_): model(st_, C) for name, model in _MASS_MODELS.items()
              for st_ in TABLE_STATES}
    qc_refused = set()
    for k in range(-1020, 1014):
        try:
            c = C._replace(m_e=math.ldexp(C.m_e, k), m_p=math.ldexp(C.m_p, k))
        except ValueError:
            continue
        for (name, st_), value in codata.items():
            expected = math.ldexp(value, k)
            if name.startswith("qc"):
                try:
                    got = _MASS_MODELS[name](st_, c)
                except HlevelsError:
                    qc_refused.add(k)
                    continue
                assert got == expected, (name, st_, k)
            elif sys.float_info.min <= abs(expected) / C.ev_per_mev:  # the level in MeV
                got = _MASS_MODELS[name](st_, c)
                if name.endswith("_reduced"):
                    assert abs(got - expected) <= 5e-16 * abs(expected), (name, st_, k)
                else:
                    assert got == expected, (name, st_, k)
    assert not qc_refused & set(range(-259, 251))


def test_qc_refusal_names_a_state_past_the_letters():
    c = Constants(m_e=1e-100, m_p=1e-97)
    with pytest.raises(HlevelsError, match="^quasiclassical 0:8 at Z = 1, m_e = 1e-100 MeV"):
        qc_level(QuantumState(0, 8), derive(c), c)


def test_critical_z(C):
    # the last Z with a level: Z*alpha < j + 1/2 for sommerfeld, l + 1/2 for kg
    for level, state, last in ((sommerfeld_level, DiracState(1, 1), 137),
                               (sommerfeld_level, DiracState(2, 3), 274),
                               (kg_level, QuantumState(0, 0), 68)):
        assert level(state, last, C).value < 0.0
        with pytest.raises(SupercriticalCharge):
            level(state, last + 1, C)
