import math
from fractions import Fraction

import pytest

from hlevels import (
    Constants,
    derive,
    schrodinger_level,
)


def test_default_values(C):
    assert C.alpha == 7.2973525664e-3
    assert C.m_e == 0.5109989461
    assert C.m_p == 938.2720813
    assert C.hbar_c == 197.3269788
    assert C.ev_per_mev == 1.0e6


def test_validation_rejects_bad_sets():
    with pytest.raises(ValueError):
        Constants(alpha=-1.0)
    with pytest.raises(ValueError):
        Constants(alpha=1.5)
    with pytest.raises(ValueError):
        Constants(m_e=2.0, m_p=1.0)
    with pytest.raises(ValueError):
        Constants(hbar_c=float("nan"))
    with pytest.raises(ValueError, match="^derived mass m_plus of m_e = .* is not finite"):
        Constants(m_e=1e308, m_p=1.5e308)


def test_derived_masses(C, D):
    assert D.m_plus == pytest.approx(938.7830802461, abs=1e-10)
    assert D.m_minus == pytest.approx(937.7610823539, abs=1e-10)
    assert D.m_a == D.m_plus / 2.0
    # reduced mass, frozen from an extended-precision evaluation
    assert D.mu == pytest.approx(0.5107208, abs=5e-8)
    # mass ratio sanity
    assert C.m_p / C.m_e == pytest.approx(1836.152674, abs=1e-6)


@pytest.mark.parametrize("m_e, m_p", [(0.5109989461, 938.2720813), (1e-260, 1.5e-60),
                                      (1e-300, 1e-290), (1e200, 2e200)])
def test_reduced_mass_to_two_ulp(m_e, m_p):
    # below the normal doubles the product m_e*m_p lost digits: mu came out 1.1e-5 relative
    # low at (1e-260, 1.5e-60), and 0 at (1e-300, 1e-290); above them it overflowed, and
    # (1e200, 2e200) was refused for a mu of inf
    exact = Fraction(m_e) * Fraction(m_p) / (Fraction(m_e) + Fraction(m_p))
    mu = derive(Constants(m_e=m_e, m_p=m_p)).mu
    assert abs(Fraction(mu) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def test_derive_is_pure(C):
    assert derive(C) == derive(C)


def test_mass_difference_identity(C, D):
    # m_plus^2 - m_minus^2 = 4 m_p m_e, in the factored stable form
    lhs = (D.m_plus - D.m_minus) * (D.m_plus + D.m_minus)
    rhs = 4.0 * C.m_p * C.m_e
    # the stored sums each round once, so a few ulp of slack is inherent
    assert abs(lhs - rhs) <= 1e-13 * rhs


# the Rydberg energy m*alpha^2/2 (m = m_e or mu) is the 1S Schrodinger binding energy

def test_rydberg_energy_electron_mass(C):
    rydberg = -schrodinger_level(1, C).value
    assert rydberg == pytest.approx(13.605693, abs=1e-5)
    # frozen extended-precision value
    assert rydberg == pytest.approx(13.60569301, abs=1e-7)


def test_rydberg_energy_reduced_mass(C):
    # frozen extended-precision value of mu*alpha^2/2 with these constants
    rydberg = -schrodinger_level(1, C, use_reduced=True).value
    assert rydberg == pytest.approx(13.59828715, abs=1e-7)
    assert rydberg < -schrodinger_level(1, C).value


def test_rydberg_energy_small_alpha():
    c = Constants(alpha=1e-8)
    assert 0.0 < -schrodinger_level(1, c).value < 1e-9


def test_energy_over_wavenumber_is_hc(C):
    # E/R_inf = h*c, with R_inf = m_e alpha^2 / 2 / (2 pi hbar_c) in 1/fm, rescaled to 1/m;
    # hbar_c in MeV*fm converts by 1e6 eV/MeV * 1e-15 m/fm
    rydberg_wavenumber = C.m_e * C.alpha**2 / 2.0 / (2.0 * math.pi * C.hbar_c) * 1.0e15
    assert rydberg_wavenumber == pytest.approx(10973731.57, abs=0.5)
    ratio = -schrodinger_level(1, C).value / rydberg_wavenumber
    hc = 2.0 * math.pi * C.hbar_c * 1e-9
    assert ratio == pytest.approx(hc, rel=1e-12)
