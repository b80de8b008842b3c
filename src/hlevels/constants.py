"""Physical constants and derived mass combinations.

Single source of truth for every model in the package.  Internally the
unit system is natural (hbar = c = 1) with masses in MeV; energies are
converted to eV only at the reporting boundary.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

EV_PER_MEV = 1.0e6

# CODATA-2014 frozen values.
_ALPHA = 7.2973525664e-3
_M_E_MEV = 0.5109989461
_M_P_MEV = 938.2720813
_HBAR_C_MEV_FM = 197.3269788


def _checked(cls):
    """Wrap a NamedTuple's generated __new__ and _make, which its body may not define, to
    call its _check(self): the constructor and unpickling use __new__, _replace uses _make.
    """
    def checking(build):
        @functools.wraps(build)
        def checked(*args, **kwargs):
            record = build(*args, **kwargs)
            record._check()
            return record
        return checked
    cls.__new__ = checking(cls.__new__)
    cls._make = classmethod(checking(cls._make.__func__))
    return cls


@_checked
class Constants(NamedTuple):
    """Fine-structure constant, particle masses (MeV) and hbar*c (MeV*fm)."""

    alpha: float = _ALPHA
    m_e: float = _M_E_MEV
    m_p: float = _M_P_MEV
    hbar_c: float = _HBAR_C_MEV_FM
    ev_per_mev: float = EV_PER_MEV

    def _check(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha out of range: {self.alpha}")
        if not (0.0 < self.m_e < self.m_p):
            raise ValueError("need 0 < m_e < m_p")
        for name, v in zip(self._fields, self):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        for name, v in derive(self)._asdict().items():
            if not math.isfinite(v):
                raise ValueError(f"derived mass {name} of m_e = {self.m_e}, m_p = {self.m_p} "
                                 f"is not finite: {v}")


class DerivedMasses(NamedTuple):
    """Mass combinations m+ = m_p + m_e, m- = m_p - m_e, m_a = m+/2, mu."""

    m_plus: float
    m_minus: float
    m_a: float
    mu: float


def default_constants() -> Constants:
    """The frozen CODATA-2014 constant set."""
    return Constants()


def derive(c: Constants) -> DerivedMasses:
    """Compute the derived mass combinations from a constant set.

    The reduced mass is evaluated as a single product-over-sum expression,
    or as m_e/(1 + m_e/m_p) where the product m_e*m_p is not a finite normal
    double (it would lose digits below them and overflow above); no
    intermediate subtraction enters any of the four combinations.
    """
    product = c.m_e * c.m_p
    return DerivedMasses(
        m_plus=c.m_p + c.m_e,
        m_minus=c.m_p - c.m_e,
        m_a=(c.m_p + c.m_e) / 2.0,
        mu=product / (c.m_p + c.m_e) if sys.float_info.min <= product <= sys.float_info.max
        else c.m_e / (1.0 + c.m_e / c.m_p),
    )
