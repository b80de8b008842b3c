"""Modified Coulomb interaction with a dipole proton form factor.

The coupling runs with the probe scale: it equals alpha at large distance
(small momentum transfer) and vanishes at the origin (large momentum
transfer), which removes the 1/r singularity of the potential.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import Constants, _checked

DEFAULT_LAMBDA_MEV = 840.0


@_checked
class PotentialParams(NamedTuple):
    """Coupling alpha, form-factor scale lambda (MeV) and nuclear charge z."""

    alpha: float
    lam: float = DEFAULT_LAMBDA_MEV
    z: int = 1

    def _check(self):
        if self.alpha <= 0.0 or self.lam <= 0.0:
            raise ValueError("alpha and lambda must be positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.lam)):
            raise ValueError(f"alpha and lambda must be finite, got {self.alpha}, {self.lam}")
        if int(self.z) != self.z or self.z < 1:
            raise ValueError(f"z must be a positive integer, got {self.z}")


def default_params(c: Constants) -> PotentialParams:
    """The potential of hydrogen at the default form-factor scale."""
    return PotentialParams(alpha=c.alpha)


def potential_r(r, p: PotentialParams):
    """Potential -z*alpha(r)/r in MeV, of a float or an array r; V(0) = 0.0.

    The coupling alpha(r) = alpha*(lam^2 r^2/(1+lam^2 r^2))^2 runs in momentum space as
    alpha*(lam^2/(q^2+lam^2))^2, alpha times the dipole form factor.  It vanishes like r^4
    at the origin and saturates at alpha for large r.
    """
    x = (p.lam * r) ** 2
    u = x / (1.0 + x)
    # r == 0 makes the divisor 1 where the coupling is 0, and 0.0 - keeps that zero positive
    return 0.0 - p.z * (p.alpha * u * u) / (r + (r == 0.0))
