"""Gauss-Legendre rules shared by the Salpeter grid and the verifier."""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point rule on [-1, 1], computed once.

    Every caller shares the two arrays, so they are read-only.
    """
    nodes, weights = leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
