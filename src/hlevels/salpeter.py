"""Variational eigensolver for the spinless Salpeter equation.

Two-body Hamiltonian sqrt(p^2+m_e^2) + sqrt(p^2+m_p^2) - z*alpha/r in a
scaled generalized-Laguerre radial basis.  The basis has closed-form
momentum transforms (Gegenbauer polynomials), so the nonlocal square-root
kinetic operators are plain multiplication operators under a momentum
quadrature, while overlap and Coulomb matrices are exact in coordinate
space.  The rest mass m_plus is removed from the kinetic operator
analytically: eigenvalues are binding energies directly, never a
difference of ~1 GeV quantities.

The basis is scale covariant, phi_n(a*u; a) = a^(-3/2) phi_n(u; 1) with
u = p/a, so the overlap does not depend on the scale a and the Coulomb
matrix is linear in a.  The basis is evaluated once, weighted by the
momentum quadrature as B = phi*sqrt(w): the overlap is S = B B^T and the
kinetic matrix at scale a is (B sqrt(tau)) (B sqrt(tau))^T, each one
symmetric rank-k product (BLAS syrk) and exactly symmetric.  A scale trial
therefore costs one such product and one symmetric eigensolve.

The core works in Bohr units: momenta and energies in units of mu*Z*alpha,
lengths in Bohr lengths 1/(mu*Z*alpha).  In them the masses enter only as
r = (m/mu)/(Z*alpha), which scaling both masses leaves alone, so every mass
pair and Z share one grid in u = p/(mu*Z*alpha), and MeV enters once, when
a level leaves the core.  The grid spans u in [2^-40, 2^28], one
Gauss-Legendre panel per octave.  A panel's order follows the basis: the
octaves around u = 1, where the basis oscillates, take up to
quad_nodes // 68 nodes, and the far octaves, which hold smooth power laws,
take 12 (1152 of the 4080 nodes a uniform order gave, at basis 64).  The
overlap check uses every node.  The kinetic product does not: nodes that
far out add less than 1e-20 of trace(K), so each core keeps only the one
contiguous slice of nodes that carries nonrelativistic kinetic weight, a
slice that does not depend on the scale (570 to 850 nodes for l = 4 to 0
at basis 64 and Z = 1).  What it drops is below round-off at every scale.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import Constants, _checked, derive
from .errors import IllConditionedBasis, ScaleSearchFailure, SupercriticalCharge
from .quadrature import gauss_legendre
from .spectra import EnergyLevel, QuantumState, _state_name

_GRID_OCTAVES = range(-40, 28)  # panel k spans u = p/(mu*Z*alpha) in [2^k, 2^(k+1)]
_SCALE_BRACKET = (0.05, 4.0)  # first scale search range, in Bohr lengths
_SCALE_XATOL = 1.0e-5  # the search stops at a bracket 2 * _SCALE_XATOL wide in log(scale)
_SCALE_RTOL = 3.0e-12  # ... or once its values agree to this, below the 1S noise
_SCALE_GUARD = 0.1  # a minimizer this close to an end in log(scale) may lie past it
_SCALE_WIDEN = 2.0  # such an end moves out by this factor in scale ...
_SCALE_WIDENINGS = 10  # ... at most this many times
_OVERLAP_DEFECT_MAX = 1.0e-3  # max|S - I| of the quadrature overlap
_KINETIC_SCREEN = 1.0e-20  # a node's least share of sum(g u^2)/basis_size to enter the product
_GRID_NODES_PER_RADIAN = 4.0  # a panel's Gauss order per basis function and radian of theta
_GRID_MIN_ORDER = 12  # the least Gauss order of a panel


@_checked
class SolverConfig(NamedTuple):
    """Basis size, quadrature cap, and whether to search the length scale.

    quad_nodes // 68 caps the Gauss order of each of the momentum grid's 68
    octave panels; the basis size sets the order below that cap.  Without
    the search the scale is the Bohr length 1/(mu*Z*alpha).
    """

    basis_size: int = 64
    quad_nodes: int = 4096
    scale_search: bool = True

    def _check(self):
        if self.basis_size < 4:
            raise ValueError("basis_size must be >= 4")
        if self.quad_nodes < 2 * self.basis_size:
            raise ValueError(f"basis_size {self.basis_size} needs quad_nodes >= "
                             f"{2 * self.basis_size}, have {self.quad_nodes}")


class SSOperatorMatrices(NamedTuple):
    """Operator matrices in the radial basis at the Bohr scale (MeV).

    potential is the Coulomb matrix, overlap the basis overlap, and
    kinetic_binding the two square-root kinetic operators minus the rest
    mass m_plus; the full kinetic matrix is kinetic_binding + m_plus*overlap.
    """

    potential: np.ndarray
    overlap: np.ndarray
    kinetic_binding: np.ndarray


def _norm_ratios(nb: int, l: int) -> np.ndarray:
    # N_n/N_0 for phi_n(r) = N_n (2r)^l e^{-r} L_n^{(2l+2)}(2r), <phi_m phi_n r^2> = delta at
    # unit scale, N_n^2 = 8 n!/(n+2l+2)!: a product of factors below 1, so no l overflows it
    t = np.arange(1.0, nb)
    return np.cumprod(np.concatenate(([1.0], np.sqrt(t / (t + 2 * l + 2)))))


def _basis_prefactor(p: np.ndarray, l: int) -> np.ndarray:
    # N_0 sqrt(2/pi) 2^(2l+1) l! p^l (p^2+1)^-(l+2) as the exp of its log, so no power overflows
    log_constant = (0.5 * math.log(16.0 / math.pi) - 0.5 * math.lgamma(2 * l + 3)
                    + (2 * l + 1) * math.log(2.0) + math.lgamma(l + 1))
    return np.exp(log_constant + l * np.log(p) - (l + 2) * np.log1p(p * p))


def _momentum_basis(p: np.ndarray, nb: int, l: int, root_weight: np.ndarray) -> np.ndarray:
    """Unit-scale momentum-space basis functions times root_weight, shape (nb, len(p)).

    Transform of the Laguerre-(2l+1) layer is
        2^(2l+1) l! (j+l+1) p^l (p^2+1)^-(l+2) C_j^{(l+1)}(y),
    y = (p^2-1)/(p^2+1); the (2l+2) basis is its cumulative sum via
    L_n^{(2l+2)} = sum_j L_j^{(2l+1)}.  The layers D_j = (j+l+1) C_j^{(l+1)}
    follow from the Gegenbauer recurrence as
        D_{j+1} = (j+l+2)/(j+1) * (2y D_j - (j+2l+1)/(j+l) * D_{j-1}),
    run with their sums on scratch rows in one pass over the rows, each row
    weighted as it is finished: by its norm ratio N_n/N_0 and by N_0 times the
    prefactor, formed as one exp of its log, so neither overflows at any l and
    the overlap check alone bounds l.  root_weight is sqrt(w)*p of a quadrature
    rule in p, so a row's sum of squares is S_nn; a row whose S_nn misses 1 by
    more than _OVERLAP_DEFECT_MAX raises IllConditionedBasis before the next is
    made.
    """
    y2 = 2.0 * (p * p - 1.0) / (p * p + 1.0)
    norms = _norm_ratios(nb, l)
    weight = _basis_prefactor(p, l) * root_weight
    out = np.empty((nb, p.size))
    # D_j, D_{j+1}, the sum of D_i over i <= j, and scratch
    prev, cur, lower = np.full(p.size, l + 1.0), (l + 2.0) * (l + 1.0) * y2, np.empty(p.size)
    total = prev.copy()
    for j in range(nb):
        row = np.multiply(total, norms[j], out=out[j])
        row *= weight
        _refuse_aliasing(abs(float(row.dot(row)) - 1.0), l, j)
        total += cur
        np.multiply(prev, (j + 2.0 * l + 2.0) / (j + l + 1.0), out=lower)
        np.multiply(y2, cur, out=prev)  # D_{j+2} into prev's row
        prev -= lower
        prev *= (j + l + 3.0) / (j + 2.0)
        prev, cur = cur, prev
    return out


def _momentum_grid(total_nodes: int, basis_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule in u = p/(mu*Z*alpha): nodes and weights.

    Panel k of _GRID_OCTAVES spans u in [2^k, 2^(k+1)], or dtheta_k in
    theta = 2*arctan(u).  In theta the basis is a trigonometric polynomial of
    degree about 2*basis_size, so the panel takes _GRID_NODES_PER_RADIAN *
    basis_size * dtheta_k nodes, at least _GRID_MIN_ORDER for the kinetic
    factor's branch points at p = +-i*m, and at most max(8, total_nodes // 68).
    No mass and no charge enters: one grid serves every input.
    """
    octaves = np.arange(_GRID_OCTAVES.start, _GRID_OCTAVES.stop + 1)
    per_panel = max(8, total_nodes // len(_GRID_OCTAVES))
    span = 2.0 * np.diff(np.arctan(2.0 ** octaves))
    orders = np.clip(np.ceil(_GRID_NODES_PER_RADIAN * basis_size * span),
                     _GRID_MIN_ORDER, per_panel).astype(int)
    x, w = (np.concatenate(part) for part in zip(*map(gauss_legendre, orders.tolist())))
    edges = 2.0 ** octaves
    mid = np.repeat(0.5 * (edges[1:] + edges[:-1]), orders)
    half = np.repeat(0.5 * (edges[1:] - edges[:-1]), orders)
    return mid + half * x, half * w


def _tau(x: np.ndarray, r: float) -> np.ndarray:
    # sqrt(x^2 + r^2) - r, evaluated without cancellation: one mass's kinetic energy in units
    # of mu*Z*alpha, at momentum x and mass r in those units; past r = 8.9e307 the
    # denominator overflows and tau is 0, below round-off beside the lighter mass's tau
    with np.errstate(over="ignore"):
        return x * x / (r + np.hypot(x, r))


def _coulomb_matrix(nb: int, l: int, alpha: float, z: int) -> np.ndarray:
    # <m| -z*alpha/r |n> = -z*alpha N_m N_n 2^-2 sum_{i<=min(m,n)} Gamma(2l+2+i)/i! at unit scale;
    # the sum is (k+2l+2)!/(k! (2l+2)) = 8/(N_k^2 (2l+2)) at k = min(m,n) (hockey stick), so the
    # element is -z*alpha/(l+1) N_max(m,n)/N_min(m,n), a ratio of falling norms at most 1
    rho = _norm_ratios(nb, l)
    return -z * alpha / (l + 1) * np.minimum.outer(rho, rho) / np.maximum.outer(rho, rho)


def _refuse_aliasing(defect: float, l: int, row=None) -> None:
    if not defect <= _OVERLAP_DEFECT_MAX:
        reach = "the basis" if row is None else f"basis function {row} of l = {l}"
        raise IllConditionedBasis(f"overlap deviates from the identity by {defect:.3e} "
                                  f"(limit {_OVERLAP_DEFECT_MAX:g}); "
                                  f"the momentum grid is too coarse for {reach}")


class _ScaledCore:
    """Operator parts for one orbital momentum and basis size, in Bohr units.

    Momenta are in units of the Bohr momentum mu*Z*alpha and energies in
    units of mu*Z*alpha, so a trial scale s puts the basis at the momentum
    s*mu*Z*alpha, and no MeV enters the core.  It is built from one array,
    B = phi*sqrt(w)*u on the full grid in u, which no input enters.  The
    overlap S = B B^T is the identity analytically; a grid that aliases the
    basis moves it away, and the variational search then finds spurious low
    levels, so such a grid raises IllConditionedBasis once max|S - I| exceeds
    _OVERLAP_DEFECT_MAX: at the first row of B whose |S_nn - 1| does, as
    _momentum_basis makes it (no later row and no S is made), else once S is
    formed.  The core also holds the unit-scale Coulomb matrix V1, L^-1 with
    S = L L^T, and each mass in units of the Bohr momentum, r = (m/mu)/(Z*alpha).
    Scaling both masses by one factor moves none of these.

    The kinetic product runs over one contiguous slice of the grid.  Node i
    adds g_i*tau(s*u_i; r) to trace(K(s)), with g_i = sum_n B_ni^2.  In the
    nonrelativistic regime tau(s*u; r) = (s*u)^2/(2r), so a node's share of
    the trace does not depend on s; since sqrt(x^2+r^2) - r <= x^2/(2r), that
    share over-counts the relativistic tail.  The slice spans every node whose
    g_i*u_i^2 exceeds _KINETIC_SCREEN * sum(g*u^2) / basis_size.  Nodes
    outside it change no matrix element beyond round-off at any scale, and
    skipping them halves the cost of a trial or better.  The core keeps a view
    of B on that slice, and K(s) = (B sqrt(tau)) (B sqrt(tau))^T.
    """

    def __init__(self, l, cfg: SolverConfig, c: Constants, z: int):
        if l < 0:
            raise ValueError(f"l must be >= 0, got {l}")
        mu = derive(c).mu
        self.ratios = tuple(m / mu / (z * c.alpha) for m in (c.m_e, c.m_p))
        u, w = _momentum_grid(cfg.quad_nodes, cfg.basis_size)
        b = _momentum_basis(u, cfg.basis_size, l, np.sqrt(w) * u)
        self.overlap = b @ b.T  # one syrk: exactly symmetric
        _refuse_aliasing(float(np.max(np.abs(self.overlap - np.eye(cfg.basis_size)))), l)
        share = np.einsum("ij,ij->j", b, b) * (u * u)
        kept = share > _KINETIC_SCREEN * share.sum() / cfg.basis_size
        first, last = np.flatnonzero(kept)[[0, -1]]
        self.kept = slice(int(first), int(last) + 1)
        self.u = u[self.kept]
        self.b = b[:, self.kept]  # a view: no second nb x N array
        self.v1 = _coulomb_matrix(cfg.basis_size, l, c.alpha, z)
        self.l_inv = np.linalg.inv(np.linalg.cholesky(self.overlap))

    def kinetic(self, s: float) -> np.ndarray:
        """Binding kinetic matrix (rest mass removed) at trial scale s, in units of mu*Z*alpha."""
        b = self.b * np.sqrt(sum(_tau(s * self.u, r) for r in self.ratios))
        return b @ b.T  # one syrk: exactly symmetric

    def spectrum(self, s: float) -> np.ndarray:
        """Ascending binding eigenvalues at trial scale s, in units of mu*Z*alpha."""
        h = self.kinetic(s) + s * self.v1
        return np.linalg.eigvalsh(self.l_inv @ h @ self.l_inv.T)


def build_matrices(l: int, cfg: SolverConfig, c: Constants, z: int = 1) -> SSOperatorMatrices:
    """Potential, overlap and binding kinetic matrices for orbital momentum l at the Bohr scale."""
    core = _ScaledCore(l, cfg, c, z)
    a = derive(c).mu * (z * c.alpha)  # the Bohr momentum, and the core's energy unit, in MeV
    return SSOperatorMatrices(potential=a * core.v1, overlap=core.overlap,
                              kinetic_binding=a * core.kinetic(1.0))


def _critical_coupling(l: int) -> float:
    """Herbst's bound 2[Gamma((l+2)/2)/Gamma((l+1)/2)]^2: 2/pi for l=0, pi/2 for l=1.

    Past it sqrt(p^2+m_e^2) - z*alpha/r is unbounded below in the l channel
    (Commun. Math. Phys. 53, 285 (1977)); the finite proton mass stops the
    collapse only at the proton-mass scale, so there is no atomic level.
    """
    return 2.0 * math.exp(2.0 * (math.lgamma((l + 2) / 2) - math.lgamma((l + 1) / 2)))


def _golden_section_min(f, lo: float, hi: float):
    """Minimum of f on [lo, hi] by golden-section search: (x, f(x)).

    Two interior points split the bracket in the golden ratio; each step
    drops the part beyond the worse one and reuses the better one, so one
    evaluation shrinks the bracket by 1/phi (J. Kiefer, Proc. AMS 4, 502
    (1953)).  The bound needs the least value, not where it lies, so it stops
    once both ends and both interior points agree with the best value to a
    relative _SCALE_RTOL (an end's value is known once an interior point
    becomes it; a NaN never agrees), or else at a bracket 2 * _SCALE_XATOL wide.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = f(x1), f(x2)
    f_lo = f_hi = math.inf
    while hi - lo > 2.0 * _SCALE_XATOL and not all(
        v - min(f1, f2) <= _SCALE_RTOL * abs(min(f1, f2)) for v in (f_lo, f1, f2, f_hi)
    ):
        if f1 <= f2:
            hi, f_hi, x2, f2 = x2, f2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = f(x1)
        else:
            lo, f_lo, x1, f1 = x1, f1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _widened_min(f, lo: float, hi: float, label: str):
    """Minimum of f on a bracket that widens off an end the minimizer sits on: (x, f(x), lo, hi).

    A minimizer within _SCALE_GUARD of an end is no evidence of a minimum
    inside; that end moves out by log(_SCALE_WIDEN) and the search runs again
    on the wider bracket (the bracketing step of Press et al., Numerical
    Recipes, 3rd ed., sec. 10.1).  The guard is wide because of the value
    stop: on a flat slope toward an end, noise can move both ends of a
    bracket 1e-4 wide before the values agree, but to move an end 0.1 in it
    must beat the slope across a bracket at least 0.1 wide.  Past
    _SCALE_WIDENINGS moves of one end it raises ScaleSearchFailure naming
    that end, so a level the bracket cannot hold is never printed.
    """
    step, start, moves = math.log(_SCALE_WIDEN), (lo, hi), [0, 0]
    while True:
        x, fx = _golden_section_min(f, lo, hi)
        if x - lo < _SCALE_GUARD:
            edge = 0
        elif hi - x < _SCALE_GUARD:
            edge = 1
        else:
            return x, fx, lo, hi
        if moves[edge] == _SCALE_WIDENINGS:
            raise ScaleSearchFailure(
                f"{label}: the scale search still ends on its {('lower', 'upper')[edge]} edge, "
                f"{math.exp(x):.6g} Bohr lengths, after widening it "
                f"{_SCALE_WIDEN**_SCALE_WIDENINGS:g}-fold"
            )
        moves[edge] += 1
        lo, hi = start[0] - moves[0] * step, start[1] + moves[1] * step


def lowest_levels(
    l: int,
    count: int,
    cfg: SolverConfig,
    c: Constants,
    z: int = 1,
) -> list[EnergyLevel]:
    """The lowest `count` binding energies for orbital momentum l, in eV.

    One core in Bohr units serves both paths, and the levels leave it in
    units of mu*Z*alpha, converted to eV once.  Without the search each level
    is the core's at the Bohr length.  With scale_search enabled each target
    level is minimized over the log of the variational length, in Bohr
    lengths, by golden-section search until the level stops moving: 5 to
    24 evaluations per level in the ten-state table, at most 29 for
    k + l + 1 up to 81.  A bracket end that holds the minimizer widens
    (_widened_min), as the S wave's lower end does from Z = 73 on.  Raises
    SupercriticalCharge when z*alpha exceeds the critical coupling of channel l.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > cfg.basis_size // 2:
        raise ValueError("count must not exceed basis_size/2")
    za, bound = z * c.alpha, _critical_coupling(l)
    if za > bound:
        raise SupercriticalCharge(
            f"Z*alpha = {za:.6f} > critical coupling {bound:.6f} for l={l}; "
            f"no Salpeter level (Z={z})"
        )
    core = _ScaledCore(l, cfg, c, z)
    if not cfg.scale_search:
        values = core.spectrum(1.0)[:count]
    else:
        lo, hi = _SCALE_BRACKET
        # the optimal length grows like N Bohr lengths: widen the bracket with index
        values = [
            _widened_min(
                lambda log_length: core.spectrum(math.exp(-log_length))[index],
                math.log(lo),
                math.log(hi * (index + l + 1)),
                _state_name(QuantumState(k=index, l=l)),
            )[1]
            for index in range(count)
        ]
    # mu's binary exponent comes last, as a power of two, which scales exactly: no
    # intermediate leaves the normal doubles before the level does, and a level past them
    # is -inf (math.ldexp of the level would raise instead)
    mantissa, exponent = math.frexp(derive(c).mu)
    power = math.ldexp(1.0, exponent)
    return [
        EnergyLevel(value=float(v) * c.ev_per_mev * mantissa * za * power, model="salpeter",
                    state=QuantumState(k=i, l=l))
        for i, v in enumerate(values)
    ]


def salpeter_levels(states, cfg: SolverConfig, c: Constants, z: int = 1) -> dict:
    """{QuantumState: eV} for each l's levels up to its highest requested k.

    Ordered by l, then k; the unrequested lower levels come with the solve.
    """
    counts = {}
    for st in states:
        counts[st.l] = max(counts.get(st.l, 0), st.k + 1)
    return {
        level.state: level.value
        for l, count in sorted(counts.items())
        for level in lowest_levels(l, count, cfg, c, z=z)
    }
