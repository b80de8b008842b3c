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
matrix is linear in a.  A scale trial therefore costs one kinetic Gram
product and one symmetric eigensolve on a basis evaluated once.

The momentum grid spans 40 octaves below the basis and reaches
p = 1e6 MeV above it, and the overlap check uses every node.  The kinetic
product does not: nodes that far out add less than 1e-20 of trace(K), so
each core keeps only the one contiguous slice of nodes that carries
kinetic weight at either end of its scale range (a quarter to three fifths
of the grid).  What it drops is below round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import Constants, derive
from .errors import IllConditionedBasis, SupercriticalCharge
from .spectra import EnergyLevel, QuantumState

_P_MAX_MEV = 1.0e6
_P_MIN_OCTAVES = 40  # lower grid edge at scale * 2^-40
_SCALE_BRACKET = (0.05, 4.0)  # scale search range, in multiples of the base scale
_SCALE_XATOL = 1.0e-5  # the search stops at a bracket 2 * _SCALE_XATOL wide in log(scale)
_SCALE_RTOL = 3.0e-12  # ... or once its values agree to this, below the 1S noise
_OVERLAP_DEFECT_MAX = 1.0e-3  # max|S - I| of the quadrature overlap
_KINETIC_SCREEN = 1.0e-20  # a node's least share of trace(K)/basis_size to enter the product


@dataclass(frozen=True)
class SolverConfig:
    """Basis size, variational length scale (1/MeV) and quadrature order."""

    basis_size: int = 64
    scale: float | None = None  # default: Bohr length 1/(mu*Z*alpha)
    quad_nodes: int = 4096
    scale_search: bool = True

    def __post_init__(self):
        if self.basis_size < 4:
            raise ValueError("basis_size must be >= 4")
        if self.scale is not None and self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.quad_nodes < 2 * self.basis_size:
            raise ValueError(f"basis_size {self.basis_size} needs quad_nodes >= "
                             f"{2 * self.basis_size}, have {self.quad_nodes}")


@dataclass(frozen=True)
class SSOperatorMatrices:
    """Kinetic, potential and overlap matrices in the radial basis (MeV).

    kinetic contains the full square-root operators including rest mass;
    kinetic_binding is the same operator minus m_plus (used by the solver).
    """

    kinetic: np.ndarray
    potential: np.ndarray
    overlap: np.ndarray
    kinetic_binding: np.ndarray


def _resolve_scale(cfg: SolverConfig, c: Constants, z: int = 1) -> float:
    if cfg.scale is not None:
        return cfg.scale
    return 1.0 / (derive(c).mu * (z * c.alpha))


def _lgamma(n: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v) for v in n.tolist()])


def _basis_norms(nb: int, l: int, a: float) -> np.ndarray:
    # phi_n(r) = N_n (2ar)^l e^{-ar} L_n^{(2l+2)}(2ar), <phi_m phi_n r^2> = delta
    n = np.arange(nb)
    return np.exp(0.5 * (3.0 * math.log(2.0 * a) + _lgamma(n + 1) - _lgamma(n + 2 * l + 3)))


def _momentum_basis(p: np.ndarray, nb: int, l: int, a: float) -> np.ndarray:
    """Momentum-space basis functions, shape (nb, len(p)).

    Transform of the Laguerre-(2l+1) layer is
        2^(2l+1) l! (j+l+1) a^(l+1) p^l (p^2+a^2)^-(l+2) C_j^{(l+1)}(y),
    y = (p^2-a^2)/(p^2+a^2); the (2l+2) basis is its cumulative sum via
    L_n^{(2l+2)} = sum_j L_j^{(2l+1)}.
    """
    y = (p * p - a * a) / (p * p + a * a)
    lam = l + 1.0
    cg = np.empty((nb, p.size))
    cg[0] = 1.0
    if nb > 1:
        cg[1] = 2.0 * lam * y
    for j in range(1, nb - 1):
        cg[j + 1] = (2.0 * (j + lam) * y * cg[j] - (j + 2.0 * lam - 1.0) * cg[j - 1]) / (j + 1.0)
    prefactor = (
        math.sqrt(2.0 / math.pi)
        * 2.0 ** (2 * l + 1)
        * math.factorial(l)
        * a ** (l + 1)
        * p**l
        / (p * p + a * a) ** (l + 2)
    )
    # in place, in the float order of (j+l+1) * C_j * prefactor, cumsum, norms
    cg *= (np.arange(nb) + l + 1)[:, None]
    cg *= prefactor
    np.cumsum(cg, axis=0, out=cg)
    cg *= _basis_norms(nb, l, a)[:, None]
    return cg


def _momentum_grid(a: float, total_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on octave panels of a rational p-grid."""
    n_panels = _P_MIN_OCTAVES + max(1, int(math.ceil(math.log2(_P_MAX_MEV / a))))
    per_panel = max(8, total_nodes // n_panels)
    x, w = leggauss(per_panel)
    edges = a * 2.0 ** np.arange(-_P_MIN_OCTAVES, n_panels - _P_MIN_OCTAVES + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    ps = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ps, ws


def _tau(p: np.ndarray, m: float) -> np.ndarray:
    # sqrt(p^2 + m^2) - m, evaluated without cancellation
    return p * p / (m + np.hypot(p, m))


def _coulomb_matrix(nb: int, l: int, a: float, alpha: float, z: int) -> np.ndarray:
    # <m| -z*alpha/r |n> = -z*alpha N_m N_n (2a)^-2 sum_{i<=min(m,n)} Gamma(2l+2+i)/i!
    i = np.arange(nb)
    partial = np.cumsum(np.exp(_lgamma(2 * l + 2 + i) - _lgamma(i + 1)))
    norms = _basis_norms(nb, l, a)
    return -z * alpha * np.outer(norms, norms) * partial[np.minimum.outer(i, i)] / (2.0 * a) ** 2


class _ScaledCore:
    """Scale-free operator parts for one orbital momentum and basis size.

    Built for inverse scales a in a_range = (a_lo, a_hi).  The overlap S is
    formed on the full grid in u = p/a, which reaches p = _P_MAX_MEV at
    a_lo.  S is the identity analytically; a grid that aliases the basis
    moves it away, and the variational search then finds spurious low
    levels, so such a grid raises IllConditionedBasis.  The core also holds
    the unit-scale Coulomb matrix V1 and L^-1 with S = L L^T.

    The kinetic product runs over one contiguous slice of the grid.  Node i
    adds g_i*tau(a*u_i) to trace(K(a)), with g_i = w_i u_i^2 sum_n phi_n(u_i)^2,
    and the slice spans every node whose share exceeds
    _KINETIC_SCREEN * trace(K(a)) / basis_size at a_lo or at a_hi.  Nodes
    outside it change no matrix element beyond round-off, and skipping them
    halves the cost of a trial or better.  kinetic(a) refuses an a outside
    the range the slice was chosen for.
    """

    def __init__(self, l, cfg: SolverConfig, c: Constants, z: int, a_range, masses=None):
        if l < 0:
            raise ValueError(f"l must be >= 0, got {l}")
        self.masses = masses if masses is not None else (c.m_e, c.m_p)
        self.a_range = a_range
        a_lo = a_range[0]
        p, w = _momentum_grid(a_lo, cfg.quad_nodes)
        u = p / a_lo
        weight = w / a_lo * u * u
        phi = _momentum_basis(u, cfg.basis_size, l, 1.0)
        phi_w = phi * weight
        overlap = phi_w @ phi.T
        self.overlap = 0.5 * (overlap + overlap.T)
        defect = float(np.max(np.abs(self.overlap - np.eye(cfg.basis_size))))
        if not defect <= _OVERLAP_DEFECT_MAX:  # NaN fails too
            raise IllConditionedBasis(
                f"overlap deviates from the identity by {defect:.3e} "
                f"(limit {_OVERLAP_DEFECT_MAX:g}); the momentum grid is too coarse for the basis"
            )
        g = np.einsum("ij,ij->j", phi, phi_w)
        del phi_w
        kept = np.zeros(u.size, dtype=bool)
        for a in a_range:
            share = g * self._tau_sum(a * u)
            kept |= share > _KINETIC_SCREEN * share.sum() / cfg.basis_size
        first, last = np.flatnonzero(kept)[[0, -1]]
        self.kept = slice(int(first), int(last) + 1)
        self.u = u[self.kept]
        self.weight = weight[self.kept]
        self.phi = np.ascontiguousarray(phi[:, self.kept])
        self.v1 = _coulomb_matrix(cfg.basis_size, l, 1.0, c.alpha, z)
        self.l_inv = np.linalg.inv(np.linalg.cholesky(self.overlap))

    def _tau_sum(self, p: np.ndarray) -> np.ndarray:
        return sum(_tau(p, m) for m in self.masses)

    def kinetic(self, a: float) -> np.ndarray:
        """Binding kinetic matrix (rest mass removed) at inverse scale a."""
        a_lo, a_hi = self.a_range
        if not a_lo <= a <= a_hi:
            raise ValueError(f"inverse scale {a!r} MeV is outside the range "
                             f"[{a_lo!r}, {a_hi!r}] MeV this core was screened for")
        b = self.phi * np.sqrt(self.weight * self._tau_sum(a * self.u))
        return b @ b.T  # B B^T is exactly symmetric

    def spectrum(self, a: float) -> np.ndarray:
        """Ascending binding eigenvalues (MeV) at inverse scale a."""
        h = self.kinetic(a) + a * self.v1
        return np.linalg.eigvalsh(self.l_inv @ h @ self.l_inv.T)


def build_matrices(
    l: int,
    cfg: SolverConfig,
    c: Constants,
    z: int = 1,
    masses: tuple | None = None,
) -> SSOperatorMatrices:
    """Operator matrices for orbital momentum l at the configured scale."""
    a = 1.0 / _resolve_scale(cfg, c, z)
    core = _ScaledCore(l, cfg, c, z, (a, a), masses)
    kinetic_binding = core.kinetic(a)
    return SSOperatorMatrices(
        kinetic=kinetic_binding + sum(core.masses) * core.overlap,
        potential=a * core.v1,
        overlap=core.overlap,
        kinetic_binding=kinetic_binding,
    )


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


def lowest_levels(
    l: int,
    count: int,
    cfg: SolverConfig,
    c: Constants,
    z: int = 1,
) -> list[EnergyLevel]:
    """The lowest `count` binding energies for orbital momentum l, in eV.

    With scale_search enabled each target level is minimized over the log
    of the variational length parameter by golden-section search until the
    level stops moving: 5 to 24 evaluations per level in the ten-state
    table, at most 29 for k + l + 1 up to 81.  Raises SupercriticalCharge
    when z*alpha exceeds the critical coupling of channel l.
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
    base = _resolve_scale(cfg, c, z)
    if not cfg.scale_search:
        a = 1.0 / base
        values = _ScaledCore(l, cfg, c, z, (a, a)).spectrum(a)[:count]
    else:
        lo, hi = _SCALE_BRACKET
        # optimal length scales like N/(mu*Z*alpha): widen the bracket with index
        a_range = (1.0 / (base * hi * (count + l)), 1.0 / (base * lo))
        core = _ScaledCore(l, cfg, c, z, a_range)
        values = [
            _golden_section_min(
                lambda log_scale: core.spectrum(math.exp(-log_scale))[index],
                math.log(base * lo),
                math.log(base * hi * (index + l + 1)),
            )[1]
            for index in range(count)
        ]
    return [
        EnergyLevel(value=float(v) * c.ev_per_mev, model="salpeter", state=QuantumState(k=i, l=l))
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


def convergence_report(
    l: int,
    level_index: int,
    basis_sizes,
    cfg: SolverConfig,
    c: Constants,
    z: int = 1,
) -> list[dict]:
    """Ladder of (basis_size, value, delta) rows with a monotonicity flag."""
    sizes = sorted(basis_sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 basis sizes")
    rows = []
    previous = None
    for nb in sizes:
        config = replace(cfg, basis_size=nb, scale_search=False)
        value = lowest_levels(l, level_index + 1, config, c, z)[level_index].value
        delta = None if previous is None else value - previous
        rows.append({"basis_size": nb, "value_ev": value, "delta_ev": delta})
        previous = value
    deltas = [abs(r["delta_ev"]) for r in rows if r["delta_ev"] is not None]
    flagged = any(b > a for a, b in zip(deltas[1:], deltas[2:]))
    for r in rows:
        r["flagged"] = flagged
    return rows
