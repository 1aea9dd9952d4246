"""Oversmoothing diagnostics: Dirichlet energies, decay detection, cluster
counting, consensus prediction and the hypergraph spectral gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import identity

from ._state import from_matrix, norm1, to_matrix
from .dynamics import _sparse_kernel
from .errors import (
    InsufficientData,
    NoConvergence,
    NotSPD,
    NotStronglyConnected,
    PreconditionFailed,
    TooLarge,
)
from .graphs import _radius_pairs, is_aperiodic, validate_row_stochastic

__all__ = [
    "EnergySeries",
    "OversmoothingReport",
    "dirichlet_energy_graph",
    "dirichlet_energy_hypergraph",
    "detect_oversmoothing",
    "cluster_count",
    "consensus_predict",
    "spectral_gap",
]

ENERGY_FLOOR = 1e-300
SPECTRAL_DENSE_LIMIT = 500
EIGENVALUE_CUTOFF = 1e-10


@dataclass
class EnergySeries:
    """Energy values indexed by step (or time) in increasing order."""

    steps: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=np.float64)
        self.energy = np.asarray(self.energy, dtype=np.float64)
        if self.steps.shape != self.energy.shape or self.steps.ndim != 1:
            raise ValueError("steps and energy must be matching 1-d arrays")
        if self.steps.size > 1 and np.any(np.diff(self.steps) <= 0.0):
            raise ValueError("steps must be strictly increasing")

    @classmethod
    def from_trajectory(cls, traj):
        if traj.energies is None:
            raise ValueError("trajectory carries no recorded energies")
        return cls(traj.times, traj.energies)

    def __len__(self):
        return int(self.steps.size)


@dataclass(frozen=True)
class OversmoothingReport:
    """Verdict plus the fitted exponential decay rate (minus the log slope)."""

    oversmoothing: bool
    rate: float


def dirichlet_energy_graph(g, x):
    """Sum over edges of w_ij ||x_i - x_j||^2, each undirected edge once.

    Directed graphs sum over stored arcs instead. Raw weights are used; no
    degree normalization is applied.
    """
    x, _ = to_matrix(x)
    diff = x[g.src] - x[g.dst]
    total = float(np.sum(g.weight * np.einsum("ij,ij->i", diff, diff)))
    return total if g.directed else 0.5 * total


def dirichlet_energy_hypergraph(h, x):
    """Sum over hyperedges and ordered node pairs of ||x_i - x_j||^2.

    Ordered pairs mean each unordered pair counts twice per shared
    hyperedge, mirroring the double-sum convention. Computed in the centred
    form 2 sum_e m_e sum_{i in e} ||x_i - mean_e||^2, a sum of squares, so
    it is never negative (the expanded m sum|x|^2 - |sum x|^2 cancels).
    """
    x, _ = to_matrix(x)
    ptr = h._weights.indptr
    sizes = np.diff(ptr)
    xs = x[h._weights.indices]
    mean = np.add.reduceat(xs, ptr[:-1], axis=0) / sizes[:, None]
    c = xs - np.repeat(mean, sizes, axis=0)
    return float(2.0 * np.sum(np.repeat(sizes, sizes) * np.einsum("ij,ij->i", c, c)))


def detect_oversmoothing(series, slope_threshold=1e-3, ratio_threshold=1e-6):
    """Least-squares fit of log energy over the tail half of the series.

    Returns oversmoothing = True when the fitted slope is below
    -slope_threshold and the final energy has dropped below ratio_threshold
    times the initial energy. rate is minus the slope. Energies are floored
    at 1e-300 before taking logs. Needs at least ten points.
    """
    if len(series) < 10:
        raise InsufficientData(f"need >= 10 energy samples, got {len(series)}")
    e = np.maximum(series.energy, ENERGY_FLOOR)
    tail = slice(len(series) // 2, None)
    t = series.steps[tail]
    y = np.log(e[tail])
    design = np.column_stack([t, np.ones_like(t)])
    (slope, _), *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(slope)
    dropped = bool(e[-1] < ratio_threshold * e[0])
    return OversmoothingReport(oversmoothing=(slope < -slope_threshold) and dropped, rate=-slope)


def cluster_count(x, tol):
    """Number of connected components when rows within distance tol link.

    One-column states are counted from their sorted values in O(N log N);
    wider states from the radius pairs of a k-d tree, refused (TooLarge)
    above graphs._PAIR_LIMIT pairs.
    """
    if not tol >= 0.0:  # also refuses NaN
        raise ValueError("tol must be >= 0")
    x, _ = to_matrix(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("cluster_count needs a finite state")
    if x.shape[1] == 1:
        # Float subtraction and norm1 are monotone, so a gap wider than tol
        # between sorted neighbours also separates every pair across it, and
        # a gap within tol links the two neighbours.
        s = np.sort(x[:, 0])
        return int(np.count_nonzero(norm1(np.diff(s)) > tol)) + int(s.size > 0)
    from scipy.sparse.csgraph import connected_components  # heavy import, only used here
    return int(connected_components(_radius_pairs(x, tol, strict=False), directed=False)[0])


def consensus_predict(g, x0, tolerance=1e-12, max_iterations=100_000):
    """Consensus limit of the averaging dynamics: rows of zeta^T x0.

    zeta is the dominant left eigenvector of the weight matrix, found by
    power iteration on the transpose and normalized to sum to one. The graph
    must be strongly connected, aperiodic and row stochastic; the failing
    check is named in the error.
    """
    if not validate_row_stochastic(g):
        raise PreconditionFailed("consensus_predict: weights are not row stochastic")
    try:
        if not is_aperiodic(g):
            raise PreconditionFailed("consensus_predict: graph is not aperiodic")
    except NotStronglyConnected:
        raise PreconditionFailed("consensus_predict: graph is not strongly connected") from None
    x0, flat = to_matrix(x0)
    if x0.shape[0] != g.node_count:
        raise ValueError("state row count must match node count")
    WT = g._csr(g.weight).T
    zeta = np.full(g.node_count, 1.0 / g.node_count)
    for _ in range(max_iterations):
        nxt = WT @ zeta
        nxt /= nxt.sum()
        if float(np.max(np.abs(nxt - zeta))) <= tolerance:
            zeta = nxt
            break
        zeta = nxt
    else:
        raise NoConvergence(f"power iteration did not reach {tolerance} "
                            f"within {max_iterations} iterations")
    row = zeta @ x0
    return from_matrix(np.repeat(row[None, :], g.node_count, axis=0), flat)


def spectral_gap(h, kernel="uniform"):
    """Smallest positive eigenvalue of the diffusion operator I - K.

    Dense symmetric eigendecomposition; refuses hypergraphs above 500 nodes.
    I - K is formed, tested for symmetry and symmetrized sparse, so the one
    dense matrix is the symmetrized operator handed to the eigensolver.
    The operator must be symmetric positive semidefinite for the chosen
    kernel (true for the uniform kernel whenever co-membership totals are
    uniform, e.g. vertex-transitive hypergraphs, and for "hgnn" on
    node-regular ones); otherwise NotSPD is raised.
    """
    if h.node_count > SPECTRAL_DENSE_LIMIT:
        raise TooLarge(
            f"spectral_gap dense path refused for {h.node_count} nodes "
            f"(limit {SPECTRAL_DENSE_LIMIT})"
        )
    L = identity(h.node_count, format="csr") - _sparse_kernel(h, kernel)
    if not np.all(np.abs((L - L.T).data) <= 1e-12):
        raise NotSPD("diffusion operator is not symmetric for this kernel")
    eigs = np.linalg.eigvalsh((0.5 * (L + L.T)).toarray())
    if eigs[0] < -EIGENVALUE_CUTOFF:
        raise NotSPD(f"diffusion operator has negative eigenvalue {eigs[0]:.3e}")
    positive = eigs[eigs > EIGENVALUE_CUTOFF]
    if positive.size == 0:
        raise ValueError("no eigenvalue above the positivity cutoff")
    return float(positive[0])
