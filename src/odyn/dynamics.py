"""State update rules: averaging consensus, bounded confidence, influence
message passing on graphs and hypergraphs, and hypergraph diffusion.

Every pair-coupled influence kind runs through one sparse coupling operator:
a CSR matrix A on the arc pattern with A_ij = phi(s_ij), evaluated as
rhs(x) = A @ x - rowsum(A) x - lam x, i.e. sum_j phi(s_ij) (x_j - x_i) minus
the confining control. Static similarities fill A.data once at build time;
dynamic similarities refill it in place, on the same pattern, at every
evaluation. A hypergraph runs the same operator on its clique expansion with
each pair's weight multiplied by its shared-hyperedge count, which is exact
because phi depends only on the pair. Averaging consensus and hypergraph
diffusion are plain CSR matvecs.

Discrete maps advance one step per call. make_*_rhs builders return
closures over the built operator that evaluate the continuous-time
right-hand side; odnet-discrete is Euler at h = 1 of odnet-continuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._state import config_fields, from_matrix, norm1, to_matrix
from .errors import KernelNotNormalized, NotRowStochastic
from .graphs import Hypergraph, WeightedGraph, _csr_matrix, _radius_pairs, validate_row_stochastic
from .influence import InfluenceConfig, SimilaritySpec, phi, similarity_dynamic, similarity_static
from .integrators import euler_step

__all__ = [
    "fd_step",
    "hk_step",
    "make_odnet_rhs",
    "make_hypergraph_odnet_rhs",
    "make_hypergraph_diffusion_rhs",
    "DynamicSpec",
]

# kind: (structure it runs on, None if all-to-all; needs influence; discrete map)
_KIND_TABLE = {
    "fd": (WeightedGraph, False, True),
    "hk": (None, False, True),
    "odnet-discrete": (WeightedGraph, True, True),  # Euler at h = 1 of odnet-continuous
    "odnet-continuous": (WeightedGraph, True, False),
    "hypergraph-odnet": (Hypergraph, True, False),
    "hypergraph-diffusion": (Hypergraph, False, False),
}
KINDS = tuple(_KIND_TABLE)


def _averaging_map(g, tolerance=1e-9):
    """Map x -> W x for the weights of g, checked row stochastic once."""
    if not validate_row_stochastic(g, tolerance):
        raise NotRowStochastic("fd_step needs row sums equal to one")
    W = g._csr(g.weight)
    return lambda x: W @ np.asarray(x, dtype=np.float64)


def fd_step(g, x, tolerance=1e-9):
    """Averaging consensus step x_i <- sum_j w_ij x_j for row-stochastic w."""
    return _averaging_map(g, tolerance)(x)


def hk_step(x, eps):
    """Bounded-confidence step: mean of all opinions strictly within eps.

    Every node always hears itself, so the neighborhood is never empty.
    Distances are Euclidean over full state rows; the interaction is
    all-to-all, no graph is involved. One-column states run in O(N log N)
    on the sorted values; wider states average over the radius pairs of a
    k-d tree, refused (TooLarge) above graphs._PAIR_LIMIT pairs.
    """
    if not eps > 0.0:  # also refuses NaN
        raise ValueError("confidence radius eps must be positive")
    x, flat = to_matrix(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("hk_step needs a finite state")
    if x.shape[1] == 1:
        return from_matrix(_hk_step_sorted(x[:, 0], eps)[:, None], flat)
    A = _radius_pairs(x, eps, strict=True)
    return from_matrix((A @ x + x) / (np.diff(A.indptr) + 1.0)[:, None], flat)


def _hk_step_sorted(v, eps):
    """hk_step for scalar opinions v, from the sorted order of v."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    n = s.size
    k = np.arange(n)
    # With s sorted, sorted agent k hears exactly the positions lo[k] <= m <
    # hi[k], because float subtraction is monotone. The bounds are found by
    # bisection on the dense path's own distance test norm1(s_m - s_k) < eps;
    # searchsorted(s +- eps) can round to the wrong side of the boundary.
    lo = _first_true(np.zeros(n, dtype=np.int64), k, lambda a, m: norm1(s[a] - s[m]) < eps)
    hi = _first_true(k + 1, np.full(n, n), lambda a, m: norm1(s[m] - s[a]) >= eps)
    # Window sums from interleaved [lo, hi) bounds; the trailing 0 keeps
    # hi == n a valid index. Direct sums, unlike prefix-sum differences,
    # carry no rounding error from values outside the window.
    sums = np.add.reduceat(np.append(s, 0.0), np.column_stack([lo, hi]).ravel())[::2]
    out = np.empty(n)
    out[order] = sums / (hi - lo)
    return out


def _first_true(lo, hi, test):
    """Per entry a, the first m in [lo[a], hi[a]) with test(a, m), else hi[a].

    test(a, m) takes index arrays and must be false then true along m; all
    entries are bisected at once.
    """
    lo, hi = lo.copy(), hi.copy()
    a = np.flatnonzero(lo < hi)
    while a.size:
        mid = (lo[a] + hi[a]) // 2
        t = test(a, mid)
        hi[a] = np.where(t, mid, hi[a])
        lo[a] = np.where(t, lo[a], mid + 1)
        a = a[lo[a] < hi[a]]
    return lo


# -- influence message passing ---------------------------------------------


def _coupling_rhs(g, cfg, sim, count=1.0):
    """rhs(x) = A @ x - rowsum(A) x - lam x with A_ij = count_ij phi(s_ij) on g's arcs.

    Static similarity is the normalized-adjacency similarity of g; dynamic
    similarity is recomputed from the state at every call.
    """
    A = g._csr(np.zeros(g.arc_count))

    def fill(s):
        # A.data is aligned with the arcs; the result is rowsum(A) + lam.
        A.data[:] = count * phi(cfg, s)
        return np.bincount(g.src, weights=A.data, minlength=g.node_count) + cfg.lam

    if not sim.is_dynamic:
        static_diag = fill(similarity_static(g))

    def rhs(x):
        x, flat = to_matrix(x)
        if sim.is_dynamic:
            diag = fill(similarity_dynamic(x, (g.src, g.dst), temperature=sim.temperature))
        else:
            diag = static_diag
        return from_matrix(A @ x - diag[:, None] * x, flat)

    return rhs


def make_odnet_rhs(g, cfg, sim=SimilaritySpec()):
    """Closure for the continuous-time influence dynamics: coupling plus
    confining control. Static similarities are frozen at build time."""
    return _coupling_rhs(g, cfg, sim)


def make_hypergraph_odnet_rhs(h, cfg, sim=SimilaritySpec()):
    """Closure for the hypergraph influence rhs.

    Each hyperedge contributes couplings over all its ordered node pairs, so
    a pair sharing several hyperedges is counted once per hyperedge. Static
    similarity is that of the clique expansion.
    """
    g = h.clique_expansion()
    ones = np.ones(h._node.size)
    C = _csr_matrix(h.node_count, *h._pair_product(ones, ones, "co-membership counts"))
    del ones  # each step holds only what the next one reads
    C.sort_indices()
    # g's arcs are a subset of C's pattern, both are canonical CSR and every
    # count is at least 1, so the elementwise product keeps exactly g's arcs, in order.
    count = C.multiply(g._csr(np.ones(g.arc_count))).data
    del C
    return _coupling_rhs(g, cfg, sim, count)


# -- hypergraph diffusion -------------------------------------------------


def _kernel(h, kind, pair_sums):
    """Diffusion kernel K as CSR arrays from h's pair sums, h._pair_product or h._pair_bincount.

    "uniform" spreads each node's unit mass evenly over its co-memberships:
    K_ij = C_ij / sum_j C_ij with C the shared-hyperedge counts (diagonal
    included). "hgnn" is Dv^-1/2 H De^-1 H^T Dv^-1/2, multiplied in that order;
    its rows only sum to one on node-regular hypergraphs, and callers enforce
    that. Nodes in no hyperedge keep their state via K_ii = 1.
    """
    n, node, sizes = h.node_count, h._node, np.diff(h._edge_ptr)
    ones = np.ones(node.size)
    if kind == "uniform":
        indptr, indices, data = pair_sums(ones, ones, "uniform kernel")
        # Row i's counts total the sizes of i's hyperedges: integers, so exact.
        total = np.bincount(node, weights=np.repeat(sizes, sizes), minlength=n)
        data /= np.repeat(total, np.diff(indptr))
    elif kind == "hgnn":
        dv = np.bincount(node, minlength=n).astype(np.float64)  # hyperedges per node
        dv_isqrt = np.divide(1.0, np.sqrt(dv), out=np.zeros(n), where=dv > 0.0)
        left = dv_isqrt[node] * np.repeat(1.0 / sizes, sizes)
        indptr, indices, data = pair_sums(left, ones, "hgnn kernel")
        data *= dv_isqrt[indices]
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    isolated = np.flatnonzero(np.diff(indptr) == 0)  # nodes in no hyperedge
    if isolated.size:
        at = indptr[isolated]
        indptr = indptr + np.searchsorted(isolated, np.arange(n + 1))
        indices, data = np.insert(indices, at, isolated), np.insert(data, at, 1.0)
    return indptr, indices, data


def _sparse_kernel(h, kind):
    """_kernel's K as a CSR matrix with sorted indices, so K @ x adds a row in column order."""
    K = _csr_matrix(h.node_count, *_kernel(h, kind, h._pair_product))
    K.sort_indices()
    return K


def _identity_minus_kernel(h, kind):
    """I - K as one dense N x N array, for spectral_gap; loads no SciPy.

    Bit-equal to identity - _sparse_kernel(h, kind) made dense. It is 0.0 - K,
    not -K, so an entry with no coupling is +0.0, not -0.0.
    """
    indptr, indices, data = _kernel(h, kind, h._pair_bincount)
    n = h.node_count
    L = np.zeros(n * n)
    L[np.repeat(np.arange(0, n * n, n), np.diff(indptr)) + indices] = np.subtract(0.0, data)
    L[:: n + 1] += 1.0  # the diagonal
    return L.reshape(n, n)


def _check_kernel(K):
    rows = K.sum(axis=1)
    if np.any(K.data < -1e-12) or np.any(np.abs(rows - 1.0) > 1e-9):
        raise KernelNotNormalized("kernel rows must be nonnegative and sum to one")


def make_hypergraph_diffusion_rhs(h, kernel="uniform"):
    """Closure computing dx/dt = -(I - K) x for a normalized kernel K."""
    K = _sparse_kernel(h, kernel)
    _check_kernel(K)

    def rhs(x):
        x = np.asarray(x, dtype=np.float64)
        return K @ x - x

    return rhs


# -- declarative run description ------------------------------------------


@dataclass
class DynamicSpec:
    """Which update rule to run, on what structure, with which knobs.

    _KIND_TABLE says what each kind runs on and needs; step_fn and rhs_fn
    check it. The structure is attached apart from JSON, as manifests name
    files by path; all-to-all hk ignores it. hk_radius only applies to "hk",
    kernel to "hypergraph-diffusion", similarity to the influence kinds.
    """

    kind: str
    structure: WeightedGraph | Hypergraph | None = None
    influence: InfluenceConfig | None = None
    similarity: SimilaritySpec = field(default_factory=SimilaritySpec)
    hk_radius: float = 0.1
    kernel: str = "uniform"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kernel not in ("uniform", "hgnn"):
            raise ValueError(f"kernel must be 'uniform' or 'hgnn', got {self.kernel!r}")
        if not self.hk_radius > 0.0:
            raise ValueError(f"hk_radius must be positive, got {self.hk_radius!r}")

    @property
    def is_discrete(self):
        return _KIND_TABLE[self.kind][2]

    @property
    def _runs_on(self):
        """WeightedGraph, Hypergraph, or None for a kind that runs all-to-all."""
        return _KIND_TABLE[self.kind][0]

    def _check(self, discrete=None):
        """ValueError unless the kind's structure and influence are there (and form, if given)."""
        runs_on, needs_influence, is_discrete = _KIND_TABLE[self.kind]
        if discrete is not None and discrete != is_discrete:
            form = "discrete step" if discrete else "continuous rhs"
            raise ValueError(f"kind {self.kind!r} has no {form}")
        if runs_on is not None and not isinstance(self.structure, runs_on):
            noun = "graph" if runs_on is WeightedGraph else "hypergraph"
            raise ValueError(f"kind {self.kind!r} needs a {noun}")
        if needs_influence and self.influence is None:
            raise ValueError(f"kind {self.kind!r} needs an influence config")

    def step_fn(self):
        """Discrete one-step map for the discrete kinds."""
        self._check(discrete=True)
        if self.kind == "fd":
            return _averaging_map(self.structure)
        if self.kind == "hk":
            eps = self.hk_radius
            return lambda x: hk_step(x, eps)
        rhs = make_odnet_rhs(self.structure, self.influence, self.similarity)
        return lambda x: euler_step(rhs, x, 1.0)

    def rhs_fn(self):
        """Continuous right-hand side for the continuous kinds."""
        self._check(discrete=False)
        if self.kind == "hypergraph-diffusion":
            return make_hypergraph_diffusion_rhs(self.structure, self.kernel)
        make = make_odnet_rhs if self._runs_on is WeightedGraph else make_hypergraph_odnet_rhs
        return make(self.structure, self.influence, self.similarity)

    @classmethod
    def from_json(cls, obj, structure=None):
        """The spec from a flat JSON object: kind required, an influence config if eps1
        is given, `similarity` and `temperature` for the SimilaritySpec; each absent
        key keeps its field's default."""
        influence = InfluenceConfig.from_json(obj) if "eps1" in obj else None
        similarity = SimilaritySpec(**config_fields(SimilaritySpec, obj))
        return cls(structure=structure, influence=influence, similarity=similarity,
                   **config_fields(cls, obj))
