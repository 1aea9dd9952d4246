"""Weighted graphs, hypergraphs and node labels.

Graphs are stored sparsely as arc arrays keyed by source node; an undirected
graph keeps two mirrored arcs per edge so every per-node scan is a contiguous
slice. A hypergraph keeps one sparse N x E membership-weight matrix. All
containers are immutable after construction and safe to share; a pickled or
copied graph or hypergraph is rebuilt from its triples by its constructor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, triu

from ._state import integer
from .errors import (
    EmptyGraph,
    InvalidProbability,
    NotStronglyConnected,
    TooLarge,
)

__all__ = [
    "WeightedGraph",
    "Hypergraph",
    "NodeLabels",
    "validate_row_stochastic",
    "is_strongly_connected",
    "is_aperiodic",
    "homophily_level",
    "generate_sbm",
    "normalize_rows",
    "split_masks",
]

log = logging.getLogger("odyn")

# Node pairs one call may hold, about 1 GB: radius pairs of hk_step and cluster_count
# (56 bytes each), or sum |e|^2 for a membership product H @ H.T (85 bytes each).
_PAIR_LIMIT = 2**24

# Gaps drawn at most per chunk by generate_sbm (0.5 MB of doubles).
_GAP_CHUNK = 1 << 16

# Node pairs generate_sbm refuses in one block pair: float64 positions are exact below it.
_BLOCK_PAIR_LIMIT = 1 << 53


class WeightedGraph:
    """Directed or undirected graph with strictly positive edge weights.

    Parameters
    ----------
    node_count : int
        Number of nodes; indices run 0 .. node_count - 1.
    edges : iterable of (src, dst, weight), or a structured array of three fields
        For undirected graphs each edge is listed once (self loops too);
        the constructor stores the mirrored arc automatically.
    directed : bool
        Arc semantics flag. Affects validation, edge counting and I/O.
    """

    __slots__ = ("node_count", "directed", "src", "dst", "weight", "_row_ptr", "_loops")

    def __init__(self, node_count, edges, directed=False):
        self._build(node_count, *_triples(edges), directed)

    @classmethod
    def from_arrays(cls, node_count, src, dst, weight, directed=False):
        """Build from matching 1-d arrays of sources, targets and weights.

        Same semantics and validation as the edge-list constructor: for an
        undirected graph each edge is listed once and mirrored here.
        """
        src, dst = _index_column(src), _index_column(dst)
        weight = np.asarray(weight, dtype=np.float64)
        if src.ndim != 1 or src.shape != dst.shape or src.shape != weight.shape:
            raise ValueError("src, dst and weight must be matching 1-d arrays")
        g = cls.__new__(cls)
        g._build(node_count, src, dst, weight, directed)
        return g

    def _build(self, node_count, src, dst, w, directed):
        node_count = int(node_count)
        if node_count < 1:
            raise EmptyGraph("graph needs at least one node")
        if node_count * node_count >= 1 << 63:
            raise TooLarge(
                f"graph of {node_count} nodes refused: its arc keys src * n + dst overflow "
                f"int64, and its row pointers alone take {8 * (node_count + 1) / 2**30:.1f} GiB"
            )
        if not directed:
            mirror = src != dst
            src, dst = np.concatenate([src, dst[mirror]]), np.concatenate([dst, src[mirror]])
            w = np.concatenate([w, w[mirror]])
        if src.size:
            if src.min() < 0 or src.max() >= node_count:
                raise ValueError("edge source index out of range")
            if dst.min() < 0 or dst.max() >= node_count:
                raise ValueError("edge target index out of range")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise ValueError("edge weights must be finite and strictly positive")
        # Arcs in (src, dst) order: one int64 key each, as n * n < 2**63.
        order = np.argsort(src * node_count + dst, kind="stable")
        src, dst, w = src[order], dst[order], w[order]
        if src.size > 1:
            dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate edge ({src[k]}, {dst[k]})")
        row_ptr = np.searchsorted(src, np.arange(node_count + 1))
        for a in (src, dst, w, row_ptr):
            a.setflags(write=False)
        self.node_count = node_count
        self.directed = bool(directed)
        self.src, self.dst, self.weight, self._row_ptr = src, dst, w, row_ptr
        self._loops = int(np.count_nonzero(src == dst))

    # -- basic queries -------------------------------------------------

    @property
    def arc_count(self):
        """Number of stored arcs (mirrored arcs count twice)."""
        return int(self.src.size)

    @property
    def edge_count(self):
        """Number of logical edges: pairs for undirected, arcs for directed."""
        if self.directed:
            return self.arc_count
        return self._loops + (self.arc_count - self._loops) // 2

    def weighted_out_degree(self):
        """Vector of outgoing weight sums, self loops included."""
        return np.bincount(self.src, weights=self.weight, minlength=self.node_count)

    def _csr(self, data):
        """N x N CSR matrix on the arc pattern; data is aligned with the arcs."""
        n = self.node_count
        return csr_matrix((data, self.dst, self._row_ptr), shape=(n, n))

    def undirected_pairs(self):
        """Canonical (i, j, w) arrays with i <= j, each logical edge once."""
        if self.directed:
            return self.src, self.dst, self.weight
        keep = self.src <= self.dst
        return self.src[keep], self.dst[keep], self.weight[keep]

    def __reduce__(self):
        """Pickled and copied as its canonical triples, which from_arrays checks and rebuilds."""
        return type(self).from_arrays, (self.node_count, *self.undirected_pairs(), self.directed)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.directed == other.directed
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
        )

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"WeightedGraph({self.node_count} nodes, {self.edge_count} {kind} edges)"


class Hypergraph:
    """Hypergraph stored as node-hyperedge memberships with weights.

    The one stored form is the N x E membership-weight matrix _weights in
    CSC form, so its indices/indptr list the members by hyperedge, then node.

    Pair weights inside a hyperedge default to the product of the two
    membership weights, so they are nonzero exactly where both nodes
    belong to the hyperedge.
    """

    __slots__ = ("node_count", "edge_count", "_weights")

    def __init__(self, node_count, memberships, edge_count=None):
        node_count = int(node_count)
        if node_count < 1:
            raise EmptyGraph("hypergraph needs at least one node")
        nodes, edges, w = _triples(memberships)
        if edge_count is None:
            edge_count = 1 + (int(edges.max()) if edges.size else -1)
        edge_count = int(edge_count)
        if edge_count < 1:
            raise EmptyGraph("hypergraph needs at least one hyperedge")
        if node_count * edge_count >= 1 << 63:
            raise TooLarge(f"hypergraph of {node_count} nodes and {edge_count} hyperedges refused: "
                           "its membership keys edge * n + node overflow int64")
        bad_node = (nodes < 0) | (nodes >= node_count)
        bad_edge = (edges < 0) | (edges >= edge_count)
        bad_weight = ~(np.isfinite(w) & (w > 0.0))
        # Sorted by hyperedge, then node, on one int64 key per membership; an
        # out-of-range one keys -1, so it meets no valid one. The sort is
        # stable, so a membership is a duplicate when it follows an equal key.
        key = np.where(bad_node | bad_edge, -1, edges * node_count + nodes)
        order = np.argsort(key, kind="stable")
        key = key[order]
        dup = np.zeros(w.size, dtype=bool)
        dup[order[1:][key[1:] == key[:-1]]] = True
        bad = np.flatnonzero(bad_node | bad_edge | bad_weight | dup)
        if bad.size:
            k = bad[0]
            if bad_node[k]:
                raise ValueError("membership node index out of range")
            if bad_edge[k]:
                raise ValueError("membership hyperedge index out of range")
            if bad_weight[k]:
                raise ValueError("membership weights must be finite and positive")
            raise ValueError(f"duplicate membership ({nodes[k]}, {edges[k]})")
        sizes = np.bincount(edges, minlength=edge_count)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise ValueError(f"hyperedge {int(empty[0])} contains no node")
        self.node_count = node_count
        self.edge_count = edge_count
        ptr = np.concatenate([[0], np.cumsum(sizes)])
        W = csc_matrix((w[order], nodes[order], ptr), shape=(node_count, edge_count))
        for a in (W.data, W.indices, W.indptr):
            a.setflags(write=False)
        self._weights = W

    def _incidence_csr(self):
        """Sparse (CSR) 0/1 incidence H as floats, sorted like a dense conversion."""
        W = self._weights
        return csc_matrix((np.ones(W.nnz), W.indices, W.indptr), shape=W.shape).tocsr()

    def _memberships(self):
        """(node, hyperedge, weight) columns, sorted by hyperedge, then node."""
        W = self._weights
        return W.indices, np.repeat(np.arange(self.edge_count), np.diff(W.indptr)), W.data

    def __reduce__(self):
        """Pickled and copied as its memberships, which the constructor checks and rebuilds."""
        rows = np.rec.fromarrays(self._memberships(), names="node,hyperedge,weight")
        return type(self), (self.node_count, rows, self.edge_count)

    def members(self, e):
        """Sorted node indices belonging to hyperedge e."""
        W = self._weights
        return W.indices[W.indptr[e] : W.indptr[e + 1]]

    def _co_membership_csr(self):
        """Shared-hyperedge counts C = H H^T in canonical CSR form.

        H @ H.T leaves rows unsorted. make_hypergraph_odnet_rhs aligns the
        counts with the clique arcs by an elementwise product with the arcs'
        CSR matrix, whose data come out in arc order only when both operands
        are canonical.
        """
        self._product_guard("co-membership counts")
        H = self._incidence_csr()
        C = H @ H.T
        C.sum_duplicates()
        return C

    def clique_expansion(self):
        """Undirected graph over co-membered pairs.

        Edge weight is the sum over shared hyperedges of the product of the
        two membership weights.
        """
        self._product_guard("clique expansion")
        M = self._weights
        W = triu(M.tocsr() @ M.T, k=1).tocoo()
        return WeightedGraph.from_arrays(self.node_count, W.row, W.col, W.data)

    def _product_guard(self, what):
        """TooLarge before a product of the memberships with their transpose."""
        _pair_guard(int(np.square(np.diff(self._weights.indptr)).sum()), f"{what} of a hypergraph")

    def __repr__(self):
        return f"Hypergraph({self.node_count} nodes, {self.edge_count} hyperedges)"


def _pair_guard(pairs, what):
    """Raise TooLarge before `what` holds more than _PAIR_LIMIT node pairs."""
    if pairs > _PAIR_LIMIT:
        raise TooLarge(f"{what} refused for {pairs} node pairs (limit {_PAIR_LIMIT})")


def _radius_pairs(x, radius, strict):
    """Symmetric 0/1 CSR matrix linking rows i != j with norm(x_i - x_j) < radius (strict)
    or <= radius, tested 2^16 pairs at a time; TooLarge above _PAIR_LIMIT ordered pairs,
    each row with itself. A slightly wider k-d tree ball lets no rounding drop a pair."""
    from scipy.spatial import cKDTree  # about 0.18 s to import, only used here

    n, d = x.shape
    tree = cKDTree(x if d else np.zeros((n, 1)))  # no columns: every distance is 0
    wide = radius * (1.0 + 2.0**-20) + 1e-150
    _pair_guard(int(tree.query_ball_point(tree.data, wide, return_length=True).sum()),
                f"pairs within {radius} of {n} rows in dimension {d}")
    pairs = tree.query_pairs(wide, output_type="ndarray")
    dist = np.concatenate([np.linalg.norm(x[b[:, 0]] - x[b[:, 1]], axis=1)
                           for b in np.split(pairs, range(1 << 16, len(pairs), 1 << 16))])
    i, j = pairs[dist < radius if strict else dist <= radius].T
    return csr_matrix((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(n, n))


def _index_column(values):
    """values as an int64 array; an integer beyond 64 bits reads -1, out of range."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([v if -(1 << 63) <= v < 1 << 63 else -1 for v in values], dtype=np.int64)


def _index(value):
    """int(value); an infinite index reads -1, out of range, as one beyond 64 bits does."""
    try:
        return int(value)
    except OverflowError:
        return -1


def _triples(rows):
    """(index, index, weight) rows as int64, int64 and float64 columns.

    A 1-d structured array of three fields gives its fields whole: iterating
    it yields the same triples. Any other iterable is read row by row.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 1 and len(rows.dtype.names or ()) == 3:
        a, b, w = (rows[name] for name in rows.dtype.names)
    else:
        # Flat lists rather than a tuple per row: in a fresh process,
        # allocating the tuples costs about twice the parsing itself.
        a, b, w = [], [], []
        for s, d, x in rows:
            a.append(_index(s))
            b.append(_index(d))
            w.append(float(x))
    return _index_column(a), _index_column(b), np.asarray(w, dtype=np.float64)


@dataclass(frozen=True)
class NodeLabels:
    """Integer node labels in [0, class_count) with optional split masks."""

    labels: np.ndarray
    class_count: int
    train: np.ndarray | None = None
    val: np.ndarray | None = None
    test: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError("label outside [0, class_count)")
        masks = []
        for name in ("train", "val", "test"):
            m = getattr(self, name)
            if m is not None:
                m = np.unique(np.asarray(m, dtype=np.int64))
                if m.size and (m.min() < 0 or m.max() >= labels.size):
                    raise ValueError(f"{name} mask index out of range")
                object.__setattr__(self, name, m)
                masks.append(m)
        if len(masks) > 1:
            joined = np.concatenate(masks)
            if np.unique(joined).size != joined.size:
                raise ValueError("split masks must be disjoint")

    @property
    def node_count(self):
        return int(self.labels.size)


def split_masks(labels, train_frac=1 / 3, val_frac=1 / 3, seed=0):
    """Return a copy of `labels` with a stratified random train/val/test split.

    Sampling is per class so every class appears in the training set whenever
    it has at least one node. Fractions apply within each class; the
    remainder goes to the test set. Each fraction must lie in [0, 1] and
    their sum must be at most 1.
    """
    if not (0.0 <= train_frac <= 1.0 and 0.0 <= val_frac <= 1.0 and train_frac + val_frac <= 1.0):
        raise ValueError(f"split fractions must lie in [0, 1] and sum to at most 1, got "
                         f"train_frac = {train_frac!r} and val_frac = {val_frac!r}")
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for c in range(labels.class_count):
        idx = rng.permutation(np.flatnonzero(labels.labels == c))
        n_tr = max(1, int(round(train_frac * idx.size))) if idx.size else 0
        n_va = int(round(val_frac * idx.size))
        train.append(idx[:n_tr])
        val.append(idx[n_tr : n_tr + n_va])
        test.append(idx[n_tr + n_va :])
    # NodeLabels sorts each mask.
    return NodeLabels(labels.labels, labels.class_count, train=np.concatenate(train),
                      val=np.concatenate(val), test=np.concatenate(test))


# -- predicates and generators ------------------------------------------


def validate_row_stochastic(g, tolerance=1e-9):
    """True when every node's outgoing weights sum to one within tolerance."""
    sums = g.weighted_out_degree()
    return bool(np.all(np.abs(sums - 1.0) <= tolerance))


def _bfs_levels(row_ptr, dst, start):
    """BFS level of each node from `start` over CSR-style arcs; -1 when unreached."""
    dist = np.full(row_ptr.size - 1, -1, dtype=np.int64)
    frontier, level = np.array([start]), 0
    while frontier.size:
        dist[frontier] = level
        # The arc slices of the whole frontier, gathered at once.
        lo = row_ptr[frontier]
        count = row_ptr[frontier + 1] - lo
        arcs = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
        reached = np.unique(dst[arcs])
        frontier, level = reached[dist[reached] < 0], level + 1
    return dist


def _strong_levels(g):
    """BFS levels from node 0 when the graph is strongly connected, else None.

    Node 0 must reach every node over the arcs and over the reversed arcs. The
    arcs are sorted by (src, dst), so a stable sort by dst sorts the reversed ones.
    """
    dist = _bfs_levels(g._row_ptr, g.dst, 0)
    if (dist < 0).any():
        return None
    order = np.argsort(g.dst, kind="stable")
    row_ptr = np.searchsorted(g.dst[order], np.arange(g.node_count + 1))
    return None if (_bfs_levels(row_ptr, g.src[order], 0) < 0).any() else dist


def is_strongly_connected(g):
    """Every node reaches every other along directed arcs."""
    return _strong_levels(g) is not None


def is_aperiodic(g):
    """True when the gcd of all directed cycle lengths is one.

    Requires strong connectivity. Computed from BFS levels: for every arc
    (u, v) the closing defect dist(u) + 1 - dist(v) is a combination of
    cycle lengths, and the gcd over all arcs equals the cycle gcd. Any
    self loop yields defect one, so a self loop alone settles the question.
    """
    dist = _strong_levels(g)
    if dist is None:
        raise NotStronglyConnected("aperiodicity is defined for strongly connected graphs")
    return bool(np.gcd.reduce(np.abs(dist[g.src] + 1 - dist[g.dst])) == 1)


def homophily_level(g, labels):
    """Mean over nodes of the fraction of neighbors sharing the node's label.

    Nodes without neighbors are skipped (and counted in a log line); if no
    node has a neighbor the mean is undefined and EmptyGraph is raised.
    """
    lab = labels.labels
    if lab.size != g.node_count:
        raise ValueError("labels length must match node count")
    arc = g.src != g.dst
    src, dst = g.src[arc], g.dst[arc]
    degree = np.bincount(src, minlength=g.node_count)
    agree = np.bincount(src, weights=lab[src] == lab[dst], minlength=g.node_count)
    has = degree > 0
    skipped = g.node_count - int(np.count_nonzero(has))
    if skipped:
        log.info("homophily_level skipped %d isolated node(s)", skipped)
    if skipped == g.node_count:
        raise EmptyGraph("no node has a neighbor")
    return float(np.mean(agree[has] / degree[has]))


def generate_sbm(block_sizes, p_in, p_out, seed=0):
    """Sample an undirected stochastic block model with unit weights.

    Each pair i < j is an edge with probability p_in inside a block and
    p_out across blocks, independently. Returns (graph, labels) where labels
    are block indices. The draw is a pure function of the seed, and it takes
    O(N + edges) time and memory.
    """
    for p in (p_in, p_out):
        if not (0.0 <= p <= 1.0):
            raise InvalidProbability(f"edge probability {p} outside [0, 1]")
    sizes = [integer(s, "block size") for s in block_sizes]
    if not sizes:
        raise ValueError("block sizes must be positive and list at least one block, got []")
    src, dst = _sbm_edges(np.random.default_rng(seed), sizes, p_in, p_out)
    g = WeightedGraph.from_arrays(sum(sizes), src, dst, np.ones(src.size), directed=False)
    return g, NodeLabels(np.repeat(np.arange(len(sizes)), sizes), len(sizes))


def _sbm_edges(rng, sizes, p_in, p_out):
    """(src, dst) of the kept pairs i < j, drawn block pair by block pair.

    Its own function, so that no per-block array outlives the draw.
    """
    blocks = [(a, b) for a in range(len(sizes)) for b in range(a, len(sizes))]
    pairs = [sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b] for a, b in blocks]
    if max(pairs) >= _BLOCK_PAIR_LIMIT:
        raise TooLarge(f"stochastic block model refused: {max(pairs)} node pairs in one block pair "
                       f"(limit {_BLOCK_PAIR_LIMIT - 1})")
    starts = np.cumsum([0, *sizes])
    src, dst = [], []
    for (a, b), m in zip(blocks, pairs):
        k = _bernoulli_positions(rng, m, p_in if a == b else p_out)
        if a == b:  # pair k in row-major (triu) order: row i has row_start[i] <= k
            rows = np.arange(sizes[a], dtype=np.int64)
            row_start = rows * (sizes[a] - 1) - rows * (rows - 1) // 2
            i = np.searchsorted(row_start, k, side="right") - 1
            j = k - row_start[i] + i + 1
        else:
            i, j = np.divmod(k, sizes[b])
        src.append(starts[a] + i)
        dst.append(starts[b] + j)
    return np.concatenate(src), np.concatenate(dst)


def _bernoulli_positions(rng, m, p):
    """Sorted positions in [0, m), each kept with probability p independently.

    Jumps from kept position to kept position (Batagelj and Brandes 2005):
    for E a standard exponential draw, ceil(E / -log(1 - p)) has the gap's
    geometric law, so time and memory are O(kept), not O(m). Positions are
    exact in float64 for m < 2^53.
    """
    if p == 1.0:
        return np.arange(m, dtype=np.int64)
    if p == 0.0 or m == 0:
        return np.zeros(0, np.int64)
    rate = -np.log1p(-p)
    kept, last = [], -1.0
    # A tiny p gives gaps past the float range: inf, beyond every position.
    with np.errstate(over="ignore"):
        while last < m - 1:
            want = (m - 1 - last) * p  # kept positions expected in the rest
            size = int(min(_GAP_CHUNK, want + 4.0 * want**0.5 + 16.0))
            gaps = np.maximum(np.ceil(rng.standard_exponential(size) / rate), 1.0)
            pos = last + np.cumsum(gaps)
            kept.append(pos[pos < m])
            last = pos[-1]
    return np.concatenate(kept).astype(np.int64)


def normalize_rows(g):
    """Rescale outgoing weights to sum to one per node.

    Nodes with no outgoing arc receive a self loop of weight one before
    normalization; the repair count is logged. The result is directed even
    when the input is not, since row scaling breaks weight symmetry.
    """
    sums = g.weighted_out_degree()
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        log.info("normalize_rows added self loops on %d sink node(s)", dead.size)
    return WeightedGraph.from_arrays(
        g.node_count,
        np.concatenate([g.src, dead]),
        np.concatenate([g.dst, dead]),
        np.concatenate([g.weight / sums[g.src], np.ones(dead.size)]),
        directed=True,
    )
