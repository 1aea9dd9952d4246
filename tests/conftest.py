"""Shared builders for the test suite."""

from __future__ import annotations

import warnings
from contextlib import suppress

import numpy as np
import pytest

# Hypothesis's pytest plugin imports this module, and with it libcst, only to report a
# failing example; libcst's DeprecationWarning on import is then an error under the
# "error" filter and ends the session. Imported once here, with that warning ignored,
# a failing example is reported as one failure. Without libcst the plugin skips it.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from odyn import TooLarge, WeightedGraph, normalize_rows
from odyn.dynamics import _sparse_kernel


def make_ring(n, weight=1.0, directed=True):
    """Directed ring 0 -> 1 -> ... -> n-1 -> 0."""
    return WeightedGraph(n, [(i, (i + 1) % n, weight) for i in range(n)], directed=directed)


def random_digraph(seed, n_max=12, extra=2.0, self_loops=True):
    """Random directed graph: ring skeleton plus random arcs.

    The ring keeps it strongly connected; a random self loop (when enabled)
    makes it aperiodic. Weights are uniform in [0.2, 1.2).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    arcs = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(int(extra * n)):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j:
            arcs.add((i, j))
    if self_loops:
        k = int(rng.integers(n))
        arcs.add((k, k))
    edges = [(i, j, float(0.2 + rng.random())) for (i, j) in sorted(arcs)]
    return WeightedGraph(n, edges, directed=True)


def random_row_stochastic(seed, n_max=12, lazy=0.5):
    """Strongly connected, aperiodic, row-stochastic random graph.

    Built by row-normalizing a random digraph and blending in a self-loop
    share `lazy`, which keeps the spectrum well away from the unit circle.
    """
    g = normalize_rows(random_digraph(seed, n_max=n_max))
    n = g.node_count
    merged = {}
    for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()):
        merged[(s, d)] = merged.get((s, d), 0.0) + (1.0 - lazy) * w
    for i in range(n):
        merged[(i, i)] = merged.get((i, i), 0.0) + lazy
    edges = [(s, d, w) for (s, d), w in sorted(merged.items())]
    return WeightedGraph(n, edges, directed=True)


# -- per-node views of a graph's arcs, for loops that check the vectorised code


def cooccurrence_fixture(seed=96):
    """Deterministic stand-in for a 96-node co-occurrence network.

    96 nodes, exactly 2,517 undirected weighted edges. Node propensities are
    lognormal, so degrees are heavy tailed (hubs plus sparsely connected
    nodes) like empirical co-occurrence networks; weights follow a skewed
    distribution in (0, 1] like empirical co-occurrence scores.
    """
    n, m = 96, 2517
    rng = np.random.default_rng(seed)
    propensity = rng.lognormal(0.0, 1.0, n)
    iu, ju = np.triu_indices(n, k=1)
    p = propensity[iu] * propensity[ju]
    pick = rng.choice(iu.size, size=m, replace=False, p=p / p.sum())
    pick.sort()
    w = rng.beta(0.6, 2.5, size=m) * 0.98 + 0.02
    return WeightedGraph.from_arrays(n, iu[pick], ju[pick], w, directed=False)


def out_slice(g, i):
    """Slice into g's arc arrays covering arcs leaving node i."""
    return slice(g._row_ptr[i], g._row_ptr[i + 1])


def neighbors(g, i):
    """Out-neighbor indices of node i, self loops excluded."""
    d = g.dst[out_slice(g, i)]
    return d[d != i]


def degree(g, i):
    """Unweighted neighbor count of node i (self loops excluded)."""
    return int(neighbors(g, i).size)


# -- dense views: oracles for the sparse structures, small inputs only

DENSE_VIEW_ROWS = 2000


def dense_view_guard(node_count, what):
    """TooLarge before a dense view of more than DENSE_VIEW_ROWS nodes is built."""
    if node_count > DENSE_VIEW_ROWS:
        raise TooLarge(f"{what} refused for {node_count} nodes (limit {DENSE_VIEW_ROWS})")


def dense_weights(g):
    """Dense N x N weight matrix of a graph's arcs."""
    dense_view_guard(g.node_count, "dense weight view")
    m = np.zeros((g.node_count, g.node_count))
    m[g.src, g.dst] = g.weight
    return m


def membership_weight(h):
    """Dense N x E membership weights of a hypergraph."""
    dense_view_guard(h.node_count, "dense N x E membership view")
    m = np.zeros((h.node_count, h.edge_count))
    m[h._node, np.repeat(np.arange(h.edge_count), np.diff(h._edge_ptr))] = h._weight
    return m


def incidence(h):
    """Dense bool N x E membership matrix of a hypergraph."""
    return membership_weight(h) > 0.0


def co_membership(h):
    """Dense count matrix C with C[i, j] = number of shared hyperedges."""
    dense_view_guard(h.node_count, "dense co-membership")
    H = incidence(h).astype(np.float64)
    return H @ H.T


def diffusion_kernel(h, kind="uniform"):
    """Dense form of the diffusion kernel the hypergraph-diffusion rhs runs on."""
    dense_view_guard(h.node_count, "dense diffusion kernel")
    return _sparse_kernel(h, kind).toarray()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
