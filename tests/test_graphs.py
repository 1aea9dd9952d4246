"""Graph container, predicates, and generators.

Reference values for connectivity and periodicity come from small
independent oracles implemented below (boolean matrix powers, explicit
cycle enumeration) rather than from the library's own traversals.
"""

import copy
import math
import pickle
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn import graphs
from odyn import (
    EmptyGraph,
    Hypergraph,
    InfluenceConfig,
    InvalidProbability,
    NodeLabels,
    NotStronglyConnected,
    TooLarge,
    WeightedGraph,
    consensus_predict,
    generate_sbm,
    homophily_level,
    is_aperiodic,
    is_strongly_connected,
    make_hypergraph_odnet_rhs,
    normalize_rows,
    split_masks,
    validate_row_stochastic,
)
from odyn.dynamics import _identity_minus_kernel, _sparse_kernel

from conftest import (co_membership, degree, dense_weights, incidence, make_ring,
                      membership_weight, neighbors, out_slice, random_digraph,
                      random_row_stochastic)


# ---------------------------------------------------------------- oracles


def reach_oracle(g):
    """All-pairs reachability via boolean matrix powers."""
    n = g.node_count
    a = np.eye(n, dtype=bool)
    for s, d in zip(g.src, g.dst):
        a[s, d] = True
    r = a.copy()
    for _ in range(n):
        r = r | (r @ a)
    return r


def cycle_gcd_oracle(g):
    """gcd of the lengths of all simple cycles in the graph.

    Every closed walk decomposes into simple cycles, so for a strongly
    connected graph this gcd is the common period of all nodes and the
    graph is aperiodic iff it equals 1. Exponential, keep graphs small.
    """
    n = g.node_count
    adj = [g.dst[out_slice(g, u)].tolist() for u in range(n)]
    lengths = set()

    def walk(root, u, depth, seen):
        for v in adj[u]:
            if v == root:
                lengths.add(depth + 1)
            elif v > root and v not in seen:
                walk(root, v, depth + 1, seen | {v})

    for root in range(n):
        walk(root, root, 0, frozenset({root}))
    return math.gcd(*lengths) if lengths else 0


def bfs_reach_oracle(n, row_ptr, dst, start):
    """Boolean reach set and BFS levels from `start`, one arc at a time."""
    seen = np.zeros(n, dtype=bool)
    dist = np.full(n, -1, dtype=np.int64)
    seen[start] = True
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in dst[row_ptr[u] : row_ptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    dist[v] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return seen, dist


def triu_sbm_oracle(block_sizes, p_in, p_out, seed):
    """The all-pairs SBM draw: one uniform per pair i < j in triu order."""
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(labels.size, k=1)
    probs = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.size) < probs
    return iu[keep], ju[keep]


# ------------------------------------------------------------- container


def test_undirected_edges_are_mirrored():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert g.arc_count == 4
    assert g.edge_count == 2
    assert [degree(g, i) for i in range(3)] == [1, 2, 1]
    assert g.weighted_out_degree().tolist() == [2.0, 2.5, 0.5]


def test_directed_edges_are_not_mirrored():
    g = WeightedGraph(3, [(0, 1, 1.0)], directed=True)
    assert g.arc_count == 1
    assert g.edge_count == 1
    assert g.weighted_out_degree().tolist() == [1.0, 0.0, 0.0]


def test_self_loop_stored_once():
    g = WeightedGraph(2, [(0, 0, 3.0), (0, 1, 1.0)])
    assert g.arc_count == 3  # loop + mirrored pair
    assert g.edge_count == 2
    assert 0 not in neighbors(g, 0)


def test_containers_compare_and_print():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert g == WeightedGraph(3, [(1, 2, 1.0), (0, 1, 1.0)])
    assert g != WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    assert g != "not a graph"  # __eq__ defers to the other operand
    assert repr(g) == "WeightedGraph(3 nodes, 2 undirected edges)"
    assert repr(WeightedGraph(3, [(0, 1, 1.0)], directed=True)) == (
        "WeightedGraph(3 nodes, 1 directed edges)")
    assert repr(Hypergraph(4, [(0, 0, 1.0), (3, 1, 1.0)])) == "Hypergraph(4 nodes, 2 hyperedges)"


def test_hypergraph_needs_a_node():
    with pytest.raises(EmptyGraph, match="at least one node"):
        Hypergraph(0, [(0, 0, 1.0)])


BAD_EDGE_LISTS = [
    (2, [(0, 1, -1.0)], False),
    (2, [(0, 1, 0.0)], True),
    (2, [(0, 1, float("nan"))], False),
    (2, [(0, 2, 1.0)], False),
    (2, [(2, 0, 1.0)], True),
    (2, [(-1, 0, 1.0)], True),
    (3, [(0, 1, 1.0), (1, 0, 2.0)], False),
    (3, [(2, 1, 1.0), (0, 0, 1.0), (2, 1, 3.0)], True),
]


@pytest.mark.parametrize("n, edges, directed", BAD_EDGE_LISTS)
def test_from_arrays_rejects_like_the_edge_list_constructor(n, edges, directed):
    with pytest.raises(ValueError) as listed:
        WeightedGraph(n, edges, directed=directed)
    src, dst, w = (np.array(c) for c in zip(*edges))
    with pytest.raises(ValueError) as arrays:
        WeightedGraph.from_arrays(n, src, dst, w, directed=directed)
    assert type(arrays.value) is type(listed.value)
    assert str(arrays.value) == str(listed.value)


def test_from_arrays_validates_shapes_and_node_count():
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        WeightedGraph.from_arrays(3, [0, 1], [1], [1.0, 1.0])
    with pytest.raises(EmptyGraph):
        WeightedGraph.from_arrays(0, [], [], [])


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_from_arrays_equals_edge_list_constructor(seed, directed):
    g = random_digraph(seed)
    keep = g.src <= g.dst if not directed else np.ones(g.arc_count, dtype=bool)
    rng = np.random.default_rng(seed)
    order = rng.permutation(int(keep.sum()))
    src, dst, w = g.src[keep][order], g.dst[keep][order], g.weight[keep][order]
    listed = WeightedGraph(g.node_count, zip(src.tolist(), dst.tolist(), w.tolist()), directed)
    assert WeightedGraph.from_arrays(g.node_count, src, dst, w, directed) == listed


def test_index_beyond_64_bits_is_out_of_range():
    # Such an index raises what an out-of-range index (-1) raises there.
    for big in (2**64, -(2**70)):
        calls = [
            lambda i: WeightedGraph(3, [(i, 0, 1.0)]),
            lambda i: WeightedGraph.from_arrays(3, [i], [0], [1.0]),
            lambda i: Hypergraph(3, [(0, i, 1.0)]),
            lambda i: Hypergraph(3, [(0, 0, 1.0), (1, i, 1.0)]),
            lambda i: Hypergraph(3, [(i, 0, 1.0)]),
        ]
        for call in calls:
            with pytest.raises((ValueError, EmptyGraph)) as expected:
                call(-1)
            with pytest.raises(type(expected.value)) as got:
                call(big)
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_infinite_index_is_out_of_range(inf):
    # An infinite index raises what an out-of-range index (-1) raises there,
    # as it already did through from_arrays.
    calls = [
        lambda i: WeightedGraph(3, [(i, 0, 1.0)]),
        lambda i: WeightedGraph(3, [(0, i, 1.0)]),
        lambda i: WeightedGraph.from_arrays(3, [i], [0], [1.0]),
        lambda i: Hypergraph(3, [(0, i, 1.0)]),
        lambda i: Hypergraph(3, [(0, 0, 1.0), (1, i, 1.0)]),
        lambda i: Hypergraph(3, [(i, 0, 1.0)]),
    ]
    for call in calls:
        with pytest.raises((ValueError, EmptyGraph)) as expected:
            call(-1)
        with pytest.raises(type(expected.value)) as got:
            call(inf)
        assert str(got.value) == str(expected.value)


EDGE_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])
WEIGHTS = st.sampled_from([1.0, 0.5, 2.0, 0.0, -1.0, math.nan, math.inf])


@given(
    st.lists(st.tuples(st.integers(-2, 5), st.integers(-2, 5), WEIGHTS), max_size=12),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_structured_array_builds_like_its_rows(rows, directed):
    a = np.array(rows, dtype=EDGE_DTYPE)
    try:
        expected = WeightedGraph(4, a.tolist(), directed)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            WeightedGraph(4, a, directed)
        assert str(got.value) == str(exc)
        return
    assert WeightedGraph(4, a, directed) == expected


def lexsort_build_oracle(src, dst, w, directed):
    """The arc arrays WeightedGraph._build kept when it sorted with lexsort."""
    if not directed:
        mirror = src != dst
        src, dst = np.concatenate([src, dst[mirror]]), np.concatenate([dst, src[mirror]])
        w = np.concatenate([w, w[mirror]])
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if src.size > 1:
        dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        if dup.any():
            k = int(np.flatnonzero(dup)[0])
            raise ValueError(f"duplicate edge ({src[k]}, {dst[k]})")
    return src, dst, w


@given(
    st.integers(1, 7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.floats(0.1, 9.0)), max_size=20),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_key_sort_build_matches_lexsort_oracle(n, rows, directed):
    # Few nodes and many rows: duplicates and self loops are common draws.
    rows = [(s % n, d % n, x) for s, d, x in rows]
    src = np.array([r[0] for r in rows], dtype=np.int64)
    dst = np.array([r[1] for r in rows], dtype=np.int64)
    w = np.array([r[2] for r in rows], dtype=np.float64)
    try:
        expected = lexsort_build_oracle(src, dst, w, directed)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            WeightedGraph.from_arrays(n, src, dst, w, directed)
        assert str(got.value) == str(exc)
        return
    g = WeightedGraph.from_arrays(n, src, dst, w, directed)
    for got, want in zip((g.src, g.dst, g.weight), expected):
        assert np.array_equal(got, want)


def test_node_count_beyond_int64_keys_is_refused():
    # n * n >= 2**63 first at n = 3037000500; refused before any allocation.
    assert 3037000499 ** 2 < 1 << 63 <= 3037000500 ** 2
    for n in (3037000500, 10**12):
        with pytest.raises(TooLarge):
            WeightedGraph(n, [(0, 1, 1.0)])
        with pytest.raises(TooLarge):
            WeightedGraph.from_arrays(n, [0], [n - 1], [1.0], directed=True)


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])  # duplicate after mirroring
    with pytest.raises(EmptyGraph):
        WeightedGraph(0, [])


def test_undirected_pairs_canonical():
    g = WeightedGraph(3, [(2, 0, 1.0), (1, 2, 2.0), (1, 1, 5.0)])
    s, d, w = g.undirected_pairs()
    assert list(zip(s.tolist(), d.tolist(), w.tolist())) == [
        (0, 2, 1.0),
        (1, 1, 5.0),
        (1, 2, 2.0),
    ]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_arc_arrays_sorted_by_source(seed):
    g = random_digraph(seed)
    src = g.src
    assert (np.diff(src) >= 0).all()
    for u in range(g.node_count):
        sl = out_slice(g, u)
        assert (src[sl] == u).all()


# ----------------------------------------------------------- hypergraph


def test_hypergraph_incidence_and_comembership():
    h = Hypergraph(4, [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (2, 1, 1.0), (3, 1, 1.0)])
    assert h.edge_count == 2
    assert h.members(0).tolist() == [0, 1, 2]
    c = co_membership(h)
    # C = H H^T with the diagonal kept
    expected = np.array(
        [[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 2, 1], [0, 0, 1, 1]], dtype=float
    )
    assert np.array_equal(c, expected)


@pytest.mark.parametrize("kind", ["uniform", "hgnn"])
def test_sparse_kernel_is_canonical(kind):
    # A product leaves rows unsorted; K @ x must add each row's terms in column order.
    h = Hypergraph(5, [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (2, 1, 1.0), (3, 1, 1.0)])
    K = _sparse_kernel(h, kind)
    assert K.has_canonical_format
    assert all((np.diff(K.indices[lo:hi]) > 0).all() for lo, hi in zip(K.indptr, K.indptr[1:]))


def test_hypergraph_rejects_empty_hyperedge():
    # The hyperedges are 0 ... E - 1, so a gap in the ids is an empty hyperedge.
    with pytest.raises(ValueError, match="^hyperedge 1 contains no node$"):
        Hypergraph(3, [(0, 0, 1.0), (1, 2, 1.0)])


def hypergraph_oracle(node_count, memberships):
    """The per-membership validation loop: (incidence, weights) or the error."""
    rows = [(int(n), int(e), float(w)) for n, e, w in memberships]
    edge_count = 1 + max((e for _, e, _ in rows), default=-1)
    if edge_count < 1:
        raise EmptyGraph("hypergraph needs at least one hyperedge")
    H = np.zeros((node_count, edge_count), dtype=bool)
    M = np.zeros((node_count, edge_count))
    for n, e, w in rows:
        if not (0 <= n < node_count):
            raise ValueError("membership node index out of range")
        if not (0 <= e < edge_count):
            raise ValueError("membership hyperedge index out of range")
        if not math.isfinite(w) or w <= 0.0:
            raise ValueError("membership weights must be finite and positive")
        if H[n, e]:
            raise ValueError(f"duplicate membership ({n}, {e})")
        H[n, e] = True
        M[n, e] = w
    empty = np.flatnonzero(~H.any(axis=0))
    if empty.size:
        raise ValueError(f"hyperedge {int(empty[0])} contains no node")
    return H, M


MEMBERSHIPS = st.lists(
    st.tuples(
        st.one_of(st.integers(-1, 4), st.sampled_from([2**63, -(2**70)])),
        st.integers(-1, 3),
        st.sampled_from([1.0, 0.5, 2.0, 0.0, -1.0, math.nan, math.inf]),
    ),
    max_size=14,
)


@given(MEMBERSHIPS)
@settings(max_examples=300, deadline=None)
def test_hypergraph_validation_matches_loop_oracle(memberships):
    # Same error type and message for the first offending membership, or the
    # same arrays.
    try:
        H, M = hypergraph_oracle(4, memberships)
    except (ValueError, EmptyGraph) as exc:
        with pytest.raises(type(exc)) as got:
            Hypergraph(4, memberships)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    h = Hypergraph(4, memberships)
    assert np.array_equal(incidence(h), H)
    assert np.array_equal(membership_weight(h), M)


MEMBERSHIP_DTYPE = np.dtype([("node", np.int64), ("hyperedge", np.int64), ("weight", np.float64)])


@given(MEMBERSHIPS.map(lambda rows: [r for r in rows if -1 <= r[0] <= 4]))
@settings(max_examples=200, deadline=None)
def test_hypergraph_from_structured_array_matches_loop_oracle(memberships):
    a = np.array(memberships, dtype=MEMBERSHIP_DTYPE)
    try:
        H, M = hypergraph_oracle(4, a.tolist())
    except (ValueError, EmptyGraph) as exc:
        with pytest.raises(type(exc)) as got:
            Hypergraph(4, a)
        assert str(got.value) == str(exc)
        return
    h = Hypergraph(4, a)
    assert np.array_equal(incidence(h), H)
    assert np.array_equal(membership_weight(h), M)


def test_hypergraph_refuses_membership_keys_past_int64():
    # One int64 key edge * n + node per membership sorts them: n * E < 2^63.
    h = Hypergraph(1 << 62, [(5, 0, 2.0), (0, 0, 1.0)])
    assert h.members(0).tolist() == [0, 5]
    with pytest.raises(TooLarge, match="4611686018427387904 nodes and 2 hyperedges refused"):
        Hypergraph(1 << 62, [(0, 0, 1.0), (0, 1, 1.0)])


def test_clique_expansion_weights():
    h = Hypergraph(3, [(0, 0, 2.0), (1, 0, 3.0), (1, 1, 1.0), (2, 1, 1.0)])
    g = h.clique_expansion()
    w = {(s, d): v for s, d, v in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())}
    assert w[(0, 1)] == 6.0  # 2 * 3 inside hyperedge 0
    assert w[(1, 2)] == 1.0
    assert (0, 2) not in w


def test_members_refuses_a_hyperedge_index_out_of_range():
    h = Hypergraph(3, [(0, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0)])
    assert h.members(0).tolist() == [0, 2] and h.members(1).tolist() == [1]
    for e in (-1, 2):
        with pytest.raises(IndexError, match=rf"hyperedge {e} outside \[0, 2\)"):
            h.members(e)


def test_members_refuses_an_index_that_is_not_an_integer():
    h = Hypergraph(3, [(0, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0)])
    assert h.members(np.int64(1)).tolist() == h.members(np.uint8(1)).tolist() == [1]
    for e in (1.0, 0.5, True, np.float64(1.0), np.bool_(False), "1"):
        with pytest.raises(TypeError) as got:
            h.members(e)
        assert str(got.value) == f"hyperedge index e must be an integer, got {e!r}"


@st.composite
def weighted_hypergraphs(draw):
    """Small hypergraphs with some nodes in no hyperedge, and weights whose pair
    products underflow to zero (1e-170) or overflow (1e155)."""
    used, spare = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    groups = draw(st.lists(st.sets(st.integers(0, used - 1), min_size=1), min_size=1, max_size=6))
    weight = st.sampled_from([1.0, 0.5, 3.0, 1e-170, 1e150, 1e155])
    return Hypergraph(used + spare, [(v, e, draw(weight))
                                     for e, members in enumerate(groups) for v in sorted(members)])


def rows_sorted(indptr, indices, data):
    """CSR arrays with each row's columns sorted, as int64 arrays (data as its bits)."""
    row = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    order = np.lexsort((indices, row))
    return indptr.astype(np.int64), indices[order].astype(np.int64), data[order].view(np.int64)


@given(weighted_hypergraphs(), st.sampled_from(["w*w", "a*1", "1*1"]))
@settings(max_examples=300, deadline=None)
def test_pair_engines_agree_bit_for_bit(h, weighting):
    ones = np.ones(h._node.size)
    sizes = np.diff(h._edge_ptr)
    left, right = {"w*w": (h._weight, h._weight), "1*1": (ones, ones),
                   "a*1": (h._weight * np.repeat(1.0 / sizes, sizes), ones)}[weighting]
    product = rows_sorted(*h._pair_product(left, right, "pair sums"))
    bincount = rows_sorted(*h._pair_bincount(left, right, "pair sums"))
    for got, want in zip(bincount, product):
        assert np.array_equal(got, want)
    indptr, indices, data = product
    row = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    assert np.all(data != 0)  # data holds the bits: no +0.0 sum is stored
    assert np.all((np.diff(row) > 0) | (np.diff(indices) > 0))  # no pair is stored twice


def test_pair_engines_drop_zero_sums_and_keep_overflow():
    # Node 1's weight squared underflows to 0.0, node 2's overflows; node 3 is in no hyperedge.
    h = Hypergraph(4, [(0, 0, 1.0), (1, 0, 1e-170), (2, 1, 1e155)])
    for engine in (h._pair_product, h._pair_bincount):
        indptr, indices, data = rows_sorted(*engine(h._weight, h._weight, "pair sums"))
        assert indptr.tolist() == [0, 2, 3, 4, 4] and indices.tolist() == [0, 1, 0, 2]
        assert data.view(np.float64).tolist() == [1.0, 1e-170, 1e-170, math.inf]


def test_hypergraph_above_dense_limit_is_sparse():
    n = 2001
    h = Hypergraph(n, [(i, i // 3, 1.0) for i in range(n)])
    assert h.members(666).tolist() == [1998, 1999, 2000]
    assert h.clique_expansion().edge_count == 3 * (n // 3)


def test_hypergraph_stores_only_the_membership_arrays_in_csc_order():
    h = Hypergraph(3, [(2, 0, 0.5), (0, 0, 2.0), (1, 1, 1.5)])
    assert Hypergraph.__slots__ == ("node_count", "edge_count", "_edge_ptr", "_node", "_weight")
    assert (h.node_count, h.edge_count) == (3, 2)
    assert h._node.tolist() == [0, 2, 1] and h._edge_ptr.tolist() == [0, 2, 3]
    assert h._weight.tolist() == [2.0, 0.5, 1.5]
    for a in (h._edge_ptr, h._node, h._weight):
        assert not a.flags.writeable
    assert not h.members(0).flags.writeable


COPIES = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)), "deepcopy": copy.deepcopy,
          "copy": copy.copy}


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_a_copied_graph_is_rebuilt_equal_and_read_only(copy_of, directed):
    g = WeightedGraph(4, [(0, 0, 0.5), (0, 1, 1.0), (2, 1, 2.5), (3, 2, 1e-300), (3, 3, 1.0)],
                      directed=directed)
    c = copy_of(g)
    assert c == g and c is not g
    assert (c._loops, c.edge_count, c.directed) == (2, 5, directed)
    assert np.array_equal(c._row_ptr, g._row_ptr)
    for a in (c.src, c.dst, c.weight, c._row_ptr):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in (g.src, g.dst, g.weight, g._row_ptr))
    with pytest.raises(ValueError, match="read-only"):
        c.weight[0] = 5.0


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES.keys())
def test_a_copied_hypergraph_is_rebuilt_equal_and_read_only(copy_of):
    # Hyperedge 2 has no member below node 3, and node 1 is in none.
    h = Hypergraph(5, [(4, 2, 0.5), (0, 0, 2.0), (2, 1, 1.5), (3, 0, 1e-300), (3, 2, 1.0)])
    c = copy_of(h)
    assert (c.node_count, c.edge_count) == (5, 3)
    for mine, theirs in zip(c._memberships(), h._memberships()):
        assert np.array_equal(mine, theirs)
    assert c._edge_ptr.tolist() == [0, 2, 3, 5]
    for a in (c._edge_ptr, c._node, c._weight):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in (h._edge_ptr, h._node, h._weight))
    with pytest.raises(ValueError, match="read-only"):
        c._weight[0] = 5.0


# ------------------------------------------------------------ stochastic


def test_validate_row_stochastic():
    good = WeightedGraph(2, [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 1.0)], directed=True)
    assert validate_row_stochastic(good)
    bad = WeightedGraph(2, [(0, 1, 0.7), (1, 0, 1.0)], directed=True)
    assert not validate_row_stochastic(bad)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_normalize_rows_row_sums(seed):
    g = normalize_rows(random_digraph(seed))
    sums = np.zeros(g.node_count)
    for s, w in zip(g.src.tolist(), g.weight.tolist()):
        sums[s] += w
    assert np.allclose(sums, 1.0, atol=1e-9)
    assert validate_row_stochastic(g)


def test_normalize_rows_repairs_sinks(caplog):
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 1.0)], directed=True)  # node 2 is a sink
    with caplog.at_level("INFO", logger="odyn"):
        h = normalize_rows(g)
    w = {(s, d): v for s, d, v in zip(h.src.tolist(), h.dst.tolist(), h.weight.tolist())}
    assert w[(2, 2)] == 1.0
    assert w[(0, 1)] == 1.0
    assert any("self loops" in r.getMessage() for r in caplog.records)


# ----------------------------------------------------------- reachability


def test_strong_connectivity_examples():
    assert is_strongly_connected(make_ring(3))
    chain = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    assert not is_strongly_connected(chain)
    undirected_path = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert is_strongly_connected(undirected_path)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_strong_connectivity_matches_matrix_power_oracle(seed):
    g = random_digraph(seed, extra=0.8, self_loops=False)
    assert is_strongly_connected(g) == bool(reach_oracle(g).all())


def test_sparse_random_digraphs_cover_disconnected_case():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(40):
        n = 6
        edges = []
        pairs = set()
        for _ in range(5):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if i != j and (i, j) not in pairs:
                pairs.add((i, j))
                edges.append((i, j, 1.0))
        if not edges:
            continue
        g = WeightedGraph(n, edges, directed=True)
        verdict = is_strongly_connected(g)
        assert verdict == bool(reach_oracle(g).all())
        seen.add(verdict)
    assert False in seen  # sparse draws must exercise the negative branch


# ------------------------------------------------------------ periodicity


def test_aperiodicity_examples():
    assert not is_aperiodic(make_ring(4))  # pure 4-cycle has period 4
    chord = WeightedGraph(
        3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 1.0)], directed=True
    )
    assert is_aperiodic(chord)  # cycle lengths 3 and 2 are coprime
    looped = WeightedGraph(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0)], directed=True)
    assert is_aperiodic(looped)


def test_aperiodicity_requires_strong_connectivity():
    chain = WeightedGraph(2, [(0, 1, 1.0)], directed=True)
    with pytest.raises(NotStronglyConnected):
        is_aperiodic(chain)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_aperiodicity_matches_cycle_enumeration_oracle(seed):
    g = random_digraph(seed, n_max=7, extra=0.7, self_loops=False)
    if not is_strongly_connected(g):
        return
    assert is_aperiodic(g) == (cycle_gcd_oracle(g) == 1)


def test_even_cycle_with_even_chord_stays_periodic():
    # cycle lengths 6 and 4, gcd 2
    edges = [(i, (i + 1) % 6, 1.0) for i in range(6)] + [(0, 3, 1.0)]
    g = WeightedGraph(6, edges, directed=True)
    assert cycle_gcd_oracle(g) == 2
    assert not is_aperiodic(g)


def bfs_gcd_loop_oracle(g):
    """The per-arc gcd loop over the BFS defects dist(u) + 1 - dist(v)."""
    _, dist = bfs_reach_oracle(g.node_count, g._row_ptr, g.dst, 0)
    gcd = 0
    for u, v in zip(g.src, g.dst):
        gcd = math.gcd(gcd, abs(int(dist[u]) + 1 - int(dist[v])))
    return gcd


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_aperiodicity_matches_per_arc_gcd_loop(seed, self_loops):
    g = random_digraph(seed, n_max=9, extra=0.8, self_loops=self_loops)
    if not is_strongly_connected(g):
        return
    assert is_aperiodic(g) == (bfs_gcd_loop_oracle(g) == 1)


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 9), st.floats(0.0, 1.0))
@settings(max_examples=120, deadline=None)
def test_bfs_levels_match_per_arc_oracle(seed, self_loops, n, keep):
    # A random subgraph on the first n nodes, so unreached nodes occur too.
    g = random_digraph(seed, n_max=9, extra=0.8, self_loops=self_loops)
    n = min(n, g.node_count)
    rng = np.random.default_rng(seed)
    sub = (g.src < n) & (g.dst < n) & (rng.random(g.arc_count) < keep)
    g = WeightedGraph.from_arrays(n, g.src[sub], g.dst[sub], g.weight[sub], directed=True)
    start = int(rng.integers(n))
    order = np.lexsort((g.src, g.dst))
    reverse_ptr = np.searchsorted(g.dst[order], np.arange(n + 1))
    for row_ptr, dst in ((g._row_ptr, g.dst), (reverse_ptr, g.src[order])):
        _, expected = bfs_reach_oracle(n, row_ptr, dst, start)
        assert np.array_equal(graphs._bfs_levels(row_ptr, dst, start), expected)


def test_predicates_sweep_twice():
    g = random_row_stochastic(3)
    with mock.patch.object(graphs, "_bfs_levels", wraps=graphs._bfs_levels) as sweeps:
        assert is_aperiodic(g)
        assert sweeps.call_count == 2
        consensus_predict(g, np.ones(g.node_count))
        assert sweeps.call_count == 4


# -------------------------------------------------------------- homophily


def test_homophily_examples():
    tri = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert homophily_level(tri, NodeLabels(np.array([1, 1, 1]), 2)) == 1.0
    assert homophily_level(tri, NodeLabels(np.array([0, 1, 2]), 3)) == 0.0
    # fractions per node: 1/2, 1/2, 0
    assert homophily_level(tri, NodeLabels(np.array([0, 0, 1]), 2)) == pytest.approx(
        1 / 3
    )


def test_homophily_needs_a_label_per_node():
    tri = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    with pytest.raises(ValueError, match="labels length must match node count"):
        homophily_level(tri, NodeLabels(np.array([0, 1]), 2))


def test_homophily_skips_isolated_nodes(caplog):
    g = WeightedGraph(3, [(0, 1, 1.0)])
    with caplog.at_level("INFO", logger="odyn"):
        val = homophily_level(g, NodeLabels(np.array([1, 1, 0]), 2))
    assert val == 1.0
    assert any("isolated" in r.getMessage() for r in caplog.records)


def test_homophily_empty_graph():
    g = WeightedGraph(3, [])
    with pytest.raises(EmptyGraph):
        homophily_level(g, NodeLabels(np.array([0, 1, 2]), 3))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_homophily_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    g = random_digraph(seed, n_max=10, self_loops=False)
    labels = rng.integers(0, 3, g.node_count)
    perm = rng.permutation(g.node_count)
    inv = np.argsort(perm)
    edges = [
        (int(perm[s]), int(perm[d]), w)
        for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
    ]
    gp = WeightedGraph(g.node_count, edges, directed=True)
    assert homophily_level(gp, NodeLabels(labels[inv], 3)) == pytest.approx(
        homophily_level(g, NodeLabels(labels, 3)), abs=1e-12
    )


def homophily_loop_oracle(g, labels):
    """The per-node loop: mean over nodes with neighbors of the agreeing fraction."""
    lab = labels.labels
    fractions = []
    for i in range(g.node_count):
        nb = neighbors(g, i)
        if nb.size:
            fractions.append(np.count_nonzero(lab[nb] == lab[i]) / nb.size)
    if not fractions:
        raise EmptyGraph("no node has a neighbor")
    return float(np.mean(fractions))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_homophily_equals_per_node_loop(seed, self_loops, extra):
    g = random_digraph(seed, extra=extra, self_loops=self_loops)
    if seed % 3 == 0:  # undirected, with isolated nodes appended
        up = g.src <= g.dst
        g = WeightedGraph.from_arrays(g.node_count + 2, g.src[up], g.dst[up], g.weight[up])
    labels = NodeLabels(np.random.default_rng(seed).integers(0, 3, g.node_count), 3)
    assert homophily_level(g, labels) == homophily_loop_oracle(g, labels)


def test_homophily_matches_dense_oracle():
    g, labels = generate_sbm([8, 8], 0.9, 0.1, seed=3)
    dense = dense_weights(g) > 0
    fractions = []
    for i in range(16):
        nbrs = [j for j in range(16) if dense[i, j] and j != i]
        if nbrs:
            fractions.append(
                np.mean([labels.labels[j] == labels.labels[i] for j in nbrs])
            )
    assert homophily_level(g, labels) == pytest.approx(np.mean(fractions), abs=1e-12)


# -------------------------------------------------------------------- sbm


def test_sbm_is_deterministic():
    a, la = generate_sbm([5, 5], 0.5, 0.1, seed=11)
    b, _ = generate_sbm([5, 5], 0.5, 0.1, seed=11)
    assert a == b
    assert la.labels.tolist() == [0] * 5 + [1] * 5
    c, _ = generate_sbm([5, 5], 0.5, 0.1, seed=12)
    assert a != c


def test_sbm_degenerate_probabilities():
    g, _ = generate_sbm([3, 3], 1.0, 0.0, seed=0)
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    assert (0, 1) in pairs and (1, 2) in pairs and (3, 4) in pairs
    assert all((s < 3) == (d < 3) for s, d in pairs)
    full, _ = generate_sbm([2, 2], 1.0, 1.0, seed=0)
    assert full.edge_count == 6  # complete graph on 4 nodes


def block_pair_counts(g, labels):
    """{(a, b): edges between blocks a <= b} of an undirected graph."""
    src, dst, _ = g.undirected_pairs()
    a, b = labels.labels[src], labels.labels[dst]
    return {(x, y): int(np.count_nonzero((a == x) & (b == y)))
            for x in range(labels.class_count) for y in range(x, labels.class_count)}


def block_pairs(sizes):
    """{(a, b): candidate node pairs between blocks a <= b}."""
    return {(a, b): sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            for a in range(len(sizes)) for b in range(a, len(sizes))}


def assert_sbm_counts_plausible(sizes, p_in, p_out, seed):
    # Each block pair's edge count within 6 sd + 1 of its mean.
    g, labels = generate_sbm(sizes, p_in, p_out, seed=seed)
    counts = block_pair_counts(g, labels)
    for (a, b), m in block_pairs(sizes).items():
        p = p_in if a == b else p_out
        assert abs(counts[a, b] - m * p) <= 6.0 * (m * p * (1.0 - p)) ** 0.5 + 1.0, (a, b)


PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0))


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), PROBABILITY, PROBABILITY,
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sbm_draws_distinct_canonical_pairs(sizes, p_in, p_out, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        src, dst = graphs._sbm_edges(np.random.default_rng(seed), sizes, p_in, p_out)
        g, labels = generate_sbm(sizes, p_in, p_out, seed=seed)
        again, _ = generate_sbm(sizes, p_in, p_out, seed=seed)
    n = sum(sizes)
    assert np.all(src < dst) and np.unique(src * n + dst).size == src.size
    i, j, _ = g.undirected_pairs()
    assert np.array_equal(np.sort(src * n + dst), i * n + j)
    assert g == again
    assert labels.labels.tolist() == np.repeat(np.arange(len(sizes)), sizes).tolist()
    counts = block_pair_counts(g, labels)
    for (a, b), m in block_pairs(sizes).items():
        p = p_in if a == b else p_out
        if p in (0.0, 1.0):
            assert counts[a, b] == p * m, (a, b)


@pytest.mark.parametrize("sampler", [
    lambda seed: generate_sbm([3, 3], 0.3, 0.1, seed=seed)[0].undirected_pairs()[:2],
    lambda seed: triu_sbm_oracle([3, 3], 0.3, 0.1, seed),
], ids=["generate_sbm", "triu_oracle"])
def test_sbm_pair_frequencies_match_their_probabilities(sampler):
    runs = 2000
    hits = np.zeros((6, 6))
    for seed in range(runs):
        i, j = sampler(seed)
        hits[i, j] += 1
    assert hits[np.tril_indices(6)].sum() == 0
    iu, ju = np.triu_indices(6, k=1)
    inside = (iu < 3) == (ju < 3)
    p = np.where(inside, 0.3, 0.1)
    assert np.all(np.abs(hits[iu, ju] / runs - p) <= 5.0 * np.sqrt(p * (1.0 - p) / runs))
    # Pooled over the 6 pairs inside the blocks and the 9 across, 5 sd is tighter.
    for pooled, q in ((inside, 0.3), (~inside, 0.1)):
        trials = runs * int(pooled.sum())
        freq = hits[iu, ju][pooled].sum() / trials
        assert abs(freq - q) <= 5.0 * np.sqrt(q * (1.0 - q) / trials)


def test_sbm_block_edge_counts_match_their_means():
    assert_sbm_counts_plausible([900, 700], 0.01, 0.002, 9)


def test_sbm_draws_ten_billion_pairs_by_their_edges():
    assert_sbm_counts_plausible([100_000] * 2, 2e-5, 1e-6, 0)


def test_sbm_peak_memory_holds_no_per_pair_array():
    generate_sbm([10], 0.5, 0.5)  # lazy set-up out of the traced call
    tracemalloc.start()
    try:
        g, _ = generate_sbm([6000], 0.03, 0.03, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = 6000 * 5999 // 2
    assert g.edge_count > 0.02 * pairs
    assert peak < 8 * pairs  # 137 MiB


def test_sbm_refuses_a_block_pair_past_exact_float_positions(monkeypatch):
    # At p = 0 nothing is drawn, and a block of 2^40 nodes cannot be allocated:
    # without the refusal this is a MemoryError at once, not a long run.
    with pytest.raises(TooLarge, match="refused: 604462909806764831539200 node pairs"):
        generate_sbm([1 << 40], 0.0, 0.0)
    monkeypatch.setattr(graphs, "_BLOCK_PAIR_LIMIT", 10)
    generate_sbm([4, 2], 1.0, 1.0)  # 6, 1 and 8 pairs
    with pytest.raises(TooLarge, match="10 node pairs in one block pair"):
        generate_sbm([5], 1.0, 1.0)  # 10 pairs in the block
    with pytest.raises(TooLarge, match="10 node pairs in one block pair"):
        generate_sbm([2, 5], 0.0, 1.0)  # 10 pairs across


def test_sbm_rejects_bad_probability():
    with pytest.raises(InvalidProbability):
        generate_sbm([3, 3], 1.5, 0.1, seed=0)
    with pytest.raises(InvalidProbability):
        generate_sbm([3, 3], 0.5, -0.1, seed=0)


@pytest.mark.parametrize("sizes, bad", [([2.5, 3.9], 2.5), (["4", True], "'4'"), ([3, True], True),
                                        ([3, 0], 0), ([3, math.nan], math.nan)])
def test_sbm_refuses_block_sizes_that_are_not_counts(sizes, bad):
    message = f"block size must be an integer >= 1, got {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_sbm(sizes, 0.5, 0.1)


def test_sbm_reads_integral_float_block_sizes_and_refuses_none():
    _, labels = generate_sbm([4.0, 3], 0.5, 0.1)
    assert np.bincount(labels.labels).tolist() == [4, 3]
    with pytest.raises(ValueError, match="block sizes must be positive"):
        generate_sbm([], 0.5, 0.1)


def test_sbm_refuses_a_numpy_boolean_block_size():
    with pytest.raises(ValueError, match="block size must be an integer >= 1, got "):
        generate_sbm([np.True_, 3], 1.0, 1.0)


def test_sbm_without_blocks_says_one_is_needed():
    with pytest.raises(ValueError, match="at least one block"):
        generate_sbm([], 0.5, 0.5)


def test_sbm_homophily_tracks_block_structure():
    g, labels = generate_sbm([30, 30], 0.3, 0.02, seed=2)
    assert homophily_level(g, labels) > 0.75


# ------------------------------------------------------------------ labels


def test_node_labels_validation():
    labels = np.array([0, 1, 0, 1])
    nl = NodeLabels(labels, 2, train=np.array([0, 1]), test=np.array([2, 3]))
    assert nl.class_count == 2
    assert nl.node_count == 4
    with pytest.raises(ValueError):
        NodeLabels(labels, 2, train=np.array([0, 1]), test=np.array([1, 2]))
    with pytest.raises(ValueError):
        NodeLabels(labels, 1)  # label 1 outside [0, 1)
    with pytest.raises(ValueError):
        NodeLabels(labels, 2, train=np.array([9]))
    with pytest.raises(ValueError, match="class_count must be positive"):
        NodeLabels(labels, 0)


def test_node_labels_are_an_own_read_only_copy():
    a = np.array([0, 1, 1])
    nl = NodeLabels(a, 2)
    a[1] = 9
    assert nl.labels.tolist() == [0, 1, 1] and nl.labels.dtype == np.int64
    split = split_masks(NodeLabels(np.array([0, 1] * 6), 2), seed=1)
    for arr in (nl.labels, split.labels, split.train, split.val, split.test):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_split_masks_stratified():
    base = NodeLabels(np.array([0] * 10 + [1] * 10 + [2] * 10), 3)
    nl = split_masks(base, train_frac=0.2, val_frac=0.2, seed=4)
    for c in range(3):
        assert (nl.labels[nl.train] == c).sum() >= 1
    assert nl.train.size == 6
    assert nl.val.size == 6
    assert nl.test.size == 18
    assert np.intersect1d(nl.train, nl.val).size == 0
    again = split_masks(base, train_frac=0.2, val_frac=0.2, seed=4)
    assert np.array_equal(nl.train, again.train)


def test_split_masks_keeps_rare_classes_in_train():
    base = NodeLabels(np.array([0] * 20 + [1]), 2)
    nl = split_masks(base, train_frac=0.1, val_frac=0.1, seed=0)
    assert (nl.labels[nl.train] == 1).sum() == 1


@pytest.mark.parametrize("train_frac, val_frac", [(1.5, 0.0), (-0.5, 0.3), (0.3, -0.2),
                                                  (0.7, 0.5), (math.nan, 0.3)])
def test_split_masks_refuses_fractions_outside_the_unit_interval(train_frac, val_frac):
    base = NodeLabels(np.array([0, 1] * 5), 2)
    with pytest.raises(ValueError, match=re.escape(
            f"got train_frac = {train_frac!r} and val_frac = {val_frac!r}")):
        split_masks(base, train_frac=train_frac, val_frac=val_frac)


def sorted_list_split_masks(labels, train_frac, val_frac, seed):
    """split_masks as it was written with sorted Python lists, as an oracle."""
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for c in range(labels.class_count):
        idx = rng.permutation(np.flatnonzero(labels.labels == c))
        n_tr = max(1, int(round(train_frac * idx.size))) if idx.size else 0
        n_va = int(round(val_frac * idx.size))
        train.extend(idx[:n_tr].tolist())
        val.extend(idx[n_tr : n_tr + n_va].tolist())
        test.extend(idx[n_tr + n_va :].tolist())
    return [np.array(sorted(m), dtype=np.int64) for m in (train, val, test)]


@given(st.lists(st.integers(0, 4), max_size=40), st.integers(0, 3),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_split_masks_match_the_sorted_list_oracle(labels, spare, train_frac, val_frac, seed):
    val_frac *= 1.0 - train_frac  # sums to at most 1
    # spare classes have no node
    base = NodeLabels(np.array(labels, dtype=np.int64), max(labels, default=0) + 1 + spare)
    got = split_masks(base, train_frac=train_frac, val_frac=val_frac, seed=seed)
    want = sorted_list_split_masks(base, train_frac, val_frac, seed)
    for mask, expected in zip((got.train, got.val, got.test), want):
        assert mask.dtype == expected.dtype and np.array_equal(mask, expected)


def test_split_masks_takes_the_ends_of_the_unit_interval():
    base = NodeLabels(np.array([0, 1] * 5), 2)
    assert split_masks(base, train_frac=1.0, val_frac=0.0).train.size == 10
    assert split_masks(base, train_frac=0.0, val_frac=1.0).val.size == 8  # one train node a class


# Every product of a hypergraph's memberships with their transpose.
HYPERGRAPH_PRODUCTS = {
    "clique_expansion": lambda h: h.clique_expansion(),
    "co_membership": lambda h: h._pair_product(np.ones(h._node.size), np.ones(h._node.size),
                                               "co-membership counts"),
    "uniform_kernel": lambda h: _sparse_kernel(h, "uniform"),
    "hgnn_kernel": lambda h: _sparse_kernel(h, "hgnn"),
    "uniform_identity_minus_kernel": lambda h: _identity_minus_kernel(h, "uniform"),
    "hgnn_identity_minus_kernel": lambda h: _identity_minus_kernel(h, "hgnn"),
    "hypergraph_odnet_rhs": lambda h: make_hypergraph_odnet_rhs(h, InfluenceConfig(0.0, 1.0)),
}


@pytest.mark.parametrize("product", HYPERGRAPH_PRODUCTS.values(), ids=list(HYPERGRAPH_PRODUCTS))
def test_hypergraph_products_refuse_a_4097_member_hyperedge_first(product):
    # 4097^2 pairs, just past 2^24: the product would hold about 1.4 GB.
    h = Hypergraph(4097, [(i, 0, 1.0) for i in range(4097)])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="refused for 16785409 node pairs"):
            product(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("product", HYPERGRAPH_PRODUCTS.values(), ids=list(HYPERGRAPH_PRODUCTS))
def test_hypergraph_products_run_at_the_pair_limit(monkeypatch, product):
    # Hyperedges of 4 members and of 1: 4^2 + 1^2 = 17 pairs, each member with itself too.
    h = Hypergraph(5, [(i, 0, 1.0) for i in range(4)] + [(4, 1, 1.0)])
    monkeypatch.setattr(graphs, "_PAIR_LIMIT", 17)
    product(h)
    monkeypatch.setattr(graphs, "_PAIR_LIMIT", 16)
    with pytest.raises(TooLarge, match="refused for 17 node pairs"):
        product(h)
