"""Update rules on graphs and hypergraphs.

The reference results here come from literal double-loop reimplementations
of each rule, from closed-form flows of small linear systems, and from
dense eigendecompositions, never from the vectorized code under test.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, diags

from odyn import (
    DynamicSpec,
    Hypergraph,
    InfluenceConfig,
    IntegratorConfig,
    KernelNotNormalized,
    NotRowStochastic,
    SimilaritySpec,
    TooLarge,
    WeightedGraph,
    dirichlet_energy_graph,
    fd_step,
    generate_sbm,
    hk_step,
    integrate,
    iterate_map,
    make_hypergraph_diffusion_rhs,
    make_hypergraph_odnet_rhs,
    make_odnet_rhs,
    phi,
    pseudo_features,
    rk4_step,
    similarity_dynamic,
)

from odyn import dynamics, graphs

from conftest import (co_membership, dense_weights, diffusion_kernel, incidence,
                      membership_weight, random_digraph, random_row_stochastic)

IDENTITY_BAND = InfluenceConfig(eps1=0.0, eps2=1.0)
TEXAS = InfluenceConfig(eps1=0.50, eps2=0.80, mu=1.0, nu=-50.0, lam=0.1,
                        mode="attract-repulse")


# -------------------------------------------------------------------- fd


def test_fd_step_two_node_average():
    g = WeightedGraph(
        2, [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)], directed=True
    )
    assert fd_step(g, np.array([0.0, 1.0])).tolist() == [0.5, 0.5]


def test_fd_step_identity_graph():
    g = WeightedGraph(3, [(i, i, 1.0) for i in range(3)], directed=True)
    x = np.array([1.0, -2.0, 3.0])
    assert fd_step(g, x).tolist() == x.tolist()


def test_fd_step_rejects_non_stochastic():
    g = WeightedGraph(2, [(0, 1, 0.7), (1, 0, 1.0)], directed=True)
    with pytest.raises(NotRowStochastic):
        fd_step(g, np.array([1.0, 2.0]))


def test_fd_step_matrix_state():
    g = WeightedGraph(
        2, [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)], directed=True
    )
    x = np.array([[0.0, 4.0], [2.0, 0.0]])
    assert fd_step(g, x).tolist() == [[1.0, 2.0], [1.0, 2.0]]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fd_iteration_reaches_left_eigenvector_consensus(seed):
    g = random_row_stochastic(seed, n_max=9)
    n = g.node_count
    w = dense_weights(g)
    vals, vecs = np.linalg.eig(w.T)
    lead = np.argmin(np.abs(vals - 1.0))
    zeta = np.real(vecs[:, lead])
    zeta = zeta / zeta.sum()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    target = float(zeta @ x)
    for _ in range(600):
        x = fd_step(g, x)
    assert np.allclose(x, target, atol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fd_step_shrinks_the_envelope(seed):
    g = random_row_stochastic(seed)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5.0, 5.0, g.node_count)
    y = fd_step(g, x)
    assert y.min() >= x.min() - 1e-12
    assert y.max() <= x.max() + 1e-12


# -------------------------------------------------------------------- hk


def test_hk_worked_example():
    # 0 and 0.1 hear each other (0.1 < 0.2); 0.5 hears only itself
    out = hk_step(np.array([0.0, 0.1, 0.5]), eps=0.2)
    assert out.tolist() == [0.05, 0.05, 0.5]


def test_hk_radius_is_strict():
    out = hk_step(np.array([0.0, 0.2]), eps=0.2)
    assert out.tolist() == [0.0, 0.2]  # exactly at the radius: not neighbors


def test_hk_consensus_is_fixed_point():
    x = np.full(5, 0.7)
    assert hk_step(x, eps=0.1).tolist() == x.tolist()


def test_hk_multidimensional_uses_euclidean_distance():
    x = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0]])
    out = hk_step(x, eps=0.2)
    assert np.allclose(out, [[0.05, 0.0], [0.05, 0.0], [1.0, 1.0]])


def test_hk_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        hk_step(np.array([0.0, 1.0]), eps=0.0)


@pytest.mark.parametrize("width", [1, 2])
def test_hk_rejects_a_nan_radius_and_takes_an_infinite_one(width):
    x = np.column_stack([[0.0, 0.5, 1.0, 3.0]] * width)
    with pytest.raises(ValueError, match="eps must be positive"):
        hk_step(x, np.nan)
    assert np.allclose(hk_step(x, np.inf), 1.125)  # everyone hears everyone


def test_hk_matches_double_loop_oracle():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0, 17)
    eps = 0.18
    expected = np.empty_like(x)
    for i in range(x.size):
        members = [x[j] for j in range(x.size) if abs(x[j] - x[i]) < eps]
        expected[i] = np.mean(members)
    assert np.allclose(hk_step(x, eps), expected, atol=1e-14)


def dense_hk_oracle(x, eps):
    """The all-pairs HK step: an N x N x d distance tensor, strict radius."""
    x = np.asarray(x, dtype=np.float64)
    m = x[:, None] if x.ndim == 1 else x
    within = np.linalg.norm(m[:, None, :] - m[None, :, :], axis=2) < eps
    return ((within.astype(np.float64) @ m) / within.sum(axis=1)[:, None]).reshape(x.shape)


# Opinions on a 1/8 grid with radii that are multiples of 1/8: duplicates and
# gaps of exactly eps, all exact in binary floating point.
GRID_STATES = st.tuples(
    st.lists(st.integers(0, 16), min_size=0, max_size=40).map(lambda k: np.array(k) / 8.0),
    st.sampled_from([0.125, 0.25, 0.375, 1.0]),
)
FLOAT_STATES = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40).map(np.array),
    st.floats(1e-3, 0.6),
)


TINY = 2.225073858507203e-309  # subnormal: TINY * TINY underflows to 0


# Widths above 1 take the values row by row and run the k-d tree path.
@given(st.one_of(GRID_STATES, FLOAT_STATES), st.booleans(), st.integers(1, 4))
@example((np.array([0.0, TINY]), 1e-320), False, 1)  # d * d underflows
@example((np.array([0.0, 0.0, 0.375, 0.5]), 0.625), False, 2)  # 3-4-5: distance exactly eps
@example((np.array([0.0, 0.0, TINY, 0.0, 0.0, TINY]), 1e-320), False, 2)  # norm reads 0
@settings(max_examples=120, deadline=None)
def test_hk_one_column_matches_dense_oracle(state, as_column, width):
    x, eps = state
    if width > 1:
        x = x[: x.size // width * width].reshape(-1, width)
    elif as_column:
        x = x[:, None]
    out = hk_step(x, eps)
    assert out.shape == x.shape
    assert np.allclose(out, dense_hk_oracle(x, eps), rtol=0.0, atol=1e-14)


def test_hk_window_uses_the_pairwise_difference():
    # b - a rounds below 0.1 but b < a + 0.1 is false: a window found with
    # searchsorted(v + eps) would drop the pair that the pairwise test keeps.
    a, b = 0.7296554464299441, 0.829655446429944
    assert b - a < 0.1 and not b < a + 0.1
    x = np.array([a, b, 0.2])
    out = hk_step(x, 0.1)
    assert out[0] == out[1] == (a + b) / 2
    assert np.array_equal(out, dense_hk_oracle(x, 0.1))


def test_hk_runs_wide_states_of_any_row_count():
    # 2001 rows in three clusters sqrt(2) apart: each row only hears its own.
    x = np.repeat(np.arange(3.0), 667)[:, None] * np.ones(2)
    assert np.array_equal(hk_step(x, 0.1), x)
    assert hk_step(np.zeros(5000), 0.1).tolist() == [0.0] * 5000


def test_hk_refuses_more_radius_pairs_than_the_limit_before_holding_them():
    # 6000 equal rows are 36M pairs: their indices alone would take 576 MB.
    hk_step(np.zeros((2, 2)), 0.1)  # warm up: the k-d tree's import is not the path's
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="36000000 node pairs"):
            hk_step(np.zeros((6000, 2)), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_hk_runs_at_the_pair_limit(monkeypatch):
    # Pairs are ordered and include each row with itself: n equal rows are n * n.
    monkeypatch.setattr(graphs, "_PAIR_LIMIT", 16)
    assert np.array_equal(hk_step(np.ones((4, 2)), 0.1), np.ones((4, 2)))
    with pytest.raises(TooLarge, match="25 node pairs"):
        hk_step(np.ones((5, 2)), 0.1)


def test_hk_rejects_non_finite_state():
    with pytest.raises(ValueError):
        hk_step(np.array([0.0, np.nan]), 0.1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hk_is_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, 10)
    perm = rng.permutation(10)
    assert np.allclose(hk_step(x[perm], 0.25), hk_step(x, 0.25)[perm], atol=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hk_iteration_settles_into_separated_clusters(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, 30)
    for _ in range(60):
        x = hk_step(x, 0.12)
    values = np.unique(np.round(x, 9))
    assert np.all(np.diff(values) >= 0.12 - 1e-9)


# ----------------------------------------------------------------- odnet


def test_odnet_discrete_swap():
    # single edge, similarity 1, phi(1) = mu = 1: the two opinions swap
    g = WeightedGraph(2, [(0, 1, 1.0)])
    cfg = InfluenceConfig(eps1=0.0, eps2=0.9, mu=1.0)
    step = DynamicSpec(kind="odnet-discrete", structure=g, influence=cfg).step_fn()
    out = step(np.array([0.0, 1.0]))
    assert out.tolist() == [1.0, 0.0]


def test_odnet_zero_coupling_keeps_state():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])  # s = 0.5 on arcs
    cfg = InfluenceConfig(eps1=0.9, eps2=1.0)  # band above every similarity
    x = np.array([1.0, 2.0, 3.0])
    assert make_odnet_rhs(g, cfg)(x).tolist() == [0.0, 0.0, 0.0]
    step = DynamicSpec(kind="odnet-discrete", structure=g, influence=cfg).step_fn()
    assert step(x).tolist() == x.tolist()


@pytest.mark.parametrize("similarity", ["static", "dynamic"])
@pytest.mark.parametrize("cfg", [
    InfluenceConfig(eps1=0.1, eps2=0.6, mu=1.5, lam=0.05),
    InfluenceConfig(eps1=0.3, eps2=0.7, mu=1.2, nu=-0.3, lam=0.05, mode="attract-repulse"),
], ids=["attract", "attract-repulse"])
def test_odnet_discrete_is_euler_at_unit_step_of_odnet_continuous(cfg, similarity):
    g, _ = generate_sbm([30, 30, 30, 30], 0.15, 0.01, seed=3)
    x0 = pseudo_features(120, 5, seed=4)

    def spec(kind):
        return DynamicSpec(kind, structure=g, influence=cfg, similarity=SimilaritySpec(similarity))

    def energy(x):
        return dirichlet_energy_graph(g, x)

    discrete = iterate_map(spec("odnet-discrete").step_fn(), x0, 7, energy_fn=energy)
    continuous = integrate(spec("odnet-continuous").rhs_fn(), x0,
                           IntegratorConfig("euler", h=1.0, t_end=7.0), energy_fn=energy)
    for a, b in [(discrete.times, continuous.times), (discrete.energies, continuous.energies),
                 *zip(discrete.states, continuous.states)]:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert len(discrete) == len(continuous) == 8
    assert discrete.energies[-1] != discrete.energies[0]  # the states moved


def test_odnet_control_only_when_graph_is_silent():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    cfg = InfluenceConfig(eps1=0.0, eps2=1.0, lam=0.5)
    x = np.array([2.0, 2.0])  # equal opinions: coupling term vanishes
    assert make_odnet_rhs(g, cfg)(x).tolist() == [-1.0, -1.0]


def odnet_oracle(g, x, cfg, sim=SimilaritySpec()):
    """Literal double-loop restatement of the influence rhs.

    Static similarity is w_ij / sqrt(d_i d_j); dynamic similarity is the
    cosine of the state rows divided by the temperature, mapped affinely
    into [0, 1]. A self loop couples a node to itself, so it adds zero.
    """
    n = g.node_count
    w = dense_weights(g)
    d = w.sum(axis=1)
    rows = x.reshape(n, -1)
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if w[i, j] <= 0.0:
                continue
            if sim.is_dynamic:
                norms = np.linalg.norm(rows[i]) * np.linalg.norm(rows[j])
                cos = float(rows[i] @ rows[j]) / norms if norms > 0.0 else 0.0
                s = min(1.0, max(0.0, 0.5 * (cos / sim.temperature + 1.0)))
            else:
                s = min(1.0, w[i, j] / np.sqrt(d[i] * d[j]))
            if s > cfg.eps2:
                c = cfg.mu * s
            elif s >= cfg.eps1:
                c = s
            elif cfg.mode == "attract-repulse":
                c = cfg.nu * (1.0 - s)
            else:
                c = 0.0
            out[i] += c * (x[j] - x[i])
        out[i] += -cfg.lam * x[i]
    return out


def test_odnet_rhs_matches_double_loop_oracle():
    g, _ = generate_sbm([5, 5], 0.6, 0.2, seed=9)
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, 10)
    rows = rng.uniform(-1.0, 1.0, (10, 3))
    looped = random_digraph(9, n_max=10)  # directed, with a self loop
    assert np.any(looped.src == looped.dst)
    y = rng.uniform(-1.0, 1.0, looped.node_count)
    cases = [
        (g, x, SimilaritySpec()),
        (g, rows, SimilaritySpec("dynamic", temperature=0.7)),
        (looped, y, SimilaritySpec()),
    ]
    for graph, state, sim in cases:
        for cfg in (TEXAS, InfluenceConfig(eps1=0.012, eps2=0.40, mu=1.4, lam=0.05)):
            assert np.allclose(make_odnet_rhs(graph, cfg, sim)(state),
                               odnet_oracle(graph, state, cfg, sim), atol=1e-12)


def test_odnet_matrix_state_columns_are_independent():
    g, _ = generate_sbm([4, 4], 0.7, 0.3, seed=2)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, (8, 3))
    rhs = make_odnet_rhs(g, TEXAS)
    full = rhs(x)
    for c in range(3):
        assert np.allclose(full[:, c], rhs(x[:, c]), atol=1e-14)


def test_make_odnet_rhs_dynamic_recomputes_similarity():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    cfg = InfluenceConfig(eps1=0.0, eps2=1.0)
    rhs = make_odnet_rhs(g, cfg, SimilaritySpec("dynamic"))
    aligned = np.array([[1.0, 0.0], [2.0, 0.0]])  # cosine 1, s = 1
    opposed = np.array([[1.0, 0.0], [-1.0, 0.0]])  # cosine -1, s = 0
    assert np.allclose(rhs(aligned), [[1.0, 0.0], [-1.0, 0.0]])
    # similarity 0 is inside [eps1, eps2] here, so phi(0) = 0: no coupling
    assert np.allclose(rhs(opposed), 0.0)


def test_odnet_rhs_matches_rk4_flow_map_derivative():
    g, _ = generate_sbm([4, 4], 0.8, 0.4, seed=5)
    cfg = InfluenceConfig(eps1=0.1, eps2=0.7, mu=1.3, lam=0.2)
    rhs = make_odnet_rhs(g, cfg, SimilaritySpec("dynamic"))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 1.5, (8, 2))
    h = 1e-6
    flow = rk4_step(rhs, x, h)
    assert np.allclose((flow - x) / h, rhs(x), atol=1e-4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_odnet_conserves_mean_without_control(seed):
    rng = np.random.default_rng(seed)
    g, _ = generate_sbm([4, 5], 0.7, 0.4, seed=seed % 1000)
    x = rng.uniform(-2.0, 2.0, 9)
    for cfg in (
        InfluenceConfig(eps1=0.05, eps2=0.6, mu=2.0),
        InfluenceConfig(eps1=0.3, eps2=0.6, mu=1.5, nu=-1.0, mode="attract-repulse"),
    ):
        # symmetric couplings on mirrored arcs cancel in the column sum
        assert abs(make_odnet_rhs(g, cfg)(x).sum()) < 1e-10


def test_odnet_confined_repulsion_stays_bounded():
    # strong confinement against weak repulsion keeps the flow bounded
    g = WeightedGraph(2, [(0, 1, 1.0)])
    cfg = InfluenceConfig(eps1=0.99, eps2=1.0, nu=-0.03, lam=0.1,
                          mode="attract-repulse")
    rhs = make_odnet_rhs(g, cfg, SimilaritySpec("dynamic"))
    traj = integrate(rhs, np.array([[0.4, 0.0], [-0.2, 0.1]]),
                     IntegratorConfig(scheme="rk4", h=0.05, t_end=50.0))
    sup = max(float(np.abs(s).max()) for s in traj.states)
    assert np.isfinite(sup)
    assert sup <= 0.5


# ------------------------------------------------------- hypergraph odnet


def test_single_hyperedge_equals_its_clique_expansion():
    h = Hypergraph(5, [(i, 0, 1.0) for i in range(5)])
    g = h.clique_expansion()
    cfg = InfluenceConfig(eps1=0.0, eps2=1.0, lam=0.2)
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, 5)
    assert np.allclose(
        make_hypergraph_odnet_rhs(h, cfg)(x), make_odnet_rhs(g, cfg)(x), atol=1e-12
    )


def test_repeated_hyperedge_doubles_the_coupling():
    single = Hypergraph(3, [(i, 0, 1.0) for i in range(3)])
    double = Hypergraph(3, [(i, e, 1.0) for e in range(2) for i in range(3)])
    cfg = InfluenceConfig(eps1=0.0, eps2=1.0)
    x = np.array([0.0, 1.0, -2.0])
    one = make_hypergraph_odnet_rhs(single, cfg)(x)
    two = make_hypergraph_odnet_rhs(double, cfg)(x)
    # same similarity per pair, but every pair is visited once per hyperedge
    assert np.allclose(two, 2.0 * one, atol=1e-12)


def test_hypergraph_odnet_matches_hand_expansion():
    # hyperedges {0,1,2} and {1,2,3}; expansion weights: pair (1,2) gets 2
    h = Hypergraph(4, [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0),
                       (1, 1, 1.0), (2, 1, 1.0), (3, 1, 1.0)])
    cfg = InfluenceConfig(eps1=0.0, eps2=1.0, lam=0.3)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 4)

    w = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 2.0, (1, 3): 1.0, (2, 3): 1.0}
    d = {0: 2.0, 1: 4.0, 2: 4.0, 3: 2.0}
    s = {p: min(1.0, wv / np.sqrt(d[p[0]] * d[p[1]])) for p, wv in w.items()}
    pair_lists = [[(0, 1), (0, 2), (1, 2)], [(1, 2), (1, 3), (2, 3)]]
    expected = -cfg.lam * x.copy()
    for pairs in pair_lists:
        for i, j in pairs:
            sij = s[(i, j)]
            expected[i] += sij * (x[j] - x[i])
            expected[j] += sij * (x[i] - x[j])

    assert np.allclose(make_hypergraph_odnet_rhs(h, cfg)(x), expected, atol=1e-12)


def test_hypergraph_odnet_singleton_edges_leave_only_control():
    h = Hypergraph(3, [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)])
    cfg = InfluenceConfig(eps1=0.0, eps2=1.0, lam=0.7)
    x = np.array([1.0, -1.0, 2.0])
    assert np.allclose(make_hypergraph_odnet_rhs(h, cfg)(x), -0.7 * x)


def test_hypergraph_odnet_dynamic_similarity():
    h = Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0)])
    cfg = InfluenceConfig(eps1=0.0, eps2=0.9, mu=2.0)
    x = np.array([[1.0, 0.0], [3.0, 0.0]])  # cosine 1: s = 1 > eps2
    out = make_hypergraph_odnet_rhs(h, cfg, SimilaritySpec("dynamic"))(x)
    assert np.allclose(out, [[4.0, 0.0], [-4.0, 0.0]])  # mu * 1 * (x_j - x_i)


def hypergraph_odnet_oracle(h, x, cfg, sim=SimilaritySpec()):
    """Per-hyperedge restatement of the hypergraph influence rhs.

    Every ordered pair of every hyperedge couples once, scattered with
    np.add.at, so a pair sharing k hyperedges couples k times. Static
    similarity is the normalized-adjacency similarity of the clique
    expansion, whose weights are the dense product M M^T off the diagonal.
    """
    src, dst = [], []
    for e in range(h.edge_count):
        m = h.members(e)
        ii, jj = np.meshgrid(m, m, indexing="ij")
        keep = ii != jj
        src.append(ii[keep])
        dst.append(jj[keep])
    src, dst = np.concatenate(src), np.concatenate(dst)
    if sim.is_dynamic:
        s = similarity_dynamic(x, (src, dst), temperature=sim.temperature)
    else:
        w = membership_weight(h) @ membership_weight(h).T
        np.fill_diagonal(w, 0.0)
        d = w.sum(axis=1)
        s = np.minimum(1.0, w[src, dst] / np.sqrt(d[src] * d[dst]))
    out = -cfg.lam * x
    np.add.at(out, src, phi(cfg, s)[:, None] * (x[dst] - x[src]))
    return out


def random_hypergraph(seed, big=0):
    """Random overlapping hyperedges with unequal membership weights.

    The last two hyperedges repeat a pair of the first one (so that pair
    shares at least two hyperedges) and hold a single node. big more nodes
    join the first hyperedge.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    edges = [rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
             for _ in range(int(rng.integers(1, 5)))]
    edges[0] = np.concatenate([edges[0], np.arange(n, n + big)])
    n += big
    edges += [edges[0][:2], rng.choice(n, size=1)]
    memberships = [(int(v), e, float(rng.uniform(0.2, 3.0)))
                   for e, members in enumerate(edges) for v in members]
    return Hypergraph(n, memberships)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 200]))
@example(seed=1, big=200)  # one hyperedge of about 200 members
@settings(max_examples=40, deadline=None)
def test_hypergraph_odnet_matches_per_hyperedge_oracle(seed, big):
    h = random_hypergraph(seed, big)
    shared = co_membership(h)
    np.fill_diagonal(shared, 0.0)
    assert shared.max() >= 2.0
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (h.node_count, 3))
    for sim in (SimilaritySpec(), SimilaritySpec("dynamic", temperature=0.8)):
        for cfg in (InfluenceConfig(eps1=0.1, eps2=0.6, mu=1.5, lam=0.05), TEXAS):
            want = hypergraph_odnet_oracle(h, x, cfg, sim)
            # Summation order differs; rows of the big hyperedge add ~big terms.
            atol = 1e-12 + big * np.finfo(np.float64).eps * np.abs(want).max()
            assert np.allclose(make_hypergraph_odnet_rhs(h, cfg, sim)(x), want,
                               rtol=0.0, atol=atol)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 60]), st.booleans())
@example(seed=3, big=60, tiny=True)
@settings(max_examples=40, deadline=None)
def test_hypergraph_odnet_counts_match_a_per_arc_lookup(seed, big, tiny):
    # The oracle looks each clique arc up in the dense C = H H^T. With tiny
    # weights (1e-170, whose products underflow to 0), the clique expansion
    # holds fewer pairs than C, and the counts must still line up with its arcs.
    h = random_hypergraph(seed, big)
    if tiny:
        W = h._weights
        edges = np.repeat(np.arange(h.edge_count), np.diff(W.indptr))
        scale = np.where(np.random.default_rng(seed).random(W.nnz) < 0.5, 1e-170, 1.0)
        h = Hypergraph(h.node_count, list(zip(W.indices.tolist(), edges.tolist(),
                                              (W.data * scale).tolist())))
    coupling_rhs, built = dynamics._coupling_rhs, []

    def capture(g, cfg, sim, count=1.0):
        built.append((g, count))
        return coupling_rhs(g, cfg, sim, count)

    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (h.node_count, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_coupling_rhs", capture)
        for sim in (SimilaritySpec(), SimilaritySpec("dynamic")):
            out = make_hypergraph_odnet_rhs(h, TEXAS, sim)(x)
            g, count = built.pop()
            lookup = co_membership(h)[g.src, g.dst]
            assert count.tobytes() == lookup.tobytes()
            assert out.tobytes() == coupling_rhs(g, TEXAS, sim, lookup)(x).tobytes()


# --------------------------------------------------- hypergraph diffusion


def chain_window_hypergraph(n=6, width=3):
    """Circulant hypergraph: hyperedge e covers {e, e+1, ..., e+width-1}."""
    memberships = [((e + k) % n, e, 1.0) for e in range(n) for k in range(width)]
    return Hypergraph(n, memberships)


def test_uniform_kernel_two_nodes():
    h = Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0)])
    k = diffusion_kernel(h, "uniform")
    assert np.allclose(k, 0.5)
    x = np.array([0.0, 2.0])
    assert np.allclose(make_hypergraph_diffusion_rhs(h)(x), [1.0, -1.0])


def test_uniform_kernel_worked_values():
    h = chain_window_hypergraph()
    k = diffusion_kernel(h, "uniform")
    # co-membership row of node 0: [3, 2, 1, 0, 1, 2], total 9
    assert np.allclose(k[0], np.array([3, 2, 1, 0, 1, 2]) / 9.0)
    assert np.allclose(k, k.T)


def test_constant_state_is_diffusion_equilibrium():
    h = chain_window_hypergraph()
    x = np.full(6, 3.3)
    assert np.allclose(make_hypergraph_diffusion_rhs(h)(x), 0.0, atol=1e-14)


def test_uncovered_node_keeps_identity_row():
    h = Hypergraph(4, [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)], edge_count=1)
    k = diffusion_kernel(h, "uniform")
    assert k[3].tolist() == [0.0, 0.0, 0.0, 1.0]
    x = np.array([1.0, 2.0, 3.0, 9.0])
    assert make_hypergraph_diffusion_rhs(h)(x)[3] == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_uniform_kernel_rows_always_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    e = int(rng.integers(1, 6))
    memberships = []
    for edge in range(e):
        size = int(rng.integers(1, min(n, 4) + 1))
        for node in rng.choice(n, size=size, replace=False):
            memberships.append((int(node), edge, float(rng.uniform(0.5, 2.0))))
    h = Hypergraph(n, memberships, edge_count=e)
    k = diffusion_kernel(h, "uniform")
    assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)
    assert (k >= 0.0).all()


def test_hgnn_kernel_regular_hypergraph():
    h = chain_window_hypergraph()
    k = diffusion_kernel(h, "hgnn")
    assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)
    rhs = make_hypergraph_diffusion_rhs(h, "hgnn")
    assert np.allclose(rhs(np.full(6, 1.0)), 0.0, atol=1e-12)


def test_hgnn_kernel_irregular_hypergraph_rejected():
    # node 0 sits in two hyperedges, nodes 1 and 2 in one: rows cannot
    # all sum to one, so the run must refuse rather than silently leak mass
    h = Hypergraph(3, [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0)])
    with pytest.raises(KernelNotNormalized):
        make_hypergraph_diffusion_rhs(h, "hgnn")


def test_diffusion_kernel_rejects_unknown_kind():
    h = Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0)])
    with pytest.raises(ValueError):
        make_hypergraph_diffusion_rhs(h, "laplacian")


def dense_kernel_oracle(h, kind):
    """The dense kernel build that the sparse kernel replaced, from the dense views."""
    if kind == "uniform":
        K = co_membership(h)
        t = K.sum(axis=1)
        t[t == 0.0] = 1.0
        K /= t[:, None]
    else:
        H = csr_matrix(incidence(h), dtype=np.float64)
        dv = np.asarray(H.sum(axis=1)).ravel()
        de = np.asarray(H.sum(axis=0)).ravel()
        dv_isqrt = np.divide(1.0, np.sqrt(dv), out=np.zeros_like(dv), where=dv > 0.0)
        K = (diags(dv_isqrt) @ H @ diags(1.0 / de) @ H.T @ diags(dv_isqrt)).toarray()
    idx = np.flatnonzero(~incidence(h).any(axis=1))
    K[idx, idx] = 1.0
    return K


def kernel_test_hypergraph(seed):
    """Irregular random hyperedges (odd seeds) or r layers of a random
    k-partition (node-regular, even seeds), plus up to two nodes in no
    hyperedge."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        n = int(rng.integers(2, 16))
        groups = [rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
                  for _ in range(int(rng.integers(1, 10)))]
    else:
        k = int(rng.integers(2, 5))
        n = k * int(rng.integers(1, 6))
        groups = [perm[i:i + k] for perm in (rng.permutation(n) for _ in range(rng.integers(1, 4)))
                  for i in range(0, n, k)]
    memberships = [(int(v), e, float(rng.uniform(0.2, 3.0)))
                   for e, members in enumerate(groups) for v in members]
    return Hypergraph(n + int(rng.integers(0, 3)), memberships)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sparse_kernel_equals_dense_oracle_bit_for_bit(seed):
    h = kernel_test_hypergraph(seed)
    x = np.random.default_rng(seed).standard_normal((h.node_count, 2))
    for kind in ("uniform", "hgnn"):
        K = dense_kernel_oracle(h, kind)
        assert np.array_equal(diffusion_kernel(h, kind), K)
        if np.all(np.abs(K.sum(axis=1) - 1.0) <= 1e-9):
            want = csr_matrix(K) @ x - x
            assert np.array_equal(make_hypergraph_diffusion_rhs(h, kind)(x), want)
        else:
            with pytest.raises(KernelNotNormalized):
                make_hypergraph_diffusion_rhs(h, kind)
    if seed % 2 == 0:  # node-regular: hgnn must run
        make_hypergraph_diffusion_rhs(h, "hgnn")


def test_diffusion_decay_rate_matches_dense_eigenvalue_oracle():
    h = chain_window_hypergraph()
    # independent kernel build: circulant co-membership row over 9
    first_row = np.array([3, 2, 1, 0, 1, 2]) / 9.0
    k_oracle = np.array([np.roll(first_row, i) for i in range(6)])
    lap = np.eye(6) - k_oracle
    eigs = np.linalg.eigvalsh(lap)
    gamma = float(eigs[eigs > 1e-10][0])

    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((6, 2))
    rhs = make_hypergraph_diffusion_rhs(h, "uniform")
    t_end = 14.0 / gamma
    cfg = IntegratorConfig(scheme="rk4", h=min(t_end / 400, 1.0), t_end=t_end)
    traj = integrate(rhs, x0, cfg)
    mean = x0.mean(axis=0)
    dists = np.array([np.linalg.norm(s - mean) for s in traj.states])
    tail = traj.times > t_end / 2
    slope, _ = np.polyfit(traj.times[tail], np.log(dists[tail]), 1)
    assert slope == pytest.approx(-gamma, rel=0.05)


# ------------------------------------------------------------ dynamicspec


def test_spec_dispatch_discrete_and_continuous():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    h = Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0)])
    x = np.array([0.0, 1.0])

    spec = DynamicSpec(kind="hk", hk_radius=2.0)
    assert spec.is_discrete
    assert np.allclose(spec.step_fn()(x), [0.5, 0.5])

    spec = DynamicSpec(kind="odnet-continuous", structure=g, influence=IDENTITY_BAND)
    assert not spec.is_discrete
    assert np.allclose(spec.rhs_fn()(x), make_odnet_rhs(g, IDENTITY_BAND)(x))

    spec = DynamicSpec(kind="hypergraph-diffusion", structure=h)
    assert np.allclose(spec.rhs_fn()(x), [0.5, -0.5])


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DynamicSpec(kind="bogus")
    with pytest.raises(ValueError):
        DynamicSpec(kind="fd").step_fn()  # no graph attached
    with pytest.raises(ValueError):
        DynamicSpec(kind="odnet-discrete",
                    structure=WeightedGraph(2, [(0, 1, 1.0)])).step_fn()
    with pytest.raises(ValueError):
        DynamicSpec(kind="hk").rhs_fn()  # discrete kind has no rhs


SPEC_STRUCTURES = {"graph": WeightedGraph(2, [(0, 1, 1.0)]),
                   "hypergraph": Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0)]), None: None}

# Per kind, spelled out apart from the module's table: the structure it runs
# on (None: all-to-all), whether it needs an influence config, and whether it
# is a discrete map.
KIND_FACTS = {
    "fd": ("graph", False, True),
    "hk": (None, False, True),
    "odnet-discrete": ("graph", True, True),
    "odnet-continuous": ("graph", True, False),
    "hypergraph-odnet": ("hypergraph", True, False),
    "hypergraph-diffusion": ("hypergraph", False, False),
}


def test_kinds_are_the_table_of_kinds():
    assert dynamics.KINDS == tuple(dynamics._KIND_TABLE)
    assert sorted(dynamics.KINDS) == sorted(KIND_FACTS)


@pytest.mark.parametrize("kind", sorted(KIND_FACTS))
def test_spec_checks_what_each_kind_runs_on_and_needs(kind):
    runs_on, needs_influence, discrete = KIND_FACTS[kind]
    build, other = ("step_fn", "rhs_fn") if discrete else ("rhs_fn", "step_fn")
    form = "continuous rhs" if discrete else "discrete step"
    assert DynamicSpec(kind=kind).is_discrete == discrete
    for name, structure in SPEC_STRUCTURES.items():
        spec = DynamicSpec(kind=kind, structure=structure, influence=IDENTITY_BAND)
        with pytest.raises(ValueError, match=f"^kind '{kind}' has no {form}$"):
            getattr(spec, other)()
        if runs_on in (None, name):  # all-to-all hk takes any structure, or none
            assert callable(getattr(spec, build)())
        else:
            with pytest.raises(ValueError, match=f"^kind '{kind}' needs a {runs_on}$"):
                getattr(spec, build)()
    spec = DynamicSpec(kind=kind, structure=SPEC_STRUCTURES[runs_on])
    if needs_influence:
        with pytest.raises(ValueError, match=f"^kind '{kind}' needs an influence config$"):
            getattr(spec, build)()
    else:
        assert callable(getattr(spec, build)())


def test_spec_json_round_trip():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    spec = DynamicSpec(kind="odnet-continuous", structure=g, influence=TEXAS,
                       similarity=SimilaritySpec("dynamic", temperature=0.8))
    blob = {"kind": "odnet-continuous", "eps1": 0.50, "eps2": 0.80, "mu": 1.0, "nu": -50.0,
            "lambda": 0.1, "mode": "attract-repulse", "similarity": "dynamic",
            "temperature": 0.8, "hk_radius": 0.1, "kernel": "uniform"}
    back = DynamicSpec.from_json(blob, structure=g)
    assert back == spec
    assert back.kind == spec.kind
    assert back.influence == spec.influence
    assert back.similarity == spec.similarity
    assert DynamicSpec.from_json({"kind": "fd"}) == DynamicSpec(kind="fd")
    with pytest.raises(ValueError, match="^missing config key 'kind'$"):
        DynamicSpec.from_json({})

    hk = DynamicSpec.from_json({"kind": "hk", "hk_radius": 0.3})
    assert hk.hk_radius == 0.3
    diff = DynamicSpec.from_json({"kind": "hypergraph-diffusion", "kernel": "hgnn"})
    assert diff.kernel == "hgnn"


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "hypergraph-diffusion", "kernel": "laplacian"},
     "kernel must be 'uniform' or 'hgnn', got 'laplacian'"),
    ({"kind": "hk", "hk_radius": 0.0}, "hk_radius must be positive, got 0.0"),
    ({"kind": "hk", "hk_radius": -0.5}, "hk_radius must be positive, got -0.5"),
    ({"kind": "hk", "hk_radius": float("nan")}, "hk_radius must be positive, got nan"),
], ids=["kernel", "radius-0", "radius-negative", "radius-nan"])
def test_spec_refuses_an_unknown_kernel_or_a_radius_not_positive(kwargs, message):
    # Refused when the spec is built, before any operator or step.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DynamicSpec(**kwargs)


def test_spec_runs_inside_iterate_map():
    g = WeightedGraph(
        2, [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)], directed=True
    )
    spec = DynamicSpec(kind="fd", structure=g)
    traj = iterate_map(spec.step_fn(), np.array([0.0, 1.0]), 40)
    assert np.allclose(traj.final_state, 0.5, atol=1e-12)
