"""Energy functionals, decay detection, clustering, consensus, spectra.

Dense Laplacian quadratic forms and literal double sums serve as the
reference arithmetic for the vectorized energy code.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odyn import (
    EnergySeries,
    Hypergraph,
    InsufficientData,
    IntegratorConfig,
    NoConvergence,
    NotSPD,
    PreconditionFailed,
    TooLarge,
    WeightedGraph,
    cluster_count,
    consensus_predict,
    detect_oversmoothing,
    dirichlet_energy_graph,
    dirichlet_energy_hypergraph,
    fd_step,
    integrate,
    spectral_gap,
)
from odyn import graphs
from odyn.diagnostics import EIGENVALUE_CUTOFF

from conftest import dense_weights, diffusion_kernel, random_row_stochastic


# ---------------------------------------------------------------- energy


def test_graph_energy_path_example():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    x = np.array([0.0, 1.0, 2.0])
    assert dirichlet_energy_graph(g, x) == 2.0


def test_graph_energy_counts_each_edge_once():
    g = WeightedGraph(2, [(0, 1, 3.0)])
    x = np.array([1.0, 4.0])
    assert dirichlet_energy_graph(g, x) == 27.0  # 3 * (4 - 1)^2, not doubled


def test_graph_energy_directed_counts_arcs():
    g = WeightedGraph(2, [(0, 1, 3.0), (1, 0, 3.0)], directed=True)
    x = np.array([1.0, 4.0])
    assert dirichlet_energy_graph(g, x) == 54.0


def test_graph_energy_multifeature_rows():
    g = WeightedGraph(2, [(0, 1, 2.0)])
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert dirichlet_energy_graph(g, x) == 50.0  # 2 * 25


def test_graph_energy_matches_dense_laplacian_quadratic_form():
    rng = np.random.default_rng(6)
    edges = [(i, j, float(rng.uniform(0.2, 2.0)))
             for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.5]
    g = WeightedGraph(8, edges)
    w = dense_weights(g)
    lap = np.diag(w.sum(axis=1)) - w
    x = rng.standard_normal((8, 3))
    expected = float(np.trace(x.T @ lap @ x))
    assert dirichlet_energy_graph(g, x) == pytest.approx(expected, abs=1e-10)


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
@settings(max_examples=30, deadline=None)
def test_graph_energy_quadratic_and_translation_invariant(seed, scale, shift):
    rng = np.random.default_rng(seed)
    g = random_row_stochastic(seed, n_max=8)
    x = rng.standard_normal((g.node_count, 2))
    base = dirichlet_energy_graph(g, x)
    assert dirichlet_energy_graph(g, scale * x) == pytest.approx(
        scale**2 * base, rel=1e-9
    )
    assert dirichlet_energy_graph(g, x + shift) == pytest.approx(
        base, abs=1e-7 * max(1.0, base)
    )


def test_hypergraph_energy_pair_example():
    h = Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0)])
    x = np.array([0.0, 1.0])
    assert dirichlet_energy_hypergraph(h, x) == 2.0  # ordered pairs: both ways


def test_hypergraph_energy_shared_pair_counts_per_hyperedge():
    h = Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
    x = np.array([0.0, 1.0])
    assert dirichlet_energy_hypergraph(h, x) == 4.0


def test_hypergraph_energy_matches_double_sum_oracle():
    rng = np.random.default_rng(11)
    memberships = []
    for e in range(4):
        nodes = rng.choice(7, size=int(rng.integers(1, 5)), replace=False)
        memberships.extend((int(v), e, 1.0) for v in nodes)
    h = Hypergraph(7, memberships, edge_count=4)
    x = rng.standard_normal((7, 2))
    expected = 0.0
    for e in range(4):
        m = h.members(e)
        for i in m:
            for j in m:
                if i != j:
                    expected += float(np.sum((x[i] - x[j]) ** 2))
    assert dirichlet_energy_hypergraph(h, x) == pytest.approx(expected, abs=1e-10)


def test_hypergraph_energy_nonnegative_at_consensus():
    # Equal nonzero rows: the expanded m sum|x|^2 - |sum x|^2 form cancels to
    # a rounding residue that can be negative; the centred form cannot.
    rng = np.random.default_rng(5)
    memberships = [(int(v), e, 1.0) for e in range(30)
                   for v in rng.choice(40, size=int(rng.integers(2, 12)), replace=False)]
    h = Hypergraph(40, memberships, edge_count=30)
    for row in ([0.1], [0.3, -0.7, 1.9], [1e3, 1e-3]):
        assert dirichlet_energy_hypergraph(h, np.tile(row, (40, 1))) >= 0.0


def test_energy_zero_only_on_agreement():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert dirichlet_energy_graph(g, np.full(3, 2.5)) == 0.0
    h = Hypergraph(3, [(i, 0, 1.0) for i in range(3)])
    assert dirichlet_energy_hypergraph(h, np.full(3, -1.0)) == 0.0


# ---------------------------------------------------------- energy series


def test_energy_series_validation():
    with pytest.raises(ValueError):
        EnergySeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        EnergySeries(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    s = EnergySeries(np.arange(3.0), np.ones(3))
    assert len(s) == 3


def test_energy_series_from_trajectory():
    g = WeightedGraph(2, [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)],
                      directed=True)
    traj = None
    from odyn import iterate_map

    traj = iterate_map(lambda x: fd_step(g, x), np.array([0.0, 1.0]), 12,
                       energy_fn=lambda x: dirichlet_energy_graph(g, x))
    series = EnergySeries.from_trajectory(traj)
    assert len(series) == 13
    assert series.energy[0] == 1.0  # directed: both arcs of weight 0.5 count


def test_energy_series_needs_recorded_energies():
    traj = integrate(lambda x: -x, np.ones(2), IntegratorConfig(scheme="euler", h=0.5))
    with pytest.raises(ValueError, match="trajectory carries no recorded energies"):
        EnergySeries.from_trajectory(traj)


# ----------------------------------------------------------- oversmoothing


def test_detect_pure_exponential_decay():
    k = np.arange(30.0)
    report = detect_oversmoothing(EnergySeries(k, np.exp(-k)))
    assert report.oversmoothing
    assert report.rate == pytest.approx(1.0, abs=1e-9)


def test_detect_flat_series_is_negative():
    report = detect_oversmoothing(EnergySeries(np.arange(20.0), np.ones(20)))
    assert not report.oversmoothing
    assert report.rate == pytest.approx(0.0, abs=1e-12)


def test_detect_growth_is_negative():
    k = np.arange(20.0)
    report = detect_oversmoothing(EnergySeries(k, np.exp(0.3 * k)))
    assert not report.oversmoothing
    assert report.rate < 0.0  # rate is minus the slope


def test_detect_slow_drift_fails_ratio_gate():
    # slope passes the threshold but the total drop is nowhere near 1e-6
    k = np.arange(40.0)
    report = detect_oversmoothing(EnergySeries(k, np.exp(-0.01 * k)))
    assert not report.oversmoothing
    assert report.rate == pytest.approx(0.01, abs=1e-9)


def test_detect_shallow_slope_fails_slope_gate():
    k = np.arange(12.0)
    e = np.exp(-5e-4 * k)
    e[0] = 1e7  # huge initial value makes the ratio gate pass
    report = detect_oversmoothing(EnergySeries(k, e))
    assert not report.oversmoothing


def test_detect_fit_uses_tail_half_only():
    # flat head then clean decay: the head must not dilute the tail fit
    k = np.arange(40.0)
    e = np.where(k < 20, 1.0, np.exp(-(k - 20)))
    report = detect_oversmoothing(EnergySeries(k, e))
    assert report.oversmoothing
    assert report.rate == pytest.approx(1.0, rel=0.05)


def test_detect_handles_exact_zeros_via_floor():
    # exact zeros at the end must be floored, not crash the log fit
    k = np.arange(20.0)
    e = np.exp(-k)
    e[-2:] = 0.0
    report = detect_oversmoothing(EnergySeries(k, e))
    assert report.oversmoothing
    assert np.isfinite(report.rate)


def test_detect_requires_ten_points():
    with pytest.raises(InsufficientData):
        detect_oversmoothing(EnergySeries(np.arange(9.0), np.ones(9)))


# ---------------------------------------------------------------- clusters


def test_cluster_count_examples():
    x = np.array([0.0, 0.05, 0.10, 1.0])
    assert cluster_count(x, 0.06) == 2  # chain 0-0.05-0.10 links transitively
    assert cluster_count(x, 0.04) == 4
    assert cluster_count(np.array([0.0, 0.0, 1.0, 1.0]), 0.1) == 2


def test_cluster_count_zero_tolerance():
    assert cluster_count(np.array([1.0, 1.0, 2.0]), 0.0) == 2  # exact ties merge
    assert cluster_count(np.array([1.0, 2.0, 3.0]), 0.0) == 3


def test_cluster_count_multidimensional():
    x = np.array([[0.0, 0.0], [0.0, 0.3], [2.0, 0.0]])
    assert cluster_count(x, 0.5) == 2
    assert cluster_count(x, 3.0) == 1


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cluster_count_needs_a_finite_state(width, bad):
    x = np.column_stack([[0.0, bad, 1.0]] * width)
    with pytest.raises(ValueError, match="cluster_count needs a finite state"):
        cluster_count(x, 0.1)


def test_cluster_count_rejects_negative_tol():
    with pytest.raises(ValueError):
        cluster_count(np.array([0.0]), -0.1)


@pytest.mark.parametrize("width", [1, 2])
def test_cluster_count_rejects_a_nan_tol_and_takes_an_infinite_one(width):
    x = np.column_stack([[0.0, 0.5, 1.0, 3.0]] * width)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        cluster_count(x, np.nan)
    assert cluster_count(x, np.inf) == 1


def dense_cluster_oracle(x, tol):
    """Components of the all-pairs graph linking rows within distance tol."""
    x = np.asarray(x, dtype=np.float64)
    m = x[:, None] if x.ndim == 1 else x
    close = np.linalg.norm(m[:, None, :] - m[None, :, :], axis=2) <= tol
    return int(connected_components(csr_matrix(close), directed=False)[0])


TINY = 2.225073858507203e-309  # subnormal: TINY * TINY underflows to 0


# Values on a 1/8 grid with tolerances that are multiples of 1/8: duplicates
# and gaps of exactly tol, all exact in binary floating point. Widths above 1
# take the values row by row and run the k-d tree path.
@given(
    st.one_of(
        st.tuples(
            st.lists(st.integers(0, 16), max_size=40).map(lambda k: np.array(k) / 8.0),
            st.sampled_from([0.0, 0.125, 0.25, 0.5]),
        ),
        st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40).map(np.array),
                  st.floats(0.0, 0.3)),
    ),
    st.booleans(),
    st.integers(1, 4),
)
@example((np.array([0.0, TINY]), 0.0), False, 1)  # d * d underflows
@example((np.array([0.0, 0.0, 0.375, 0.5]), 0.625), False, 2)  # 3-4-5: distance exactly tol
@example((np.array([0.0, 0.0, TINY, 0.0, 0.0, TINY]), 0.0), False, 2)  # norm reads 0
@example((np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), 0.0), False, 2)  # tol 0
# norm(x_1 - x_0) is tol, but the squared distance rounds above tol * tol:
# a k-d tree asked for exactly tol drops the pair.
@example((np.array([0.0, 0.0, 0.5253543224757259, 0.31024187555895566]), 0.6101206319198421),
         False, 2)
@settings(max_examples=120, deadline=None)
def test_cluster_count_one_column_matches_dense_oracle(state, as_column, width):
    x, tol = state
    if width > 1:
        x = x[: x.size // width * width].reshape(-1, width)
    elif as_column:
        x = x[:, None]
    assert cluster_count(x, tol) == dense_cluster_oracle(x, tol)


def test_cluster_count_runs_wide_states_of_any_row_count():
    # 2001 rows in three clusters sqrt(2) apart.
    x = np.repeat(np.arange(3.0), 667)[:, None] * np.ones(2)
    assert cluster_count(x, 0.1) == 3
    assert cluster_count(np.arange(5000.0), 1.0) == 1


def test_cluster_count_refuses_more_radius_pairs_than_the_limit_before_holding_them():
    # 6000 equal rows are 36M pairs: their indices alone would take 576 MB.
    cluster_count(np.zeros((2, 2)), 0.1)  # warm up: the k-d tree's import is not the path's
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="36000000 node pairs"):
            cluster_count(np.zeros((6000, 2)), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cluster_count_runs_at_the_pair_limit(monkeypatch):
    # Pairs are ordered and include each row with itself: n equal rows are n * n.
    monkeypatch.setattr(graphs, "_PAIR_LIMIT", 16)
    assert cluster_count(np.ones((4, 2)), 0.0) == 1
    with pytest.raises(TooLarge, match="25 node pairs"):
        cluster_count(np.ones((5, 2)), 0.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_cluster_count_monotone_in_tolerance(seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, 12)
    lo, hi = min(a, b), max(a, b)
    assert cluster_count(x, lo) >= cluster_count(x, hi)


# --------------------------------------------------------------- consensus


def test_consensus_two_node_left_eigenvector():
    # W = [[0.9, 0.1], [0.5, 0.5]] has dominant left eigenvector (5/6, 1/6)
    g = WeightedGraph(
        2, [(0, 0, 0.9), (0, 1, 0.1), (1, 0, 0.5), (1, 1, 0.5)], directed=True
    )
    x0 = np.array([0.0, 1.0])
    out = consensus_predict(g, x0)
    assert np.allclose(out, 1.0 / 6.0, atol=1e-10)
    assert out.shape == (2,)


def test_consensus_doubly_stochastic_gives_mean():
    g = WeightedGraph(
        3,
        [(i, j, 1.0 / 3.0) for i in range(3) for j in range(3)],
        directed=True,
    )
    x0 = np.array([[0.0, 3.0], [1.0, 3.0], [5.0, 3.0]])
    out = consensus_predict(g, x0)
    assert np.allclose(out, [[2.0, 3.0]] * 3, atol=1e-10)


def test_consensus_matches_long_fd_iteration():
    g = random_row_stochastic(42, n_max=8)
    rng = np.random.default_rng(42)
    x = rng.uniform(-1.0, 1.0, g.node_count)
    predicted = consensus_predict(g, x)
    for _ in range(400):
        x = fd_step(g, x)
    assert np.allclose(x, predicted, atol=1e-9)


def test_consensus_named_precondition_failures():
    not_stochastic = WeightedGraph(2, [(0, 1, 0.7), (1, 0, 1.0)], directed=True)
    with pytest.raises(PreconditionFailed, match="row stochastic"):
        consensus_predict(not_stochastic, np.zeros(2))

    disconnected = WeightedGraph(
        2, [(0, 0, 1.0), (1, 1, 1.0)], directed=True
    )
    with pytest.raises(PreconditionFailed, match="strongly connected"):
        consensus_predict(disconnected, np.zeros(2))

    periodic = WeightedGraph(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    with pytest.raises(PreconditionFailed, match="aperiodic"):
        consensus_predict(periodic, np.zeros(2))


def test_consensus_needs_a_state_row_per_node():
    g = random_row_stochastic(3)
    with pytest.raises(ValueError, match="state row count must match node count"):
        consensus_predict(g, np.zeros((g.node_count + 1, 2)))


def test_consensus_is_fixed_point_of_itself():
    g = random_row_stochastic(7, n_max=6)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, g.node_count)
    limit = consensus_predict(g, x)
    assert np.allclose(consensus_predict(g, limit), limit, atol=1e-10)


def test_consensus_no_convergence_budget():
    g = random_row_stochastic(3, n_max=6)
    with pytest.raises(NoConvergence):
        consensus_predict(g, np.zeros(g.node_count), max_iterations=2)


# ------------------------------------------------------------ spectral gap


def test_spectral_gap_single_pair():
    h = Hypergraph(2, [(0, 0, 1.0), (1, 0, 1.0)])
    # K is the 2x2 averaging matrix with eigenvalues {0, 1}: gap of I - K is 1
    assert spectral_gap(h) == pytest.approx(1.0, abs=1e-12)


def test_spectral_gap_complete_overlap():
    n = 5
    h = Hypergraph(n, [(i, 0, 1.0) for i in range(n)])
    # uniform kernel is the rank-one averaging matrix: I - K has eigs {0, 1}
    assert spectral_gap(h) == pytest.approx(1.0, abs=1e-12)


def test_spectral_gap_matches_dense_oracle():
    n, width = 6, 3
    h = Hypergraph(n, [((e + k) % n, e, 1.0) for e in range(n) for k in range(width)])
    first_row = np.array([3, 2, 1, 0, 1, 2]) / 9.0
    k_oracle = np.array([np.roll(first_row, i) for i in range(n)])
    eigs = np.linalg.eigvalsh(np.eye(n) - k_oracle)
    expected = float(eigs[eigs > 1e-10][0])
    assert spectral_gap(h) == pytest.approx(expected, abs=1e-12)


def test_spectral_gap_disconnected_takes_min_over_parts():
    # two disjoint pair-hyperedges: operator is block diagonal, gap still 1
    h = Hypergraph(4, [(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0), (3, 1, 1.0)])
    assert spectral_gap(h) == pytest.approx(1.0, abs=1e-12)


def test_spectral_gap_refuses_asymmetric_operator():
    # irregular co-membership totals break the symmetry of I - K
    h = Hypergraph(3, [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0)])
    with pytest.raises(NotSPD):
        spectral_gap(h)


def dense_spectral_gap_oracle(h, kernel="uniform"):
    """spectral_gap with every step dense: I - K, the symmetry test and the
    symmetrization each build N x N arrays."""
    K = diffusion_kernel(h, kernel)
    L = np.eye(h.node_count) - K
    if not np.allclose(L, L.T, atol=1e-12, rtol=0.0):
        raise NotSPD("diffusion operator is not symmetric for this kernel")
    eigs = np.linalg.eigvalsh(0.5 * (L + L.T))
    if eigs[0] < -EIGENVALUE_CUTOFF:
        raise NotSPD(f"diffusion operator has negative eigenvalue {eigs[0]:.3e}")
    positive = eigs[eigs > EIGENVALUE_CUTOFF]
    if positive.size == 0:
        raise ValueError("no eigenvalue above the positivity cutoff")
    return float(positive[0])


def node_regular_hypergraph(n, layers, size, seed):
    """Each layer splits a random permutation into hyperedges of `size`
    nodes; when size divides n every node is in `layers` hyperedges."""
    rng = np.random.default_rng(seed)
    rows = []
    for layer in range(layers):
        perm = rng.permutation(n)
        for e in range(n // size):
            rows += [(int(v), layer * (n // size) + e, 1.0) for v in perm[e * size:(e + 1) * size]]
    return Hypergraph(n, rows)


def gap_outcome(fn, h, kernel):
    try:
        return fn(h, kernel).hex()
    except (NotSPD, ValueError) as exc:
        return type(exc)


@given(st.integers(2, 40), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(["uniform", "hgnn"]))
@settings(max_examples=150, deadline=None)
@example(n=12, layers=2, size=4, seed=0, kernel="hgnn")  # node-regular: a gap
@example(n=12, layers=1, size=1, seed=0, kernel="uniform")  # K = I: ValueError
@example(n=13, layers=2, size=4, seed=3, kernel="uniform")  # irregular: NotSPD
@example(n=12, layers=1, size=4, seed=0, kernel="uniform")  # disconnected: gap per part
def test_spectral_gap_matches_dense_oracle_bit_for_bit(n, layers, size, seed, kernel):
    # A size that does not divide n leaves some nodes out of a layer, so
    # irregular and disconnected cases occur.
    h = node_regular_hypergraph(n, layers, min(size, n), seed)
    assert gap_outcome(spectral_gap, h, kernel) == gap_outcome(dense_spectral_gap_oracle, h, kernel)


def test_spectral_gap_keeps_one_dense_matrix():
    # At 400 nodes, only the symmetrized operator is N x N: the traced peak
    # stays under two N x N arrays of doubles, where the all-dense oracle
    # holds more than four.
    n = 400
    h = node_regular_hypergraph(n, 3, 5, 1)

    def peak(fn):
        fn(h, "hgnn")  # warm up: first-call allocations are not the path's
        tracemalloc.start()
        try:
            fn(h, "hgnn")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(spectral_gap) < 2 * n * n * 8
    assert peak(dense_spectral_gap_oracle) > 4 * n * n * 8


def test_spectral_gap_too_large():
    n = 501
    h = Hypergraph(n, [(i, 0, 1.0) for i in range(n)])
    with pytest.raises(TooLarge):
        spectral_gap(h)


def test_diffusion_energy_decay_is_flagged():
    # end-to-end: diffusion on an overlap-rich hypergraph oversmooths
    n, width = 8, 4
    h = Hypergraph(n, [((e + k) % n, e, 1.0) for e in range(n) for k in range(width)])
    from odyn import make_hypergraph_diffusion_rhs

    rng = np.random.default_rng(15)
    x0 = rng.standard_normal((n, 3))
    traj = integrate(
        make_hypergraph_diffusion_rhs(h),
        x0,
        IntegratorConfig(scheme="rk4", h=0.5, t_end=40.0),
        energy_fn=lambda x: dirichlet_energy_hypergraph(h, x),
    )
    report = detect_oversmoothing(EnergySeries.from_trajectory(traj))
    assert report.oversmoothing
    assert report.rate > 0.0
