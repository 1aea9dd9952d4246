"""Influence profile, similarity measures, and the control term."""

import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odyn.influence as influence
from odyn import (
    InfluenceConfig,
    OutOfRangeSimilarity,
    SimilaritySpec,
    WeightedGraph,
    ZeroDegree,
    phi,
    similarity_dynamic,
    similarity_static,
)

from conftest import dense_weights

CORA = InfluenceConfig(eps1=0.012, eps2=0.40, mu=1.4)
TEXAS = InfluenceConfig(eps1=0.50, eps2=0.80, mu=1.0, nu=-50.0)


# ------------------------------------------------------------------- phi


def test_phi_amplifies_above_band():
    # 0.5 > 0.40 so the similarity is scaled by mu = 1.4
    assert phi(CORA, 0.5) == pytest.approx(0.7, abs=1e-12)


def test_phi_identity_inside_band():
    assert phi(CORA, 0.2) == 0.2
    assert phi(CORA, 0.012) == 0.012  # lower bound included
    assert phi(CORA, 0.40) == 0.40  # upper bound included, not amplified


def test_phi_zero_below_band_in_attract_mode():
    assert phi(CORA, 0.0) == 0.0
    assert phi(CORA, 0.011) == 0.0


def test_phi_repulsive_below_band():
    # 0.3 < 0.50 gives nu * (1 - s) = -50 * 0.7
    assert phi(TEXAS, 0.3) == pytest.approx(-35.0, abs=1e-12)
    assert phi(TEXAS, 0.6) == 0.6
    assert phi(TEXAS, 0.9) == pytest.approx(0.9, abs=1e-12)  # mu = 1


def test_phi_upper_bound_is_strict():
    cfg = InfluenceConfig(eps1=0.1, eps2=0.5, mu=3.0)
    assert phi(cfg, 0.5) == 0.5
    assert phi(cfg, np.nextafter(0.5, 1.0)) > 1.49


def test_phi_vectorized_matches_scalar():
    grid = np.linspace(0.0, 1.0, 101)
    for cfg in (CORA, TEXAS):
        vec = phi(cfg, grid)
        assert vec.shape == grid.shape
        assert vec.tolist() == [phi(cfg, float(s)) for s in grid]


def test_phi_rejects_similarity_outside_range():
    for bad in (-0.01, 1.01, np.nan, np.inf):
        with pytest.raises(OutOfRangeSimilarity):
            phi(CORA, bad)
    with pytest.raises(OutOfRangeSimilarity):
        phi(CORA, np.array([0.2, 1.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("wrap", [float, lambda s: np.array([0.2, s, 0.7])],
                         ids=["scalar", "array"])
def test_phi_rejects_non_finite_similarity(bad, wrap):
    # One range pass: NaN fails both bounds, an infinity one of them.
    with pytest.raises(OutOfRangeSimilarity):
        phi(CORA, wrap(bad))


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 20.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_phi_attract_monotone_when_mu_geq_one(a, b, mu, s):
    cfg = InfluenceConfig(eps1=min(a, b), eps2=max(a, b), mu=mu)
    step = 1e-6
    s2 = min(s + step, 1.0)
    assert phi(cfg, s) <= phi(cfg, s2) + 1e-15


@given(st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_attract_equals_repulse_with_zero_nu(s):
    # nu = 0 is the attract profile: zero below the band.
    cfg = InfluenceConfig(eps1=0.3, eps2=0.7, mu=2.0, nu=0.0)
    assert phi(cfg, s) == (2.0 * s if s > 0.7 else s if s >= 0.3 else 0.0)


def test_phi_below_band_is_nu_times_one_minus_s():
    # A negative nu repels below the band with no other setting.
    cfg = InfluenceConfig(eps1=0.2, eps2=0.8, mu=5.0, nu=-3.0)
    grid = np.linspace(0.0, 1.0, 257)
    below = grid < 0.2
    assert phi(cfg, grid)[below].tolist() == (-3.0 * (1.0 - grid[below])).tolist()
    assert (phi(cfg, grid)[~below] >= 0.0).all()


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        InfluenceConfig(eps1=0.6, eps2=0.4)
    with pytest.raises(ValueError):
        InfluenceConfig(eps1=-0.1, eps2=0.4)
    with pytest.raises(ValueError):
        InfluenceConfig(eps1=0.1, eps2=1.4)
    with pytest.raises(ValueError):
        InfluenceConfig(eps1=0.1, eps2=0.4, lam=-1.0)
    with pytest.raises(ValueError, match="^nu must be <= 0$"):
        InfluenceConfig(eps1=0.1, eps2=0.4, nu=0.5)
    with pytest.raises(ValueError, match="^a negative nu needs mu > 0$"):
        InfluenceConfig(eps1=0.1, eps2=0.4, mu=0.0, nu=-1.0)
    assert InfluenceConfig(eps1=0.1, eps2=0.4, mu=0.0).mu == 0.0  # nu = 0 takes any mu
    with pytest.raises(TypeError):  # the sign of nu sets repulsion; there is no mode
        InfluenceConfig(eps1=0.1, eps2=0.4, mode="attract-repulse")


def test_config_json_round_trip():
    cfg = InfluenceConfig(eps1=0.1, eps2=0.4, mu=2.0, nu=-1.0, lam=0.3)
    # lam is read under the long name
    blob = {"eps1": 0.1, "eps2": 0.4, "mu": 2.0, "nu": -1.0, "lambda": 0.3}
    assert InfluenceConfig.from_json(blob) == cfg
    assert InfluenceConfig.from_json({"eps1": 0.0, "eps2": 1.0}) == InfluenceConfig(
        0.0, 1.0
    )
    # The band defaults to the full band, where phi(s) = s.
    assert InfluenceConfig.from_json({}) == InfluenceConfig(0.0, 1.0) == InfluenceConfig()
    assert InfluenceConfig.from_json({"eps1": 0.2}) == InfluenceConfig(0.2, 1.0)
    assert InfluenceConfig.from_json({"eps2": 0.3}) == InfluenceConfig(0.0, 0.3)


def test_with_nu_ablation_helper():
    cfg = replace(TEXAS, nu=0.0)
    assert cfg.nu == 0.0
    assert cfg.eps1 == TEXAS.eps1 and cfg.mu == TEXAS.mu
    with pytest.raises(ValueError, match="^nu must be <= 0$"):  # replace checks the copy
        replace(TEXAS, nu=0.5)


def test_similarity_spec_kinds():
    # Each kind has one name.
    assert SimilaritySpec().kind == "static"
    assert SimilaritySpec("dynamic").is_dynamic
    assert not SimilaritySpec("static").is_dynamic
    for kind in ("euclidean", "static-normalized-adjacency", "dynamic-cosine"):
        with pytest.raises(ValueError, match=f"^unknown similarity kind '{kind}'$"):
            SimilaritySpec(kind)
    with pytest.raises(ValueError):
        SimilaritySpec("dynamic", temperature=0.0)


# ------------------------------------------------------- static similarity


def test_static_similarity_single_edge_is_one():
    for w in (0.3, 1.0, 7.5):
        g = WeightedGraph(2, [(0, 1, w)])
        assert similarity_static(g).tolist() == [1.0, 1.0]


def test_static_similarity_star():
    g = WeightedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
    s = similarity_static(g)
    # hub degree 4, leaves degree 1: every arc gets 1/2
    assert np.allclose(s, 0.5)


def test_static_similarity_triangle():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert np.allclose(similarity_static(g), 0.5)


def test_static_similarity_matches_dense_formula():
    rng = np.random.default_rng(8)
    n = 9
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((i, j, float(rng.uniform(0.1, 3.0))))
    g = WeightedGraph(n, edges)
    w = dense_weights(g)
    d = w.sum(axis=1)
    s = similarity_static(g)
    for k, (i, j) in enumerate(zip(g.src.tolist(), g.dst.tolist())):
        expected = min(1.0, w[i, j] / np.sqrt(d[i] * d[j]))
        assert s[k] == pytest.approx(expected, abs=1e-12)


def test_static_similarity_symmetric_on_undirected():
    rng = np.random.default_rng(3)
    edges = [(i, j, float(rng.uniform(0.5, 2.0))) for i in range(6) for j in range(i + 1, 6)
             if rng.random() < 0.6]
    g = WeightedGraph(6, edges)
    s = similarity_static(g)
    table = {(i, j): v for i, j, v in zip(g.src.tolist(), g.dst.tolist(), s.tolist())}
    for (i, j), v in table.items():
        assert table[(j, i)] == v


def test_static_similarity_self_loop_can_clip():
    # heavy self loop: s_00 = 5 / 5 = 1 after clipping does not exceed one
    g = WeightedGraph(2, [(0, 0, 5.0), (0, 1, 1.0)])
    s = similarity_static(g)
    assert s.max() <= 1.0


def test_static_similarity_zero_degree():
    # directed sink: node 1 is touched by an arc but has no outgoing weight
    g = WeightedGraph(2, [(0, 1, 1.0)], directed=True)
    with pytest.raises(ZeroDegree):
        similarity_static(g)


@pytest.mark.parametrize("scale", [1e-170, 1e170, 1e-160],
                         ids=["underflow", "overflow", "subnormal"])
def test_static_similarity_keeps_the_degrees_at_any_weight_scale(scale):
    # The product of two degrees at these scales leaves the normal float range.
    unit = similarity_static(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = similarity_static(WeightedGraph(3, [(0, 1, scale), (1, 2, scale)]))
    assert np.all(np.abs(s - unit) <= 2 * np.spacing(unit))


def similarity_static_oracle(g):
    """similarity_static as it was: the degree check on np.union1d(src, dst)."""
    d = g.weighted_out_degree()
    touched = np.union1d(g.src, g.dst)
    if np.any(d[touched] <= 0.0):
        raise ZeroDegree("node with an arc has zero weighted degree")
    s = g.weight / np.sqrt(d[g.src] * d[g.dst])
    return np.clip(s, 0.0, 1.0)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=12, unique=True))
    directed = draw(st.booleans())
    if not directed:
        pairs = list({(min(i, j), max(i, j)) for i, j in pairs})
    weights = st.floats(1e-150, 1e150)
    return WeightedGraph(n, [(i, j, draw(weights)) for i, j in pairs], directed=directed)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_static_similarity_matches_union1d_oracle(g):
    try:
        want = similarity_static_oracle(g)
    except ZeroDegree:
        with pytest.raises(ZeroDegree):
            similarity_static(g)
        return
    assert similarity_static(g).tobytes() == want.tobytes()


def test_static_similarity_zero_degree_in_arcs_only():
    # node 2 has only an in-arc; every source has out-weight
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)], directed=True)
    with pytest.raises(ZeroDegree):
        similarity_static(g)


# ------------------------------------------------------ dynamic similarity


def similarity_dynamic_oracle(x, pairs, temperature=1.0):
    """similarity_dynamic as it was: both pairs x d row gathers at once."""
    x = np.asarray(x, dtype=np.float64)
    x = x[:, None] if x.ndim == 1 else x
    i_idx, j_idx = pairs
    norm = np.linalg.norm(x, axis=1)
    denom = norm[i_idx] * norm[j_idx]
    dot = np.einsum("...k,...k->...", np.take(x, i_idx, axis=0), np.take(x, j_idx, axis=0))
    cos = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0.0)
    s = 0.5 * (cos / temperature + 1.0)
    return np.clip(s, 0.0, 1.0)


@given(st.integers(1, 7), st.integers(1, 6), st.sampled_from([None, 1, 2, 3, 8]),
       st.integers(0, 40), st.floats(0.05, 4.0), st.data())
@settings(max_examples=200, deadline=None)
def test_dynamic_similarity_blocks_match_unblocked_oracle(block, n, d, pairs, temperature, data):
    shape = (n,) if d is None else (n, d)
    values = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
    x = np.array(data.draw(st.lists(values, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    index = st.lists(st.integers(0, n - 1), min_size=pairs, max_size=pairs).map(np.array)
    p = (data.draw(index).astype(np.int64), data.draw(index).astype(np.int64))
    with mock.patch.object(influence, "_PAIR_BLOCK", block):
        got = similarity_dynamic(x, p, temperature=temperature)
    assert got.tobytes() == similarity_dynamic_oracle(x, p, temperature=temperature).tobytes()


def test_dynamic_similarity_peak_memory_does_not_follow_the_gathers():
    # Quadrupling the pairs may grow the pair-sized outputs (a few floats per
    # pair), but not the two pairs x d row gathers (2 * d * 8 bytes per pair).
    rng = np.random.default_rng(0)
    n, d = 500, 16
    x = rng.standard_normal((n, d))

    def peak(pairs):
        i, j = rng.integers(0, n, pairs), rng.integers(0, n, pairs)
        tracemalloc.start()
        try:
            similarity_dynamic(x, (i, j))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(influence, "_PAIR_BLOCK", 256):
        small, large = peak(4096), peak(4 * 4096)
    assert (large - small) / (3 * 4096) < d * 8


def diag_pairs(n):
    idx = np.arange(n)
    return idx, idx


def test_dynamic_similarity_worked_values():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    i = np.array([0, 0, 0, 0])
    j = np.array([1, 2, 3, 4])
    s = similarity_dynamic(x, (i, j))
    assert s[0] == 1.0  # parallel
    assert s[1] == 0.0  # antipodal
    assert s[2] == 0.5  # orthogonal
    assert s[3] == 0.5  # zero row convention: cosine 0


def test_dynamic_similarity_one_column_state():
    # A 1-d state is one column per node: one value per pair, not one scalar.
    s = similarity_dynamic(np.array([1.0, -1.0, 2.0]), (np.array([0, 0]), np.array([1, 2])))
    assert s.tolist() == [0.0, 1.0]


def test_dynamic_similarity_temperature_sharpens():
    x = np.array([[1.0, 0.0], [np.cos(1.159), np.sin(1.159)]])  # cosine ~ 0.4
    pairs = (np.array([0]), np.array([1]))
    mild = similarity_dynamic(x, pairs, temperature=1.0)[0]
    sharp = similarity_dynamic(x, pairs, temperature=0.5)[0]
    assert mild == pytest.approx(0.7, abs=1e-3)
    assert sharp == pytest.approx(0.9, abs=1e-3)
    # low temperature saturates at the clip
    assert similarity_dynamic(x, pairs, temperature=0.1)[0] == 1.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_dynamic_similarity_bounded_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 3))
    x[0] = 0.0  # force the zero-row branch
    i, j = np.triu_indices(8, k=1)
    s_ij = similarity_dynamic(x, (i, j), temperature=0.7)
    s_ji = similarity_dynamic(x, (j, i), temperature=0.7)
    assert (s_ij >= 0.0).all() and (s_ij <= 1.0).all()
    assert np.array_equal(s_ij, s_ji)


def test_dynamic_similarity_scale_invariant():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 4))
    pairs = np.triu_indices(5, k=1)
    assert np.allclose(
        similarity_dynamic(x, pairs), similarity_dynamic(3.7 * x, pairs), atol=1e-12
    )
