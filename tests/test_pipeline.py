"""Network simplification, influencer tiers, label propagation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn import (
    EmptyMask,
    InfluenceConfig,
    IntegratorConfig,
    NodeLabels,
    SimplifyConfig,
    WeightedGraph,
    generate_sbm,
    label_by_degree,
    phi,
    planted_two_block_fixture,
    propagate_labels,
    pseudo_features,
    similarity_static,
    simplify_network,
    split_masks,
)

from conftest import cooccurrence_fixture, degree, random_digraph

WIDE_BAND = InfluenceConfig(eps1=0.0, eps2=1.0)


# --------------------------------------------------------------- features


def test_pseudo_features_unit_rows():
    x = pseudo_features(12, dim=20, seed=3)
    assert x.shape == (12, 20)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)


def test_pseudo_features_deterministic():
    assert np.array_equal(pseudo_features(5, 7, seed=1), pseudo_features(5, 7, seed=1))
    assert not np.array_equal(pseudo_features(5, 7, seed=1),
                              pseudo_features(5, 7, seed=2))


# --------------------------------------------------------------- simplify


def test_simplify_config_validation():
    with pytest.raises(ValueError):
        SimplifyConfig(influence=WIDE_BAND, source="attention")
    with pytest.raises(ValueError):
        SimplifyConfig(influence=WIDE_BAND, weight_cutoff=-0.1)
    with pytest.raises(ValueError):
        SimplifyConfig(influence=WIDE_BAND, feature_dim=0)


def test_simplify_zero_cutoff_keeps_every_edge():
    g, _ = generate_sbm([6, 6], 0.5, 0.2, seed=1)
    cfg = SimplifyConfig(influence=WIDE_BAND, weight_cutoff=0.0,
                         integrator=IntegratorConfig(scheme="rk4", h=0.5, t_end=2.0))
    out, report = simplify_network(g, cfg, seed=0)
    assert report.edges_after == report.edges_before == g.edge_count
    assert report.nodes_after == g.node_count
    src_a, dst_a, _ = g.undirected_pairs()
    src_b, dst_b, _ = out.undirected_pairs()
    assert np.array_equal(src_a, src_b) and np.array_equal(dst_a, dst_b)


def test_simplify_static_source_thresholds_degree_normalized_weights():
    # star: every edge scores 0.5 before rescaling, so all survive together
    g = WeightedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
    cfg = SimplifyConfig(influence=WIDE_BAND, source="static", weight_cutoff=0.9)
    out, report = simplify_network(g, cfg)
    assert report.edges_after == 4  # max-rescaled scores are all exactly 1
    cfg_tight = SimplifyConfig(influence=InfluenceConfig(eps1=0.6, eps2=1.0),
                               source="static", weight_cutoff=0.0)
    out, report = simplify_network(g, cfg_tight)
    assert report.edges_after == 0  # phi zeroes everything below eps1
    assert report.nodes_after == 0


def test_simplify_respects_phi_cutoffs_not_just_rescaling():
    # two components with different weights: w = 1 pair and w = 0.1 pair
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 0.1)])
    # static similarity is 1.0 for both pairs (single-edge normalization)
    cfg = SimplifyConfig(influence=WIDE_BAND, source="static", weight_cutoff=0.99)
    out, report = simplify_network(g, cfg)
    assert report.edges_after == 2


def test_simplify_planted_two_block_severs_cross_edges():
    g, labels = planted_two_block_fixture()
    cfg = SimplifyConfig(
        influence=InfluenceConfig(eps1=0.05, eps2=0.9, mu=1.4),
        integrator=IntegratorConfig(scheme="dopri5", t_end=6.0),
        weight_cutoff=0.7,
    )
    out, report = simplify_network(g, cfg, seed=0)
    src, dst, _ = out.undirected_pairs()
    same = labels.labels[src] == labels.labels[dst]
    assert int((~same).sum()) == 0  # every cross-block edge dropped
    total_in = int((labels.labels[g.undirected_pairs()[0]]
                    == labels.labels[g.undirected_pairs()[1]]).sum())
    assert int(same.sum()) >= 0.9 * total_in
    assert report.nodes_after == g.node_count  # no node isolated here


def test_simplify_counts_isolated_nodes():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    # eps1 = 0.6 kills nothing (s = 1 on both), cutoff 2.0 kills everything
    cfg = SimplifyConfig(influence=WIDE_BAND, source="static", weight_cutoff=2.0)
    out, report = simplify_network(g, cfg)
    assert report.edges_after == 0
    assert report.nodes_after == 0


def test_simplify_deterministic_in_seed():
    g, _ = generate_sbm([8, 8], 0.4, 0.1, seed=5)
    cfg = SimplifyConfig(influence=InfluenceConfig(eps1=0.01, eps2=0.9),
                         integrator=IntegratorConfig(scheme="rk4", h=0.5, t_end=3.0),
                         weight_cutoff=0.3)
    a, ra = simplify_network(g, cfg, seed=11)
    b, rb = simplify_network(g, cfg, seed=11)
    assert a == b and ra == rb


def test_simplify_report_json_keys():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    cfg = SimplifyConfig(influence=WIDE_BAND, source="static")
    _, report = simplify_network(g, cfg)
    assert report.to_json() == {
        "nodes_before": 2,
        "edges_before": 1,
        "nodes_after": 2,
        "edges_after": 1,
        "cutoff": 0.05,
    }


def test_cooccurrence_fixture_shape():
    g = cooccurrence_fixture()
    assert g.node_count == 96
    assert g.edge_count == 2517
    w = g.weight
    assert w.min() > 0.0 and w.max() <= 1.0
    cfg = SimplifyConfig(influence=WIDE_BAND, source="static")
    _, report = simplify_network(g, cfg)
    assert report.nodes_before == 96
    assert report.edges_before == 2517


# ---------------------------------------------------------- degree tiers


def star(leaves):
    return WeightedGraph(leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])


def test_label_by_degree_worked_examples():
    tiers = label_by_degree(star(30))
    assert tiers.labels[0] == "medium"  # degree 30 falls inside [20, 60]
    assert tiers.labels[1] == "weak"
    tiers = label_by_degree(star(20))
    assert tiers.labels[0] == "medium"  # low cutoff is inclusive
    tiers = label_by_degree(star(19))
    assert tiers.labels[0] == "weak"
    tiers = label_by_degree(star(61))
    assert tiers.labels[0] == "strong"
    tiers = label_by_degree(star(60))
    assert tiers.labels[0] == "medium"  # high cutoff is inclusive


def test_label_by_degree_custom_cutoffs_and_counts():
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)])
    tiers = label_by_degree(g, cutoffs=(2, 2))
    assert tiers.labels == ("strong", "medium", "medium", "weak")
    assert tiers.counts() == {"weak": 1, "medium": 2, "strong": 1}


def test_label_by_degree_rejects_bad_cutoffs():
    with pytest.raises(ValueError):
        label_by_degree(star(3), cutoffs=(5, 2))


def test_cooccurrence_fixture_has_all_three_tiers():
    tiers = label_by_degree(cooccurrence_fixture())
    counts = tiers.counts()
    assert counts["weak"] > 0 and counts["medium"] > 0 and counts["strong"] > 0
    assert sum(counts.values()) == 96


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_label_by_degree_partitions_nodes(seed):
    g, _ = generate_sbm([10, 10], 0.4, 0.2, seed=seed % 10_000)
    tiers = label_by_degree(g, cutoffs=(3, 7))
    assert len(tiers.labels) == 20
    assert sum(tiers.counts().values()) == 20


def label_by_degree_loop_oracle(g, low, high):
    """The per-node loop over degree(i) that label_by_degree replaces."""
    names = []
    for i in range(g.node_count):
        d = degree(g, i)
        names.append("weak" if d < low else "medium" if d <= high else "strong")
    return tuple(names)


@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_label_by_degree_equals_per_node_loop(seed, low, width, self_loops):
    g = random_digraph(seed, extra=1.5, self_loops=self_loops)
    tiers = label_by_degree(g, cutoffs=(low, low + width))
    assert tiers.labels == label_by_degree_loop_oracle(g, low, low + width)
    assert all(type(name) is str for name in tiers.labels)


# ---------------------------------------------------------- propagation


def two_cliques(k=4):
    edges = [(i, j, 1.0) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j, 1.0) for i in range(k) for j in range(i + 1, k)]
    g = WeightedGraph(2 * k, edges)
    labels = NodeLabels(
        np.array([0] * k + [1] * k),
        2,
        train=np.array([0, k]),
        test=np.array([i for i in range(2 * k) if i not in (0, k)]),
    )
    return g, labels


def test_propagate_labels_two_cliques_perfect():
    g, labels = two_cliques()
    cfg = InfluenceConfig(eps1=0.01, eps2=0.9)
    res = propagate_labels(g, labels, cfg,
                           IntegratorConfig(scheme="rk4", h=0.25, t_end=4.0))
    assert res.accuracy["test"] == 1.0
    assert res.accuracy["train"] == 1.0
    assert res.predictions.tolist() == labels.labels.tolist()


def test_propagate_labels_anchors_never_drift():
    g, labels = two_cliques()
    cfg = InfluenceConfig(eps1=0.01, eps2=0.9, lam=0.4)  # control shrinks scores
    res = propagate_labels(g, labels, cfg,
                           IntegratorConfig(scheme="rk4", h=0.25, t_end=4.0))
    assert (res.predictions[labels.train] == labels.labels[labels.train]).all()


def test_propagate_labels_homophilic_sbm():
    g, labels = generate_sbm([50, 50], 0.20, 0.02, seed=0)
    labels = split_masks(labels, train_frac=0.1, val_frac=0.1, seed=0)
    cfg = InfluenceConfig(eps1=0.012, eps2=0.40, mu=1.4)
    res = propagate_labels(g, labels, cfg,
                           IntegratorConfig(scheme="rk4", h=0.25, t_end=5.0))
    assert res.accuracy["test"] >= 0.85
    assert set(res.accuracy) == {"train", "val", "test"}


def test_propagate_labels_repulsion_separates_heterophilic_blocks():
    g, labels = generate_sbm([30, 30], 0.02, 0.25, seed=3)
    labels = split_masks(labels, train_frac=0.1, val_frac=0.0, seed=3)
    integ = IntegratorConfig(scheme="rk4", h=0.1, t_end=3.0)
    repulse = InfluenceConfig(eps1=0.5, eps2=0.8, nu=-0.5, lam=0.1)
    res = propagate_labels(g, labels, repulse, integ)
    ablated = propagate_labels(g, labels, replace(repulse, nu=0.0), integ)
    assert res.accuracy["test"] > ablated.accuracy["test"] + 0.05


def test_propagate_labels_empty_train_mask():
    g, labels = two_cliques()
    bare = NodeLabels(labels.labels, 2)
    with pytest.raises(EmptyMask):
        propagate_labels(g, bare, WIDE_BAND, IntegratorConfig())
    missing = NodeLabels(labels.labels, 2, train=np.array([0, 1]))  # class 1 absent
    with pytest.raises(EmptyMask, match="class"):
        propagate_labels(g, missing, WIDE_BAND, IntegratorConfig())


def test_propagate_labels_argmax_breaks_ties_low():
    # isolated test node receives no signal: all-zero row, argmax gives 0
    g = WeightedGraph(3, [(0, 1, 1.0)])
    labels = NodeLabels(np.array([0, 1, 1]), 2, train=np.array([0, 1]),
                        test=np.array([2]))
    res = propagate_labels(g, labels, WIDE_BAND,
                           IntegratorConfig(scheme="rk4", h=0.5, t_end=1.0))
    assert res.predictions[2] == 0
    assert res.accuracy["test"] == 0.0
