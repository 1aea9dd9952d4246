"""Network simplification and influencer labeling.

simplify_network runs the influence dynamics from seeded pseudo-features,
re-scores every edge through the influence function, rescales to [0, 1] and
drops weak edges (and, optionally, the nodes they leave isolated).
label_by_degree buckets nodes by connection count; propagate_labels runs the
dynamics as a semi-supervised classifier with one-hot anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMask
from .graphs import NodeLabels, WeightedGraph
from .influence import InfluenceConfig, SimilaritySpec, phi, similarity_dynamic, similarity_static
from .integrators import IntegratorConfig, integrate
from .dynamics import make_odnet_rhs

__all__ = [
    "SimplifyConfig",
    "SimplifyReport",
    "InfluencerLabeling",
    "ClassifyResult",
    "pseudo_features",
    "simplify_network",
    "label_by_degree",
    "propagate_labels",
]

SIMILARITY_SOURCES = ("dynamic-final", "static")


@dataclass(frozen=True)
class SimplifyConfig:
    """Knobs for simplify_network.

    source picks the similarity used for re-scoring: "dynamic-final" runs
    the dynamics on pseudo-features (message passing weighted by the static
    similarity of the given graph) and scores with cosine similarity of the
    final state; "static" scores with the degree-normalized weights directly
    and the dynamics are skipped (they would not alter the score).
    """

    influence: InfluenceConfig
    integrator: IntegratorConfig = field(default_factory=lambda: IntegratorConfig(t_end=6.0))
    weight_cutoff: float = 0.05
    drop_isolated: bool = True
    source: str = "dynamic-final"
    feature_dim: int = 20

    def __post_init__(self):
        if self.source not in SIMILARITY_SOURCES:
            raise ValueError(f"source must be one of {SIMILARITY_SOURCES}")
        if self.weight_cutoff < 0.0:
            raise ValueError("weight_cutoff must be >= 0")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")


@dataclass(frozen=True)
class SimplifyReport:
    """Before/after counts; node identities are preserved in the output."""

    nodes_before: int
    edges_before: int
    nodes_after: int
    edges_after: int
    cutoff: float

    def to_json(self):
        return {
            "nodes_before": self.nodes_before,
            "edges_before": self.edges_before,
            "nodes_after": self.nodes_after,
            "edges_after": self.edges_after,
            "cutoff": self.cutoff,
        }


@dataclass(frozen=True)
class InfluencerLabeling:
    """Per-node influence tier derived from unweighted degree."""

    low: int
    high: int
    labels: tuple

    def counts(self):
        out = {"weak": 0, "medium": 0, "strong": 0}
        for name in self.labels:
            out[name] += 1
        return out


@dataclass
class ClassifyResult:
    """Argmax predictions plus accuracy per available split."""

    predictions: np.ndarray
    accuracy: dict


def pseudo_features(node_count, dim=20, seed=0):
    """Deterministic unit-norm feature rows (Gaussian directions)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((node_count, dim))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return x / norms


def _final_state(g, cfg, seed):
    """Final state of simplify_network's dynamics; the trajectory is dropped here.

    integrate and make_odnet_rhs are called through this module's names,
    which perfbench's traced run rebinds.
    """
    x0 = pseudo_features(g.node_count, cfg.feature_dim, seed)
    rhs = make_odnet_rhs(g, cfg.influence, SimilaritySpec("static"))
    return integrate(rhs, x0, cfg.integrator).final_state


def simplify_network(g, cfg, seed=0):
    """Re-score edges through the influence function and drop weak ones.

    Steps: (1) seed unit-norm pseudo-features, (2) integrate the influence
    dynamics (dynamic-final source only), (3) score each edge by the chosen
    similarity, (4) map scores through the influence function, clamp at zero
    and rescale by the max, (5) drop edges at or below the cutoff, (6) count
    out nodes left without an edge when drop_isolated is set.

    The output graph keeps the original node numbering (dropped nodes simply
    have no incident edge left); the report carries the counts.
    """
    if cfg.source == "dynamic-final":
        # The run's states and operator are gone before the pairs are taken.
        final_state = _final_state(g, cfg, seed)
        src, dst, _ = g.undirected_pairs()
        s = similarity_dynamic(final_state, (src, dst))
    else:
        src, dst, _ = g.undirected_pairs()
        s_arc = similarity_static(g)
        keep = g.src <= g.dst if not g.directed else slice(None)
        s = s_arc[keep]

    score = np.maximum(phi(cfg.influence, s), 0.0)
    top = float(score.max()) if score.size else 0.0
    if top > 0.0:
        score = score / top

    kept = score > cfg.weight_cutoff
    out = WeightedGraph.from_arrays(g.node_count, src[kept], dst[kept], score[kept],
                                    directed=g.directed)

    nodes_after = g.node_count
    if cfg.drop_isolated:
        nodes_after = int(np.union1d(out.src, out.dst).size)
    report = SimplifyReport(
        nodes_before=g.node_count,
        edges_before=g.edge_count,
        nodes_after=nodes_after,
        edges_after=out.edge_count,
        cutoff=cfg.weight_cutoff,
    )
    return out, report


def label_by_degree(g, cutoffs=(20, 60)):
    """Bucket nodes into weak/medium/strong influencers by degree.

    degree < low -> weak; low <= degree <= high -> medium; degree > high
    -> strong.
    """
    low, high = int(cutoffs[0]), int(cutoffs[1])
    if not (0 <= low <= high):
        raise ValueError("cutoffs must satisfy 0 <= low <= high")
    degree = np.bincount(g.src[g.src != g.dst], minlength=g.node_count)
    names = np.where(degree < low, "weak", np.where(degree <= high, "medium", "strong"))
    return InfluencerLabeling(low=low, high=high, labels=tuple(names.tolist()))


def propagate_labels(g, labels, influence, integrator, similarity=SimilaritySpec("static")):
    """Semi-supervised classification by anchored influence dynamics.

    Train rows start one-hot and are clamped back after every recorded step;
    all other rows start at zero. Prediction is the argmax per row of the
    final state (ties resolve to the lowest class index). Returns
    predictions and accuracy for each split present on `labels`.
    """
    if labels.train is None or labels.train.size == 0:
        raise EmptyMask("propagate_labels needs a nonempty train mask")
    train = labels.train
    present = np.unique(labels.labels[train])
    if present.size < labels.class_count:
        missing = sorted(set(range(labels.class_count)) - set(present.tolist()))
        raise EmptyMask(f"train mask lacks class(es) {missing}")

    onehot = np.zeros((labels.node_count, labels.class_count))
    onehot[train, labels.labels[train]] = 1.0
    anchors = onehot[train].copy()

    def clamp(x):
        x = np.array(x, dtype=np.float64)
        x[train] = anchors
        return x

    rhs = make_odnet_rhs(g, influence, similarity)
    traj = integrate(rhs, onehot, integrator, post_step=clamp)
    preds = np.argmax(traj.final_state, axis=1)

    accuracy = {}
    for name in ("train", "val", "test"):
        mask = getattr(labels, name)
        if mask is not None and mask.size:
            accuracy[name] = float(np.mean(preds[mask] == labels.labels[mask]))
    return ClassifyResult(predictions=preds, accuracy=accuracy)
