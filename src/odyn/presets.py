"""Reference influence settings and deterministic synthetic fixtures.

The influence presets are published tunings for well-known benchmark
datasets (graph datasets first, hypergraph co-occurrence variants below).
Each entry is (eps1, eps2, horizon, nu, mu), as published. A negative nu
repels below the band; influence_preset reads a positive one as 0, which
cuts those arcs.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedGraph, generate_sbm
from .influence import InfluenceConfig

__all__ = [
    "INFLUENCE_PRESETS",
    "influence_preset",
    "planted_two_block_fixture",
]

#                        eps1   eps2   T     nu    mu
INFLUENCE_PRESETS = {
    "cora":             (0.012, 0.40, 12.0,   0.0,  1.4),
    "citeseer":         (0.01,  0.90, 10.0,   0.0,  3.0),
    "pubmed":           (0.01,  0.40, 20.0,   0.0,  2.2),
    "coauthor-cs":      (0.01,  0.40, 15.0,   0.0,  1.7),
    "computer":         (0.01,  0.50, 15.0,   0.0,  5.0),
    "photo":            (0.01,  0.40, 12.0,   0.0, 10.0),
    "texas":            (0.50,  0.80, 12.0, -50.0,  1.0),
    "wisconsin":        (0.60,  0.80, 12.0, -10.0,  2.0),
    "cornell":          (0.12,  0.40, 12.0,   0.0,  2.0),
    "cora-coauthor":    (0.0,   1.0,   0.1,   1.0,  1.0),
    "cora-cocitation":  (0.0,   1.0,   0.1,   1.0,  1.0),
    "pubmed-cocitation": (0.0,  1.0,   0.1,   1.0,  1.0),
    "citeseer-cocitation": (0.0, 1.0,  0.1,   1.5,  1.0),
}


def influence_preset(name, lam=0.0):
    """InfluenceConfig for a named preset; lam is a run-level choice."""
    eps1, eps2, _, nu, mu = INFLUENCE_PRESETS[name]
    return InfluenceConfig(eps1=eps1, eps2=eps2, mu=mu, nu=min(nu, 0.0), lam=lam)


def planted_two_block_fixture(block_size=30, seed=7):
    """Two-block weighted graph with strong in-block and weak cross ties.

    In-block edges draw weights from [0.7, 1.0], cross-block edges from
    [0.05, 0.15]. Used to exercise simplification: a cutoff between the two
    resulting similarity scales should sever every cross-block edge.
    """
    g, labels = generate_sbm([block_size, block_size], p_in=0.25, p_out=0.08, seed=seed)
    rng = np.random.default_rng(seed + 1)
    src, dst, _ = g.undirected_pairs()
    same = labels.labels[src] == labels.labels[dst]
    w = np.where(
        same,
        0.7 + 0.3 * rng.random(src.size),
        0.05 + 0.10 * rng.random(src.size),
    )
    return WeightedGraph.from_arrays(g.node_count, src, dst, w, directed=False), labels
