"""Bounded-confidence influence weights and similarity measures.

The influence function maps a pairwise similarity s in [0, 1] to a coupling
weight. Below the lower confidence bound the coupling is zero (attract mode)
or repulsive (attract-repulse mode); inside the confidence band it is the
identity; above the upper bound it is amplified by mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._state import config_fields, to_matrix
from .errors import OutOfRangeSimilarity, ZeroDegree

__all__ = [
    "InfluenceConfig",
    "SimilaritySpec",
    "phi",
    "similarity_static",
    "similarity_dynamic",
]

MODES = ("attract", "attract-repulse")

STATIC = "static-normalized-adjacency"
DYNAMIC = "dynamic-cosine"
_KIND_ALIASES = {"static": STATIC, "dynamic": DYNAMIC, STATIC: STATIC, DYNAMIC: DYNAMIC}

# Pairs per gather in similarity_dynamic.
_PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class InfluenceConfig:
    """Piecewise influence profile plus the control strength lam.

    eps1 <= eps2 bound the confidence band. In attract mode nu is ignored
    (treated as zero); in attract-repulse mode mu must be positive and nu
    nonpositive (nu == 0 is allowed so ablations can switch repulsion off).
    """

    eps1: float
    eps2: float
    mu: float = 1.0
    nu: float = 0.0
    lam: float = field(default=0.0, metadata={"key": "lambda"})
    mode: str = "attract"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (0.0 <= self.eps1 <= self.eps2 <= 1.0):
            raise ValueError("need 0 <= eps1 <= eps2 <= 1")
        if self.lam < 0.0:
            raise ValueError("control strength lam must be >= 0")
        if self.mode == "attract-repulse":
            if self.mu <= 0.0:
                raise ValueError("attract-repulse mode needs mu > 0")
            if self.nu > 0.0:
                raise ValueError("attract-repulse mode needs nu <= 0")

    @classmethod
    def from_json(cls, obj):
        """The config from a flat JSON object: eps1 and eps2 required, `lambda` for
        lam; each absent key keeps its field's default."""
        return cls(**config_fields(cls, obj))

    def with_nu(self, nu):
        """Copy with a different repulsion strength (ablation helper)."""
        return replace(self, nu=nu)


@dataclass(frozen=True)
class SimilaritySpec:
    """Choice of similarity measure driving the influence function.

    kind is the canonical name ("static-normalized-adjacency" or
    "dynamic-cosine"; the short aliases "static" and "dynamic" are accepted).
    temperature divides the cosine before the affine map to [0, 1] and only
    applies to the dynamic kind; values are clipped back into [0, 1].
    """

    kind: str = field(default=STATIC, metadata={"key": "similarity"})
    temperature: float = 1.0

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    @property
    def is_dynamic(self):
        return self.kind == DYNAMIC


def phi(cfg, s):
    """Influence weight for similarity s (scalar or array), vectorized.

    attract:          mu * s  if s > eps2;  s  if eps1 <= s <= eps2;  0 else
    attract-repulse:  same upper branches;  nu * (1 - s) below the band
    """
    arr = np.asarray(s, dtype=np.float64)
    if arr.size and not (np.min(arr) >= 0.0 and np.max(arr) <= 1.0):  # NaN fails both
        raise OutOfRangeSimilarity("similarity outside [0, 1]")
    nu = cfg.nu if cfg.mode == "attract-repulse" else 0.0
    below = nu * (1.0 - arr)
    out = np.where(arr > cfg.eps2, cfg.mu * arr, np.where(arr >= cfg.eps1, arr, below))
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


def similarity_static(g):
    """Normalized-adjacency similarity per stored arc.

    s_ij = w_ij / sqrt(d_i * d_j) with weighted degrees d, clipped to [0, 1].
    Expects an undirected (or pre-symmetrized) graph; defined only on arcs
    that exist. Returned array is aligned with g.src / g.dst.
    """
    d = g.weighted_out_degree()
    d_src, d_dst = d[g.src], d[g.dst]
    if np.any(d_src <= 0.0) or np.any(d_dst <= 0.0):
        raise ZeroDegree("node with an arc has zero weighted degree")
    with np.errstate(over="ignore"):
        root = np.sqrt(d_src * d_dst)
    # Where the product left the normal float range, so its root is below sqrt(tiny)
    # = 2**-511 or infinite, it lost the degrees; there each degree's root is taken
    # apart. Two reductions find whether any arc did.
    low = np.sqrt(np.finfo(float).tiny)
    if root.size and not (root.min() >= low and root.max() < np.inf):
        lost = ~((root >= low) & (root < np.inf))
        root[lost] = np.sqrt(d_src[lost]) * np.sqrt(d_dst[lost])
    return np.clip(np.divide(g.weight, root, out=root), 0.0, 1.0)


def similarity_dynamic(x, pairs, temperature=1.0):
    """Cosine similarity of state rows mapped affinely into [0, 1].

    pairs is an (i_idx, j_idx) pair of index arrays. A 1-d state is one
    column per node. Zero rows have cosine zero by convention, i.e.
    similarity one half. A temperature below one sharpens the map; results
    are clipped to [0, 1].
    """
    x, _ = to_matrix(x)
    i_idx, j_idx = pairs
    norm = np.linalg.norm(x, axis=1)
    denom = norm[i_idx] * norm[j_idx]
    # The row gathers are pairs x d; taking them a block of pairs at a time
    # keeps them a few MB, and each dot is the same sum over k.
    dot = np.empty(denom.shape)
    for lo in range(0, dot.size, _PAIR_BLOCK):
        hi = lo + _PAIR_BLOCK
        np.einsum("ik,ik->i", np.take(x, i_idx[lo:hi], axis=0), np.take(x, j_idx[lo:hi], axis=0),
                  out=dot[lo:hi])
    cos = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0.0)
    s = 0.5 * (cos / temperature + 1.0)
    return np.clip(s, 0.0, 1.0)
