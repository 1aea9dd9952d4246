"""Seeded input generators for the benchmark.

Nothing here imports odyn: the inputs of every workload must stay the same
when the program changes (a faster `generate_sbm`, say). Memory is O(edges):
each block pair draws its edge count binomially and then samples that many
distinct pair positions (Batagelj & Brandes 2005), so no N x N array is
ever built.

Files use the repo's CSV formats: `src,dst,weight`, `node,hyperedge,weight`
and `node,label`. Weights are written with repr so they round-trip exactly.
"""

from __future__ import annotations

import numpy as np


def _triangle_pairs(idx):
    """Invert the enumeration idx = j(j-1)/2 + i of pairs 0 <= i < j."""
    j = np.floor((1.0 + np.sqrt(1.0 + 8.0 * idx.astype(np.float64))) / 2.0).astype(np.int64)
    j -= (j * (j - 1) // 2) > idx
    j += ((j + 1) * j // 2) <= idx
    return idx - j * (j - 1) // 2, j


def sbm_edges(sizes, p_in, p_out, rng):
    """Undirected SBM edges (i < j), sorted, as two int64 arrays.

    Returns (src, dst, labels). Each block pair draws Binomial(pairs, p)
    edges and then that many distinct positions.
    """
    sizes = [int(s) for s in sizes]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    src, dst = [], []
    for a, na in enumerate(sizes):
        for b in range(a, len(sizes)):
            nb = sizes[b]
            pairs = na * (na - 1) // 2 if a == b else na * nb
            k = int(rng.binomial(pairs, p_in if a == b else p_out))
            idx = np.sort(rng.choice(pairs, size=k, replace=False)).astype(np.int64)
            if a == b:
                i, j = _triangle_pairs(idx)
            else:
                i, j = idx // nb, idx % nb
            src.append(i + starts[a])
            dst.append(j + starts[b])
    src, dst = np.concatenate(src), np.concatenate(dst)
    order = np.lexsort((dst, src))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return src[order], dst[order], labels


def write_graph(path, src, dst, weight):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst,weight\n")
        fh.writelines(f"{s},{d},{w!r}\n" for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist()))


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,label\n")
        fh.writelines(f"{n},{lab}\n" for n, lab in enumerate(labels.tolist()))


def weighted_sbm(sizes, p_in, p_out, rng):
    """SBM edges (i < j) with weights uniform in [0.5, 1.5), plus labels.

    Every node is given at least one edge (to its successor in its block),
    so the node count of the edge list equals sum(sizes).
    """
    src, dst, labels = sbm_edges(sizes, p_in, p_out, rng)
    n = int(labels.size)
    chain = np.flatnonzero(labels[:-1] == labels[1:])
    key = np.unique(np.concatenate([src * n + dst, chain * n + chain + 1]))
    return key // n, key % n, 0.5 + rng.random(key.size), labels


def sbm_graph(path, sizes, p_in, p_out, seed, labels_path=None):
    """Write a weighted SBM edge list (see weighted_sbm); returns the edge count."""
    src, dst, weight, labels = weighted_sbm(sizes, p_in, p_out, np.random.default_rng(seed))
    write_graph(path, src, dst, weight)
    if labels_path is not None:
        write_labels(labels_path, labels)
    return int(src.size)


def block_hypergraph(path, node_count, edge_count, mean_size, seed, blocks=2, p_cross=0.1):
    """Write memberships of a planted-block hypergraph.

    Every node joins at least one hyperedge, so the node count read back is
    node_count. Hyperedge sizes are 2 + Poisson(mean_size - 2); a member
    comes from outside the hyperedge's block with probability p_cross.
    """
    rng = np.random.default_rng(seed)
    block_of_node = np.arange(node_count) * blocks // node_count
    block_of_edge = np.arange(edge_count) * blocks // edge_count
    pools = [np.flatnonzero(block_of_node == b) for b in range(blocks)]
    members = [set() for _ in range(edge_count)]
    for b in range(blocks):
        nodes = rng.permutation(pools[b])
        edges = np.flatnonzero(block_of_edge == b)
        for k, node in enumerate(nodes.tolist()):
            members[int(edges[k % edges.size])].add(node)
    sizes = 2 + rng.poisson(mean_size - 2.0, edge_count)
    for e in range(edge_count):
        while len(members[e]) < sizes[e]:
            b = block_of_edge[e] if rng.random() >= p_cross else int(rng.integers(blocks))
            members[e].add(int(pools[b][rng.integers(pools[b].size)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,hyperedge,weight\n")
        for e, nodes in enumerate(members):
            for node in sorted(nodes):
                fh.write(f"{node},{e},{0.5 + rng.random()!r}\n")
