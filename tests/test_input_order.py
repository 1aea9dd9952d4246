"""The input-order contract at the command line.

odyn stores every structure in canonical order, so the order in which input
rows arrive, the order of an undirected edge's endpoints and the order of a
config's JSON keys change no output byte. Each case runs a command in-process
on files in canonical order and on the same content shuffled, and compares
every output file but manifest.json, which records the inputs as given.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn.cli import main

WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0])


def write_csv(path, header, rows):
    path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows),
                    encoding="utf-8")
    return str(path)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def reversed_keys(obj):
    """obj with the key order of every object in it reversed."""
    if isinstance(obj, dict):
        return {key: reversed_keys(obj[key]) for key in reversed(list(obj))}
    if isinstance(obj, list):
        return [reversed_keys(value) for value in obj]
    return obj


def outputs(out):
    """{relative path: bytes} of every file under out but manifest.json."""
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def run_both(command, write_inputs, argv):
    """Run `command` on the canonical and the shuffled inputs; both outputs.

    write_inputs(directory, shuffled) writes one set of inputs and returns the
    {flag: path} to pass.
    """
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        for shuffled in (False, True):
            d = Path(tmp) / ("shuffled" if shuffled else "canonical")
            d.mkdir()
            flags = [str(a) for flag, path in write_inputs(d, shuffled).items()
                     for a in (flag, path)]
            assert main([command, *flags, *argv, "--out", str(d / "out")]) == 0
            got.append(outputs(d / "out"))
    return got


@st.composite
def graphs(draw):
    """Edge rows i < j in sorted order: a path through every node, so each has an
    edge, plus a few more edges."""
    n = draw(st.integers(3, 7))
    pairs = {(i, i + 1) for i in range(n - 1)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]), max_size=4))
    return [(i, j, draw(WEIGHTS)) for i, j in sorted(pairs)]


@st.composite
def labelled_graphs(draw):
    """(edge rows as graphs() draws them, label per node); every class in [0, k)
    labels a node."""
    rows = draw(graphs())
    n = 1 + rows[-1][1]  # the path's last edge ends at the last node
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return rows, [sorted(set(labels)).index(y) for y in labels]


def shuffled_edges(rows, rnd):
    """rows in a random order, each undirected edge's endpoints swapped at random."""
    edges = list(rows)
    rnd.shuffle(edges)
    return [(j, i, w) if rnd.random() < 0.5 else (i, j, w) for i, j, w in edges]


@given(labelled_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_classify_reads_any_row_and_endpoint_order_the_same(graph, rnd):
    rows, labels = graph
    cfg = {"eps1": 0.0, "eps2": 1.0, "scheme": "rk4", "h": 0.25, "t_end": 1.0}

    def write_inputs(d, shuffled):
        edges, label_rows = list(rows), list(enumerate(labels))
        if shuffled:
            edges = shuffled_edges(rows, rnd)
            rnd.shuffle(label_rows)
        return {"--graph": write_csv(d / "g.csv", "src,dst,weight", edges),
                "--labels": write_csv(d / "y.csv", "node,label", label_rows),
                "--config": write_json(d / "cfg.json", reversed_keys(cfg) if shuffled else cfg)}

    canonical, shuffled = run_both("classify", write_inputs, ["--seed", "3"])
    assert set(canonical) == {"predictions.csv", "accuracy.json"}
    assert shuffled == canonical


def graph_inputs(rows, cfg, rnd):
    """write_inputs for run_both: --graph and --config, shuffled as shuffled_edges and
    reversed_keys make them."""
    def write_inputs(d, shuffled):
        edges = shuffled_edges(rows, rnd) if shuffled else rows
        return {"--graph": write_csv(d / "g.csv", "src,dst,weight", edges),
                "--config": write_json(d / "cfg.json", reversed_keys(cfg) if shuffled else cfg)}
    return write_inputs


BAND = {"eps1": 0.2, "eps2": 0.7, "mu": 1.5, "nu": -0.5}
CONTINUOUS = {"kind": "odnet-continuous", **BAND, "scheme": "rk4", "h": 0.25, "t_end": 1.0,
              "init": "unit", "dim": 2}


@pytest.mark.parametrize("cfg", [
    CONTINUOUS,
    dict(CONTINUOUS, similarity="dynamic", temperature=0.5),
    {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0, "t_end": 4, "init": "uniform", "dim": 2},
], ids=["continuous-static", "continuous-dynamic", "discrete"])
@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_simulate_reads_any_row_endpoint_and_key_order_the_same(cfg, rows, rnd):
    canonical, shuffled = run_both("simulate", graph_inputs(rows, cfg, rnd), ["--seed", "2"])
    assert set(canonical) == {"trajectory.csv", "final_state.csv", "energy.csv"}
    assert shuffled == canonical


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_simplify_reads_any_row_endpoint_and_key_order_the_same(rows, rnd):
    cfg = {**BAND, "scheme": "rk4", "h": 0.25, "t_end": 1.0, "dim": 2, "cutoff": 0.3}
    canonical, shuffled = run_both("simplify", graph_inputs(rows, cfg, rnd), ["--seed", "4"])
    assert set(canonical) == {"simplified.csv", "report.json"}
    assert shuffled == canonical


@st.composite
def hypergraphs(draw):
    """Membership rows sorted by hyperedge, then node; each hyperedge non-empty."""
    n = draw(st.integers(3, 6))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                          min_size=1, max_size=4))
    return [(v, e, draw(WEIGHTS)) for e, members in enumerate(edges) for v in sorted(members)]


@given(hypergraphs(), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_energy_reads_any_membership_and_key_order_the_same(rows, rnd):
    cfg = {"scheme": "rk4", "h": 0.1, "t_end": 1.0, "init": "unit", "dim": 2, "runs": [
        {"name": "odnet", "kind": "hypergraph-odnet", "eps1": 0.0, "eps2": 1.0,
         "similarity": "dynamic"},
        {"name": "diffusion", "kind": "hypergraph-diffusion", "kernel": "uniform"}]}

    def write_inputs(d, shuffled):
        memberships = list(rows)
        if shuffled:
            rnd.shuffle(memberships)
        return {"--hypergraph": write_csv(d / "h.csv", "node,hyperedge,weight", memberships),
                "--config": write_json(d / "cfg.json", reversed_keys(cfg) if shuffled else cfg)}

    canonical, shuffled = run_both("energy", write_inputs, ["--seed", "5"])
    assert set(canonical) == {"energy_odnet.csv", "energy_diffusion.csv", "summary.json"}
    assert shuffled == canonical


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_sweep_reads_any_row_endpoint_and_key_order_the_same(rows, rnd):
    # Keys are reversed in base and sweep alike; the order of the values names the runs.
    cfg = {"base": CONTINUOUS, "sweep": {"param": "mu", "values": [1.5, 3.0]}}
    canonical, shuffled = run_both("sweep", graph_inputs(rows, cfg, rnd), ["--seed", "6"])
    assert set(canonical) == {"index.json", *(f"run_000{i}/{name}" for i in (0, 1) for name in (
        "config.json", "trajectory.csv", "final_state.csv", "energy.csv"))}
    assert shuffled == canonical
