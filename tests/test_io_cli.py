"""CSV/JSON persistence and the command-line surface.

File formats are load-bearing: reruns must be byte-identical, so the
writers are pinned down to exact text, not just parseable text.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import odyn.errors as odyn_errors
import odyn.io as odyn_io
from odyn import (
    CsvFormatError,
    Hypergraph,
    NodeLabels,
    WeightedGraph,
    dirichlet_energy_hypergraph,
    generate_sbm,
    hk_step,
    pseudo_features,
    read_graph_csv,
    read_hypergraph_csv,
    read_labels_csv,
    read_state_csv,
    write_energy_csv,
    write_graph_csv,
    write_hypergraph_csv,
    write_json,
    write_labels_csv,
    write_state_csv,
    write_trajectory_csv,
)
from odyn.cli import main

from conftest import degree, membership_weight


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- CSV files


def test_graph_csv_round_trip_directed(tmp_path):
    g = WeightedGraph(4, [(0, 1, 0.25), (1, 0, 1.0), (2, 3, 0.7071067811865476)],
                      directed=True)
    path = tmp_path / "g.csv"
    write_graph_csv(path, g)
    back = read_graph_csv(path, directed=True)
    assert back.node_count == 4
    assert back.directed
    assert np.array_equal(back.src, g.src)
    assert np.array_equal(back.dst, g.dst)
    assert np.array_equal(back.weight, g.weight)


def test_graph_csv_undirected_edges_written_once(tmp_path):
    g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)], directed=False)
    path = tmp_path / "tri.csv"
    write_graph_csv(path, g)
    lines = path.read_text().splitlines()
    assert lines[0] == "src,dst,weight"
    assert len(lines) == 4
    back = read_graph_csv(path)
    assert not back.directed
    for mine, theirs in zip(back.undirected_pairs(), g.undirected_pairs()):
        assert np.array_equal(mine, theirs)


def test_graph_csv_node_count_inference_and_padding(tmp_path):
    path = write_text(tmp_path / "g.csv", "src,dst,weight\n0,5,1.0\n")
    assert read_graph_csv(path).node_count == 6
    padded = read_graph_csv(path, node_count=9)
    assert padded.node_count == 9
    assert degree(padded, 8) == 0


def test_graph_csv_header_mismatch_blames_line_one(tmp_path):
    path = write_text(tmp_path / "g.csv", "source,target,weight\n0,1,1.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_graph_csv(path)
    assert err.value.line == 1


def test_graph_csv_bad_row_carries_line_number(tmp_path):
    path = write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,1.0\n1,2\n")
    with pytest.raises(CsvFormatError) as err:
        read_graph_csv(path)
    assert err.value.line == 3


def test_graph_csv_non_numeric_weight_rejected(tmp_path):
    path = write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,heavy\n")
    with pytest.raises(CsvFormatError) as err:
        read_graph_csv(path)
    assert err.value.line == 2


def test_oversize_csv_field_is_a_located_format_error(tmp_path, capsys):
    # 200k characters is past the csv module's field limit (131072).
    g = write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,0.5\n1,2," + "x" * 200_000 + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_graph_csv(g)
    assert err.value.line == 3
    assert "field larger than field limit" in str(err.value)
    y = write_text(tmp_path / "y.csv", "node,label\n0,0\n")
    assert run_cli("homophily", "--graph", g, "--labels", y) == 2
    err = capsys.readouterr().err
    assert "input error:" in err and "g.csv: line 3" in err and "Traceback" not in err


def test_hypergraph_csv_round_trip(tmp_path):
    h = Hypergraph(4, [(0, 0, 1.0), (1, 0, 0.5), (1, 1, 1.0), (3, 1, 2.0)])
    path = tmp_path / "h.csv"
    write_hypergraph_csv(path, h)
    back = read_hypergraph_csv(path)
    assert back.node_count == 4
    assert back.edge_count == 2
    assert np.array_equal(membership_weight(back), membership_weight(h))


def test_hypergraph_csv_rows_sorted_by_edge_then_node(tmp_path):
    h = Hypergraph(3, [(2, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)])
    path = tmp_path / "h.csv"
    write_hypergraph_csv(path, h)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,hyperedge,weight"
    cols = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert cols == [(1, 0), (0, 1), (2, 1)]


def test_labels_csv_needs_one_row_for_each_node(tmp_path):
    labels = NodeLabels(np.array([2, 0, 1]), 3)
    path = tmp_path / "y.csv"
    write_labels_csv(path, labels)
    back = read_labels_csv(path, node_count=3)
    assert back.labels.tolist() == [2, 0, 1]
    assert back.class_count == 3
    with pytest.raises(CsvFormatError, match="node 3 has 0 label rows"):
        read_labels_csv(path, node_count=5)  # nodes 3 and 4 have no row
    repeated = write_text(tmp_path / "r.csv", "node,label\n1,0\n0,1\n1,1\n")
    with pytest.raises(CsvFormatError, match="node 1 has 2 label rows"):
        read_labels_csv(repeated)


def test_labels_csv_header_checked(tmp_path):
    path = write_text(tmp_path / "y.csv", "id,label\n0,1\n")
    with pytest.raises(CsvFormatError):
        read_labels_csv(path)


def test_state_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3)) * np.exp(rng.uniform(-20, 20, (5, 3)))
    path = tmp_path / "x.csv"
    write_state_csv(path, x)
    assert np.array_equal(read_state_csv(path), x)


def test_state_csv_vector_becomes_single_column(tmp_path):
    path = tmp_path / "x.csv"
    write_state_csv(path, np.array([1.5, -2.0, 0.25]))
    assert path.read_text() == "1.5\n-2.0\n0.25\n"
    assert read_state_csv(path).shape == (3, 1)


@pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
def test_state_csv_writer_refuses_a_state_without_columns(tmp_path, shape):
    # Its file would hold no value to read back: read_state_csv refuses it as empty.
    with pytest.raises(ValueError, match="no values per node"):
        write_state_csv(tmp_path / "x.csv", np.zeros(shape))
    assert not (tmp_path / "x.csv").exists()


def test_state_csv_writer_refuses_more_than_two_axes(tmp_path):
    with pytest.raises(ValueError, match="vector or an N x d matrix"):
        write_state_csv(tmp_path / "x.csv", np.zeros((2, 3, 1)))


def test_state_csv_ragged_rows_rejected(tmp_path):
    path = write_text(tmp_path / "x.csv", "1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_state_csv(path)
    assert err.value.line == 2


def test_energy_csv_step_column_is_integer(tmp_path):
    path = tmp_path / "e.csv"
    write_energy_csv(path, [0, 1, 2], [1.0, 0.5, 0.25], column="step")
    assert path.read_text() == "step,energy\n0,1.0\n1,0.5\n2,0.25\n"


def test_energy_csv_time_column_keeps_full_precision(tmp_path):
    path = tmp_path / "e.csv"
    t = [0.0, 0.1]
    write_energy_csv(path, t, [1.0, 1.0 / 3.0], column="t")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,energy"
    assert lines[2] == f"{t[1]!r},{1.0 / 3.0!r}"


def test_write_json_is_stable_text(tmp_path):
    path = tmp_path / "o.json"
    write_json(path, {"b": 1, "a": [1.5, None]})
    assert path.read_text() == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'


# ------------------------------------------- columnar readers vs row parser

READER_FORMATS = {
    "graph": (odyn_io.GRAPH_HEADER, odyn_io._GRAPH_DTYPE),
    "hypergraph": (odyn_io.HYPERGRAPH_HEADER, odyn_io._HYPERGRAPH_DTYPE),
    "labels": (odyn_io.LABELS_HEADER, odyn_io._LABELS_DTYPE),
}

# Field texts on both sides of what Python's int/float and numpy's parser
# accept: signs, spacing, underscores, quotes, non-ASCII digits, int64 bounds.
ODD_FIELDS = [
    "", " ", "1_0", '"1"', '"2.5"', "١", "0x1", "1.0", "1e3", "+4", "-0", "00", " 7 ",
    "\t3", "\xa02", "\x0c1", "2\x00", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "99999999999999999999",
    "1e", ".5", "5.", "nan", "-nan", "inf", "-Infinity", "1e500", "4.9e-324",
    "2.4703282292062328e-324", "1.7976931348623159e308", "0.1", "1#2", "'3'",
]


# Each example overwrites the same file under tmp_path.
FRESH_FILE_PER_EXAMPLE = [HealthCheck.function_scoped_fixture]


def _field(kind):
    if kind == np.int64:
        good = st.integers(-3, 2**63 - 1).map(str)
    else:
        good = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    return st.one_of(good, good, st.sampled_from(ODD_FIELDS))


@st.composite
def csv_texts(draw, header, dtype):
    kinds = [dtype[name] for name in dtype.names]
    first = draw(st.sampled_from([
        ",".join(header), " , ".join(header), ",".join(header[::-1]),
        '"' + '","'.join(header) + '"', ",".join(header[:-1]), "",
    ]))
    lines = [first] if first or draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["row", "row", "row", "short", "long", "blank", "spaces"]))
        if shape == "blank":
            lines.append("")
        elif shape == "spaces":
            lines.append(" " * draw(st.integers(1, 3)))
        else:
            fields = [draw(_field(k)) for k in kinds]
            if shape == "short":
                fields = fields[:-1]
            elif shape == "long":
                fields.append(draw(_field(kinds[-1])))
            lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def row_parser_columns(path, header, dtype):
    """The reference: Python's csv, int (within int64) and float, row by row."""
    types = [odyn_io._int64 if dtype[name] == np.int64 else float for name in dtype.names]
    return np.array(odyn_io._read_rows(path, header, types), dtype=dtype)


def assert_same_as_row_parser(path, header, dtype):
    try:
        expected = row_parser_columns(path, header, dtype)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as got:
            odyn_io._read_columns(path, header, dtype)
        assert str(got.value) == str(exc)
        assert got.value.line == exc.line
        return
    got = odyn_io._read_columns(path, header, dtype)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # bit-identical, NaN signs included


@pytest.mark.parametrize("fmt", sorted(READER_FORMATS))
@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_columnar_reader_matches_row_parser(tmp_path, fmt, data):
    header, dtype = READER_FORMATS[fmt]
    path = tmp_path / f"{fmt}.csv"
    path.write_bytes(data.draw(csv_texts(header, dtype)).encode("utf-8"))
    assert_same_as_row_parser(path, header, dtype)


@pytest.mark.parametrize("body", [
    "0,1,0.5\n1,2,1e-3\n", "", "\n\n", "0,1,0.5", "0,1,0.5\r\n\r\n2,3,4\r\n", " 1 , 2 ,\t3.5\n",
])
def test_clean_files_take_the_single_pass(tmp_path, body):
    path = write_text(tmp_path / "g.csv", "src,dst,weight\n" + body)
    with mock.patch.object(odyn_io, "_read_rows", side_effect=AssertionError("row parser used")):
        cols = odyn_io._read_columns(path, odyn_io.GRAPH_HEADER, odyn_io._GRAPH_DTYPE)
    assert cols.tobytes() == row_parser_columns(
        path, odyn_io.GRAPH_HEADER, odyn_io._GRAPH_DTYPE).tobytes()


def test_deprecated_int_parse_goes_to_row_parser(tmp_path, monkeypatch):
    # Some numpy releases read the int field "1.0" as 1 with only a
    # DeprecationWarning; the file must still be refused at its line.
    real_loadtxt = np.loadtxt

    def old_loadtxt(fh, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        as_floats = np.dtype([(name, np.float64) for name in dtype.names])
        return real_loadtxt(fh, dtype=as_floats, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", old_loadtxt)
    path = write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,0.5\n1.0,2,0.5\n")
    with pytest.raises(CsvFormatError) as got:
        read_graph_csv(path)
    assert got.value.line == 3


def labels_oracle(path, node_count=None):
    """The row-loop label reader: each node in range, then one row for each node."""
    rows = odyn_io._read_rows(path, odyn_io.LABELS_HEADER, (odyn_io._int64, odyn_io._int64))
    if node_count is None:
        node_count = 1 + max((n for n, _ in rows), default=0)
    for n, _ in rows:
        if not (0 <= n < node_count):
            raise CsvFormatError(f"{path}: node index {n} out of range")
    labels = []
    for node in range(node_count):
        own = [lab for n, lab in rows if n == node]
        if len(own) != 1:
            raise CsvFormatError(f"{path}: node {node} has {len(own)} label rows; "
                                 "a label file has one row for each node")
        labels.append(own[0])
    return np.array(labels)


@given(st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 3)), max_size=12),
       st.one_of(st.none(), st.integers(1, 7)))
@example([(2, 1), (2, 0), (0, 3), (2, 2)], None)
@example([(2, 1), (0, 3), (1, 0)], None)
@example([(1, 2), (0, 0), (2, 1)], 3)
@settings(max_examples=80, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_labels_reader_matches_row_loop(tmp_path, rows, node_count):
    path = write_text(tmp_path / "y.csv", "node,label\n" + "".join(f"{n},{y}\n" for n, y in rows))
    try:
        expected = labels_oracle(path, node_count)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as got:
            read_labels_csv(path, node_count=node_count)
        assert str(got.value) == str(exc)
        return
    assert read_labels_csv(path, node_count=node_count).labels.tolist() == expected.tolist()


def state_reader_oracle(path):
    """The row loop read_state_csv had of its own: the first row fixes the width."""
    path = Path(path)
    rows = []
    width = None
    with path.open("r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(odyn_io._records(path, fh), start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}",
                    line=lineno,
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {lineno}: {exc}", line=lineno) from exc
    if not rows:
        raise CsvFormatError(f"{path}: empty state matrix", line=1)
    return np.array(rows)


@st.composite
def state_csv_texts(draw):
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["row", "row", "row", "short", "long", "blank", "spaces"]))
        if shape == "blank":
            lines.append("")
        elif shape == "spaces":
            lines.append(" " * draw(st.integers(1, 3)))
        else:
            n = width + {"row": 0, "short": -1, "long": 1}[shape]
            lines.append(",".join(draw(_field(np.float64)) for _ in range(n)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_state_reader_matches_row_loop(tmp_path, data):
    path = tmp_path / "x.csv"
    path.write_bytes(data.draw(state_csv_texts()).encode("utf-8"))
    try:
        expected = state_reader_oracle(path)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as got:
            read_state_csv(path)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    got = read_state_csv(path)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


def test_readers_construct_through_module_names(tmp_path, monkeypatch):
    # perfbench's traced run rebinds these two names to time the builds.
    calls = []

    def recording(cls):
        def build(node_count, rows, **kwargs):
            calls.append((cls.__name__, type(rows)))
            return cls(node_count, rows, **kwargs)
        return build

    monkeypatch.setattr(odyn_io, "WeightedGraph", recording(WeightedGraph))
    monkeypatch.setattr(odyn_io, "Hypergraph", recording(Hypergraph))
    g = read_graph_csv(write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,0.5\n"))
    h = read_hypergraph_csv(
        write_text(tmp_path / "h.csv", "node,hyperedge,weight\n0,0,1.0\n1,0,2.0\n"))
    # Each reader hands its parsed columns over as they are.
    assert calls == [("WeightedGraph", np.ndarray), ("Hypergraph", np.ndarray)]
    assert g == WeightedGraph(2, [(0, 1, 0.5)])
    assert membership_weight(h).tolist() == [[1.0], [2.0]]


# ------------------------------------------------- trajectory writer oracle


def trajectory_csv_oracle(path, traj):
    """The per-row trajectory writer the joined one replaced."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,node,feature_index,value\n")
        for t, state in zip(traj.times.tolist(), traj.states):
            state = np.atleast_2d(np.asarray(state, dtype=np.float64).T).T
            for node in range(state.shape[0]):
                for j in range(state.shape[1]):
                    fh.write(f"{repr(float(t))},{node},{j},{repr(float(state[node, j]))}\n")


def _states(shape):
    return st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=int(np.prod(shape)),
                    max_size=int(np.prod(shape))).map(lambda v: np.array(v).reshape(shape))


TRAJECTORY_SHAPES = st.sampled_from([(4,), (4, 1), (4, 3), (1, 2)])


# Row blocks small enough that the examples' files span several of them.
ROW_BLOCKS = st.integers(1, 7)


def same_bytes(tmp_path, block, writer, oracle, *payload):
    """Whether writer, with _ROW_BLOCK patched to block, writes oracle's bytes."""
    with mock.patch.object(odyn_io, "_ROW_BLOCK", block):
        writer(tmp_path / "fast.csv", *payload)
    oracle(tmp_path / "oracle.csv", *payload)
    return (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@given(TRAJECTORY_SHAPES, st.integers(1, 4), st.booleans(), ROW_BLOCKS, st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_trajectory_writer_matches_row_oracle(tmp_path, shape, count, reshape, block, data):
    shapes = [shape] * count
    if reshape:  # the writer keeps its row keys only while the shape holds
        shapes = [data.draw(TRAJECTORY_SHAPES) for _ in range(count)]
    times = st.lists(st.floats(allow_nan=False), min_size=count, max_size=count)
    traj = SimpleNamespace(
        times=np.array(data.draw(times)),
        states=[data.draw(_states(s)) for s in shapes],
    )
    assert same_bytes(tmp_path, block, write_trajectory_csv, trajectory_csv_oracle, traj)


@pytest.mark.parametrize("writer, payload", [
    (write_trajectory_csv, SimpleNamespace(times=np.zeros(2), states=[np.zeros((2, 2))] * 2)),
    (write_state_csv, np.zeros((2, 2))),
], ids=["trajectory", "state"])
def test_writers_refuse_a_state_of_three_axes(tmp_path, writer, payload):
    # Three axes used to come out as shape[0] * shape[1] rows, the rest of the values dropped.
    bad = np.arange(8.0).reshape(2, 2, 2)
    if writer is write_trajectory_csv:
        payload.states = [payload.states[0], bad]
    else:
        payload = bad
    with pytest.raises(ValueError, match="state must be a vector or an N x d matrix"):
        writer(tmp_path / "x.csv", payload)
    assert not (tmp_path / "x.csv").exists()


# ------------------------------------ whole-file writers, the row-block oracles


def _open(path):
    return Path(path).open("w", encoding="utf-8", newline="\n")


def graph_csv_oracle(path, g):
    """write_graph_csv as it was: every row in one join."""
    src, dst, w = g.undirected_pairs()
    with _open(path) as fh:
        fh.write("src,dst,weight\n")
        fh.write("".join([f"{s},{d},{v!r}\n"
                          for s, d, v in zip(src.tolist(), dst.tolist(), w.tolist())]))


def hypergraph_csv_oracle(path, h):
    """write_hypergraph_csv as it was: every row in one join."""
    edges = np.repeat(np.arange(h.edge_count), np.diff(h._edge_ptr))
    with _open(path) as fh:
        fh.write("node,hyperedge,weight\n")
        fh.write("".join([f"{n},{e},{w!r}\n"
                          for n, e, w in zip(h._node.tolist(), edges.tolist(), h._weight.tolist())]))


def labels_csv_oracle(path, labels):
    """write_labels_csv as it was: every row in one join."""
    with _open(path) as fh:
        fh.write("node,label\n")
        fh.write("".join([f"{n},{lab}\n" for n, lab in enumerate(labels.labels.tolist())]))


def state_csv_oracle(path, x):
    """write_state_csv as it was: one write per row, each value through repr(float(v)).

    A 1-d state is one column."""
    x = np.asarray(x, dtype=np.float64)
    x = x[:, None] if x.ndim == 1 else x
    with _open(path) as fh:
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def energy_csv_oracle(path, steps, energy, column):
    """write_energy_csv as it was: one write per row."""
    with _open(path) as fh:
        fh.write(f"{column},energy\n")
        for s, e in zip(np.asarray(steps).tolist(), np.asarray(energy).tolist()):
            label = str(int(s)) if column == "step" else repr(float(s))
            fh.write(f"{label},{repr(float(e))}\n")


POSITIVE_WEIGHTS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(ROW_BLOCKS, st.integers(1, 8), st.booleans(), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_graph_writer_matches_whole_file_oracle(tmp_path, block, n, directed, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=30, unique=True))
    if not directed:
        pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    g = WeightedGraph(n, [(i, j, data.draw(POSITIVE_WEIGHTS)) for i, j in pairs],
                      directed=directed)
    assert same_bytes(tmp_path, block, write_graph_csv, graph_csv_oracle, g)


@given(ROW_BLOCKS, st.integers(1, 6), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_hypergraph_writer_matches_whole_file_oracle(tmp_path, block, n, edges, data):
    members = st.sets(st.integers(0, n - 1), min_size=1)
    rows = [(v, e, data.draw(POSITIVE_WEIGHTS)) for e in range(edges) for v in data.draw(members)]
    h = Hypergraph(n, rows)
    assert same_bytes(tmp_path, block, write_hypergraph_csv, hypergraph_csv_oracle, h)


@given(ROW_BLOCKS, st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_labels_writer_matches_whole_file_oracle(tmp_path, block, classes, data):
    labels = NodeLabels(np.array(data.draw(st.lists(st.integers(0, classes - 1), max_size=20)),
                                 dtype=np.int64), classes)
    assert same_bytes(tmp_path, block, write_labels_csv, labels_csv_oracle, labels)


STATE_SHAPES = st.sampled_from([(0,), (0, 2), (1,), (5,), (5, 1), (4, 3), (9, 2)])


@given(ROW_BLOCKS, STATE_SHAPES, st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_state_writer_matches_row_oracle(tmp_path, block, shape, data):
    x = data.draw(_states(shape))
    assert same_bytes(tmp_path, block, write_state_csv, state_csv_oracle, x)


@given(ROW_BLOCKS, st.sampled_from(["step", "t"]), st.integers(0, 12), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_energy_writer_matches_row_oracle(tmp_path, block, column, n, data):
    if column == "step":  # step numbers, as integers or as the floats a trajectory records
        dtype = data.draw(st.sampled_from([np.int64, np.float64]))
        steps = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
                         dtype=dtype)
    else:
        steps = np.array(data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)))
    energy = np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=np.float64)
    assert same_bytes(tmp_path, block, write_energy_csv, energy_csv_oracle, steps, energy, column)


# ------------------------------------------- each table writer through its reader


# NaN is out: repr keeps neither its sign nor its payload.
NOT_NAN = st.floats(allow_nan=False)


@given(st.integers(1, 8), st.booleans(), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_graph_csv_round_trip_is_bit_exact(tmp_path, n, directed, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=30, unique=True))
    if not directed:
        pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    g = WeightedGraph(n, [(i, j, data.draw(POSITIVE_WEIGHTS)) for i, j in pairs],
                      directed=directed)
    write_graph_csv(tmp_path / "g.csv", g)
    assert read_graph_csv(tmp_path / "g.csv", directed=directed, node_count=n) == g


@given(st.integers(1, 6), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_hypergraph_csv_round_trip_is_bit_exact(tmp_path, n, edges, data):
    members = st.sets(st.integers(0, n - 1), min_size=1)
    rows = [(v, e, data.draw(POSITIVE_WEIGHTS)) for e in range(edges) for v in data.draw(members)]
    h = Hypergraph(n, rows)
    write_hypergraph_csv(tmp_path / "h.csv", h)
    back = read_hypergraph_csv(tmp_path / "h.csv", node_count=n)
    for mine, theirs in zip(back._memberships(), h._memberships()):
        assert np.array_equal(mine, theirs)


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_labels_csv_round_trip_is_exact(tmp_path, classes, data):
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=20)))
    write_labels_csv(tmp_path / "y.csv", NodeLabels(labels, classes))
    back = read_labels_csv(tmp_path / "y.csv", node_count=labels.size, class_count=classes)
    assert back.labels.tolist() == labels.tolist()


@given(st.sampled_from([(1,), (6,), (1, 1), (6, 1), (4, 3)]), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_state_csv_round_trip_is_bit_exact_with_one_row_per_node(tmp_path, shape, data):
    x = data.draw(st.lists(NOT_NAN, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    x = np.array(x).reshape(shape)
    write_state_csv(tmp_path / "x.csv", x)
    back = read_state_csv(tmp_path / "x.csv")
    assert back.shape == (shape[0], 1 if x.ndim == 1 else shape[1])
    assert back.tobytes() == x.tobytes()  # -0.0 and the infinities bit for bit


@given(st.sampled_from(["step", "t"]), st.integers(0, 12), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_energy_csv_round_trip_is_bit_exact(tmp_path, column, n, data):
    steps = data.draw(st.lists(st.integers(0, 10**6) if column == "step" else NOT_NAN,
                               min_size=n, max_size=n))
    energy = data.draw(st.lists(NOT_NAN, min_size=n, max_size=n))
    write_energy_csv(tmp_path / "e.csv", steps, energy, column=column)
    head, *rows = (tmp_path / "e.csv").read_text().splitlines()
    assert head == f"{column},energy"
    parse = int if column == "step" else float
    back = [(parse(s), float(e)) for s, e in (row.split(",") for row in rows)]
    assert np.array(back).tobytes() == np.array(list(zip(steps, energy)), dtype=float).tobytes()
    assert all(type(s) is type(step) for (s, _), step in zip(back, steps))


@pytest.mark.parametrize("writer, oracle, payload", [
    (write_graph_csv, graph_csv_oracle, WeightedGraph(3, [])),
    (write_graph_csv, graph_csv_oracle, WeightedGraph(3, [], directed=True)),
    (write_labels_csv, labels_csv_oracle, NodeLabels(np.zeros(0, dtype=np.int64), 1)),
    (write_state_csv, state_csv_oracle, np.zeros((0, 2))),
], ids=["graph", "digraph", "labels", "state"])
def test_row_writers_match_oracles_on_empty_inputs(tmp_path, writer, oracle, payload):
    assert same_bytes(tmp_path, 3, writer, oracle, payload)


def test_graph_writer_peak_memory_does_not_follow_the_file(tmp_path):
    # A directed graph's pairs are its own arrays, so what the writer holds
    # is its row text: one block of it, whatever the edge count.
    def peak(edges):
        g = WeightedGraph.from_arrays(edges, np.arange(edges), np.arange(1, edges + 1) % edges,
                                      np.linspace(0.5, 2.0, edges), directed=True)
        tracemalloc.start()
        try:
            write_graph_csv(tmp_path / "g.csv", g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(odyn_io, "_ROW_BLOCK", 256):
        small, large = peak(4096), peak(4 * 4096)
    # Joining the whole file holds about 200 bytes per row of these.
    assert (large - small) / (3 * 4096) < 8


# ----------------------------------------------------------------- the CLI


TRI_ROWS = "src,dst,weight\n0,1,1.0\n1,2,1.0\n0,2,1.0\n"


@pytest.fixture
def triangle_csv(tmp_path):
    return write_text(tmp_path / "triangle.csv", TRI_ROWS)


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    write_json(path, obj)
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("odyn ")


def test_simulate_hk_needs_no_graph(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "hk", "hk_radius": 0.3, "node_count": 12,
                        "init": "uniform", "t_end": 8})
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg, "--seed", 3, "--out", out) == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert (out / "trajectory.csv").exists()
    assert (out / "final_state.csv").exists()
    assert (out / "manifest.json").exists()
    # no structure, so no energy series
    assert not (out / "energy.csv").exists()
    final = read_state_csv(out / "final_state.csv")
    assert final.shape == (12, 1)
    assert np.all((final >= 0.0) & (final <= 1.0))


@pytest.mark.parametrize("dim", [None, 1, 3])
def test_uniform_init_reads_dim_and_its_final_state_reads_back(tmp_path, capsys, triangle_csv,
                                                               dim):
    run = {"kind": "hk", "hk_radius": 0.3, "init": "uniform", "t_end": 3}
    if dim is not None:
        run["dim"] = dim
    cfg = write_config(tmp_path, "cfg.json", run)
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out",
                   tmp_path / "a") == 0
    final_csv = tmp_path / "a" / "final_state.csv"
    assert read_state_csv(final_csv).shape == (3, dim or 1)
    back = write_config(tmp_path, "back.json",
                        dict(run, init="csv", t_end=0, state_csv=str(final_csv)))
    assert run_cli("simulate", "--graph", triangle_csv, "--config", back, "--out",
                   tmp_path / "b") == 0
    assert (tmp_path / "b" / "final_state.csv").read_bytes() == final_csv.read_bytes()
    capsys.readouterr()


def test_uniform_init_draws_one_column_from_the_seeded_stream(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "hk", "hk_radius": 0.3, "node_count": 5,
                                              "init": "uniform", "t_end": 0})
    assert run_cli("simulate", "--config", cfg, "--seed", 7, "--out", tmp_path / "run") == 0
    capsys.readouterr()
    final = read_state_csv(tmp_path / "run" / "final_state.csv")
    assert final[:, 0].tolist() == np.random.default_rng(7).random(5).tolist()


def test_zeros_init_reads_dim(tmp_path, capsys, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                                              "init": "zeros", "dim": 2, "t_end": 2})
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out",
                   tmp_path / "run") == 0
    capsys.readouterr()
    final = read_state_csv(tmp_path / "run" / "final_state.csv")
    assert final.shape == (3, 2) and not final.any()


def test_simulate_writes_energy_and_manifest(tmp_path, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "t_end": 6, "init": "unit", "dim": 4})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", out) == 0
    energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    assert energy.shape == (7, 2)
    assert np.all(np.isfinite(energy))
    # pure attraction inside the full band contracts the energy
    assert energy[-1, 1] < energy[0, 1]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 0
    assert manifest["inputs"]["graph"] == str(triangle_csv)
    assert manifest["config"]["kind"] == "odnet-discrete"


def test_simulate_trajectory_row_count(tmp_path, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "t_end": 5, "init": "unit", "dim": 2})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,node,feature_index,value"
    assert len(lines) == 1 + 6 * 3 * 2


def test_simulate_t_end_flag_overrides_discrete_steps(tmp_path, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "t_end": 9, "init": "unit", "dim": 2})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", out, "--t-end", 3.0) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 3 * 2


@pytest.mark.parametrize("t_end", [2.5, 3.5, 0.4])
def test_simulate_discrete_t_end_must_be_a_whole_number(tmp_path, capsys, t_end):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "hk", "node_count": 6})
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg, "--out", out, "--t-end", t_end) == 2
    assert capsys.readouterr().err == f"input error: t_end must be an integer >= 0, got {t_end}\n"
    assert not out.exists()


def test_simulate_rerun_is_byte_identical(tmp_path, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-continuous", "eps1": 0.0, "eps2": 1.0,
                        "scheme": "dopri5", "t_end": 2.0, "init": "unit",
                        "dim": 3})
    out = tmp_path / "run"
    args = ("simulate", "--graph", triangle_csv, "--config", cfg,
            "--seed", 11, "--out", out)
    assert run_cli(*args) == 0
    names = ["trajectory.csv", "final_state.csv", "energy.csv", "manifest.json"]
    first = {name: (out / name).read_bytes() for name in names}
    assert run_cli(*args) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name


def test_missing_graph_file_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("simulate", "--graph", tmp_path / "nope.csv", "--out", out)
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_bad_header_exits_2(tmp_path, capsys):
    bad = write_text(tmp_path / "bad.csv", "a,b,c\n0,1,1.0\n")
    code = run_cli("simulate", "--graph", bad, "--out", tmp_path / "run")
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_invalid_config_json_exits_2(tmp_path, triangle_csv, capsys):
    cfg = write_text(tmp_path / "cfg.json", "{not json")
    out = tmp_path / "run"
    code = run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert str(cfg) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_config_that_is_not_an_object_names_the_file(tmp_path, triangle_csv, capsys, command):
    cfg = write_text(tmp_path / "cfg.json", "[1, 2]")
    out = tmp_path / "run"
    assert run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: config {cfg}: JSON must be an object\n"
    assert not out.exists()


def test_unknown_kind_exits_2(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "telepathy"})
    code = run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", tmp_path / "run")
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_state_csv_row_count_mismatch_exits_2(tmp_path, triangle_csv, capsys):
    state = write_text(tmp_path / "x0.csv", "0.1,0.2\n0.3,0.4\n")  # 2 rows, 3 nodes
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "init": "csv", "state_csv": str(state), "t_end": 12})
    for command in ("simulate", "energy"):
        out = tmp_path / command
        code = run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "input error:" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_init_csv_without_state_csv_names_the_missing_key(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "init": "csv", "t_end": 12})
    for command in ("simulate", "energy"):
        out = tmp_path / command
        assert run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == "input error: missing config key 'state_csv'\n"
        assert not out.exists()


def test_zero_dim_state_exits_2(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "init": "unit", "dim": 0, "t_end": 12})
    for command in ("simulate", "energy"):
        out = tmp_path / command
        code = run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "input error:" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_fd_on_non_stochastic_graph_exits_3(tmp_path, capsys):
    g = write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,2.0\n1,0,2.0\n")
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "fd", "directed": True, "init": "uniform",
                        "t_end": 3})
    out = tmp_path / "run"
    code = run_cli("simulate", "--graph", g, "--config", cfg,
                   "--out", out)
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_repulsive_blowup_exits_3(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.6, "eps2": 0.9,
                        "nu": -50.0, "mode": "attract-repulse",
                        "init": "uniform", "t_end": 400})
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                       "--out", out)
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def _error_classes(cls=odyn_errors.OdynError):
    """Every class in odyn.errors below cls, walking __subclasses__() down."""
    for sub in cls.__subclasses__():
        if sub.__module__ == odyn_errors.__name__:
            yield sub
            yield from _error_classes(sub)


# The CLI's exit 3: NumericFailure and exactly these eight below it.
NUMERIC_FAILURES = {"NumericFailure", "NonFiniteState", "StepLimitExceeded", "NoConvergence",
                    "NotRowStochastic", "KernelNotNormalized", "NotSPD", "ZeroDegree",
                    "OutOfRangeSimilarity"}


def test_numeric_failures_are_the_named_classes():
    classes = {cls.__name__: cls for cls in _error_classes()}
    assert classes == {name: cls for name, cls in vars(odyn_errors).items()
                       if isinstance(cls, type) and issubclass(cls, odyn_errors.OdynError)
                       and cls is not odyn_errors.OdynError}
    assert {name for name, cls in classes.items()
            if issubclass(cls, odyn_errors.NumericFailure)} == NUMERIC_FAILURES


@pytest.mark.parametrize("cls", sorted(_error_classes(), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_each_error_class_has_its_exit_code(tmp_path, triangle_csv, capsys, monkeypatch, cls):
    import odyn.cli as cli

    def compute(args, cfg, graph, hypergraph):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_simulate", compute)
    out = tmp_path / "run"
    code, prefix = (3, "numeric failure") if cls.__name__ in NUMERIC_FAILURES else (2, "input error")
    assert run_cli("simulate", "--graph", triangle_csv, "--out", out) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"
    assert not out.exists()


def test_readme_exit_codes_name_the_numeric_failures():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Exit codes:"))
    named = {word for word in re.findall(r"`(\w+)`", paragraph)
             if isinstance(getattr(odyn_errors, word, None), type)}
    assert named == NUMERIC_FAILURES


# Node 0 is in both hyperedges, so the hgnn kernel's rows do not sum to one.
IRREGULAR_HYPERGRAPH = "node,hyperedge,weight\n0,0,1.0\n1,0,1.0\n0,1,1.0\n2,1,1.0\n"
HGNN_ARM = {"name": "hgnn", "kind": "hypergraph-diffusion", "kernel": "hgnn"}


@pytest.mark.parametrize("command", ["simulate", "energy"])
def test_unnormalised_hgnn_kernel_exits_3_without_out(tmp_path, capsys, command):
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    cfg = write_config(tmp_path, "cfg.json", dict(HGNN_ARM, t_end=1.0, init="unit", dim=2))
    out = tmp_path / "run"
    assert run_cli(command, "--hypergraph", h, "--config", cfg, "--out", out) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_energy_failing_second_arm_leaves_no_out(tmp_path, capsys):
    # The uniform arm runs to completion; the hgnn arm then fails, and the
    # first arm's outputs must not be published either.
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    cfg = write_config(tmp_path, "cfg.json", {
        "scheme": "rk4", "h": 0.1, "t_end": 1.0, "init": "unit", "dim": 2,
        "runs": [{"name": "uniform", "kind": "hypergraph-diffusion", "kernel": "uniform"},
                 HGNN_ARM],
    })
    out = tmp_path / "runs"
    assert run_cli("energy", "--hypergraph", h, "--config", cfg, "--out", out) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------- the structure each kind runs on


HK_RUN = {"kind": "hk", "hk_radius": 0.5, "t_end": 12, "init": "unit", "dim": 2}


@pytest.mark.parametrize("command", ["simulate", "energy"])
def test_hk_on_a_hypergraph_records_its_dirichlet_energy(tmp_path, capsys, command):
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    cfg = write_config(tmp_path, "cfg.json", dict(HK_RUN, name="hk"))
    out = tmp_path / "run"
    assert run_cli(command, "--hypergraph", h, "--config", cfg, "--out", out) == 0
    name = "energy.csv" if command == "simulate" else "energy_hk.csv"
    energy = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 1]
    states = [pseudo_features(3, 2, seed=0)]
    for _ in range(12):
        states.append(hk_step(states[-1], 0.5))
    if command == "simulate":  # the recorded states are these
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows[:, 3].tolist() == np.ravel(states).tolist()
    hyper = read_hypergraph_csv(h)
    assert energy.tolist() == [dirichlet_energy_hypergraph(hyper, x) for x in states]
    assert energy[0] > 0.0


GRAPH_KIND_RUNS = [
    {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0, "t_end": 4, "init": "unit", "dim": 2},
    {"kind": "odnet-continuous", "eps1": 0.0, "eps2": 1.0, "scheme": "rk4", "t_end": 1.0,
     "init": "unit", "dim": 2},
    {"kind": "fd", "directed": True, "t_end": 4, "init": "uniform"},
]
# Row stochastic when read directed, for fd.
LAZY_CYCLE_ROWS = "src,dst,weight\n0,0,0.5\n0,1,0.5\n1,1,0.5\n1,2,0.5\n2,2,0.5\n2,0,0.5\n"


@pytest.mark.parametrize("run", GRAPH_KIND_RUNS, ids=lambda run: run["kind"])
def test_graph_kind_given_both_structures_runs_on_the_graph(tmp_path, capsys, run):
    g = write_text(tmp_path / "g.csv", LAZY_CYCLE_ROWS)
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    cfg = write_config(tmp_path, "cfg.json", run)
    assert run_cli("simulate", "--graph", g, "--config", cfg, "--out", tmp_path / "g") == 0
    assert run_cli("simulate", "--graph", g, "--hypergraph", h, "--config", cfg,
                   "--out", tmp_path / "both") == 0
    for name in ("final_state.csv", "trajectory.csv", "energy.csv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "g" / name).read_bytes()


@pytest.mark.parametrize("run", GRAPH_KIND_RUNS, ids=lambda run: run["kind"])
def test_simulate_and_an_energy_arm_write_the_same_energy_bytes(tmp_path, capsys, run):
    # A discrete kind's abscissa is its integer step in both, a continuous kind's its time.
    g = write_text(tmp_path / "g.csv", LAZY_CYCLE_ROWS)
    # energy fits the tail of at least 10 samples.
    cfg = write_config(tmp_path, "cfg.json", {**run, "t_end": 12} if "scheme" not in run else run)
    assert run_cli("simulate", "--graph", g, "--config", cfg, "--out", tmp_path / "s") == 0
    assert run_cli("energy", "--graph", g, "--config", cfg, "--out", tmp_path / "e") == 0
    capsys.readouterr()
    written = (tmp_path / "s" / "energy.csv").read_bytes()
    assert written == (tmp_path / "e" / "energy_run.csv").read_bytes()
    header = b"t,energy\n0.0," if run["kind"] == "odnet-continuous" else b"step,energy\n0,"
    assert written.startswith(header)


def test_energy_arms_given_both_structures_each_run_on_their_own(tmp_path, capsys, triangle_csv):
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    graph_arm = dict(GRAPH_KIND_RUNS[1], name="graph")
    hyper_arm = {"name": "hyper", "kind": "hypergraph-diffusion", "scheme": "rk4", "t_end": 1.0,
                 "init": "unit", "dim": 2}
    cfg = write_config(tmp_path, "cfg.json", {"runs": [graph_arm, hyper_arm]})
    assert run_cli("energy", "--graph", triangle_csv, "--hypergraph", h, "--config", cfg,
                   "--out", tmp_path / "both") == 0
    for flag, path, arm in (("--graph", triangle_csv, graph_arm), ("--hypergraph", h, hyper_arm)):
        one = write_config(tmp_path, "one.json", {"runs": [arm]})
        out = tmp_path / arm["name"]
        assert run_cli("energy", flag, path, "--config", one, "--out", out) == 0
        name = f"energy_{arm['name']}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("command, run, message", [
    ("simulate", GRAPH_KIND_RUNS[1], "kind 'odnet-continuous' needs a graph"),
    ("simulate", GRAPH_KIND_RUNS[2], "kind 'fd' needs a graph"),
    ("simulate", HGNN_ARM, "kind 'hypergraph-diffusion' needs a hypergraph"),
    ("simulate", {"kind": "hypergraph-odnet", "eps1": 0, "eps2": 1},
     "kind 'hypergraph-odnet' needs a hypergraph"),
    ("simulate", HK_RUN, "kind 'hk' without a graph needs config key node_count"),
    ("energy", HK_RUN, "energy needs --graph or --hypergraph"),
], ids=["odnet", "fd", "diffusion", "hypergraph-odnet", "hk", "energy"])
def test_run_without_structure_names_what_its_kind_needs(tmp_path, capsys, command, run,
                                                        message):
    cfg = write_config(tmp_path, "cfg.json", run)
    out = tmp_path / "run"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, arm, message", [
    ("--hypergraph", GRAPH_KIND_RUNS[1], "kind 'odnet-continuous' needs a graph"),
    ("--graph", HGNN_ARM, "kind 'hypergraph-diffusion' needs a hypergraph"),
])
def test_energy_checks_every_arm_before_the_first_runs(tmp_path, capsys, monkeypatch,
                                                       triangle_csv, flag, arm, message):
    import odyn.cli as cli

    integrate = mock.Mock(side_effect=AssertionError("an arm ran"))
    monkeypatch.setattr(cli, "integrate", integrate)
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    first = dict(GRAPH_KIND_RUNS[1] if flag == "--graph" else HGNN_ARM, name="first",
                 kernel="uniform")
    cfg = write_config(tmp_path, "cfg.json", {"runs": [first, dict(arm, name="second")]})
    out = tmp_path / "run"
    structure = triangle_csv if flag == "--graph" else h
    assert run_cli("energy", flag, structure, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert integrate.call_count == 0
    assert not out.exists()


@pytest.mark.parametrize("arm, message", [
    ({"kind": "odnet-discrete", "t_end": 2.5}, "t_end must be an integer >= 0, got 2.5"),
    ({"kind": "odnet-discrete", "t_end": 2, "max_steps": 0},
     "max_steps must be an integer >= 1, got 0"),
    ({"scheme": "midpoint"}, "scheme must be one of ('euler', 'rk4', 'dopri5')"),
], ids=["steps", "max_steps", "scheme"])
def test_energy_checks_every_arms_run_length_before_the_first_runs(
        tmp_path, capsys, monkeypatch, triangle_csv, arm, message):
    import odyn.cli as cli

    calls = {name: mock.Mock(side_effect=AssertionError("an arm ran"))
             for name in ("integrate", "iterate_map")}
    for name, stand_in in calls.items():
        monkeypatch.setattr(cli, name, stand_in)
    cfg = write_config(tmp_path, "cfg.json",
                       dict(GRAPH_KIND_RUNS[1], runs=[{"name": "a"}, dict(arm, name="b")]))
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert [stand_in.call_count for stand_in in calls.values()] == [0, 0]
    assert not out.exists()


@pytest.mark.parametrize("t_end", ["config", "flag"])
def test_energy_arms_own_steps_beat_an_inherited_t_end(tmp_path, capsys, triangle_csv, t_end):
    # A discrete arm's step count is its t_end, so its own t_end 12 beats the 1.0 it inherits.
    base = {"kind": "odnet-continuous", "scheme": "rk4", "eps1": 0.0, "eps2": 1.0, "dim": 2}
    runs = [{"name": "c"}, {"name": "d", "kind": "odnet-discrete", "t_end": 12}]
    cfg = write_config(tmp_path, "cfg.json",
                       dict(base, runs=runs, **({"t_end": 1.0} if t_end == "config" else {})))
    flag = ("--t-end", "1.0") if t_end == "flag" else ()
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, *flag, "--out", out) == 0
    capsys.readouterr()
    rows = (out / "energy_d.csv").read_text().splitlines()
    assert rows[0] == "step,energy" and len(rows) == 1 + 13
    assert (out / "energy_c.csv").read_text().splitlines()[-1].startswith("1.0,")


def test_energy_arm_name_cannot_write_outside_out(tmp_path, capsys, triangle_csv):
    # energy_x/../../escaped.csv under deep/out is deep/escaped.csv.
    cfg = write_config(tmp_path, "cfg.json",
                       dict(GRAPH_KIND_RUNS[0], runs=[{"name": "x/../../escaped"}]))
    out = tmp_path / "deep" / "out"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        "input error: energy arm 0 name 'x/../../escaped' must be a plain file stem: "
        "not empty, '.' or '..', and no path separator or NUL\n")
    assert not (tmp_path / "deep" / "escaped.csv").exists()
    assert not out.exists()


# Opening a path with a NUL fails only after manifest.json is written, so it is refused first.
@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\0b"],
                         ids=["empty", "dot", "dotdot", "slash", "nul"])
def test_energy_checks_every_arm_name_before_the_first_runs(tmp_path, capsys, monkeypatch,
                                                            triangle_csv, name):
    import odyn.cli as cli

    monkeypatch.setattr(cli, "iterate_map", mock.Mock(side_effect=AssertionError("an arm ran")))
    cfg = write_config(tmp_path, "cfg.json",
                       dict(GRAPH_KIND_RUNS[0], runs=[{"name": "ok"}, {"name": name}]))
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: energy arm 1 name {name!r} must be a plain file stem")
    assert cli.iterate_map.call_count == 0
    assert not out.exists()


@pytest.mark.parametrize("runs, name", [
    ([{"name": "a"}, {"name": "a", "eps2": 0.5}], "a"),
    ([{"name": "run1"}, {}], "run1"),  # the second arm's default name
], ids=["given", "default"])
def test_energy_arms_may_not_share_a_name(tmp_path, capsys, triangle_csv, runs, name):
    cfg = write_config(tmp_path, "cfg.json", dict(GRAPH_KIND_RUNS[0], runs=runs))
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: energy arm 1 repeats the name {name!r}\n"
    assert not out.exists()


DIRECTED_CYCLE = "src,dst,weight\n0,1,1\n1,2,1\n2,0,1\n"
FD_ARM = {"name": "a", "kind": "fd", "init": "uniform", "t_end": 12}


def test_energy_arm_may_not_set_directed(tmp_path, capsys):
    # The graph is read once for every arm, so an arm's own directed would be ignored.
    g = write_text(tmp_path / "g.csv", DIRECTED_CYCLE)
    cfg = write_config(tmp_path, "cfg.json", {"runs": [dict(FD_ARM, directed=True)]})
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", g, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        "input error: energy arm 0 ('a') sets 'directed': set it at the top level\n")
    assert not out.exists()
    cfg = write_config(tmp_path, "top.json", {"directed": True, "runs": [FD_ARM]})
    assert run_cli("energy", "--graph", g, "--config", cfg, "--out", out) == 0
    assert (out / "energy_a.csv").exists()


def test_energy_checks_every_arms_directed_before_the_first_runs(tmp_path, capsys, monkeypatch,
                                                                 triangle_csv):
    import odyn.cli as cli

    monkeypatch.setattr(cli, "iterate_map", mock.Mock(side_effect=AssertionError("an arm ran")))
    cfg = write_config(tmp_path, "cfg.json",
                       dict(GRAPH_KIND_RUNS[0], runs=[{"name": "ok"}, {"directed": False}]))
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err.startswith("input error: energy arm 1 ('run1') sets 'directed'")
    assert cli.iterate_map.call_count == 0
    assert not out.exists()


@pytest.mark.parametrize("command, obj, message", [
    ("energy", dict(GRAPH_KIND_RUNS[0], runs=[]), "config key 'runs' must list at least one arm"),
    ("sweep", {"base": GRAPH_KIND_RUNS[0], "sweep": {"param": "eps2", "values": []}},
     "with at least one value"),
], ids=["energy", "sweep"])
def test_command_that_would_run_nothing_exits_2(tmp_path, capsys, triangle_csv, command, obj,
                                                message):
    cfg = write_config(tmp_path, "cfg.json", obj)
    out = tmp_path / "run"
    assert run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.endswith(f"{message}\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("eps2", 0.5), ("mu", 2.0), ("nu", -0.5),
                                        ("lambda", 0.1), ("mode", "attract-repulse")])
def test_simplify_influence_keys_need_eps1(tmp_path, capsys, triangle_csv, key, value):
    cfg = write_config(tmp_path, "cfg.json", {"source": "static", key: value})
    out = tmp_path / "run"
    assert run_cli("simplify", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"input error: simplify reads {key} only with eps1: give eps1 too\n")
    assert not out.exists()


@pytest.mark.parametrize("run", [
    {"kind": "odnet-continuous", "scheme": "euler", "h": 1e-4, "t_end": 1.0},
    {"kind": "odnet-discrete", "t_end": 7000},
], ids=["euler", "discrete"])
def test_run_over_the_recorded_state_budget_exits_2_before_the_first_step(
        tmp_path, capsys, monkeypatch, run):
    # 10001 states of 1000 x 20 doubles are 1.6 GB, past the 1 GiB budget.
    import odyn.dynamics as dynamics
    import odyn.integrators as integrators

    for module in (integrators, dynamics):
        monkeypatch.setattr(module, "euler_step", mock.Mock(side_effect=AssertionError("step")))
    g, _ = generate_sbm([250] * 4, 0.02, 0.001, seed=0)
    path = tmp_path / "g.csv"
    write_graph_csv(path, g)
    cfg = write_config(tmp_path, "cfg.json", dict(run, eps1=0.0, eps2=1.0, dim=20))
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", path, "--config", cfg, "--out", out) == 2
    states = 10001 if run["kind"] == "odnet-continuous" else 7001
    assert capsys.readouterr().err == (
        f"input error: trajectory of {states} states of shape (1000, 20) exceeds the "
        "recorded-state limit of 1073741824 bytes\n")
    assert not out.exists()


# ------------------------------------------------------------ count-valued keys


@pytest.mark.parametrize("command, run, message", [
    ("simulate", {**GRAPH_KIND_RUNS[0], "t_end": 2.5}, "t_end must be an integer >= 0, got 2.5"),
    ("simulate", {**GRAPH_KIND_RUNS[0], "t_end": "4"}, "t_end must be a finite number, got '4'"),
    ("simulate", {**GRAPH_KIND_RUNS[0], "dim": 2.5}, "dim must be an integer >= 1, got 2.5"),
    ("simulate", {**HK_RUN, "node_count": 3.7}, "node_count must be an integer >= 1, got 3.7"),
    ("simulate", {**HK_RUN, "node_count": 0}, "node_count must be an integer >= 1, got 0"),
    ("energy", {**GRAPH_KIND_RUNS[0], "runs": [{"name": "a"}, {"name": "b", "dim": 1.5}]},
     "dim must be an integer >= 1, got 1.5"),
    ("simplify", {"dim": 2.5}, "dim must be an integer >= 1, got 2.5"),
], ids=["steps", "steps-string", "dim", "node_count", "node_count-0", "energy-dim",
        "simplify-dim"])
def test_count_keys_refuse_what_is_not_a_whole_number(tmp_path, triangle_csv, capsys, command,
                                                      run, message):
    cfg = write_config(tmp_path, "cfg.json", run)
    out = tmp_path / "run"
    graph = () if run.get("kind") == "hk" else ("--graph", triangle_csv)
    assert run_cli(command, *graph, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_count_keys_take_whole_floats(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json", {**GRAPH_KIND_RUNS[0], "t_end": 4.0, "dim": 3.0})
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", tmp_path / "a") == 0
    assert read_state_csv(tmp_path / "a" / "final_state.csv").shape == (3, 3)
    assert len((tmp_path / "a" / "energy.csv").read_text().splitlines()) == 1 + 5
    cfg = write_config(tmp_path, "hk.json", {**HK_RUN, "node_count": 4.0})
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "b") == 0
    assert read_state_csv(tmp_path / "b" / "final_state.csv").shape == (4, 2)
    cfg = write_config(tmp_path, "simplify.json", {"dim": 4.0, "t_end": 0.5})
    assert run_cli("simplify", "--graph", triangle_csv, "--config", cfg,
                   "--out", tmp_path / "c") == 0


@pytest.mark.parametrize("command, obj", [
    ("simulate", {"kind": "odnet-continuous", "eps1": 0, "eps2": 1, "t_end": {}}),
    ("simulate", {"kind": "fd", "t_end": [1]}),
    ("simulate", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1, "dim": None}),
    ("energy", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1, "runs": [{"t_end": [1]}]}),
    ("energy", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1, "runs": 5}),
    ("sweep", {"base": {"kind": "fd"}, "sweep": {"param": "t_end", "values": 5}}),
    ("sweep", {"base": {"kind": "fd"}, "sweep": {"param": 5, "values": [1]}}),
])
def test_config_value_of_wrong_json_type_exits_2(tmp_path, triangle_csv, capsys, command, obj):
    cfg = write_config(tmp_path, "cfg.json", obj)
    out = tmp_path / "run"
    assert run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert not out.exists()


DISCRETE = '"kind": "odnet-discrete", "eps1": 0, "eps2": 1'
CONTINUOUS = '"kind": "odnet-continuous", "eps1": 0, "eps2": 1'


@pytest.mark.parametrize("command, text, key", [
    ("simulate", f'{{{DISCRETE}, "t_end": 1e400}}', "t_end"),
    ("simulate", f'{{{DISCRETE}, "t_end": Infinity}}', "t_end"),
    ("simulate", f'{{{DISCRETE}, "dim": 1e400}}', "dim"),
    ("simulate", f'{{{DISCRETE}, "t_end": -Infinity}}', "t_end"),
    ("simulate", f'{{{CONTINUOUS}, "scheme": "rk4", "t_end": 1e400}}', "t_end"),
    ("simulate", f'{{{CONTINUOUS}, "scheme": "euler", "t_end": Infinity}}', "t_end"),
    ("simulate", f'{{{CONTINUOUS}, "scheme": "rk4", "max_steps": 1e400}}', "max_steps"),
    ("simulate", f'{{{CONTINUOUS}, "lambda": NaN}}', "lambda"),
    ("energy", f'{{{DISCRETE}, "runs": [{{"name": "a"}}, {{"t_end": Infinity}}]}}', "t_end"),
    ("simplify", '{"dim": 1e400}', "dim"),
    ("classify", '{"eps1": 0, "eps2": 1, "max_steps": 1e400}', "max_steps"),
], ids=["steps-1e400", "steps-inf", "dim", "discrete-t_end", "rk4-t_end", "euler-t_end",
        "max_steps", "lambda-nan", "energy-runs", "simplify-dim", "classify-max_steps"])
def test_config_number_must_be_finite(tmp_path, triangle_csv, capsys, command, text, key):
    cfg = write_text(tmp_path / "cfg.json", text)
    labels = write_text(tmp_path / "y.csv", "node,label\n0,0\n1,1\n2,0\n")
    out = tmp_path / "run"
    extra = ("--labels", labels) if command == "classify" else ()
    assert run_cli(command, "--graph", triangle_csv, "--config", cfg, *extra, "--out", out) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"input error: {key} must be [^\n]*, got (-?inf|nan)\n", err)
    assert not out.exists()


@pytest.mark.parametrize("scheme, value", [("rk4", "inf"), ("dopri5", "nan"), ("dopri5", "inf")])
def test_t_end_flag_must_be_finite(tmp_path, triangle_csv, capsys, scheme, value):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "odnet-continuous", "eps1": 0, "eps2": 1,
                                              "scheme": scheme})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out,
                   "--t-end", value) == 2
    err = capsys.readouterr().err
    assert err == f"input error: t_end must be a finite number, got {float(value)!r}\n"
    assert not out.exists()


# A base config per command under which each key below is read.
KEY_BASES = {
    "continuous": ("simulate", GRAPH_KIND_RUNS[1]),
    "discrete": ("simulate", GRAPH_KIND_RUNS[0]),
    "hk": ("simulate", {**HK_RUN, "node_count": 3}),
    "csv": ("simulate", {**GRAPH_KIND_RUNS[1], "init": "csv", "state_csv": "x.csv"}),
    "energy": ("energy", {**GRAPH_KIND_RUNS[1], "runs": [{"name": "a"}]}),
    "simplify": ("simplify", {"eps1": 0.0, "eps2": 1.0, "t_end": 0.5, "dim": 2}),
    "classify": ("classify", {"eps1": 0.0, "eps2": 1.0, "scheme": "rk4", "t_end": 1.0}),
    "homophily": ("homophily", {}),
}
NUMBER_KEYS = [
    *(("continuous", key) for key in ("eps1", "eps2", "mu", "nu", "lambda", "temperature", "h",
                                      "rtol", "atol", "t_end")),
    ("hk", "hk_radius"),
    *(("simplify", key) for key in ("cutoff", "t_end", "lambda")),
    *(("classify", key) for key in ("train_frac", "val_frac", "mu", "h")),
]
COUNT_KEYS = [("discrete", "dim"), ("discrete", "t_end"),
              ("continuous", "max_steps"), ("hk", "node_count"), ("simplify", "dim")]
BOOLEAN_KEYS = [("continuous", "directed"), ("simplify", "drop_isolated"),
                ("homophily", "directed")]
STRING_KEYS = [
    *(("continuous", key) for key in ("kind", "mode", "similarity", "kernel", "scheme", "init")),
    ("csv", "state_csv"), ("energy", "name"), ("simplify", "source"), ("simplify", "scheme"),
]
WRONG_TYPES = [
    *((base, key, value) for base, key in NUMBER_KEYS for value in ("nan", "0.5", True)),
    *((base, key, value) for base, key in COUNT_KEYS for value in ("4", True)),
    *((base, key, value) for base, key in BOOLEAN_KEYS for value in ("false", 0)),
    *((base, key, value) for base, key in STRING_KEYS for value in (5, True)),
]


@pytest.mark.parametrize("base, key, value", WRONG_TYPES,
                         ids=[f"{b}-{k}-{v!r}" for b, k, v in WRONG_TYPES])
def test_every_config_key_refuses_a_value_of_the_wrong_type(tmp_path, triangle_csv, capsys,
                                                             base, key, value):
    command, obj = KEY_BASES[base]
    obj = dict(obj)
    if base == "energy":
        obj["runs"] = [{key: value}]  # an arm's own key
    else:
        obj[key] = value
    cfg = write_config(tmp_path, "cfg.json", obj)
    labels = write_text(tmp_path / "y.csv", "node,label\n0,0\n1,1\n2,0\n")
    graph = () if base == "hk" else ("--graph", triangle_csv)
    extra = ("--labels", labels) if command in ("classify", "homophily") else ()
    out = tmp_path / "run"
    assert run_cli(command, *graph, "--config", cfg, *extra, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {key} must be ") and err.endswith(f", got {value!r}\n")
    assert not out.exists()


# ------------------------------------------------------------ the config schema


@pytest.mark.parametrize("command, obj, key, close", [
    ("simulate", dict(GRAPH_KIND_RUNS[1], lamda=2.0), "lamda", "lambda"),
    ("simplify", {"source": "static", "cutof": 0.9}, "cutof", "cutoff"),
    ("energy", dict(GRAPH_KIND_RUNS[1], runs=[{"name": "a"}, {"name": "b", "lamda": 2.0}]),
     "lamda", "lambda"),
    ("sweep", {"base": GRAPH_KIND_RUNS[1], "sweep": {"param": "lamda", "values": [2.0]}},
     "lamda", "lambda"),
], ids=["simulate", "simplify", "energy-arm", "sweep-param"])
def test_unknown_config_key_exits_2_naming_the_closest_key(tmp_path, triangle_csv, capsys,
                                                           command, obj, key, close):
    cfg = write_config(tmp_path, "cfg.json", obj)
    out = tmp_path / "run"
    assert run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"input error: unknown config key {key!r}; did you mean {close!r}?\n")
    assert not out.exists()


@pytest.mark.parametrize("param, message", [
    ("cutoff", "'cutoff' is read by simplify, not simulate"),
    ("name", "'name' is read by energy, not simulate"),
    ("sweep", "'sweep' is read by sweep, not simulate"),
])
def test_sweep_refuses_a_param_simulate_does_not_read(tmp_path, triangle_csv, capsys, caplog,
                                                      param, message):
    # Each run would ignore the key and write the same files.
    cfg = write_config(tmp_path, "cfg.json", {
        "base": {"kind": "odnet-discrete", "eps1": 0, "eps2": 1, "t_end": 3, "dim": 2},
        "sweep": {"param": param, "values": [0.1, 0.5, 0.9]}})
    out = tmp_path / "sweep"
    with caplog.at_level("WARNING", logger="odyn"):
        assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: sweep param {message}\n"
    assert not caplog.records
    assert not out.exists()


@pytest.mark.parametrize("command, obj", [
    ("simulate", dict(GRAPH_KIND_RUNS[0], steps=4)),
    ("energy", dict(GRAPH_KIND_RUNS[1], runs=[{"name": "c"}, dict(GRAPH_KIND_RUNS[0], steps=4)])),
    ("sweep", {"base": dict(GRAPH_KIND_RUNS[0], steps=4), "sweep": {"param": "dim",
                                                                    "values": [1]}}),
    ("sweep", {"base": GRAPH_KIND_RUNS[0], "sweep": {"param": "steps", "values": [4]}}),
], ids=["simulate", "energy-arm", "sweep-base", "sweep-param"])
def test_steps_is_refused_naming_t_end(tmp_path, triangle_csv, capsys, command, obj):
    # A discrete kind's step count is t_end; `steps` was a second setting of it.
    cfg = write_config(tmp_path, "cfg.json", obj)
    out = tmp_path / "run"
    assert run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        "input error: unknown config key 'steps'; did you mean 't_end'?\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, obj", [
    ("simulate", "--graph", HK_RUN),
    ("simulate", "--hypergraph", HK_RUN),
    ("simulate", "--graph", GRAPH_KIND_RUNS[1]),
    ("sweep", "--graph", {"base": HK_RUN, "sweep": {"param": "dim", "values": [1, 2]}}),
], ids=["hk-graph", "hk-hypergraph", "odnet", "sweep"])
def test_node_count_next_to_a_structure_is_refused(tmp_path, triangle_csv, capsys, command,
                                                    flag, obj):
    # The structure fixes the node count, so a node_count beside it would go unread.
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    obj = ({**obj, "base": {**obj["base"], "node_count": 7}} if command == "sweep"
           else {**obj, "node_count": 7})
    cfg = write_config(tmp_path, "cfg.json", obj)
    out = tmp_path / "run"
    structure = triangle_csv if flag == "--graph" else h
    assert run_cli(command, flag, structure, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        "input error: config key node_count is refused beside a structure, which fixes it\n")
    assert not out.exists()


def test_energy_does_not_read_node_count(tmp_path, triangle_csv, capsys, caplog):
    plain = write_config(tmp_path, "plain.json", dict(HK_RUN, name="hk"))
    counted = write_config(tmp_path, "counted.json",
                           dict(HK_RUN, runs=[{"name": "hk", "node_count": 7}], node_count=7))
    assert run_cli("energy", "--graph", triangle_csv, "--config", plain,
                   "--out", tmp_path / "plain") == 0
    caplog.clear()
    with caplog.at_level("WARNING", logger="odyn"):
        assert run_cli("energy", "--graph", triangle_csv, "--config", counted,
                       "--out", tmp_path / "counted") == 0
    assert [r.getMessage() for r in caplog.records] == [
        "config key 'node_count' is not read by energy; ignored"] * 2
    for name in ("energy_hk.csv", "summary.json"):
        assert (tmp_path / "counted" / name).read_bytes() == (
            tmp_path / "plain" / name).read_bytes()
    capsys.readouterr()


def test_unknown_config_key_without_a_close_one_is_named_alone(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json", dict(GRAPH_KIND_RUNS[1], zzz=1))
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == "input error: unknown config key 'zzz'\n"
    assert not out.exists()


def test_a_key_only_other_commands_read_is_ignored_with_one_warning(tmp_path, triangle_csv,
                                                                    capsys, caplog):
    plain = write_config(tmp_path, "plain.json", GRAPH_KIND_RUNS[1])
    named = write_config(tmp_path, "named.json", dict(GRAPH_KIND_RUNS[1], name="a"))
    assert run_cli("simulate", "--graph", triangle_csv, "--config", plain,
                   "--out", tmp_path / "plain") == 0
    caplog.clear()
    with caplog.at_level("WARNING", logger="odyn"):
        assert run_cli("simulate", "--graph", triangle_csv, "--config", named,
                       "--out", tmp_path / "named") == 0
    assert [r.getMessage() for r in caplog.records] == [
        "config key 'name' is not read by simulate; ignored"]
    for name in ("trajectory.csv", "final_state.csv", "energy.csv"):
        assert (tmp_path / "named" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_energy_arm_may_not_set_runs(tmp_path, capsys, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json",
                       dict(GRAPH_KIND_RUNS[0], runs=[{"name": "a", "runs": [{"name": "b"}]}]))
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        "input error: energy arm 0 ('a') sets 'runs': set it at the top level\n")
    assert not out.exists()


def test_sweep_checks_its_first_run_as_simulate_before_out(tmp_path, capsys, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json", {"base": dict(GRAPH_KIND_RUNS[0], t_end=2.5),
                                              "sweep": {"param": "eps2", "values": [0.5]}})
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == "input error: t_end must be an integer >= 0, got 2.5\n"
    assert not out.exists()


@pytest.mark.parametrize("base, param, values, code, message", [
    ({"kind": "bogus"}, "dim", [2, 3], 2, "kind must be one of"),
    ({"kind": "odnet-discrete", "eps1": 0.9, "eps2": 0.1}, "dim", [2, 3], 2,
     "need 0 <= eps1 <= eps2 <= 1"),
    ({"kind": "fd", "init": "nope"}, "dim", [2, 3], 2, "unknown init kind 'nope'"),
    ({"kind": "fd", "init": "csv"}, "dim", [2, 3], 2, "missing config key 'state_csv'"),
    (dict(GRAPH_KIND_RUNS[0], t_end=2), "eps2", [0.5, "x"], 2,
     "eps2 must be a finite number, got 'x'"),
    (dict(GRAPH_KIND_RUNS[0], max_steps=5), "t_end", [4, 6], 3,
     "6 discrete steps exceed max_steps = 5"),
], ids=["kind", "eps-band", "init", "init-csv", "later-value", "step-budget"])
def test_sweep_checks_every_run_before_out(tmp_path, capsys, triangle_csv, base, param, values,
                                           code, message):
    cfg = write_config(tmp_path, "cfg.json",
                       {"base": base, "sweep": {"param": param, "values": values}})
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg, "--out", out) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_reads_the_graph_as_each_run_directs(tmp_path, capsys):
    # Both arcs of one pair: a directed graph, but a duplicate edge read undirected.
    g = write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,1.0\n1,0,1.0\n")
    cfg = write_config(tmp_path, "cfg.json", {"base": {"kind": "fd", "init": "uniform"},
                                              "sweep": {"param": "directed",
                                                        "values": [True, False]}})
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--graph", g, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == "input error: duplicate edge (0, 1)\n"
    assert not out.exists()


def test_sweep_records_a_failure_only_the_run_can_hit(tmp_path, capsys):
    # The hgnn kernel is checked when the rhs is built, inside the run.
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    base = {"kind": "hypergraph-diffusion", "kernel": "hgnn", "t_end": 1.0, "init": "unit"}
    cfg = write_config(tmp_path, "cfg.json", {"base": base,
                                              "sweep": {"param": "dim", "values": [1, 2]}})
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--hypergraph", h, "--config", cfg, "--out", out) == 3
    capsys.readouterr()
    index = json.loads((out / "index.json").read_text())
    assert [run["exit_code"] for run in index["runs"]] == [3, 3]
    assert not (out / "run_0000" / "trajectory.csv").exists()


def test_sweep_run_writes_what_simulate_writes(tmp_path, capsys, triangle_csv):
    base = GRAPH_KIND_RUNS[1]
    cfg = write_config(tmp_path, "cfg.json", {"base": base,
                                              "sweep": {"param": "eps2", "values": [0.5]}})
    assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg, "--out",
                   tmp_path / "sweep") == 0
    one = write_config(tmp_path, "one.json", dict(base, eps2=0.5))
    assert run_cli("simulate", "--graph", triangle_csv, "--config", one, "--out",
                   tmp_path / "one") == 0
    capsys.readouterr()
    for name in ("trajectory.csv", "final_state.csv", "energy.csv"):
        assert ((tmp_path / "sweep" / "run_0000" / name).read_bytes()
                == (tmp_path / "one" / name).read_bytes())


def test_sweep_reads_checks_and_warns_once(tmp_path, capsys, caplog, triangle_csv):
    # 'cutoff' is a key only simplify reads: simulate warns of it.
    import odyn.cli as cli

    cfg = write_config(tmp_path, "cfg.json", {
        "base": dict(GRAPH_KIND_RUNS[0], cutoff=0.3),
        "sweep": {"param": "eps2", "values": [0.4, 0.7, 1.0]}})
    with (mock.patch.object(cli, "read_graph_csv", wraps=cli.read_graph_csv) as reads,
          mock.patch.object(cli, "main", wraps=cli.main) as entries,
          caplog.at_level("WARNING", logger="odyn")):
        assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg,
                       "--out", tmp_path / "sweep") == 0
    capsys.readouterr()
    assert reads.call_count == 1
    assert entries.call_count == 0
    assert [r.getMessage() for r in caplog.records] == [
        "config key 'cutoff' is not read by simulate; ignored"]


def test_sweep_reads_the_hypergraph_once(tmp_path, capsys, triangle_csv):
    import odyn.cli as cli

    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    cfg = write_config(tmp_path, "cfg.json", {
        "base": {"kind": "hypergraph-diffusion", "kernel": "uniform", "t_end": 1.0, "dim": 2},
        "sweep": {"param": "directed", "values": [True, False]}})
    with (mock.patch.object(cli, "read_graph_csv", wraps=cli.read_graph_csv) as graph_reads,
          mock.patch.object(cli, "read_hypergraph_csv",
                            wraps=cli.read_hypergraph_csv) as hypergraph_reads):
        assert run_cli("sweep", "--graph", triangle_csv, "--hypergraph", h, "--config", cfg,
                       "--out", tmp_path / "sweep") == 0
    capsys.readouterr()
    assert [c.kwargs["directed"] for c in graph_reads.call_args_list] == [True, False]
    assert hypergraph_reads.call_count == 1
    index = json.loads((tmp_path / "sweep" / "index.json").read_text())
    assert [run["exit_code"] for run in index["runs"]] == [0, 0]


def test_sweep_runs_write_each_line_whole(tmp_path, monkeypatch, triangle_csv):
    # --jobs workers share the sweep's streams; on an unbuffered stream a line
    # written in two calls can be split by another worker's line.
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    hgnn = write_config(tmp_path, "hgnn.json", {
        "base": {"kind": "hypergraph-diffusion", "kernel": "hgnn", "t_end": 1.0, "init": "unit"},
        "sweep": {"param": "dim", "values": [1, 2]}})
    monkeypatch.setattr(sys, "stdout", mock.Mock())
    monkeypatch.setattr(sys, "stderr", mock.Mock())
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--graph", triangle_csv, "--config", sweep_config(tmp_path),
                   "--out", out) == 0
    assert run_cli("sweep", "--hypergraph", h, "--config", hgnn, "--out", tmp_path / "hg") == 3
    writes = {name: [c.args[0] for c in getattr(sys, name).write.call_args_list]
              for name in ("stdout", "stderr")}
    assert [w for w in writes["stdout"] if "run_" in w] == [f"{out / 'run_0000'}\n",
                                                            f"{out / 'run_0001'}\n"]
    assert writes["stderr"] == [
        "numeric failure: kernel rows must be nonnegative and sum to one\n"] * 2


def test_energy_checks_arm_names_before_reading_any_input(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", dict(GRAPH_KIND_RUNS[0], runs=[{"name": "a/b"}]))
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", tmp_path / "missing.csv", "--config", cfg,
                   "--out", out) == 2
    assert capsys.readouterr().err.startswith(
        "input error: energy arm 0 name 'a/b' must be a plain file stem")
    assert not out.exists()


@pytest.mark.parametrize("runs, stand_in, message", [
    ([{"name": "a", "kind": "hypergraph-diffusion"},
      {"name": "b", "kind": "hypergraph-diffusion", "kernel": "laplacian"}],
     "integrate", "kernel must be 'uniform' or 'hgnn', got 'laplacian'"),
    ([{"name": "a", "kind": "fd"}, {"name": "b", "kind": "hk", "hk_radius": 0}],
     "iterate_map", "hk_radius must be positive, got 0.0"),
], ids=["kernel", "hk_radius"])
def test_energy_checks_every_arms_kernel_and_radius_before_the_first_runs(
        tmp_path, capsys, monkeypatch, runs, stand_in, message):
    import odyn.cli as cli

    monkeypatch.setattr(cli, stand_in, mock.Mock(side_effect=AssertionError("an arm ran")))
    g = write_text(tmp_path / "g.csv", LAZY_CYCLE_ROWS)
    h = write_text(tmp_path / "h.csv", IRREGULAR_HYPERGRAPH)
    cfg = write_config(tmp_path, "cfg.json", {"directed": True, "runs": runs})
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", g, "--hypergraph", h, "--config", cfg,
                   "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert getattr(cli, stand_in).call_count == 0
    assert not out.exists()


def test_energy_arms_own_keys_beat_the_command_line_flags(tmp_path, capsys, triangle_csv):
    # The flags beat the top level; an arm's own scheme or t_end beats both.
    base = {"kind": "odnet-continuous", "eps1": 0.0, "eps2": 1.0, "h": 0.1, "init": "unit",
            "dim": 2}
    arms = {"inherits": ({}, "euler", 1.0), "own_t_end": ({"t_end": 2.0}, "euler", 2.0),
            "own_scheme": ({"scheme": "rk4"}, "rk4", 1.0)}
    cfg = write_config(tmp_path, "cfg.json", dict(
        base, scheme="dopri5", t_end=3.0, runs=[dict(own, name=name) for name, (own, _, _)
                                                 in arms.items()]))
    out = tmp_path / "flags"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--t-end", "1.0",
                   "--scheme", "euler", "--out", out) == 0
    for name, (_, scheme, t_end) in arms.items():
        alone = write_config(tmp_path, f"{name}.json",
                             dict(base, scheme=scheme, t_end=t_end, runs=[{"name": name}]))
        assert run_cli("energy", "--graph", triangle_csv, "--config", alone,
                       "--out", tmp_path / name) == 0
        fname = f"energy_{name}.csv"
        assert (out / fname).read_bytes() == (tmp_path / name / fname).read_bytes(), name
        assert (out / fname).read_text().splitlines()[-1].startswith(f"{t_end!r},")
    capsys.readouterr()


def test_readme_key_table_matches_the_schema():
    import odyn.cli as cli

    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| key | type | default | read by |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        table.update({key: set(cells[3].split(", ")) for key in re.findall(r"`(\w+)`", cells[0])})
    schema = {key: {command for command, keys in cli.KEYS.items() if key in keys}
              for key in set().union(*cli.KEYS.values())}
    assert table == schema


def test_fixed_step_count_beyond_any_integer_exits_3(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "odnet-continuous", "eps1": 0, "eps2": 1,
                                              "scheme": "rk4", "t_end": 1e300, "h": 1e-10})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out) == 3
    assert "numeric failure: inf fixed steps exceed max_steps" in capsys.readouterr().err
    assert not out.exists()


def test_discrete_steps_beyond_max_steps_exit_3_before_the_first_step(
        tmp_path, triangle_csv, capsys, monkeypatch):
    import odyn.cli as cli

    monkeypatch.setattr(cli, "iterate_map", mock.Mock(side_effect=AssertionError("stepped")))
    cfg = write_config(tmp_path, "cfg.json", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1,
                                              "t_end": 1e15, "dim": 1})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "numeric failure: 1000000000000000 discrete steps exceed max_steps = 100000" in err
    assert not out.exists()


@pytest.mark.parametrize("max_steps, steps, code", [(4, 4, 0), (4, 5, 3), (2.5, 1, 2), (0, 1, 2)])
def test_discrete_runs_take_max_steps_from_the_config(tmp_path, triangle_csv, max_steps, steps,
                                                      code):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1,
                                              "t_end": steps, "dim": 1, "max_steps": max_steps})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out) == code
    assert out.exists() == (code == 0)


# Each discrete kind's run and a graph it runs on.
DISCRETE_KINDS = {"fd": (GRAPH_KIND_RUNS[2], LAZY_CYCLE_ROWS),
                  "odnet-discrete": (GRAPH_KIND_RUNS[0], TRI_ROWS), "hk": (HK_RUN, TRI_ROWS)}
BAD_INTEGRATOR_KEYS = [
    ("scheme", "bogus", "scheme must be one of ('euler', 'rk4', 'dopri5')"),
    ("scheme", "rk5", "scheme must be one of ('euler', 'rk4', 'dopri5')"),
    ("h", -3, "step size h must be positive"),
    ("rtol", -5, "tolerances must be positive"),
    ("atol", 0, "tolerances must be positive"),
]


@pytest.mark.parametrize("command", ["simulate", "energy"])
@pytest.mark.parametrize("kind", sorted(DISCRETE_KINDS))
@pytest.mark.parametrize("key, value, message", BAD_INTEGRATOR_KEYS,
                         ids=[f"{key}-{value}" for key, value, _ in BAD_INTEGRATOR_KEYS])
def test_discrete_runs_refuse_invalid_integrator_keys(tmp_path, capsys, monkeypatch, command,
                                                      kind, key, value, message):
    import odyn.cli as cli

    monkeypatch.setattr(cli, "iterate_map", mock.Mock(side_effect=AssertionError("stepped")))
    run, rows = DISCRETE_KINDS[kind]
    obj = {**run, key: value}
    if command == "energy":  # the second arm's own key; the first arm must not run either
        obj = {**run, "runs": [{"name": "a"}, {"name": "b", key: value}]}
    cfg = write_config(tmp_path, "cfg.json", obj)
    graph = write_text(tmp_path / "g.csv", rows)
    out = tmp_path / "run"
    assert run_cli(command, "--graph", graph, "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(DISCRETE_KINDS))
def test_discrete_runs_take_valid_integrator_keys(tmp_path, capsys, kind):
    # A discrete t_end counts steps, so it need not be a valid horizon.
    run, rows = DISCRETE_KINDS[kind]
    keys = {"scheme": "rk4", "h": 0.5, "rtol": 1e-3, "atol": 1e-3, "t_end": 0}
    cfg = write_config(tmp_path, "cfg.json", {**run, **keys})
    graph = write_text(tmp_path / "g.csv", rows)
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", graph, "--config", cfg, "--out", out) == 0
    assert len((out / "energy.csv").read_text().splitlines()) == 1 + 1


def test_discrete_arm_inherits_valid_continuous_keys(tmp_path, capsys, triangle_csv):
    base = {**GRAPH_KIND_RUNS[1], "scheme": "rk4", "h": 0.05, "rtol": 1e-4, "atol": 1e-6,
            "t_end": 1.0, "max_steps": 50}
    runs = [{"name": "c"}, {"name": "d", "kind": "odnet-discrete", "t_end": 12}]
    cfg = write_config(tmp_path, "cfg.json", dict(base, runs=runs))
    out = tmp_path / "run"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg, "--out", out) == 0
    assert len((out / "energy_d.csv").read_text().splitlines()) == 1 + 13
    assert (out / "energy_c.csv").read_text().splitlines()[-1].startswith("1.0,")


# Each command's required input flags, besides --out.
REQUIRED_FLAGS = {"simplify": ("--graph",), "classify": ("--graph", "--labels"),
                  "homophily": ("--graph", "--labels")}


@pytest.mark.parametrize("command, missing", [
    (command, flag) for command, flags in REQUIRED_FLAGS.items() for flag in flags])
def test_parser_requires_input_flags(tmp_path, capsys, triangle_csv, command, missing):
    labels = write_text(tmp_path / "labels.csv", "node,label\n0,0\n1,1\n2,0\n")
    given = {"--graph": triangle_csv, "--labels": labels}
    argv = [arg for flag in REQUIRED_FLAGS[command] if flag != missing
            for arg in (flag, given[flag])]
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *argv, "--out", out)
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    *((c, "--jobs") for c in ("simulate", "energy", "simplify", "classify", "homophily")),
    *((c, "--labels") for c in ("simulate", "energy", "simplify", "sweep")),
    *((c, "--hypergraph") for c in ("simplify", "classify", "homophily")),
    *((c, f) for c in ("homophily", "sweep") for f in ("--scheme", "--t-end")),
])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    value = "rk4" if flag == "--scheme" else "1"
    required = [arg for f in REQUIRED_FLAGS.get(command, ()) for arg in (f, tmp_path / "in.csv")]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, flag, value, *required, "--out", tmp_path / "run")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_energy_command_flags_contracting_arm(tmp_path, triangle_csv, capsys):
    # same structure, two influence arms: full-band diffusion collapses,
    # a band above every similarity keeps the couplings at zero
    cfg = write_config(tmp_path, "cfg.json", {
        "kind": "odnet-discrete",
        "t_end": 40,
        "init": "unit",
        "dim": 4,
        "runs": [
            {"name": "diffusion", "eps1": 0.0, "eps2": 1.0},
            {"name": "frozen", "eps1": 0.99, "eps2": 1.0},
        ],
    })
    out = tmp_path / "runs"
    assert run_cli("energy", "--graph", triangle_csv, "--config", cfg,
                   "--out", out) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outputs"] == ["energy_diffusion.csv", "energy_frozen.csv"]
    diffusion = summary["runs"]["diffusion"]
    frozen = summary["runs"]["frozen"]
    assert diffusion["oversmoothing"] is True
    assert diffusion["energy_ratio"] < 1e-6
    assert frozen["oversmoothing"] is False
    assert frozen["energy_ratio"] == pytest.approx(1.0)
    for name in summary["outputs"]:
        assert (out / name).exists()


def test_simplify_command_outputs(tmp_path, capsys):
    # star: leaf-leaf similarity is 0, leaf-hub is 0.5; a cutoff between
    # zero and the band keeps exactly the spokes
    rows = ["src,dst,weight"] + [f"0,{i},1.0" for i in range(1, 6)]
    g = write_text(tmp_path / "star.csv", "\n".join(rows) + "\n")
    cfg = write_config(tmp_path, "cfg.json",
                       {"eps1": 0.0, "eps2": 1.0, "source": "static",
                        "cutoff": 0.1})
    out = tmp_path / "simpl"
    assert run_cli("simplify", "--graph", g, "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report == {"nodes_before": 6, "edges_before": 5, "nodes_after": 6,
                      "edges_after": 5, "cutoff": 0.1}
    kept = read_graph_csv(out / "simplified.csv")
    ki, kj, _ = kept.undirected_pairs()
    assert list(zip(ki.tolist(), kj.tolist())) == [(0, i) for i in range(1, 6)]


def test_classify_command_outputs(tmp_path, capsys):
    # two 4-cliques, one bridge; labels follow the cliques
    rows = ["src,dst,weight"]
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                rows.append(f"{base + i},{base + j},1.0")
    rows.append("3,4,0.1")
    g = write_text(tmp_path / "cliques.csv", "\n".join(rows) + "\n")
    y = write_text(tmp_path / "y.csv",
                   "node,label\n" + "".join(f"{i},{i // 4}\n" for i in range(8)))
    cfg = write_config(tmp_path, "cfg.json",
                       {"eps1": 0.0, "eps2": 1.0, "scheme": "rk4", "h": 0.25,
                        "t_end": 4.0, "lambda": 0.4})
    out = tmp_path / "cls"
    assert run_cli("classify", "--graph", g, "--labels", y, "--config", cfg,
                   "--seed", 1, "--out", out) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    accuracy = json.loads((out / "accuracy.json").read_text())
    assert printed == accuracy
    assert set(accuracy) == {"train", "val", "test"}
    assert accuracy["train"] == 1.0
    assert accuracy["test"] >= 0.5
    preds = read_labels_csv(out / "predictions.csv", node_count=8)
    assert preds.labels.shape == (8,)


@pytest.mark.parametrize("fracs", [{"train_frac": 1.5}, {"train_frac": -0.5}, {"val_frac": -0.2},
                                   {"train_frac": 0.7, "val_frac": 0.5}], ids=str)
def test_classify_refuses_split_fractions_outside_the_unit_interval(tmp_path, capsys,
                                                                    triangle_csv, fracs):
    y = write_text(tmp_path / "y.csv", "node,label\n0,0\n1,1\n2,0\n")
    cfg = write_config(tmp_path, "cfg.json", {"eps1": 0.0, "eps2": 1.0, **fracs})
    out = tmp_path / "cls"
    assert run_cli("classify", "--graph", triangle_csv, "--labels", y, "--config", cfg,
                   "--out", out) == 2
    train, val = fracs.get("train_frac", 1 / 3), fracs.get("val_frac", 1 / 3)
    assert capsys.readouterr().err == (
        "input error: split fractions must lie in [0, 1] and sum to at most 1, got "
        f"train_frac = {train!r} and val_frac = {val!r}\n")
    assert not out.exists()


def test_homophily_prints_value_and_optionally_writes(tmp_path, capsys):
    g = write_text(tmp_path / "pair.csv", "src,dst,weight\n0,1,1.0\n1,2,1.0\n")
    y = write_text(tmp_path / "y.csv", "node,label\n0,0\n1,0\n2,1\n")
    assert run_cli("homophily", "--graph", g, "--labels", y) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5)
    out = tmp_path / "hom"
    assert run_cli("homophily", "--graph", g, "--labels", y, "--out", out) == 0
    capsys.readouterr()
    blob = json.loads((out / "homophily.json").read_text())
    assert blob["homophily"] == pytest.approx(0.5)


@pytest.mark.parametrize("command", ["classify", "homophily"])
@pytest.mark.parametrize("rows, message", [
    ("0,0\n2,1\n", "node 1 has 0 label rows"),
    ("0,0\n1,1\n2,0\n1,0\n", "node 1 has 2 label rows"),
], ids=["missing", "repeated"])
def test_a_label_file_needs_one_row_for_each_node(tmp_path, capsys, triangle_csv, command, rows,
                                                  message):
    y = write_text(tmp_path / "y.csv", "node,label\n" + rows)
    cfg = write_config(tmp_path, "cfg.json", {"eps1": 0.0, "eps2": 1.0})
    out = tmp_path / "run"
    assert run_cli(command, "--graph", triangle_csv, "--labels", y, "--config", cfg,
                   "--out", out) == 2
    assert capsys.readouterr().err == (
        f"input error: {y}: {message}; a label file has one row for each node\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", ["graph", "labels"])
def test_index_beyond_int64_exits_2_naming_file_and_line(tmp_path, capsys, bad):
    big = "99999999999999999999"
    g = write_text(tmp_path / "g.csv", "src,dst,weight\n0,1,1.0\n"
                   + (f"{big},2,0.5\n" if bad == "graph" else "1,2,0.5\n"))
    y = write_text(tmp_path / "y.csv", "node,label\n1,0\n"
                   + (f"0,{big}\n" if bad == "labels" else "0,0\n") + "2,1\n")
    assert run_cli("homophily", "--graph", g, "--labels", y) == 2
    err = capsys.readouterr().err
    name = "g.csv" if bad == "graph" else "y.csv"
    assert f"{name}: line 3: integer {big} does not fit in 64 bits" in err


@pytest.mark.parametrize("command", ["homophily", "energy"])
def test_index_implying_a_size_beyond_memory_exits_2(tmp_path, command):
    # Node 10^12 is a valid int64, but per-node arrays of that length do not
    # fit. The child's address space is capped so the allocation fails the
    # same way whatever the machine's overcommit policy.
    big = 1_000_000_000_000
    if command == "homophily":
        inputs = ["--graph", write_text(tmp_path / "g.csv", f"src,dst,weight\n{big},2,0.5\n"),
                  "--labels", write_text(tmp_path / "y.csv", "node,label\n0,0\n")]
    else:
        inputs = ["--hypergraph", write_text(tmp_path / "h.csv", f"node,hyperedge,weight\n{big},0,1.0\n"),
                  "--config", write_config(tmp_path, "cfg.json",
                                           {"kind": "hypergraph-diffusion", "t_end": 1.0})]
    out = tmp_path / "out"
    cap = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({4 << 30}, {4 << 30}))"
    code = f"{cap}; import sys, odyn.cli; sys.exit(odyn.cli.main(sys.argv[1:]))"
    argv = [command, *map(str, inputs), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr
    # The message names the size: numpy's (e.g. "7.28 TiB") for the hypergraph,
    # the TooLarge refusal of WeightedGraph (in GiB) for the graph.
    assert "iB" in proc.stderr
    assert not out.exists()


def test_energy_runs_hypergraph_arms_above_dense_limit(tmp_path, capsys):
    # 2500 nodes, hyperedge e = {2e, ..., 2e + 3} (mod n): every node in two.
    n = 2500
    rows = "".join(f"{(2 * e + k) % n},{e},1.0\n" for e in range(n // 2) for k in range(4))
    h = write_text(tmp_path / "h.csv", "node,hyperedge,weight\n" + rows)
    cfg = write_config(tmp_path, "cfg.json", {
        "scheme": "rk4", "h": 0.1, "t_end": 1.0, "init": "unit", "dim": 3,
        "runs": [
            {"name": "odnet", "kind": "hypergraph-odnet", "eps1": 0.0, "eps2": 1.0},
            {"name": "uniform", "kind": "hypergraph-diffusion", "kernel": "uniform"},
            {"name": "hgnn", "kind": "hypergraph-diffusion", "kernel": "hgnn"},
        ],
    })
    out = tmp_path / "runs"
    assert run_cli("energy", "--hypergraph", h, "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    for name in ("odnet", "uniform", "hgnn"):
        assert 0.0 < summary["runs"][name]["energy_ratio"] < 1.0


@pytest.mark.parametrize("command, run", [
    ("simulate", {"kind": "hypergraph-diffusion", "kernel": "uniform"}),
    ("simulate", {"kind": "hypergraph-odnet", "eps1": 0.0, "eps2": 1.0}),
    ("energy", {"runs": [{"name": "a", "kind": "hypergraph-diffusion", "kernel": "hgnn"}]}),
], ids=["uniform", "hypergraph-odnet", "energy-hgnn"])
def test_hyperedge_of_4097_members_exits_2_before_any_product(tmp_path, capsys, command, run):
    rows = "".join(f"{i},0,1.0\n" for i in range(4097))
    h = write_text(tmp_path / "h.csv", "node,hyperedge,weight\n" + rows)
    cfg = write_config(tmp_path, "cfg.json", dict(run, scheme="rk4", t_end=1.0, dim=2))
    out = tmp_path / "run"
    assert run_cli(command, "--hypergraph", h, "--config", cfg, "--out", out) == 2
    assert "refused for 16785409 node pairs (limit 16777216)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_scipy_or_multiprocessing():
    code = ("import sys, odyn, odyn.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Each call here builds no sparse operator, so none may load SciPy; nor may the CLI's
# homophily command, nor a config it refuses with exit 2 before the run.
SCIPY_FREE_CALLS = """
import os
import sys
import numpy as np
import odyn
from odyn.cli import main
from odyn.diagnostics import SPECTRAL_DENSE_LIMIT

os.chdir(sys.argv[1])
g, labels = odyn.generate_sbm([20, 20], 0.3, 0.05, seed=1)
odyn.homophily_level(g, labels)
odyn.label_by_degree(g)
odyn.normalize_rows(g)
ring = odyn.WeightedGraph(5, [(i, j % 5, 0.5) for i in range(5) for j in (i, i + 1)],
                          directed=True)
assert odyn.is_strongly_connected(ring) and odyn.is_aperiodic(ring)
x = np.random.default_rng(1).random((5, 2))
odyn.consensus_predict(ring, x)
odyn.dirichlet_energy_graph(ring, x)
v = np.random.default_rng(2).random(40)
assert odyn.cluster_count(odyn.hk_step(v, 0.2), 1e-3) >= 1
# Node 6 is in no hyperedge, nor is the last node of the ring at the dense limit.
h = odyn.Hypergraph(7, [((e + k) % 6, e, 1.0) for e in range(6) for k in range(3)])
odyn.dirichlet_energy_hypergraph(h, np.random.default_rng(3).random((7, 2)))
n = SPECTRAL_DENSE_LIMIT
big = odyn.Hypergraph(n, [((e + k) % (n - 1), e, 1.0) for e in range(n - 1) for k in range(3)])
for kernel in ("uniform", "hgnn"):
    assert odyn.spectral_gap(h, kernel) > 0.0 and odyn.spectral_gap(big, kernel) > 0.0
odyn.write_graph_csv("g.csv", g)
odyn.read_graph_csv("g.csv")
odyn.write_hypergraph_csv("h.csv", h)
odyn.read_hypergraph_csv("h.csv")
odyn.write_labels_csv("y.csv", labels)
odyn.read_labels_csv("y.csv")
odyn.write_state_csv("x.csv", x)
odyn.read_state_csv("x.csv")
odyn.write_trajectory_csv("t.csv", odyn.iterate_map(lambda s: odyn.hk_step(s, 0.2), v, 3))
odyn.write_energy_csv("e.csv", [0, 1], [1.0, 0.5])
odyn.write_json("bad.json", {"kind": "odnet-discrete", "eps1": "0.5"})
assert main(["homophily", "--graph", "g.csv", "--labels", "y.csv", "--out", "hom"]) == 0
assert main(["simulate", "--graph", "g.csv", "--config", "bad.json", "--out", "run"]) == 2
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_calls_that_build_no_sparse_operator_load_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_CALLS, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # after homophily's own line
    assert (tmp_path / "hom" / "homophily.json").exists() and not (tmp_path / "run").exists()


def test_sweep_parallel_matches_serial(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "base": {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                 "t_end": 6, "init": "unit", "dim": 3},
        "sweep": {"param": "eps2", "values": [0.4, 0.7, 1.0]},
    })
    outs = {}
    for label, jobs in (("serial", 1), ("parallel", 2)):
        out = tmp_path / label
        assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg,
                       "--out", out, "--jobs", jobs) == 0
        outs[label] = out
    capsys.readouterr()
    index = json.loads((outs["serial"] / "index.json").read_text())
    assert index["param"] == "eps2"
    assert [r["value"] for r in index["runs"]] == [0.4, 0.7, 1.0]
    assert all(r["exit_code"] == 0 for r in index["runs"])
    for i in range(3):
        run = f"run_{i:04d}"
        for name in ("final_state.csv", "trajectory.csv", "config.json"):
            serial = (outs["serial"] / run / name).read_bytes()
            parallel = (outs["parallel"] / run / name).read_bytes()
            assert serial == parallel, (run, name)


@pytest.mark.parametrize("flag, rows, base", [
    ("--graph", TRI_ROWS, {"kind": "odnet-continuous", "eps1": 0.0, "eps2": 1.0,
                           "scheme": "dopri5", "t_end": 1.0, "init": "uniform", "dim": 2}),
    ("--hypergraph", IRREGULAR_HYPERGRAPH, {"kind": "hypergraph-odnet", "eps1": 0.0, "eps2": 1.0,
                                            "scheme": "rk4", "t_end": 1.0, "dim": 2}),
], ids=["graph", "hypergraph"])
def test_sweep_workers_write_the_serial_runs_files(tmp_path, capsys, monkeypatch, flag, rows,
                                                  base):
    # Each worker gets its structure pickled, as triples it rebuilds.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any host
    structure = write_text(tmp_path / "s.csv", rows)
    cfg = write_config(tmp_path, "cfg.json",
                       {"base": base, "sweep": {"param": "eps2", "values": [0.5, 1.0]}})
    for jobs in (1, 2):
        assert run_cli("sweep", flag, structure, "--config", cfg,
                       "--out", tmp_path / f"jobs{jobs}", "--jobs", jobs) == 0
    capsys.readouterr()
    for run in ("run_0000", "run_0001"):
        names = sorted(p.name for p in (tmp_path / "jobs1" / run).iterdir())
        assert names == ["config.json", "energy.csv", "final_state.csv", "manifest.json",
                         "trajectory.csv"]
        assert names == sorted(p.name for p in (tmp_path / "jobs2" / run).iterdir())
        for name in [name for name in names if name != "manifest.json"]:  # it names its --out
            assert ((tmp_path / "jobs1" / run / name).read_bytes()
                    == (tmp_path / "jobs2" / run / name).read_bytes()), (run, name)


@pytest.mark.parametrize("command, cfg", [
    ("simulate", {"kind": "fd", "init": "bogus"}),
    ("energy", {"kind": "fd", "runs": [{"name": "a"}, {"name": "b", "init": "bogus"}]}),
], ids=["simulate", "energy-arm"])
def test_unknown_init_kind_is_refused_before_any_file_is_read(tmp_path, capsys, command, cfg):
    out = tmp_path / "run"
    assert run_cli(command, "--graph", tmp_path / "missing.csv",
                   "--config", write_config(tmp_path, "cfg.json", cfg), "--out", out) == 2
    assert capsys.readouterr().err == ("input error: unknown init kind 'bogus'; expected one of "
                                       "('unit', 'uniform', 'zeros', 'csv')\n")
    assert not out.exists()


def sweep_config(tmp_path):
    return write_config(tmp_path, "cfg.json", {
        "base": {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0, "t_end": 3,
                 "init": "unit", "dim": 2},
        "sweep": {"param": "eps2", "values": [0.5, 1.0]},
    })


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_refuses_jobs_below_one(tmp_path, triangle_csv, capsys, jobs):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--graph", triangle_csv, "--config", sweep_config(tmp_path),
                   "--out", out, "--jobs", jobs) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cpus, pools", [(8, [2]), (1, []), (None, [])],
                         ids=["8-cpus", "1-cpu", "cpus-unknown"])
def test_sweep_caps_workers_at_runs_and_cpus(tmp_path, triangle_csv, capsys, monkeypatch,
                                             cpus, pools):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        """Records the pool size and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    cfg = sweep_config(tmp_path)
    assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg,
                   "--out", tmp_path / "serial", "--jobs", 1) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run_cli("sweep", "--graph", triangle_csv, "--config", cfg,
                   "--out", tmp_path / "wide", "--jobs", 100000) == 0
    capsys.readouterr()
    assert sizes == pools
    assert ((tmp_path / "wide" / "index.json").read_bytes()
            == (tmp_path / "serial" / "index.json").read_bytes())


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "odyn.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("odyn ")
