"""CSV/JSON persistence and the command-line surface.

File formats are load-bearing: reruns must be byte-identical, so the
writers are pinned down to exact text, not just parseable text.
"""

import json
import os
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

import odyn.io as odyn_io
from odyn import (
    CsvFormatError,
    Hypergraph,
    NodeLabels,
    WeightedGraph,
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
    assert padded.degree(8) == 0


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
    h = Hypergraph(4, [(0, 0, 1.0), (1, 0, 0.5), (1, 1, 1.0), (3, 1, 2.0)],
                   edge_count=2)
    path = tmp_path / "h.csv"
    write_hypergraph_csv(path, h)
    back = read_hypergraph_csv(path)
    assert back.node_count == 4
    assert back.edge_count == 2
    assert np.array_equal(back.membership_weight, h.membership_weight)


def test_hypergraph_csv_rows_sorted_by_edge_then_node(tmp_path):
    h = Hypergraph(3, [(2, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)], edge_count=2)
    path = tmp_path / "h.csv"
    write_hypergraph_csv(path, h)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,hyperedge,weight"
    cols = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert cols == [(1, 0), (0, 1), (2, 1)]


def test_labels_csv_round_trip_with_default_zero(tmp_path):
    labels = NodeLabels(np.array([2, 0, 1]), 3)
    path = tmp_path / "y.csv"
    write_labels_csv(path, labels)
    back = read_labels_csv(path, node_count=5)
    assert back.labels.tolist() == [2, 0, 1, 0, 0]
    assert back.class_count == 3


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


def test_state_csv_vector_becomes_single_row(tmp_path):
    path = tmp_path / "x.csv"
    write_state_csv(path, np.array([1.5, -2.0, 0.25]))
    assert read_state_csv(path).shape == (1, 3)


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
    """The row-loop label reader: last label of a node wins."""
    rows = odyn_io._read_rows(path, odyn_io.LABELS_HEADER, (odyn_io._int64, odyn_io._int64))
    if node_count is None:
        node_count = 1 + max((n for n, _ in rows), default=0)
    labels = np.zeros(node_count, dtype=np.int64)
    for n, lab in rows:
        if not (0 <= n < node_count):
            raise CsvFormatError(f"{path}: node index {n} out of range")
        labels[n] = lab
    return labels


@given(st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 3)), max_size=12),
       st.one_of(st.none(), st.integers(1, 7)))
@example([(2, 1), (2, 0), (0, 3), (2, 2)], None)
@settings(max_examples=80, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_labels_reader_matches_row_loop(tmp_path, rows, node_count):
    path = write_text(tmp_path / "y.csv", "node,label\n" + "".join(f"{n},{y}\n" for n, y in rows))
    try:
        expected = labels_oracle(path, node_count)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError, match="out of range") as got:
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
    assert h.membership_weight.tolist() == [[1.0], [2.0]]


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
    W = h._weights
    edges = np.repeat(np.arange(h.edge_count), np.diff(W.indptr))
    with _open(path) as fh:
        fh.write("node,hyperedge,weight\n")
        fh.write("".join([f"{n},{e},{w!r}\n"
                          for n, e, w in zip(W.indices.tolist(), edges.tolist(), W.data.tolist())]))


def labels_csv_oracle(path, labels):
    """write_labels_csv as it was: every row in one join."""
    with _open(path) as fh:
        fh.write("node,label\n")
        fh.write("".join([f"{n},{lab}\n" for n, lab in enumerate(labels.labels.tolist())]))


def state_csv_oracle(path, x):
    """write_state_csv as it was: one write per row, each value through repr(float(v))."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    with _open(path) as fh:
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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
    h = Hypergraph(n, rows, edge_count=edges)
    assert same_bytes(tmp_path, block, write_hypergraph_csv, hypergraph_csv_oracle, h)


@given(ROW_BLOCKS, st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_labels_writer_matches_whole_file_oracle(tmp_path, block, classes, data):
    labels = NodeLabels(np.array(data.draw(st.lists(st.integers(0, classes - 1), max_size=20)),
                                 dtype=np.int64), classes)
    assert same_bytes(tmp_path, block, write_labels_csv, labels_csv_oracle, labels)


STATE_SHAPES = st.sampled_from([(0,), (0, 2), (3, 0), (1,), (5,), (5, 1), (4, 3), (9, 2)])


@given(ROW_BLOCKS, STATE_SHAPES, st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=FRESH_FILE_PER_EXAMPLE)
def test_state_writer_matches_row_oracle(tmp_path, block, shape, data):
    x = data.draw(_states(shape))
    assert same_bytes(tmp_path, block, write_state_csv, state_csv_oracle, x)


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
                        "init": "uniform", "steps": 8})
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg, "--seed", 3, "--out", out) == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert (out / "trajectory.csv").exists()
    assert (out / "final_state.csv").exists()
    assert (out / "manifest.json").exists()
    # no structure, so no energy series
    assert not (out / "energy.csv").exists()
    final = read_state_csv(out / "final_state.csv")
    assert final.shape == (1, 12)
    assert np.all((final >= 0.0) & (final <= 1.0))


def test_simulate_writes_energy_and_manifest(tmp_path, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "steps": 6, "init": "unit", "dim": 4})
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
                        "steps": 5, "init": "unit", "dim": 2})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,node,feature_index,value"
    assert len(lines) == 1 + 6 * 3 * 2


def test_simulate_t_end_flag_overrides_discrete_steps(tmp_path, triangle_csv):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "steps": 9, "init": "unit", "dim": 2})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", out, "--t-end", 3.0) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 3 * 2


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
    code = run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                   "--out", tmp_path / "run")
    assert code == 2
    assert "input error" in capsys.readouterr().err


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
                        "init": "csv", "state_csv": str(state), "steps": 12})
    for command in ("simulate", "energy"):
        out = tmp_path / command
        code = run_cli(command, "--graph", triangle_csv, "--config", cfg, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "input error:" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_zero_dim_state_exits_2(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                        "init": "unit", "dim": 0, "steps": 12})
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
                        "steps": 3})
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
                        "init": "uniform", "steps": 400})
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("simulate", "--graph", triangle_csv, "--config", cfg,
                       "--out", out)
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command, obj", [
    ("simulate", {"kind": "odnet-continuous", "eps1": 0, "eps2": 1, "t_end": {}}),
    ("simulate", {"kind": "fd", "steps": [1]}),
    ("simulate", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1, "dim": None}),
    ("energy", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1, "runs": [{"steps": [1]}]}),
    ("energy", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1, "runs": 5}),
    ("sweep", {"base": {"kind": "fd"}, "sweep": {"param": "steps", "values": 5}}),
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
    ("simulate", f'{{{DISCRETE}, "steps": 1e400}}', "steps"),
    ("simulate", f'{{{DISCRETE}, "steps": Infinity}}', "steps"),
    ("simulate", f'{{{DISCRETE}, "dim": 1e400}}', "dim"),
    ("simulate", f'{{{DISCRETE}, "t_end": -Infinity}}', "t_end"),
    ("simulate", f'{{{CONTINUOUS}, "scheme": "rk4", "t_end": 1e400}}', "t_end"),
    ("simulate", f'{{{CONTINUOUS}, "scheme": "euler", "t_end": Infinity}}', "t_end"),
    ("simulate", f'{{{CONTINUOUS}, "scheme": "rk4", "max_steps": 1e400}}', "max_steps"),
    ("simulate", f'{{{CONTINUOUS}, "lambda": NaN}}', "lambda"),
    ("energy", f'{{{DISCRETE}, "runs": [{{"name": "a"}}, {{"steps": Infinity}}]}}',
     "runs[1].steps"),
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
    assert err.startswith("input error:") and "Traceback" not in err
    assert f"{key!r} must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("scheme, value", [("rk4", "inf"), ("dopri5", "nan"), ("dopri5", "inf")])
def test_t_end_flag_must_be_finite(tmp_path, triangle_csv, capsys, scheme, value):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "odnet-continuous", "eps1": 0, "eps2": 1,
                                              "scheme": scheme})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out,
                   "--t-end", value) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "'t_end' must be a finite number" in err
    assert not out.exists()


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
                                              "steps": 1e15, "dim": 1})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "numeric failure: 1000000000000000 discrete steps exceed max_steps = 100000" in err
    assert not out.exists()


@pytest.mark.parametrize("max_steps, steps, code", [(4, 4, 0), (4, 5, 3), (2.5, 1, 2), (0, 1, 2)])
def test_discrete_runs_take_max_steps_from_the_config(tmp_path, triangle_csv, max_steps, steps,
                                                      code):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "odnet-discrete", "eps1": 0, "eps2": 1,
                                              "steps": steps, "dim": 1, "max_steps": max_steps})
    out = tmp_path / "run"
    assert run_cli("simulate", "--graph", triangle_csv, "--config", cfg, "--out", out) == code
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("command, flag", [
    *((c, "--jobs") for c in ("simulate", "energy", "simplify", "classify", "homophily")),
    *((c, "--labels") for c in ("simulate", "energy", "simplify", "sweep")),
    *((c, "--hypergraph") for c in ("simplify", "classify", "homophily")),
    *((c, f) for c in ("homophily", "sweep") for f in ("--scheme", "--t-end")),
])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    value = "rk4" if flag == "--scheme" else "1"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, flag, value, "--out", tmp_path / "run")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_energy_command_flags_contracting_arm(tmp_path, triangle_csv, capsys):
    # same structure, two influence arms: full-band diffusion collapses,
    # a band above every similarity keeps the couplings at zero
    cfg = write_config(tmp_path, "cfg.json", {
        "kind": "odnet-discrete",
        "steps": 40,
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
    assert "iB" in proc.stderr  # numpy's message names the size, e.g. "7.28 TiB"
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


def test_cli_import_loads_no_csgraph_linalg_or_multiprocessing():
    heavy = ["scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg", "multiprocessing"]
    code = f"import sys, odyn.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_parallel_matches_serial(tmp_path, triangle_csv, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "base": {"kind": "odnet-discrete", "eps1": 0.0, "eps2": 1.0,
                 "steps": 6, "init": "unit", "dim": 3},
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


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "odyn.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("odyn ")
