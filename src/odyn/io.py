"""CSV and JSON wire formats.

All files are UTF-8, comma separated, LF line endings, with a header row
(a state file has none). Every table value is written as its repr, so a
write/read round trip is exact. Rows are
emitted in a canonical sorted order, which makes outputs byte-stable, and
joined into text one fixed-size block at a time, so a writer's strings stay
bounded however long the file is.

The graph, hypergraph and label readers parse a file's body into columns in
one C pass (np.loadtxt). Whatever that pass rejects is re-read by the row
parser, which accepts exactly what Python's csv, int and float accept and
otherwise raises a CsvFormatError carrying the line number; integers must
also fit in 64 bits. So the fast pass changes no accepted value and no
error.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from ._state import to_matrix
from .errors import CsvFormatError
from .graphs import Hypergraph, NodeLabels, WeightedGraph

__all__ = [
    "read_graph_csv",
    "write_graph_csv",
    "read_hypergraph_csv",
    "write_hypergraph_csv",
    "read_labels_csv",
    "write_labels_csv",
    "read_state_csv",
    "write_state_csv",
    "write_trajectory_csv",
    "write_energy_csv",
    "write_json",
]

_GRAPH_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])
_HYPERGRAPH_DTYPE = np.dtype([("node", np.int64), ("hyperedge", np.int64), ("weight", np.float64)])
_LABELS_DTYPE = np.dtype([("node", np.int64), ("label", np.int64)])

# A read file's header is its columns' names.
GRAPH_HEADER = list(_GRAPH_DTYPE.names)
HYPERGRAPH_HEADER = list(_HYPERGRAPH_DTYPE.names)
LABELS_HEADER = list(_LABELS_DTYPE.names)
TRAJECTORY_HEADER = ["t", "node", "feature_index", "value"]

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

# Rows joined per write: large enough that the per-block overhead is noise,
# small enough that the block's strings are a few MB at most.
_ROW_BLOCK = 1 << 14


def _int64(text):
    """int(text), refused unless it fits in a signed 64-bit integer."""
    v = int(text)
    if not _INT64_MIN <= v <= _INT64_MAX:
        raise ValueError(f"integer {v} does not fit in 64 bits")
    return v


def _records(path, fh):
    """csv.reader over fh; what the csv module refuses becomes a located CsvFormatError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}", line=reader.line_num) from exc


def _read_rows(path, header, types=None):
    """Parse a CSV into tuples of typed fields; errors carry line numbers.

    With a header, the first row must match it exactly and `types` gives
    each field's parser. With header=None there is no header row: the first
    row fixes the width, and every field is a float.
    """
    path = Path(path)
    rows = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = _records(path, fh)
        if header is not None:
            try:
                got = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: empty file, expected header {','.join(header)}", line=1)
            if [c.strip() for c in got] != header:
                raise CsvFormatError(
                    f"{path}: line 1: expected header {','.join(header)!r}, got {','.join(got)!r}",
                    line=1,
                )
        width = None if header is None else len(header)
        for lineno, row in enumerate(reader, start=1 if header is None else 2):
            if not row:
                continue
            if width is None:
                width, types = len(row), [float] * len(row)
            if len(row) != width:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}",
                    line=lineno,
                )
            try:
                rows.append(tuple(t(v) for t, v in zip(types, row)))
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {lineno}: {exc}", line=lineno) from exc
    return rows


def _read_columns(path, header, dtype):
    """Parse a CSV with an exact expected header into a structured array.

    The body goes through np.loadtxt in one pass; if anything fails there,
    the file is re-read by _read_rows, which gives the same values or the
    located error.
    """
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            got = next(csv.reader(fh), None)
            if got is not None and [c.strip() for c in got] == header:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    # Older numpy reads an int field such as "1.0" by truncating
                    # a float, with only a DeprecationWarning; the row parser
                    # refuses it.
                    warnings.simplefilter("error", DeprecationWarning)
                    return np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype, ndmin=1)
    except (ValueError, csv.Error, DeprecationWarning):
        pass
    types = [_int64 if dtype[name] == np.int64 else float for name in dtype.names]
    return np.array(_read_rows(path, header, types), dtype=dtype)


def _write_csv(path, header, *columns):
    """Write the header (unless None), then a row per index of the matching columns: the
    repr of each value's .tolist() scalar, so an int as its digits and a float exactly."""
    row = ",".join(["%r"] * len(columns)) + "\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        _write_rows(fh, lambda *block: [row % r for r in zip(*block)], *columns)


def _write_rows(fh, lines, *columns):
    """Write the rows of matching arrays (one row per index along axis 0).

    For each block of _ROW_BLOCK rows, lines gets every column's block as
    Python scalars (.tolist()) and returns the block's text lines, which are
    written with one join.
    """
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        fh.write("".join(lines(*(c[lo:lo + _ROW_BLOCK].tolist() for c in columns))))


def read_graph_csv(path, directed=False, node_count=None):
    """Load an edge list (header src,dst,weight) into a WeightedGraph.

    Undirected files list each edge once. node_count defaults to the largest
    index seen plus one.
    """
    cols = _read_columns(path, GRAPH_HEADER, _GRAPH_DTYPE)
    src, dst = cols["src"], cols["dst"]
    if node_count is None:
        node_count = 1 + (max(int(src.max()), int(dst.max())) if src.size else 0)
    # Plain calls through the module-level names: perfbench's traced run
    # rebinds WeightedGraph and Hypergraph here to time the builds.
    return WeightedGraph(node_count, cols, directed=directed)


def write_graph_csv(path, g):
    """Write a graph edge list; undirected edges appear once, canonically."""
    _write_csv(path, GRAPH_HEADER, *g.undirected_pairs())


def read_hypergraph_csv(path, node_count=None):
    """Load memberships (header node,hyperedge,weight) into a Hypergraph."""
    cols = _read_columns(path, HYPERGRAPH_HEADER, _HYPERGRAPH_DTYPE)
    if node_count is None:
        node_count = 1 + (int(cols["node"].max()) if cols.size else 0)
    return Hypergraph(node_count, cols)


def write_hypergraph_csv(path, h):
    """Write hypergraph memberships sorted by (hyperedge, node)."""
    _write_csv(path, HYPERGRAPH_HEADER, *h._memberships())


def read_labels_csv(path, node_count=None):
    """Load node labels (header node,label): one row for each node, no more and no fewer."""
    cols = _read_columns(path, LABELS_HEADER, _LABELS_DTYPE)
    nodes, labs = cols["node"], cols["label"]
    if node_count is None:
        node_count = 1 + (int(nodes.max()) if nodes.size else 0)
    bad = np.flatnonzero((nodes < 0) | (nodes >= node_count))
    if bad.size:
        raise CsvFormatError(f"{path}: node index {nodes[bad[0]]} out of range")
    rows = np.bincount(nodes, minlength=node_count)
    if (wrong := np.flatnonzero(rows != 1)).size:
        raise CsvFormatError(f"{path}: node {wrong[0]} has {rows[wrong[0]]} label rows; "
                             "a label file has one row for each node")
    labels = labs[np.argsort(nodes)]  # each node once, so in node order
    return NodeLabels(labels, int(labels.max()) + 1 if labels.size else 1)


def write_labels_csv(path, labels):
    _write_csv(path, LABELS_HEADER, np.arange(len(labels.labels)), labels.labels)


def read_state_csv(path):
    """Load a plain numeric CSV matrix (one row per node, no header)."""
    rows = _read_rows(path, None)
    if not rows:
        raise CsvFormatError(f"{Path(path)}: empty state matrix", line=1)
    return np.array(rows)


def write_state_csv(path, x):
    """Write a state matrix, one row per node, no header; a 1-d state is one column."""
    x = to_matrix(x)[0]
    if not x.shape[1]:  # no column to give the row count; read_state_csv refuses it anyway
        raise ValueError(f"state of shape {x.shape} has no values per node to write")
    _write_csv(path, None, *x.T)


def write_trajectory_csv(path, traj):
    """Long-format trajectory: one row per (time, node, feature); a 1-d state is one column."""
    states = [to_matrix(state)[0] for state in traj.states]  # each checked before the file opens
    keys, shape = [], None
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\n")
        for t, state in zip(np.asarray(traj.times, dtype=np.float64).tolist(), states):
            if state.shape != shape:
                shape = state.shape
                # An object array: its blocks' .tolist() hands back these strings.
                keys = np.array([f"{node},{j}," for node in range(shape[0])
                                 for j in range(shape[1])], dtype=object)
            head = f"{t!r},"
            _write_rows(fh, lambda k, v: [f"{head}{a}{b!r}\n" for a, b in zip(k, v)],
                        keys, state.ravel())


def write_energy_csv(path, steps, energy, column="step"):
    """Two-column energy series; `column` names the abscissa header."""
    steps = np.asarray(steps, dtype=np.int64 if column == "step" else np.float64)
    _write_csv(path, [column, "energy"], steps, np.asarray(energy, dtype=np.float64))


def write_json(path, obj):
    """Stable JSON: sorted keys, LF newline at end."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
