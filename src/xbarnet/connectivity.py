"""Connectivity matrices, clusters, and their file formats.

A connectivity matrix is a dense (0,1) matrix recording which synapses exist
between two neuron layers: entry (i, j) = 1 iff input neuron i feeds output
neuron j. A layer's live synapses, the non-zero entries of its weights, form
one (see :func:`from_weights`).
A cluster is a group of synapses that maps onto one crossbar. A ClusterSet
records which cluster owns each synapse in one int32 owner matrix per layer,
and that matrix is the only record of the clusters: a cluster's footprint,
the rows and columns its crossbar spans, is derived from the cells it owns.

All types are immutable after construction; operations return new values.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

class ShapeError(ValueError):
    """Raised when matrix shapes are degenerate or do not line up."""


class InputFormatError(ValueError):
    """Base of the errors raised on a malformed input file."""


class SparseFormatError(InputFormatError):
    """Raised on malformed sparse coordinate files; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ClusterFormatError(InputFormatError):
    """Raised on a ``clusters.json`` record that does not fit the layer it names."""


def _as_bits(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"degenerate shape {arr.shape}; need a non-empty 2-d matrix")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("entries must be exactly 0 or 1")
    bits = arr.astype(np.uint8)
    bits.flags.writeable = False
    return bits


@dataclass(frozen=True)
class ConnectivityMatrix:
    """(0,1) matrix of existing synapses between an input and an output layer."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _as_bits(self.bits))

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class ClusterSet:
    """Accepted clusters of one layer, held as who owns each synapse.

    ``owner`` is an int32 matrix shaped like ``source``: -1 marks a cell in no
    cluster, ``k`` a cell that cluster ``k`` owns. The owner matrix is the
    only record of the clusters: cluster ``k``'s footprint is the distinct
    rows and cols of its owned cells (:meth:`footprints`), and the clusters
    are numbered 0..n_clusters-1 without gaps, so none is empty. The
    residual is every source synapse no cluster owns; ``owner=None`` means no
    cell is owned.
    """

    source: ConnectivityMatrix
    owner: np.ndarray | None = None

    def __post_init__(self):
        shape = self.source.bits.shape
        owner = np.full(shape, -1) if self.owner is None else self.owner
        owner = np.array(owner, dtype=np.int32)
        if owner.shape != shape:
            raise ShapeError(f"owner {owner.shape} does not match source {shape}")
        if owner.min() < -1:
            raise ValueError("owner entries must be -1 or a cluster index")
        empty = np.flatnonzero(np.bincount(owner[owner >= 0]) == 0)
        if len(empty):
            raise ValueError(f"cluster {empty[0]} owns no cell; cluster indices must have no gaps")
        owner.flags.writeable = False
        object.__setattr__(self, "owner", owner)

    @property
    def n_clusters(self) -> int:
        return int(self.owner.max()) + 1

    @property
    def residual(self) -> ConnectivityMatrix:
        return ConnectivityMatrix(self.source.bits & (self.owner < 0))

    def cell_counts(self) -> np.ndarray:
        """Number of cells each cluster owns."""
        return np.bincount(self.owner[self.owner >= 0], minlength=self.n_clusters)

    def cells(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return owner_cells(self.owner)

    def footprints(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(rows, cols) of each cluster: the sorted distinct rows and cols of its owned cells."""
        if self.n_clusters == 0:
            return []
        m, n = self.owner.shape
        flat = self.owner.ravel()
        cells = np.flatnonzero(flat >= 0)
        kk = flat[cells].astype(np.intp)
        rows = _lines_per_cluster(kk, cells // n, m, self.n_clusters)
        return list(zip(rows, _lines_per_cluster(kk, cells % n, n, self.n_clusters)))


def _lines_per_cluster(kk: np.ndarray, lines: np.ndarray, size: int, n_clusters: int) -> list[np.ndarray]:
    """Sorted distinct ``lines`` (each < ``size``) of each cluster in ``kk``.

    A (clusters x size) boolean table marks each hit; its row k lists cluster
    k's lines in order.
    """
    hit = np.zeros((n_clusters, size), dtype=bool)
    hit.ravel()[kk * size + lines] = True
    return np.split(np.flatnonzero(hit) % size, np.cumsum(np.count_nonzero(hit, axis=1))[:-1])


def owner_cells(owner: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, cols) of each cluster's cells; entry k equals ``np.nonzero(owner == k)``.

    There is one entry per index up to the largest owner. One stable sort
    groups the owned cells by owner, keeping row-major order inside each
    group.
    """
    n_clusters = int(owner.max()) + 1
    if n_clusters == 0:
        return []
    flat = owner.ravel()
    idx = np.flatnonzero(flat >= 0)
    idx = idx[np.argsort(flat[idx], kind="stable")]
    bounds = np.cumsum(np.bincount(flat[idx], minlength=n_clusters))[:-1]
    return [np.unravel_index(group, owner.shape) for group in np.split(idx, bounds)]


def from_weights(weights) -> ConnectivityMatrix:
    """The synapses of a weight matrix: entry (i, j) = 1 iff w(i, j) != 0."""
    return ConnectivityMatrix((np.asarray(weights) != 0).astype(np.uint8))


def save_sparse(path, matrix: ConnectivityMatrix) -> None:
    """Write the coordinate text format: 'rows cols nnz' then one 'row col' per 1-entry."""
    rows, cols = np.nonzero(matrix.bits)
    lines = [f"{matrix.rows} {matrix.cols} {len(rows)}"]
    lines.extend(f"{i} {j}" for i, j in zip(rows.tolist(), cols.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def load_sparse(path) -> ConnectivityMatrix:
    """Read the coordinate text format written by :func:`save_sparse`."""
    try:
        raw = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise SparseFormatError(f"{path}: not UTF-8 text ({exc})") from None
    lines = [(n + 1, s.strip()) for n, s in enumerate(raw) if s.strip()]
    if not lines:
        raise SparseFormatError("empty file", line=1)
    header_no, header = lines[0]
    n_rows, n_cols, nnz = _int_fields(header, "rows cols nnz", header_no)
    if n_rows < 1 or n_cols < 1 or nnz < 0:
        raise SparseFormatError(f"invalid dimensions {header!r}", line=header_no)
    entries = lines[1:]
    if len(entries) != nnz:
        raise SparseFormatError(
            f"header promises {nnz} entries but file has {len(entries)}", line=header_no
        )
    bits = np.zeros((n_rows, n_cols), dtype=np.uint8)
    for line_no, text in entries:
        i, j = _int_fields(text, "row col", line_no)
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise SparseFormatError(
                f"coordinate out of bounds: ({i}, {j}) vs shape ({n_rows}, {n_cols})", line=line_no
            )
        if bits[i, j]:
            raise SparseFormatError(f"repeated coordinate ({i}, {j})", line=line_no)
        bits[i, j] = 1
    return ConnectivityMatrix(bits)


def _int_fields(text: str, form: str, line_no: int) -> list[int]:
    """The integers of one line shaped like ``form``, or a SparseFormatError."""
    parts = text.split()
    try:
        if len(parts) != len(form.split()):
            raise ValueError
        return [int(p) for p in parts]
    except ValueError:
        raise SparseFormatError(f"expected integers '{form}', got {text!r}", line=line_no) from None


_ITEM_SEP = ",\n   "  # between the items of a record's lists, as indent=1 lays them out
_PAIR = "[\n    {},\n    {}\n   ]"  # one covered [row, col] cell inside ``covered``


def cluster_sets_to_json(cluster_sets: list[ClusterSet]) -> str:
    """Serialize per-layer cluster sets as a JSON list of {layer, rows, cols, covered}.

    ``rows`` and ``cols`` are each cluster's footprint, derived from its owned
    cells; ``covered`` lists those cells in row-major order, so mapping
    reports can be rebuilt from the live weights alone.

    The text is formatted directly and equals ``json.dumps(records,
    indent=1)`` of those records byte for byte. The layout stays because
    ``perfbench/checks.py`` and files already written parse it, and because
    ``json.loads`` costs the same on any layout: building the objects is its
    cost. Formatting skips the pure-Python encoder that ``json.dumps`` runs
    when ``indent`` is set, which takes several times as long on the 5.8 MB
    of a digits run. No list is ever empty (no cluster is), so every list
    takes the multi-line form.
    """
    records = []
    for layer_id, cs in enumerate(cluster_sets):
        for (rows, cols), (ii, jj) in zip(cs.footprints(), cs.cells()):
            rows = _ITEM_SEP.join(map(str, rows.tolist()))
            cols = _ITEM_SEP.join(map(str, cols.tolist()))
            covered = _ITEM_SEP.join(map(_PAIR.format, ii.tolist(), jj.tolist()))
            records.append(
                f' {{\n  "layer": {layer_id},\n  "rows": [\n   {rows}\n  ],\n  "cols": [\n   {cols}\n  ],\n'
                f'  "covered": [\n   {covered}\n  ]\n }}'
            )
    return "[\n" + ",\n".join(records) + "\n]" if records else "[]"


def cluster_sets_from_json(
    text: str, sources: list[ConnectivityMatrix], crossbar: tuple[int, int]
) -> list[ClusterSet]:
    """Rebuild per-layer ClusterSets from JSON plus each layer's source connectivity.

    The file is outside input. Each record must name a layer, list its
    covered cells as [row, col] integer pairs, and name in ``rows`` and
    ``cols`` (lists of JSON integers, in any order) each row and column of
    those cells exactly once, a footprint that fits the ``(rows, cols)``
    crossbar. Each layer's cells must pass :func:`_placement_problem`. A
    violation raises :class:`ClusterFormatError`.
    """
    named: list[list[tuple[list[int], list[int]]]] = [[] for _ in sources]
    cells: list[list[np.ndarray]] = [[] for _ in sources]
    n = 0
    try:
        for n, rec in enumerate(json.loads(text)):
            layer = rec["layer"]
            if not (type(layer) is int and 0 <= layer < len(sources)):
                raise ValueError(f"unknown layer {layer!r}")
            rows, cols = _json_ints(rec["rows"], "rows"), _json_ints(rec["cols"], "cols")
            if len(rows) > crossbar[0] or len(cols) > crossbar[1]:
                raise ValueError("cluster %dx%d exceeds crossbar %dx%d" % (len(rows), len(cols), *crossbar))
            cells[layer].append(_json_cells(rec["covered"]))
            named[layer].append((sorted(rows), sorted(cols)))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ClusterFormatError(f"record {n}: {type(exc).__name__}: {exc}") from None
    sets = []
    for layer, (source, layer_cells) in enumerate(zip(sources, cells)):
        ii, jj = np.concatenate(layer_cells or [np.empty((0, 2), dtype=np.int64)]).T
        kk = np.repeat(np.arange(len(layer_cells)), [len(c) for c in layer_cells])
        problem = _placement_problem(source.bits, ii, jj, kk, len(layer_cells))
        if problem:
            raise ClusterFormatError(f"layer {layer}: {problem}")
        owner = np.full(source.bits.shape, -1, dtype=np.int32)
        owner[ii, jj] = kk
        cs = ClusterSet(source, owner)
        for k, ((rows, cols), (fp_rows, fp_cols)) in enumerate(zip(named[layer], cs.footprints())):
            if rows != fp_rows.tolist() or cols != fp_cols.tolist():
                raise ClusterFormatError(
                    f"layer {layer}: cluster {k}: rows and cols must name each row and column "
                    "of its covered cells exactly once"
                )
        sets.append(cs)
    return sets


def _json_ints(value, name: str) -> list[int]:
    """``value`` if it is a list of JSON integers (no bools, floats or strings), else TypeError."""
    if type(value) is not list or not all(type(v) is int for v in value):
        raise TypeError(f"{name} must be a list of integers, got {value!r:.40}")
    return value


def _json_cells(value) -> np.ndarray:
    """``value`` as an (n, 2) int64 array if it is a list of [row, col] pairs of JSON integers, else TypeError.

    Each entry's type is checked before conversion, so a bool beside an
    integer is rejected rather than promoted to 0 or 1.
    """
    pairs = type(value) is list and set(map(type, value)) <= {list} and set(map(len, value)) <= {2}
    flat = list(itertools.chain.from_iterable(value)) if pairs else []
    if not pairs or not set(map(type, flat)) <= {int}:
        raise TypeError(f"covered must be a list of [row, col] integer pairs, got {value!r:.40}")
    return np.array(flat, dtype=np.int64).reshape(-1, 2)


def _placement_problem(bits: np.ndarray, ii, jj, kk, n_clusters: int) -> str | None:
    """The first reason cluster ``kk[c]`` may not own cell ``(ii[c], jj[c])`` of ``bits``, or None.

    Every cell must lie inside the matrix, be a synapse and be owned once,
    and each of the ``n_clusters`` clusters must own at least one cell.
    """
    m, n = bits.shape
    if ((ii < 0) | (ii >= m) | (jj < 0) | (jj >= n)).any():
        return f"a covered cell lies outside the {m}x{n} matrix"
    flat = ii * n + jj
    if (np.bincount(flat) > 1).any():
        return "a cell is covered twice"
    if not bits.ravel()[flat].all():
        return "a covered cell is not a synapse"
    empty = np.flatnonzero(np.bincount(kk, minlength=n_clusters) == 0)
    if len(empty):
        return f"cluster {empty[0]} covers no synapses"
    return None


def audit_cluster_set(cs: ClusterSet, original: ConnectivityMatrix) -> None:
    """Check a ClusterSet against the matrix it was built from.

    It must be built from ``original``, and every owned cell must be a
    synapse of it. The owner matrix guarantees the rest: each cell is owned
    at most once, footprints hold only owned rows and cols, and no cluster
    is empty. Raises AssertionError with a diagnostic on violation.
    """
    assert np.array_equal(cs.source.bits, original.bits), "cluster set built from another matrix"
    assert cs.source.bits[cs.owner >= 0].all(), "a covered cell is not a synapse"
