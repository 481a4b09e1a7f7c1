"""Connectivity matrices, clusters, and the ``clusters.json`` format.

A connectivity matrix is a dense (0,1) matrix recording which synapses exist
between two neuron layers: entry (i, j) = 1 iff input neuron i feeds output
neuron j. A layer's live synapses, the non-zero entries of its weights, form
one (see :func:`from_weights`).
A cluster is a group of synapses that maps onto one crossbar. A ClusterSet
records which cluster owns each synapse in one int32 owner matrix per layer,
and that matrix is the only record of the clusters: a cluster's footprint,
the rows and columns its crossbar spans, is derived from the cells it owns.

A run writes its clusters to ``clusters.json``, one record per cluster
(:func:`cluster_sets_to_json`), and :func:`cluster_sets_from_json` rebuilds
them against each layer's live synapses.

All types are immutable after construction; operations return new values.
"""

from __future__ import annotations

import gc
import itertools
import json
from dataclasses import dataclass

import numpy as np

class ShapeError(ValueError):
    """Raised when matrix shapes are degenerate or do not line up."""


class InputFormatError(ValueError):
    """Base of the errors raised on a malformed input file."""


class ClusterFormatError(InputFormatError):
    """Raised on a ``clusters.json`` that is not a JSON list of records fitting the layers they name."""


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
    def nnz(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class ClusterSet:
    """Accepted clusters of one layer, held as who owns each synapse.

    ``owner`` is an int32 matrix shaped like ``source``: -1 marks a cell in no
    cluster, ``k`` a cell that cluster ``k`` owns. The owner matrix is the
    only record of the clusters: cluster ``k``'s footprint is the distinct
    rows and cols of its owned cells (:meth:`footprints`). The residual is
    every source synapse no cluster owns; ``owner=None`` means no cell is
    owned. The constructor enforces the invariants: the clusters are
    numbered 0..n_clusters-1 without gaps, and every owned cell is a synapse.
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
        if not self.source.bits[owner >= 0].all():
            raise ValueError("a covered cell is not a synapse")
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
    hit = _line_table(kk, lines, size, n_clusters)
    return np.split(np.flatnonzero(hit) % size, np.cumsum(np.count_nonzero(hit, axis=1))[:-1])


def _line_table(kk: np.ndarray, lines: np.ndarray, size: int, n_clusters: int) -> np.ndarray:
    """(clusters x size) boolean table that marks line ``lines[c]`` of cluster ``kk[c]`` for each ``c``."""
    hit = np.zeros((n_clusters, size), dtype=bool)
    hit.ravel()[kk * size + lines] = True
    return hit


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


_ITEM_SEP = ",\n   "  # between the items of a record's lists, as indent=1 lays them out


def cluster_sets_to_json(cluster_sets: list[ClusterSet]) -> str:
    """Serialize per-layer cluster sets as a JSON list of {layer, rows, cols, covered}.

    ``rows`` and ``cols`` are each cluster's footprint, derived from its owned
    cells; ``covered`` lists those cells in row-major order, so mapping
    reports can be rebuilt from the live weights alone.

    The text is formatted directly and equals ``json.dumps(records,
    indent=1)`` of those records byte for byte. No reader depends on the
    layout: a compact file of the same records maps alike. It stays because
    writing it is cheaper than any ``json.dumps``, which needs a Python list
    per covered cell: building those and encoding them compactly took 0.27 s
    against 0.04 s for the 5.8 MB of a digits run (2-CPU Xeon, one thread).
    A compact layout would not make reading much cheaper either: ``json.loads``
    spends its time building one object per list and, with the cyclic
    garbage collector running, on collector passes over those objects, which
    :func:`cluster_sets_from_json` avoids by pausing the collector.
    Formatting skips the pure-Python encoder that ``json.dumps`` runs when
    ``indent`` is set, which takes several times as long on the 5.8 MB of a
    digits run. No list is ever empty (no cluster is), so every list
    takes the multi-line form. Each layer turns every index below its larger
    dimension into text once, in a table, together with the text a covered
    cell puts before and after its col; the records are joined from table
    lookups, so no index is formatted per cell.
    """
    records = []
    for layer_id, cs in enumerate(cluster_sets):
        names = [str(i) for i in range(max(cs.owner.shape))]
        heads = ["[\n    " + name + ",\n    " for name in names]  # a covered cell up to its col
        tails = [name + "\n   ]" + _ITEM_SEP for name in names]  # its col, its close and the separator
        for (rows, cols), (ii, jj) in zip(cs.footprints(), cs.cells()):
            rows = _ITEM_SEP.join([names[i] for i in rows.tolist()])
            cols = _ITEM_SEP.join([names[j] for j in cols.tolist()])
            parts = [""] * (2 * len(ii))
            parts[0::2] = [heads[i] for i in ii.tolist()]
            parts[1::2] = [tails[j] for j in jj.tolist()]
            covered = "".join(parts)[: -len(_ITEM_SEP)]
            records.append(
                f' {{\n  "layer": {layer_id},\n  "rows": [\n   {rows}\n  ],\n  "cols": [\n   {cols}\n  ],\n'
                f'  "covered": [\n   {covered}\n  ]\n }}'
            )
    return "[\n" + ",\n".join(records) + "\n]" if records else "[]"


def cluster_sets_from_json(
    text: str, sources: list[ConnectivityMatrix], crossbar: tuple[int, int]
) -> list[ClusterSet]:
    """Rebuild per-layer ClusterSets from JSON plus each layer's source connectivity.

    The file is outside input. It must be a JSON list of record objects. Each
    record must name a layer, list its covered cells as [row, col] integer
    pairs, and name in ``rows`` and ``cols`` (lists of JSON integers, in any
    order) each row and column of those cells exactly once, a footprint that
    fits the ``(rows, cols)`` crossbar. Each layer's cells must pass
    :func:`_placement_problem` and the ClusterSet constructor, and then every
    footprint of the layer is checked at once (:func:`_unnamed_footprint`).
    A violation raises :class:`ClusterFormatError`.

    The cyclic garbage collector is paused while the text is parsed and its
    records are read, until the parsed document is freed. The parse builds
    one list per covered cell (about 200k on a digits run), and each
    allocation drives the collector, whose passes walk every list built so
    far; JSON values hold no reference cycles, so those passes free nothing.
    Resuming the collector straight after the parse would only move its
    first passes over those lists into the reading of the records. The
    caller's collector state is restored afterwards, also when the text is
    rejected, and a collector the caller had disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        named_rows, named_cols, cells = _read_records(text, sources, crossbar)
    finally:
        if enabled:
            gc.enable()
    sets = []
    for layer, (source, layer_cells) in enumerate(zip(sources, cells)):
        ii, jj = np.concatenate(layer_cells or [np.empty((0, 2), dtype=np.int64)]).T
        kk = np.repeat(np.arange(len(layer_cells)), [len(c) for c in layer_cells])
        problem = _placement_problem(source.bits.shape, ii, jj, kk, len(layer_cells))
        if problem:
            raise ClusterFormatError(f"layer {layer}: {problem}")
        owner = np.full(source.bits.shape, -1, dtype=np.int32)
        owner[ii, jj] = kk
        try:
            cs = ClusterSet(source, owner)
        except ValueError as exc:
            raise ClusterFormatError(f"layer {layer}: {exc}") from None
        bad = np.flatnonzero(
            _unnamed_footprint(named_rows[layer], kk, ii, source.bits.shape[0])
            | _unnamed_footprint(named_cols[layer], kk, jj, source.bits.shape[1])
        )
        if len(bad):
            raise ClusterFormatError(
                f"layer {layer}: cluster {bad[0]}: rows and cols must name each row and column "
                "of its covered cells exactly once"
            )
        sets.append(cs)
    return sets


def _read_records(text: str, sources: list[ConnectivityMatrix], crossbar: tuple[int, int]) -> tuple[list, list, list]:
    """Per layer, the ``rows`` and ``cols`` each record names and its covered cells as an (n, 2) array.

    Raises :class:`ClusterFormatError` on text that is not JSON, a top level
    that is not a list, or a record that is not an object of the fields and
    types :func:`cluster_sets_from_json` names, on a known layer and within
    the crossbar.
    """
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ClusterFormatError(f"not JSON ({type(exc).__name__}: {exc})") from None
    if type(data) is not list:
        raise ClusterFormatError(f"the top level must be a JSON list of cluster records, got {data!r:.40}")
    named_rows: list[list[list[int]]] = [[] for _ in sources]
    named_cols: list[list[list[int]]] = [[] for _ in sources]
    cells: list[list[np.ndarray]] = [[] for _ in sources]
    for n, rec in enumerate(data):
        try:
            if type(rec) is not dict:
                raise TypeError(f"a record must be an object, got {rec!r:.40}")
            layer = rec["layer"]
            if not (type(layer) is int and 0 <= layer < len(sources)):
                raise ValueError(f"unknown layer {layer!r}")
            rows, cols = _json_ints(rec["rows"], "rows"), _json_ints(rec["cols"], "cols")
            if len(rows) > crossbar[0] or len(cols) > crossbar[1]:
                raise ValueError("cluster %dx%d exceeds crossbar %dx%d" % (len(rows), len(cols), *crossbar))
            cells[layer].append(_json_cells(rec["covered"]))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ClusterFormatError(f"record {n}: {type(exc).__name__}: {exc}") from None
        named_rows[layer].append(rows)
        named_cols[layer].append(cols)
    return named_rows, named_cols, cells


def _unnamed_footprint(named: list[list[int]], kk: np.ndarray, lines: np.ndarray, size: int) -> np.ndarray:
    """Per cluster, whether ``named[k]`` fails to name each line its cells use exactly once.

    Cluster ``kk[c]``'s cell ``c`` uses line ``lines[c]`` (< ``size``). Two
    (clusters x size) boolean tables mark the lines each cluster names and
    the lines its cells use. A cluster passes iff its two rows are equal and
    it names no more lines than it uses: a repeated line, or one outside
    ``0..size-1``, adds to the count without adding to the table. The names
    are converted with numpy's own dtype choice, so an integer beyond int64
    is compared, not overflowed.
    """
    n_clusters = len(named)
    counts = np.array([len(v) for v in named], dtype=np.intp)
    values = np.array(list(itertools.chain.from_iterable(named)))
    owners = np.repeat(np.arange(n_clusters), counts)
    inside = (values >= 0) & (values < size)
    named_hit = _line_table(owners[inside], values[inside].astype(np.intp), size, n_clusters)
    used = _line_table(kk, lines, size, n_clusters)
    return (named_hit != used).any(axis=1) | (counts != np.count_nonzero(used, axis=1))


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


def _placement_problem(shape: tuple[int, int], ii, jj, kk, n_clusters: int) -> str | None:
    """The first reason cluster ``kk[c]`` may not own cell ``(ii[c], jj[c])`` of a ``shape`` matrix, or None.

    Every cell must lie inside the matrix and be owned once, and each of the
    ``n_clusters`` clusters must own a cell: a trailing empty record leaves
    no trace in the owner matrix that the ClusterSet constructor checks.
    """
    m, n = shape
    if ((ii < 0) | (ii >= m) | (jj < 0) | (jj >= n)).any():
        return f"a covered cell lies outside the {m}x{n} matrix"
    if (np.bincount(ii * n + jj) > 1).any():
        return "a cell is covered twice"
    empty = np.flatnonzero(np.bincount(kk, minlength=n_clusters) == 0)
    if len(empty):
        return f"cluster {empty[0]} covers no synapses"
    return None
