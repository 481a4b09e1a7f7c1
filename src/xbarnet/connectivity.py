"""Connectivity matrices, owner matrices, and the ``clusters.json`` format.

A connectivity matrix is a dense (0,1) matrix recording which synapses exist
between two neuron layers: entry (i, j) = 1 iff input neuron i feeds output
neuron j; clustering takes one. A layer's synapses are the non-zero entries
of its weights, read from the weights wherever they are needed.
A cluster is a group of synapses that maps onto one crossbar. One int32
owner matrix per layer records which cluster owns each cell, and that matrix
is the only record of the layer's clusters: a cluster's footprint, the rows
and columns its crossbar spans, is derived from the cells it owns
(:func:`footprints`). Owner matrices travel between modules as plain
arrays; :class:`ClusterSet` only wraps the one the clusterer returns.
:func:`check_owner` is the one check of an owner matrix against its layer's
weights and the crossbar, and :func:`~xbarnet.hardware.map_to_mcas` its one
caller, for the matrices a run builds and for those a file holds alike.

A run writes its clusters to ``clusters.json``, one record per cluster
(:func:`cluster_sets_to_json`), and :func:`cluster_sets_from_json` rebuilds
the owner matrices from each record's covered cells. It only decodes: it
rejects what no owner matrix can hold, and leaves the check of each matrix
to the mapper. :class:`InputFormatError` is the one error of every reader
of an outside file, this one included.
"""

from __future__ import annotations

import gc
import itertools
import json
from dataclasses import dataclass

import numpy as np

class InputFormatError(ValueError):
    """The one error for a malformed input file; ``xbarnet`` prints its message and exits 2.

    The readers of ``clusters.json`` (:func:`cluster_sets_from_json`),
    ``mapping.json`` (:func:`~xbarnet.hardware.mapping_from_json`), a
    checkpoint (:func:`~xbarnet.mlp.load_checkpoint`) and the IDX digit files
    (:func:`~xbarnet.datasets.load_mnist`) raise it, and ``xbarnet map`` also
    raises it, with the same ``layer N: ...`` message, when
    :func:`~xbarnet.hardware.map_to_mcas` rejects a decoded owner matrix.
    No caller tells the files apart by the error's type; the message names
    the file or the record.
    """


def _as_bits(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"degenerate shape {arr.shape}; need a non-empty 2-d matrix")
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


@dataclass(frozen=True)
class ClusterSet:
    """The owner matrix that :func:`~xbarnet.sizecluster.size_constrained_cluster` returns.

    ``owner`` is an int32 matrix shaped like the clustered connectivity: -1
    marks a cell in no cluster, ``k`` a cell that cluster ``k`` owns, and the
    clusters are numbered 0..n_clusters-1 without gaps. Every other module
    passes the plain owner matrix on, and :func:`check_owner` checks it.
    """

    owner: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.owner.max()) + 1


def check_owner(owner: np.ndarray, weights: np.ndarray, crossbar: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Per cluster of ``owner``, the number of rows and of cols its footprint spans, and of cells it owns.

    Raises ValueError unless ``owner`` is shaped like ``weights``, every
    entry is -1 or a cluster index, the clusters are numbered
    0..n_clusters-1 without gaps, every owned cell is a synapse (a non-zero
    weight), and every footprint fits the ``(rows, cols)`` crossbar. The line counts come from one (clusters x lines)
    boolean table per axis; the cell counts are those of the gap check.
    :func:`~xbarnet.hardware.map_to_mcas` is its one caller, so every owner
    matrix is checked once, whether a run built it or a file held it.
    """
    if owner.shape != weights.shape:
        raise ValueError(f"owner {owner.shape} does not match weights {weights.shape}")
    if (owner < -1).any():
        raise ValueError("owner entries must be -1 or a cluster index")
    m, n = owner.shape
    flat = owner.ravel()
    cells = np.flatnonzero(flat >= 0)
    kk = flat[cells].astype(np.intp)
    cell_counts = np.bincount(kk)
    empty = np.flatnonzero(cell_counts == 0)
    if len(empty):
        raise ValueError(f"cluster {empty[0]} owns no cell")
    if not (weights.ravel()[cells] != 0).all():
        raise ValueError("a covered cell is not a synapse")
    rows = np.count_nonzero(_line_table(kk, cells // n, m, len(cell_counts)), axis=1)
    cols = np.count_nonzero(_line_table(kk, cells % n, n, len(cell_counts)), axis=1)
    big = np.flatnonzero((rows > crossbar[0]) | (cols > crossbar[1]))
    if len(big):
        raise ValueError("cluster %dx%d exceeds crossbar %dx%d" % (rows[big[0]], cols[big[0]], *crossbar))
    return rows, cols, cell_counts


def footprints(owner: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, cols) of each cluster of ``owner``: the sorted distinct rows and cols of its owned cells."""
    n_clusters = int(owner.max()) + 1
    if n_clusters == 0:
        return []
    m, n = owner.shape
    flat = owner.ravel()
    cells = np.flatnonzero(flat >= 0)
    kk = flat[cells].astype(np.intp)
    rows = _lines_per_cluster(kk, cells // n, m, n_clusters)
    return list(zip(rows, _lines_per_cluster(kk, cells % n, n, n_clusters)))


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


_ITEM_SEP = ",\n   "  # between the items of a record's lists, as indent=1 lays them out


def cluster_sets_to_json(owners: list[np.ndarray]) -> str:
    """Serialize per-layer owner matrices as a JSON list of {layer, rows, cols, covered}.

    ``covered`` lists each cluster's owned cells in row-major order, so
    mapping reports can be rebuilt from the live weights alone. ``rows`` and
    ``cols`` are its footprint (:func:`footprints`), derived from those cells;
    they are written for readers of the file, and :func:`cluster_sets_from_json`
    ignores them.

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
    for layer_id, owner in enumerate(owners):
        names = [str(i) for i in range(max(owner.shape))]
        heads = ["[\n    " + name + ",\n    " for name in names]  # a covered cell up to its col
        tails = [name + "\n   ]" + _ITEM_SEP for name in names]  # its col, its close and the separator
        for (rows, cols), (ii, jj) in zip(footprints(owner), owner_cells(owner)):
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


def cluster_sets_from_json(text: str, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Per-layer int32 owner matrices of ``clusters.json`` text, one of each of ``shapes``; decoded, not checked.

    The file is outside input. It must be a JSON list of record objects. Each
    record must name a layer and list its covered cells as [row, col] pairs
    of JSON integers; a layer's records are its clusters 0, 1, ... in file
    order. ``rows`` and ``cols`` are derived from the covered cells, so they
    are ignored, as :func:`~xbarnet.hardware.mapping_from_json` ignores the
    derived keys of ``mapping.json``. Only what an owner matrix cannot
    express is rejected, with an :class:`InputFormatError`: text that is
    not JSON, a malformed record or an unknown layer (naming the record),
    and a cell outside the matrix, a cell covered twice or an empty record
    (naming the layer). Whether the covered cells are synapses and each
    footprint fits the crossbar is checked by
    :func:`~xbarnet.hardware.map_to_mcas`, which maps the matrices. Every
    layer is decoded before any is checked, so in a file with a checking
    fault in one layer and a decoding fault in a later one, the decoding
    fault is the one reported.

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
        cells = _read_records(text, len(shapes))
    finally:
        if enabled:
            gc.enable()
    owners = []
    for layer, (shape, layer_cells) in enumerate(zip(shapes, cells)):
        try:
            owners.append(_owner_of(shape, layer_cells))
        except ValueError as exc:
            raise InputFormatError(f"layer {layer}: {exc}") from None
    return owners


def _read_records(text: str, n_layers: int) -> list[list[np.ndarray]]:
    """Per layer of ``n_layers``, the covered cells of each of its records as an (n, 2) array.

    Raises :class:`InputFormatError` on text that is not JSON, a top level
    that is not a list, or a record that is not an object with a known
    ``layer`` and a well-typed ``covered``.
    """
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise InputFormatError(f"not JSON ({type(exc).__name__}: {exc})") from None
    if type(data) is not list:
        raise InputFormatError(f"the top level must be a JSON list of cluster records, got {data!r:.40}")
    cells: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
    for n, rec in enumerate(data):
        try:
            if type(rec) is not dict:
                raise TypeError(f"a record must be an object, got {rec!r:.40}")
            layer = rec["layer"]
            if not (type(layer) is int and 0 <= layer < n_layers):
                raise ValueError(f"unknown layer {layer!r}")
            cells[layer].append(_json_cells(rec["covered"]))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputFormatError(f"record {n}: {type(exc).__name__}: {exc}") from None
    return cells


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


def _owner_of(shape: tuple[int, int], layer_cells: list[np.ndarray]) -> np.ndarray:
    """The int32 ``shape`` owner matrix in which cluster ``k`` owns the cells ``layer_cells[k]``.

    Raises ValueError unless every cell lies inside the matrix and is owned
    once, and each cluster owns a cell: a trailing empty record would leave
    no trace in the owner matrix that :func:`check_owner` checks. The index
    arrays are freed on return, before the matrix is checked and mapped:
    held through the check, they raised the peak RSS of repeated digits
    reloads by 3-4 MB.
    """
    ii, jj = np.concatenate(layer_cells or [np.empty((0, 2), dtype=np.int64)]).T
    kk = np.repeat(np.arange(len(layer_cells)), [len(c) for c in layer_cells])
    m, n = shape
    if ((ii < 0) | (ii >= m) | (jj < 0) | (jj >= n)).any():
        raise ValueError(f"a covered cell lies outside the {m}x{n} matrix")
    if (np.bincount(ii * n + jj) > 1).any():
        raise ValueError("a cell is covered twice")
    empty = np.flatnonzero(np.bincount(kk, minlength=len(layer_cells)) == 0)
    if len(empty):
        raise ValueError(f"cluster {empty[0]} owns no cell")
    owner = np.full(shape, -1, dtype=np.int32)
    owner[ii, jj] = kk
    return owner
