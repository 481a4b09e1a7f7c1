"""Connectivity matrices, masks, clusters, and their file formats.

A connectivity matrix is a dense (0,1) matrix recording which synapses exist
between two neuron layers: entry (i, j) = 1 iff input neuron i feeds output
neuron j. Masks share the shape of the weight matrix they gate.
Clusters are row/column index groups whose induced submatrix maps onto one
crossbar; a ClusterSet records which cluster owns each synapse in one int32
owner matrix per layer.

All types are immutable after construction; operations return new values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

class ShapeError(ValueError):
    """Raised when matrix shapes are degenerate or do not line up."""


class SparseFormatError(ValueError):
    """Raised on malformed sparse coordinate files; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_bits(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"degenerate shape {arr.shape}; need a non-empty 2-d matrix")
    if not np.isin(arr, (0, 1)).all():
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
class Mask:
    """(0,1) gate with the same shape as the weight matrix it masks."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _as_bits(self.bits))

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape


@dataclass(frozen=True)
class Cluster:
    """Row/column index groups whose induced submatrix maps onto one crossbar.

    Indices are kept sorted ascending; identity is (layer_id, position in its
    ClusterSet).
    """

    row_ids: tuple[int, ...]
    col_ids: tuple[int, ...]
    layer_id: int = 0

    def __post_init__(self):
        rows = tuple(int(i) for i in self.row_ids)
        cols = tuple(int(j) for j in self.col_ids)
        if not rows or not cols:
            raise ValueError("cluster needs at least one row and one column")
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("cluster indices must be duplicate-free")
        if min(rows) < 0 or min(cols) < 0:
            raise ValueError("cluster indices must be non-negative")
        object.__setattr__(self, "row_ids", tuple(sorted(rows)))
        object.__setattr__(self, "col_ids", tuple(sorted(cols)))

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    @property
    def n_cols(self) -> int:
        return len(self.col_ids)

    def footprint_area(self) -> int:
        return self.n_rows * self.n_cols

    def fits(self, crossbar_rows: int, crossbar_cols: int) -> bool:
        return self.n_rows <= crossbar_rows and self.n_cols <= crossbar_cols


@dataclass(frozen=True)
class ClusterSet:
    """Accepted clusters of one layer plus who owns each synapse.

    ``owner`` is an int32 matrix shaped like ``source``: -1 marks a cell in no
    cluster, ``k`` a cell covered by ``clusters[k]``. An accepted cluster
    spends its full induced-submatrix footprint (its 0-entries are unusable
    cross-points), so ownership is stored per cell rather than re-derived
    from the footprint. The residual is every source synapse no cluster owns;
    ``owner=None`` means no cell is owned.
    """

    clusters: tuple[Cluster, ...]
    source: ConnectivityMatrix
    owner: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))
        shape = self.source.bits.shape
        owner = np.full(shape, -1) if self.owner is None else self.owner
        owner = np.array(owner, dtype=np.int32)
        if owner.shape != shape:
            raise ShapeError(f"owner {owner.shape} does not match source {shape}")
        if owner.min() < -1 or owner.max() >= len(self.clusters):
            raise ValueError(f"owner entries must lie in [-1, {len(self.clusters)})")
        owner.flags.writeable = False
        object.__setattr__(self, "owner", owner)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def residual(self) -> ConnectivityMatrix:
        return ConnectivityMatrix(self.source.bits & (self.owner < 0))

    def cell_counts(self) -> np.ndarray:
        """Number of cells each cluster owns."""
        return np.bincount(self.owner[self.owner >= 0], minlength=self.n_clusters)

    def cells(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return owner_cells(self.owner, self.n_clusters)


def owner_cells(owner: np.ndarray, n_clusters: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, cols) of each cluster's cells; entry k equals ``np.nonzero(owner == k)``.

    One stable sort groups the owned cells by owner, keeping row-major order
    inside each group.
    """
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
    raw = Path(path).read_text().splitlines()
    lines = [(n + 1, s.strip()) for n, s in enumerate(raw) if s.strip()]
    if not lines:
        raise SparseFormatError("empty file", line=1)
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise SparseFormatError(f"header must be 'rows cols nnz', got {header!r}", line=header_no)
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise SparseFormatError(f"non-integer header field in {header!r}", line=header_no) from None
    if n_rows < 1 or n_cols < 1 or nnz < 0:
        raise SparseFormatError(f"invalid dimensions {header!r}", line=header_no)
    entries = lines[1:]
    if len(entries) != nnz:
        raise SparseFormatError(
            f"header promises {nnz} entries but file has {len(entries)}", line=header_no
        )
    bits = np.zeros((n_rows, n_cols), dtype=np.uint8)
    for line_no, text in entries:
        parts = text.split()
        if len(parts) != 2:
            raise SparseFormatError(f"entry must be 'row col', got {text!r}", line=line_no)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise SparseFormatError(f"non-integer coordinate in {text!r}", line=line_no) from None
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise SparseFormatError(
                f"coordinate out of bounds: ({i}, {j}) vs shape ({n_rows}, {n_cols})", line=line_no
            )
        bits[i, j] = 1
    return ConnectivityMatrix(bits)


def cluster_sets_to_json(cluster_sets: list[ClusterSet]) -> str:
    """Serialize per-layer cluster sets as a JSON list of {layer, rows, cols, covered}.

    ``covered`` lists each cluster's owned cells in row-major order, so
    mapping reports can be rebuilt from the live weights alone.
    """
    records = []
    for layer_id, cs in enumerate(cluster_sets):
        for cluster, (ii, jj) in zip(cs.clusters, cs.cells()):
            records.append(
                {
                    "layer": layer_id,
                    "rows": list(cluster.row_ids),
                    "cols": list(cluster.col_ids),
                    "covered": [[i, j] for i, j in zip(ii.tolist(), jj.tolist())],
                }
            )
    return json.dumps(records, indent=1)


def cluster_sets_from_json(text: str, sources: list[ConnectivityMatrix]) -> list[ClusterSet]:
    """Rebuild per-layer ClusterSets from JSON plus each layer's source connectivity."""
    records = json.loads(text)
    clusters: list[list[Cluster]] = [[] for _ in sources]
    owners = [np.full(s.bits.shape, -1, dtype=np.int32) for s in sources]
    for rec in records:
        layer = int(rec["layer"])
        if not 0 <= layer < len(sources):
            raise ValueError(f"cluster record for unknown layer {layer}")
        covered = np.asarray(rec.get("covered", []), dtype=np.int64).reshape(-1, 2)
        owners[layer][covered[:, 0], covered[:, 1]] = len(clusters[layer])
        clusters[layer].append(Cluster(tuple(rec["rows"]), tuple(rec["cols"]), layer_id=layer))
    return [ClusterSet(tuple(c), s, o) for c, s, o in zip(clusters, sources, owners)]


def audit_cluster_set(cs: ClusterSet, original: ConnectivityMatrix) -> None:
    """Check a ClusterSet against the matrix it was built from.

    Disjointness, and coverage plus residual reproducing the source, hold by
    construction of the owner matrix. What is left: the set was built from
    ``original``, every owned cell is a source synapse inside its cluster's
    row/col footprint, and no cluster is empty. Raises AssertionError with a
    diagnostic on violation.
    """
    assert np.array_equal(cs.source.bits, original.bits), "cluster set built from another matrix"
    assert original.bits[cs.owner >= 0].all(), "a covered synapse is absent from the source"
    for k, (cluster, (ii, jj)) in enumerate(zip(cs.clusters, cs.cells())):
        assert len(ii), f"cluster {k} covers no synapses"
        assert np.isin(ii, cluster.row_ids).all() and np.isin(jj, cluster.col_ids).all(), (
            f"cluster {k}: covered synapse outside its footprint"
        )
