"""Combinatorial scaffolding for order-2 simplicial complexes.

Everything downstream is phrased against the *complete* complex on
``n_nodes`` vertices: every vertex pair is a candidate edge and every
vertex triple a candidate triangle, both enumerated in lexicographic
order. A concrete complex is then just a pair of binary indicator
vectors over those candidate lists, which keeps topology selection,
Laplacian assembly and subset scoring in plain array land.

The skeleton stores only ``n_nodes``, ``edge_nodes`` (the endpoints of
each edge) and ``tri_edges`` (the three edges of each triangle); the
vertex-tuple views ``edges`` and ``triangles`` are built from them on
first read. The other modules reach that layout solely through the
arrays and the gather/scatter operators defined here.

Orientation convention (fixed): edge ``(i, j)`` with ``i < j`` runs from
``i`` to ``j``, so its incidence column carries ``-1`` at row ``i`` and
``+1`` at row ``j``. Triangle ``(i, j, k)`` with ``i < j < k`` traverses
its boundary as ``i -> j -> k -> i``, contributing ``+1`` to edges
``(i, j)`` and ``(j, k)`` and ``-1`` to edge ``(i, k)``. Under this
convention the chain property ``b1_full @ b2_full == 0`` holds exactly
in integer arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MAX_NODES",
    "ComplexSkeleton",
    "Selection",
    "HodgeParts",
    "ClosureReport",
    "build_skeleton",
    "edge_index",
    "triangle_index",
    "make_selection",
    "node_laplacian",
    "upper_laplacian",
    "hodge_laplacian",
    "hodge_decompose",
    "closure_violations",
    "is_closed",
    "complex_to_dict",
    "complex_from_dict",
    "write_complex_json",
    "read_complex_json",
]

# No benchmark workload runs above 40 nodes, so nothing measures the
# learner or the generator past this size.
MAX_NODES = 40

_SV_CUTOFF = 1e-10

# Layout of every JSON document the package writes or prints.
JSON_STYLE = {"indent": 2, "sort_keys": True}

# Boundary signs of a triangle on its edges, in ``tri_edges`` column order.
_TRI_SIGNS = np.array([1.0, -1.0, 1.0])


@dataclass(frozen=True)
class ComplexSkeleton:
    """Complete order-2 complex on ``n_nodes`` vertices.

    Attributes
    ----------
    n_nodes : int
        Number of vertices.
    edge_nodes : ndarray of int, shape (n_edges, 2)
        Endpoints ``(i, j)``, ``i < j``, of each candidate edge, lexicographic.
    tri_edges : ndarray of int, shape (n_triangles, 3)
        Candidate-edge indices ``(ij, ik, jk)`` of each triangle's
        boundary, ascending; the boundary signs are ``(+1, -1, +1)``.

    These are the only stored fields; both arrays are read-only. The
    views ``edges`` and ``triangles`` list the same simplices as vertex
    tuples, ``i < j < k``, and are built on first read. The dense
    matrices ``b1_full``, ``b2_full`` and ``b2_unsigned`` are read-only
    properties built from the arrays on every access, for reference use.
    """

    n_nodes: int
    edge_nodes: np.ndarray
    tri_edges: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edge_nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.tri_edges)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.edge_nodes.T.tolist()))

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(*triangle_nodes(self, slice(None)).T.tolist()))

    @property
    def b1_full(self) -> np.ndarray:
        """Node-to-edge incidence, shape (n_nodes, n_edges)."""
        b1 = np.zeros((self.n_nodes, self.n_edges))
        b1[self.edge_nodes[:, 0], np.arange(self.n_edges)] = -1.0
        b1[self.edge_nodes[:, 1], np.arange(self.n_edges)] = 1.0
        return _read_only(b1)

    @property
    def b2_full(self) -> np.ndarray:
        """Edge-to-triangle incidence, shape (n_edges, n_triangles)."""
        return _read_only(b2_block(self, np.arange(self.n_edges), np.arange(self.n_triangles)))

    @property
    def b2_unsigned(self) -> np.ndarray:
        """Entrywise absolute value of ``b2_full``."""
        return _read_only(np.abs(self.b2_full))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Selection:
    """Binary indicators over the candidate edge and triangle lists."""

    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class HodgeParts:
    """Orthogonal decomposition of an edge flow on the active edges.

    ``gradient + curl + harmonic`` reconstructs the input;
    ``node_potential`` and ``triangle_potential`` are least-squares
    preimages of the gradient and curl parts.
    """

    gradient: np.ndarray
    curl: np.ndarray
    harmonic: np.ndarray
    node_potential: np.ndarray
    triangle_potential: np.ndarray


@dataclass(frozen=True)
class ClosureReport:
    """Downward-closure violations of a selection.

    ``count`` totals missing-edge incidences over active triangles, i.e.
    ``(1 - w1)^T b2_unsigned w2``. ``items`` lists each offending
    triangle index with the candidate-edge indices it is missing.
    """

    count: int
    items: tuple[tuple[int, tuple[int, ...]], ...]


def build_skeleton(n_nodes: int) -> ComplexSkeleton:
    """Enumerate the complete complex and its boundary index arrays.

    Parameters
    ----------
    n_nodes : int
        Vertex count, ``2 <= n_nodes <= MAX_NODES``.

    Returns
    -------
    ComplexSkeleton
        Immutable skeleton with ``C(n,2)`` candidate edges and
        ``C(n,3)`` candidate triangles in lexicographic order.
    """
    if not isinstance(n_nodes, (int, np.integer)):
        raise ValueError(f"n_nodes must be an integer, got {type(n_nodes).__name__}")
    if n_nodes < 2 or n_nodes > MAX_NODES:
        raise ValueError(f"n_nodes must be in [2, {MAX_NODES}], got {n_nodes}")
    n = int(n_nodes)

    i, j = np.triu_indices(n, 1)
    # Triangles in order: each edge (i, j) in order, then every k > j.
    ij, k = np.nonzero(np.arange(n) > j[:, None])
    tri_edges = np.stack([ij, _edge_rank(n, i[ij], k), _edge_rank(n, j[ij], k)], axis=1)
    return ComplexSkeleton(n, _read_only(np.stack([i, j], axis=1)), _read_only(tri_edges))


def _edge_rank(n: int, i, j):
    """Lexicographic rank of edge ``(i, j)``, ``i < j``; works on arrays."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def edge_index(skeleton: ComplexSkeleton, i: int, j: int) -> int:
    """Position of edge ``(i, j)`` in the candidate list; requires ``i < j``."""
    if not (0 <= i < j < skeleton.n_nodes):
        raise ValueError(f"invalid edge ({i}, {j}) for {skeleton.n_nodes} nodes")
    return int(_edge_rank(skeleton.n_nodes, int(i), int(j)))


def triangle_index(skeleton: ComplexSkeleton, i: int, j: int, k: int) -> int:
    """Position of triangle ``(i, j, k)`` in the candidate list; requires ``i < j < k``."""
    n = skeleton.n_nodes
    if not (0 <= i < j < k < n):
        raise ValueError(f"invalid triangle ({i}, {j}, {k}) for {n} nodes")
    i, j, k = int(i), int(j), int(k)
    # Triangles with a smaller first vertex, then with first vertex i and
    # a smaller second vertex, then the offset of k.
    return (
        math.comb(n, 3) - math.comb(n - i, 3)
        + math.comb(n - i - 1, 2) - math.comb(n - j, 2)
        + (k - j - 1)
    )


# ---------------------------------------------------------------------------
# Incidence operators: every product with b1/b2 in the package goes through
# these. They are helpers of the package's own modules, so they stay out of
# ``__all__`` and profile as part of their callers.


def triangle_nodes(skeleton: ComplexSkeleton, idx) -> np.ndarray:
    """Vertex rows ``(i, j, k)`` of the candidate triangles ``idx`` (an index or a mask)."""
    ij, _, jk = np.moveaxis(skeleton.tri_edges[idx], -1, 0)
    return np.concatenate([skeleton.edge_nodes[ij], skeleton.edge_nodes[jk, 1:]], axis=-1)


def edge_gradient(skeleton: ComplexSkeleton, x0) -> np.ndarray:
    """Node-signal difference ``x0[j] - x0[i]`` along each candidate
    edge, i.e. ``b1_full.T @ x0``."""
    x0 = np.asarray(x0)
    return x0[skeleton.edge_nodes[:, 1]] - x0[skeleton.edge_nodes[:, 0]]


def triangle_curl(skeleton: ComplexSkeleton, x1) -> np.ndarray:
    """Edge-signal curl ``x1[ij] - x1[ik] + x1[jk]`` around each
    candidate triangle, i.e. ``b2_full.T @ x1``."""
    x1 = np.asarray(x1)
    ij, ik, jk = skeleton.tri_edges.T
    return x1[ij] - x1[ik] + x1[jk]


def edge_coverage(skeleton: ComplexSkeleton, w2) -> np.ndarray:
    """Number of active triangles on each candidate edge, as floats;
    ``b2_unsigned @ w2`` for a binary ``w2``."""
    active = skeleton.tri_edges[np.asarray(w2) != 0]
    return np.bincount(active.ravel(), minlength=skeleton.n_edges).astype(np.float64)


def missing_edges(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Number of inactive edges of each candidate triangle, as floats;
    ``b2_unsigned.T @ (1 - w1)`` for a binary ``w1``."""
    inactive = np.asarray(w1) == 0
    return inactive[skeleton.tri_edges].sum(axis=1).astype(np.float64)


def node_degrees(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Number of active edges at each node, as floats."""
    active = skeleton.edge_nodes[np.asarray(w1) != 0]
    return np.bincount(active.ravel(), minlength=skeleton.n_nodes).astype(np.float64)


def b2_block(skeleton: ComplexSkeleton, rows, cols) -> np.ndarray:
    """Signed incidence ``b2_full[np.ix_(rows, cols)]`` for distinct
    candidate edges ``rows`` and candidate triangles ``cols``."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    pos = np.full(skeleton.n_edges, -1, dtype=np.intp)
    pos[rows] = np.arange(rows.size)
    at_row = pos[skeleton.tri_edges[cols]]
    at_col = np.broadcast_to(np.arange(cols.size)[:, None], at_row.shape)
    signs = np.broadcast_to(_TRI_SIGNS, at_row.shape)
    hit = at_row >= 0
    block = np.zeros((rows.size, cols.size))
    block[at_row[hit], at_col[hit]] = signs[hit]
    return block


def _span_basis(b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of ``b``: the left singular
    vectors whose singular value exceeds ``_SV_CUTOFF`` times the largest."""
    u, sv, _ = np.linalg.svd(b, full_matrices=False)
    return u[:, : int((sv > _SV_CUTOFF * sv[:1]).sum())]


def check_observed_edges(skeleton: ComplexSkeleton, observed_edges) -> np.ndarray:
    """Observed edge indices as int64; they must be 1-d, strictly increasing and in range."""
    obs = np.asarray(observed_edges, dtype=np.int64)
    if obs.ndim != 1:
        raise ValueError("observed_edges must be a 1-d index array")
    if (obs[1:] <= obs[:-1]).any():
        raise ValueError("observed_edges must be strictly increasing")
    if obs.size and (obs[0] < 0 or obs[-1] >= skeleton.n_edges):
        raise ValueError("observed edge index out of range")
    return obs


def prune_open_triangles(skeleton: ComplexSkeleton, w1, w2) -> tuple[np.ndarray, int]:
    """Deactivate every active triangle missing a supporting edge.

    Returns a pruned copy of ``w2`` and the number of triangles deactivated.
    """
    open_tris = (w2 != 0) & (missing_edges(skeleton, w1) > 0)
    return np.where(open_tris, 0, w2).astype(w2.dtype), int(open_tris.sum())


def _as_indicator(vec, size: int, name: str) -> np.ndarray:
    arr = np.asarray(vec)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    arr = arr.astype(np.float64)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} must be binary (entries in {{0, 1}})")
    return arr


def make_selection(skeleton: ComplexSkeleton, w1, w2) -> Selection:
    """Validate and freeze a pair of indicator vectors into a Selection."""
    w1a = _as_indicator(w1, skeleton.n_edges, "w1").astype(np.int8)
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2").astype(np.int8)
    w1a.flags.writeable = False
    w2a.flags.writeable = False
    return Selection(w1a, w2a)


def node_laplacian(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Weighted node Laplacian ``b1_full diag(w1) b1_full^T``.

    ``w1`` may be any nonnegative edge weighting; binary vectors give
    the combinatorial graph Laplacian of the active edge set.
    """
    w = np.asarray(w1, dtype=np.float64)
    if w.shape != (skeleton.n_edges,):
        raise ValueError(f"w1 must have shape ({skeleton.n_edges},), got {w.shape}")
    b1 = skeleton.b1_full
    return (b1 * w) @ b1.T


def upper_laplacian(skeleton: ComplexSkeleton, w2) -> np.ndarray:
    """Upper edge Laplacian ``b2_full diag(w2) b2_full^T`` on all candidate edges."""
    w = np.asarray(w2, dtype=np.float64)
    if w.shape != (skeleton.n_triangles,):
        raise ValueError(f"w2 must have shape ({skeleton.n_triangles},), got {w.shape}")
    active = np.flatnonzero(w)
    b2 = b2_block(skeleton, np.arange(skeleton.n_edges), active)
    return (b2 * w[active]) @ b2.T


def hodge_laplacian(skeleton: ComplexSkeleton, w1, w2) -> np.ndarray:
    """Hodge Laplacian ``B1^T B1 + B2 B2^T`` restricted to the active edges.

    Requires a downward-closed selection; the restriction of ``b2_full``
    to active rows/columns is only a boundary operator in that case.
    """
    w1a = _as_indicator(w1, skeleton.n_edges, "w1")
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2")
    if _violation_count(skeleton, w1a, w2a) != 0:
        raise ValueError("selection is not downward closed; cannot restrict b2")
    active_e = np.flatnonzero(w1a)
    b1 = skeleton.b1_full[:, active_e]
    b2 = b2_block(skeleton, active_e, np.flatnonzero(w2a))
    return b1.T @ b1 + b2 @ b2.T


def hodge_decompose(skeleton: ComplexSkeleton, w1, w2, x) -> HodgeParts:
    """Split an edge flow into gradient, curl and harmonic parts.

    Parameters
    ----------
    w1, w2 : array-like
        Binary selection; must be downward closed.
    x : ndarray, shape (n_active_edges,)
        Flow on the active edges, ordered by ascending candidate index.

    Returns
    -------
    HodgeParts
        Parts are mutually orthogonal and sum to ``x``; closure of the
        selection makes the gradient and curl ranges orthogonal.
    """
    w1a = _as_indicator(w1, skeleton.n_edges, "w1")
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2")
    if _violation_count(skeleton, w1a, w2a) != 0:
        raise ValueError("selection is not downward closed")
    active_e = np.flatnonzero(w1a)
    xa = np.asarray(x, dtype=np.float64)
    if xa.shape != (active_e.size,):
        raise ValueError(f"x must have shape ({active_e.size},), got {xa.shape}")

    b1 = skeleton.b1_full[:, active_e]
    b2 = b2_block(skeleton, active_e, np.flatnonzero(w2a))

    v, *_ = np.linalg.lstsq(b1.T, xa, rcond=_SV_CUTOFF)
    gradient = b1.T @ v
    t, *_ = np.linalg.lstsq(b2, xa - gradient, rcond=_SV_CUTOFF)
    curl = b2 @ t
    harmonic = xa - gradient - curl
    return HodgeParts(gradient, curl, harmonic, v, t)


def _violation_count(skeleton: ComplexSkeleton, w1: np.ndarray, w2: np.ndarray) -> int:
    return int(missing_edges(skeleton, w1)[w2 != 0].sum())


def closure_violations(skeleton: ComplexSkeleton, w1, w2) -> ClosureReport:
    """Report active triangles whose supporting edges are not all active."""
    w1a = _as_indicator(w1, skeleton.n_edges, "w1")
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2")
    open_tris = np.flatnonzero((w2a != 0.0) & (missing_edges(skeleton, w1a) > 0.0))
    items = tuple(
        (int(t_idx), tuple(int(e) for e in skeleton.tri_edges[t_idx] if w1a[e] == 0.0))
        for t_idx in open_tris
    )
    count = sum(len(m) for _, m in items)
    return ClosureReport(count, items)


def is_closed(skeleton: ComplexSkeleton, w1, w2) -> bool:
    """True when every active triangle has all three edges active."""
    w1a = _as_indicator(w1, skeleton.n_edges, "w1")
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2")
    return _violation_count(skeleton, w1a, w2a) == 0


def complex_to_dict(skeleton: ComplexSkeleton, selection: Selection) -> dict:
    """Serialize the active simplices of a selection."""
    w1 = _as_indicator(selection.w1, skeleton.n_edges, "w1")
    w2 = _as_indicator(selection.w2, skeleton.n_triangles, "w2")
    return {
        "n_nodes": skeleton.n_nodes,
        "edges": skeleton.edge_nodes[w1 != 0].tolist(),
        "triangles": triangle_nodes(skeleton, w2 != 0).tolist(),
    }


def _vertices(entry, size: int, kind: str):
    """The vertices of one serialized simplex, which must be a list of
    ``size`` integers (bools and floats such as 1.7 are refused)."""
    if isinstance(entry, (list, tuple)) and len(entry) == size and all(
        type(v) is int for v in entry
    ):
        return entry
    raise ValueError(f"{kind} entry {entry!r} must be a list of {size} integer vertices")


def complex_from_dict(data: dict) -> tuple[ComplexSkeleton, Selection]:
    """Parse and validate a serialized complex.

    Rejects simplex entries that are not lists of integer vertices,
    out-of-range vertices, unsorted simplices, duplicate or
    non-lexicographic listings, and triangles missing a listed edge.
    """
    if not isinstance(data, dict):
        raise ValueError("complex document must be a JSON object")
    for key in ("n_nodes", "edges", "triangles"):
        if key not in data:
            raise ValueError(f"complex document missing key '{key}'")
    for key in ("edges", "triangles"):
        if not isinstance(data[key], list):
            raise ValueError(f"complex document key '{key}' must be a list")
    n_nodes = data["n_nodes"]
    skeleton = build_skeleton(n_nodes)

    w1 = np.zeros(skeleton.n_edges, dtype=np.int8)
    prev = None
    for entry in data["edges"]:
        idx = edge_index(skeleton, *_vertices(entry, 2, "edge"))
        if prev is not None and idx <= prev:
            raise ValueError(f"edges must be strictly lexicographic; saw {entry!r} out of order")
        prev = idx
        w1[idx] = 1

    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    prev = None
    for entry in data["triangles"]:
        idx = triangle_index(skeleton, *_vertices(entry, 3, "triangle"))
        if prev is not None and idx <= prev:
            raise ValueError(
                f"triangles must be strictly lexicographic; saw {entry!r} out of order"
            )
        prev = idx
        w2[idx] = 1

    report = closure_violations(skeleton, w1, w2)
    if report.count:
        t_idx, missing = report.items[0]
        raise ValueError(
            f"triangle {skeleton.triangles[t_idx]} lists inactive edge(s) "
            f"{[skeleton.edges[e] for e in missing]}; complex is not downward closed"
        )
    return skeleton, make_selection(skeleton, w1, w2)


def write_json(path, doc) -> None:
    """Write ``doc`` in the one JSON layout of every file the package
    writes: indent 2, sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, **JSON_STYLE)
        fh.write("\n")


def read_json(path):
    """Parse a JSON file; a syntax error becomes a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def write_complex_json(path, skeleton: ComplexSkeleton, selection: Selection) -> None:
    write_json(path, complex_to_dict(skeleton, selection))


def read_complex_json(path) -> tuple[ComplexSkeleton, Selection]:
    """Read a complex.json, or the ``complex`` member of a result.json."""
    data = read_json(path)
    if isinstance(data, dict) and "complex" in data:
        data = data["complex"]
    return complex_from_dict(data)
