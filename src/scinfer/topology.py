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
first read. The boundary operators B1 (nodes by edges) and B2 (edges
by triangles) of the complete complex exist only as the gather/scatter
operators defined here; no dense copy of them is stored or built.

Orientation convention (fixed): edge ``(i, j)`` with ``i < j`` runs from
``i`` to ``j``, so its column of B1 carries ``-1`` at row ``i`` and
``+1`` at row ``j``. Triangle ``(i, j, k)`` with ``i < j < k`` traverses
its boundary as ``i -> j -> k -> i``, contributing ``+1`` to edges
``(i, j)`` and ``(j, k)`` and ``-1`` to edge ``(i, k)``. Under this
convention the chain property ``B1 B2 = 0`` holds exactly in integer
arithmetic: ``triangle_curl(edge_gradient(x)) == 0`` for every ``x``.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
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
    "hodge_decompose",
    "closure_violations",
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

# Triangles per block of ``_curl_energy``. At 100 signals per edge the
# three gathers of a 512-row block stay in cache. The methods pass
# subsets: on the n = 20 noise sweep no call exceeds 512 triangles (the
# largest holds 398), so the kernel runs as one block; at n = 40, 17.5%
# of GreedySCL's calls, holding 39% of its energies, and 5 of SepSCL's 6
# exceed 512. Unblocked, n = 40 GreedySCL ran 5-9% slower in 8 of 9
# alternated passes (2-core Xeon, one BLAS thread).
_CURL_BLOCK = 512


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
    tuples, ``i < j < k``, and are built on first read.
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _require_int(name: str, value, lo=None, hi=None) -> None:
    """The package's one rule for counts, budgets and seeds: a Python or
    numpy integer, at least ``lo`` and at most ``hi`` where given (``hi``
    only with ``lo``). A bool or a float is refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")


def _require_real(name: str, value, lo=0, hi=None, open_lo=False) -> None:
    """The package's one rule for weights, probabilities and scales: a
    finite Python or numpy number in ``[lo, hi]`` (``(lo, hi]`` with
    ``open_lo``), or at least ``lo`` when ``hi`` is None. A bool or a
    string is refused, and NaN and infinities fail every range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
    above = lo < value if open_lo else lo <= value
    if hi is None and not (above and value < math.inf):
        raise ValueError(f"{name} must be {'>' if open_lo else '>='} {lo} and finite, got {value}")
    if hi is not None and not (above and value <= hi):
        raise ValueError(f"{name} must be in {'(' if open_lo else '['}{lo}, {hi}], got {value}")


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
    ``(1 - w1)^T |B2| w2``. ``items`` lists each offending
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
    _require_int("n_nodes", n_nodes, 2, MAX_NODES)
    n = int(n_nodes)

    # Edges in order: each i, then every j > i; triangles in order: each
    # edge (i, j) in order, then every k > j. Edge (i, k) follows (i, j)
    # by k - j places, and edge (j, k) follows (j, j + 1) by k - j - 1.
    i, step = _runs(n - 1 - np.arange(n))
    j = i + step
    ij, step = _runs(n - 1 - j)
    jk = _edge_rank(n, j, j + 1)[ij] + (step - 1)
    tri_edges = np.stack([ij, ij + step, jk], axis=1)
    return ComplexSkeleton(n, _read_only(np.stack([i, j], axis=1)), _read_only(tri_edges))


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of the given lengths laid end to end: the run of each
    position and its step ``1, 2, ...`` within that run."""
    run = np.repeat(np.arange(len(counts)), counts)
    step = np.arange(1, len(run) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    return run, step


def _edge_rank(n: int, i, j):
    """Lexicographic rank of edge ``(i, j)``, ``i < j``; works on arrays."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _triangle_rank(n: int, i, j, k):
    """Lexicographic rank of triangle ``(i, j, k)``, ``i < j < k``; works on arrays."""
    # The C(n, 3) - C(n - i, 3) triangles with a smaller first vertex,
    # then the rank of edge (j, k) on the n - i - 1 vertices after i.
    m = n - i
    return (n * (n - 1) * (n - 2) - m * (m - 1) * (m - 2)) // 6 + _edge_rank(
        m - 1, j - i - 1, k - i - 1
    )


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
    return int(_triangle_rank(n, int(i), int(j), int(k)))


# ---------------------------------------------------------------------------
# Incidence operators: every product with B1/B2 in the package goes through
# these. They are helpers of the package's own modules, so they stay out of
# ``__all__`` and profile as part of their callers.


def triangle_nodes(skeleton: ComplexSkeleton, idx) -> np.ndarray:
    """Vertex rows ``(i, j, k)`` of the candidate triangles ``idx`` (an index or a mask)."""
    ij, _, jk = np.moveaxis(skeleton.tri_edges[idx], -1, 0)
    return np.concatenate([skeleton.edge_nodes[ij], skeleton.edge_nodes[jk, 1:]], axis=-1)


def edge_gradient(skeleton: ComplexSkeleton, x0) -> np.ndarray:
    """Node-signal difference ``x0[j] - x0[i]`` along each candidate
    edge, i.e. ``B1^T x0``."""
    x0 = np.asarray(x0)
    return x0[skeleton.edge_nodes[:, 1]] - x0[skeleton.edge_nodes[:, 0]]


def triangle_curl(skeleton: ComplexSkeleton, x1) -> np.ndarray:
    """Edge-signal curl ``x1[ij] - x1[ik] + x1[jk]`` around each
    candidate triangle, i.e. ``B2^T x1``."""
    return _curl(skeleton.tri_edges, np.asarray(x1))


def _curl(tri_edges: np.ndarray, x1: np.ndarray) -> np.ndarray:
    # In place on the first gather: the same two roundings per entry as
    # ``x1[ij] - x1[ik] + x1[jk]``, with one temporary fewer.
    ij, ik, jk = tri_edges.T
    curl = np.take(x1, ij, axis=0)
    curl -= np.take(x1, ik, axis=0)
    curl += np.take(x1, jk, axis=0)
    return curl


def _row_energy(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", a, a)


def _curl_energy(skeleton: ComplexSkeleton, x1, triangles=None) -> np.ndarray:
    """Curl energy ``||row_t(B2^T x1)||^2`` of the candidate triangles
    ``triangles`` (an index array; every candidate when omitted) for a
    2-d ``x1``; bitwise ``_row_energy(triangle_curl(skeleton, x1))[triangles]``.

    Works through ``_CURL_BLOCK`` triangles at a time, so the gathered
    rows are still in cache when their energy is taken. Each row's energy
    takes the same operations whichever block holds it, so a subset gets
    the full pass's values bit for bit. The range covers at least one
    block, which is empty when there are no triangles.
    """
    x1 = np.asarray(x1)
    tri = skeleton.tri_edges if triangles is None else skeleton.tri_edges[triangles]
    return np.concatenate([
        _row_energy(_curl(tri[start : start + _CURL_BLOCK], x1))
        for start in range(0, max(len(tri), 1), _CURL_BLOCK)
    ])


def _face_counts(faces: np.ndarray, active, size: int) -> np.ndarray:
    """Number of the simplices ``active`` (rows of ``faces``, picked by
    an index list or a mask) on each of ``size`` faces, as integers."""
    return np.bincount(faces[active].ravel(), minlength=size)


def edge_coverage(skeleton: ComplexSkeleton, w2) -> np.ndarray:
    """Number of active triangles on each candidate edge, as floats;
    ``|B2| w2`` for a binary ``w2``."""
    counts = _face_counts(skeleton.tri_edges, np.asarray(w2) != 0, skeleton.n_edges)
    return counts.astype(np.float64)


def missing_edges(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Number of inactive edges of each candidate triangle, as floats;
    ``|B2|^T (1 - w1)`` for a binary ``w1``."""
    inactive = (np.asarray(w1) == 0).astype(np.float64)
    ij, ik, jk = skeleton.tri_edges.T
    return inactive[ij] + inactive[ik] + inactive[jk]


def node_degrees(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Number of active edges at each node, as floats."""
    counts = _face_counts(skeleton.edge_nodes, np.asarray(w1) != 0, skeleton.n_nodes)
    return counts.astype(np.float64)


def b2_block(skeleton: ComplexSkeleton, rows, cols) -> np.ndarray:
    """Signed incidence ``B2[np.ix_(rows, cols)]`` for distinct
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


def check_observed_edges(n_edges: int, observed_edges) -> np.ndarray:
    """Observed edge indices as int64; they must be integers (float and
    bool arrays are refused, not truncated), 1-d, strictly increasing and
    in ``[0, n_edges)``. An empty list reads as no observed edges."""
    obs = np.asarray(observed_edges)
    if obs.dtype.kind not in "iu" and obs.size:
        raise ValueError(f"observed_edges must be integer indices, got dtype {obs.dtype}")
    obs = obs.astype(np.int64, copy=False)
    if obs.ndim != 1:
        raise ValueError("observed_edges must be a 1-d index array")
    if (obs[1:] <= obs[:-1]).any():
        raise ValueError("observed_edges must be strictly increasing")
    if obs.size and (obs[0] < 0 or obs[-1] >= n_edges):
        raise ValueError("observed edge index out of range")
    return obs


def prune_open_triangles(skeleton: ComplexSkeleton, w1, w2) -> tuple[np.ndarray, int]:
    """Deactivate every active triangle missing a supporting edge.

    Returns a pruned copy of ``w2`` and the number of triangles deactivated.
    """
    open_tris = (w2 != 0) & (missing_edges(skeleton, w1) > 0)
    return np.where(open_tris, 0, w2).astype(w2.dtype), int(open_tris.sum())


def _active_indices(vec, size: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A binary indicator of any dtype as an array and its sorted active
    indices; refuses a wrong shape or any entry other than 0 and 1."""
    arr = np.asarray(vec)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    active = np.flatnonzero(arr)
    if not (arr[active] == 1).all():
        raise ValueError(f"{name} must be binary (entries in {{0, 1}})")
    return arr, active


def _as_indicator(vec, size: int, name: str) -> np.ndarray:
    return _active_indices(vec, size, name)[0].astype(np.float64)


def make_selection(skeleton: ComplexSkeleton, w1, w2) -> Selection:
    """Validate and freeze a pair of indicator vectors into a Selection."""
    w1a = _as_indicator(w1, skeleton.n_edges, "w1").astype(np.int8)
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2").astype(np.int8)
    return Selection(_read_only(w1a), _read_only(w2a))


def node_laplacian(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Graph Laplacian ``B1 diag(w1) B1^T`` of the active edges of a
    binary edge indicator ``w1``."""
    w = _as_indicator(w1, skeleton.n_edges, "w1")
    b1t = edge_gradient(skeleton, np.eye(skeleton.n_nodes))
    return (b1t.T * w) @ b1t


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
    b1t = edge_gradient(skeleton, np.eye(skeleton.n_nodes))[active_e]
    b2 = b2_block(skeleton, active_e, np.flatnonzero(w2a))
    xa = np.asarray(x, dtype=np.float64)
    if xa.shape != (b1t.shape[0],):
        raise ValueError(f"x must have shape ({b1t.shape[0]},), got {xa.shape}")

    v, *_ = np.linalg.lstsq(b1t, xa, rcond=_SV_CUTOFF)
    gradient = b1t @ v
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


def complex_to_dict(skeleton: ComplexSkeleton, selection: Selection) -> dict:
    """Serialize the active simplices of a selection."""
    w1 = _as_indicator(selection.w1, skeleton.n_edges, "w1")
    w2 = _as_indicator(selection.w2, skeleton.n_triangles, "w2")
    return {
        "n_nodes": skeleton.n_nodes,
        "edges": skeleton.edge_nodes[w1 != 0].tolist(),
        "triangles": triangle_nodes(skeleton, w2 != 0).tolist(),
    }


def _simplex_ranks(entries: list, n: int, size: int, kind: str) -> np.ndarray:
    """Candidate positions of the serialized simplices ``entries``, each
    a list of ``size`` vertices, checked in one array pass.

    An entry must be a list of ``size`` integers (bools and floats such
    as 1.7 are refused), its vertices in range and strictly increasing,
    and it must come strictly after its predecessor in lexicographic
    order. The first faulty entry raises, with the message of the first
    of those faults it has.
    """
    # Three passes in C settle the usual document, where every entry is
    # well formed; only a document that fails them is walked entry by
    # entry, to find the first entry that is not.
    ints = {int}
    if (
        set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {size}
        and set(map(type, itertools.chain.from_iterable(entries))) <= ints
    ):
        m = len(entries)
    else:
        well_formed = [
            isinstance(e, (list, tuple)) and len(e) == size and set(map(type, e)) <= ints
            for e in entries
        ]
        m = well_formed.index(False) if False in well_formed else len(entries)
    flat = itertools.chain.from_iterable(entries[:m])
    try:
        vertices = np.fromiter(flat, np.int64, m * size)
    except OverflowError:
        # Beyond int64 is out of range either way; clamped to -1 or n it stays so.
        flat = itertools.chain.from_iterable(entries[:m])
        vertices = np.fromiter((min(max(v, -1), n) for v in flat), np.int64, m * size)
    vertices = vertices.reshape(m, size)
    cols = vertices.T
    valid = (cols[0] >= 0) & (cols[-1] < n) & (cols[1:] > cols[:-1]).all(axis=0)
    ranks = (_edge_rank if size == 2 else _triangle_rank)(n, *cols)
    ordered = np.ones(m, dtype=bool)
    ordered[1:] = ranks[1:] > ranks[:-1]
    faults = np.flatnonzero(~(valid & ordered))
    first = int(faults[0]) if faults.size else m
    if first == len(entries):
        return ranks
    entry = entries[first]
    if first == m:
        raise ValueError(f"{kind} entry {entry!r} must be a list of {size} integer vertices")
    if not valid[first]:
        raise ValueError(f"invalid {kind} ({', '.join(map(str, entry))}) for {n} nodes")
    raise ValueError(f"{kind}s must be strictly lexicographic; saw {entry!r} out of order")


def complex_from_dict(data: dict) -> tuple[ComplexSkeleton, Selection]:
    """Parse and validate a serialized complex.

    Rejects simplex entries that are not lists of integer vertices,
    out-of-range vertices, unsorted simplices, duplicate or
    non-lexicographic listings, and triangles missing a listed edge.
    The first faulty entry decides the message, edges before triangles.
    """
    if not isinstance(data, dict):
        raise ValueError("complex document must be a JSON object")
    for key in ("n_nodes", "edges", "triangles"):
        if key not in data:
            raise ValueError(f"complex document missing key '{key}'")
    for key in ("edges", "triangles"):
        if not isinstance(data[key], list):
            raise ValueError(f"complex document key '{key}' must be a list")
    skeleton = build_skeleton(data["n_nodes"])
    n = skeleton.n_nodes

    w1 = np.zeros(skeleton.n_edges, dtype=np.int8)
    w1[_simplex_ranks(data["edges"], n, 2, "edge")] = 1
    tris = _simplex_ranks(data["triangles"], n, 3, "triangle")
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    w2[tris] = 1

    faces = skeleton.tri_edges[tris]
    open_tris = np.flatnonzero((w1[faces] == 0).any(axis=1))
    if open_tris.size:
        first = open_tris[0]
        raise ValueError(
            f"triangle {tuple(data['triangles'][first])} lists inactive edge(s) "
            f"{[skeleton.edges[e] for e in faces[first] if w1[e] == 0]}; "
            "complex is not downward closed"
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
