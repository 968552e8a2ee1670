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

Every rank the package decides, on the spectrum of an integer Gram or
on residuals off a span, goes through ``_rank_mask``; the package calls
no SVD and no least-squares solver.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MAX_NODES",
    "ComplexSkeleton",
    "Selection",
    "HodgeParts",
    "build_skeleton",
    "make_selection",
    "node_laplacian",
    "hodge_decompose",
    "complex_to_dict",
    "complex_from_dict",
    "read_complex_json",
]

# No benchmark workload runs above 40 nodes, so nothing measures the
# learner or the generator past this size.
MAX_NODES = 40

# The package's one rank cutoff (``_rank_mask``), relative to the largest
# eigenvalue of an integer Gram; on b^T b it keeps the singular values of
# b above 1e-5 of the largest. On both shipped sweeps and seeds 5000-5005
# at n = 40, dropped eigenvalues were at most 8.8e-16 times the largest
# and kept ones at least 2.7e-4 times it (fill draws), 1.7e-3 (curl
# blocks), 6.5e-3 (GreedySCL's A_UU) and 0.12 (node Laplacians).
_GRAM_CUTOFF = 1e-10

# Boundary signs of a triangle on its edges, in ``tri_edges`` column order.
_TRI_SIGNS = np.array([1.0, -1.0, 1.0])

# Sign products s_a * s_b of a triangle's boundary on its edge pairs
# (a, b), row-major over its ``tri_edges`` columns: its 3 x 3 block of
# B2 B2^T.
_SIGN_PAIRS = np.outer(_TRI_SIGNS, _TRI_SIGNS).ravel()

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


def _check_finite(*checks) -> None:
    """Each ``(name, arr)`` must hold only finite values."""
    for name, arr in checks:
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")


@dataclass(frozen=True)
class Selection:
    """Binary indicators over the candidate edge and triangle lists."""

    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class HodgeParts:
    """Orthogonal decomposition of an edge flow on the active edges;
    ``gradient + curl + harmonic`` reconstructs the input."""

    gradient: np.ndarray
    curl: np.ndarray
    harmonic: np.ndarray


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


def _curl_energy(skeleton: ComplexSkeleton, x1, triangles) -> np.ndarray:
    """Curl energy ``||row_t(B2^T x1)||^2`` of the candidate triangles
    ``triangles`` (an index array) for a 2-d ``x1``; bitwise
    ``_row_energy(triangle_curl(skeleton, x1))[triangles]``.

    Works through ``_CURL_BLOCK`` triangles at a time, so the gathered
    rows are still in cache when their energy is taken. Each row's energy
    takes the same operations whichever block holds it, so any subset
    gets the values of a pass over every candidate bit for bit. The range
    covers at least one block, which is empty when there are no triangles.
    """
    x1 = np.asarray(x1)
    tri = skeleton.tri_edges[triangles]
    return np.concatenate([
        _row_energy(_curl(tri[start : start + _CURL_BLOCK], x1))
        for start in range(0, max(len(tri), 1), _CURL_BLOCK)
    ])


def _face_counts(faces: np.ndarray, active, size: int) -> np.ndarray:
    """Number of the simplices ``active`` (rows of ``faces``, picked by
    an index list or a mask) on each of ``size`` faces, as integers."""
    return np.bincount(faces[active].ravel(), minlength=size)


def edge_coverage(skeleton: ComplexSkeleton, w2) -> np.ndarray:
    """Number of active triangles on each candidate edge, as integers;
    ``|B2| w2`` for a binary ``w2``."""
    return _face_counts(skeleton.tri_edges, np.asarray(w2) != 0, skeleton.n_edges)


def missing_edges(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Number of inactive edges of each candidate triangle, as integers;
    ``|B2|^T (1 - w1)`` for a binary ``w1``."""
    inactive = (np.asarray(w1) == 0).astype(np.int8)
    ij, ik, jk = skeleton.tri_edges.T
    return inactive[ij] + inactive[ik] + inactive[jk]


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


def _gram_blocks(skeleton: ComplexSkeleton, active, u_rows, o_rows):
    """Blocks ``(UU, UO, OO)`` of ``B2[:, active] B2[:, active]^T`` on the
    support ``[u_rows; o_rows]``, which must hold every edge of the
    ``active`` triangles.

    One ``np.bincount`` adds each triangle's 3 x 3 sign block at its
    edges' support positions. The entries are small integers, so the
    sums are exact and equal the dense products.
    """
    size = u_rows.size + o_rows.size
    pos = np.full(skeleton.n_edges, -1, dtype=np.intp)
    pos[u_rows] = np.arange(u_rows.size)
    pos[o_rows] = np.arange(u_rows.size, size)
    at = pos[skeleton.tri_edges[active]]
    flat = (at[:, :, None] * size + at[:, None, :]).ravel()
    weights = np.tile(_SIGN_PAIRS, len(active))
    gram = np.bincount(flat, weights, minlength=size * size).reshape(size, size)
    nu = u_rows.size
    return gram[:nu, :nu], gram[:nu, nu:], gram[nu:, nu:]


def _rank_mask(lam: np.ndarray, top=None) -> np.ndarray:
    """The package's one rank rule: which of ``lam`` count as nonzero.

    ``lam`` are the ascending eigenvalues of an integer Gram (or of a
    nonnegative multiple of one), and those above ``_GRAM_CUTOFF`` times
    the largest count; an empty ``lam`` gives an empty mask. With ``top``
    given, ``lam`` are the squared residuals off a span of vectors of
    squared norm ``top``, and those above ``_GRAM_CUTOFF * top`` count."""
    return lam > _GRAM_CUTOFF * (lam[-1:] if top is None else top)


def _range_basis(b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of ``b``: ``b V_k / sqrt(lam_k)``
    over the eigenpairs of the Gram ``b^T b`` that ``_rank_mask`` keeps,
    as the range of ``b`` is ``b`` times the range of its Gram. A boundary
    block's Gram holds small integer sums, exact in any order. A block
    with no columns gives an empty basis."""
    lam, vec = np.linalg.eigh(b.T @ b)
    keep = _rank_mask(lam)
    return b @ (vec[:, keep] / np.sqrt(lam[keep]))


def _project(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the column span of ``b``."""
    basis = _range_basis(b)
    return basis @ (basis.T @ x)


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
    """The package's one rule for indicators: a binary indicator of any
    dtype as an array and its sorted active indices; refuses a wrong
    shape or any entry other than 0 and 1."""
    arr = np.asarray(vec)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    active = np.flatnonzero(arr)
    if not (arr[active] == 1).all():
        raise ValueError(f"{name} must be binary (entries in {{0, 1}})")
    return arr, active


def _closed_indices(skeleton: ComplexSkeleton, w1, w2) -> tuple[np.ndarray, np.ndarray]:
    """Active edge and triangle indices of a selection, which must be
    downward closed: every active triangle's edges active."""
    w1a, active_e = _active_indices(w1, skeleton.n_edges, "w1")
    _, active_t = _active_indices(w2, skeleton.n_triangles, "w2")
    if missing_edges(skeleton, w1a)[active_t].any():
        raise ValueError("selection is not downward closed")
    return active_e, active_t


def make_selection(skeleton: ComplexSkeleton, w1, w2) -> Selection:
    """Validate and freeze a pair of indicator vectors into a Selection."""
    w1a = _active_indices(w1, skeleton.n_edges, "w1")[0].astype(np.int8)
    w2a = _active_indices(w2, skeleton.n_triangles, "w2")[0].astype(np.int8)
    return Selection(_read_only(w1a), _read_only(w2a))


def node_laplacian(skeleton: ComplexSkeleton, w1) -> np.ndarray:
    """Graph Laplacian ``B1 diag(w1) B1^T`` of the active edges of a
    binary edge indicator ``w1``: the degrees on the diagonal and -1 at
    both positions of each active edge, scattered from ``edge_nodes``."""
    _, active = _active_indices(w1, skeleton.n_edges, "w1")
    l0 = np.diag(_face_counts(skeleton.edge_nodes, active, skeleton.n_nodes).astype(np.float64))
    i, j = skeleton.edge_nodes[active].T
    l0[i, j] = l0[j, i] = -1.0
    return l0


def hodge_decompose(skeleton: ComplexSkeleton, w1, w2, x) -> HodgeParts:
    """Split an edge flow ``x`` on the active edges of a downward-closed
    selection ``(w1, w2)``, in ascending candidate order, into its
    projections onto the ranges of B1^T and B2 on the active simplices
    (``_project``) and the harmonic rest. Closure makes the two ranges
    orthogonal, so the parts are mutually orthogonal and sum to ``x``."""
    active_e, active_t = _closed_indices(skeleton, w1, w2)
    xa = np.asarray(x, dtype=np.float64)
    if xa.shape != (active_e.size,):
        raise ValueError(f"x must have shape ({active_e.size},), got {xa.shape}")
    _check_finite(("x", xa))

    gradient = _project(edge_gradient(skeleton, np.eye(skeleton.n_nodes))[active_e], xa)
    curl = _project(b2_block(skeleton, active_e, active_t), xa)
    return HodgeParts(gradient, curl, xa - gradient - curl)


def complex_to_dict(skeleton: ComplexSkeleton, selection: Selection) -> dict:
    """Serialize the active simplices of a selection."""
    _, active_e = _active_indices(selection.w1, skeleton.n_edges, "w1")
    _, active_t = _active_indices(selection.w2, skeleton.n_triangles, "w2")
    return {
        "n_nodes": skeleton.n_nodes,
        "edges": skeleton.edge_nodes[active_e].tolist(),
        "triangles": triangle_nodes(skeleton, active_t).tolist(),
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


def complex_from_dict(
    data: dict, skeleton: ComplexSkeleton | None = None
) -> tuple[ComplexSkeleton, Selection]:
    """Parse and validate a serialized complex.

    Rejects simplex entries that are not lists of integer vertices,
    out-of-range vertices, unsorted simplices, duplicate or
    non-lexicographic listings, and triangles missing a listed edge.
    The first faulty entry decides the message, edges before triangles.

    The complex is read on ``skeleton`` when one is given and the
    document's ``n_nodes`` is a plain int equal to its size; otherwise a
    skeleton is built for the document's ``n_nodes``, which checks it.
    """
    if not isinstance(data, dict):
        raise ValueError("complex document must be a JSON object")
    for key in ("n_nodes", "edges", "triangles"):
        if key not in data:
            raise ValueError(f"complex document missing key '{key}'")
    for key in ("edges", "triangles"):
        if not isinstance(data[key], list):
            raise ValueError(f"complex document key '{key}' must be a list")
    size = data["n_nodes"]
    if skeleton is None or type(size) is not int or size != skeleton.n_nodes:
        skeleton = build_skeleton(size)
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
            f"{[tuple(skeleton.edge_nodes[e].tolist()) for e in faces[first] if w1[e] == 0]}; "
            "complex is not downward closed"
        )
    return skeleton, make_selection(skeleton, w1, w2)


def json_text(doc) -> str:
    """``doc`` in the one JSON layout of every document the package
    writes or prints: ``json.dumps(doc, sort_keys=True)`` plus a newline.
    With json's default separators and no indent, its C encoder encodes
    the whole document."""
    return json.dumps(doc, sort_keys=True) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, doc) -> None:
    """Write ``json_text(doc)`` in one write; a document json cannot
    encode raises before the file is opened."""
    write_text(path, json_text(doc))


def read_json(path):
    """Parse a JSON file; a syntax or UTF-8 error becomes a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def read_complex_json(
    path, skeleton: ComplexSkeleton | None = None
) -> tuple[ComplexSkeleton, Selection]:
    """Read the complex of a bundle directory (its complex.json), a
    complex.json or a result.json (its ``complex`` member), on
    ``skeleton`` where ``complex_from_dict`` can. A faulty document's
    ValueError names the file."""
    if os.path.isdir(path):
        path = os.path.join(path, "complex.json")
    data = read_json(path)
    if isinstance(data, dict) and "complex" in data:
        data = data["complex"]
    try:
        return complex_from_dict(data, skeleton)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
