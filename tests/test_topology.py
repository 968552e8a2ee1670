"""Structural tests for the complete-complex scaffolding.

Frozen expectations below are hand-derived from the orientation
convention: edge (i,j) runs i -> j, triangle (i,j,k) traverses
i -> j -> k -> i.
"""

import copy
import dataclasses
import functools
import itertools
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import incidence, parse_complex
from scinfer import topology
from scinfer.topology import (
    MAX_NODES,
    ComplexSkeleton,
    _curl_energy,
    _edge_rank,
    _range_basis,
    _row_energy,
    _triangle_rank,
    build_skeleton,
    check_observed_edges,
    complex_from_dict,
    complex_to_dict,
    edge_index,
    hodge_decompose,
    make_selection,
    node_laplacian,
    read_complex_json,
    read_json,
    triangle_curl,
    triangle_index,
    write_json,
)


def _k3():
    return build_skeleton(3)


def _closed_selection_k5(rng):
    """All K5 edges active plus a random eligible triangle subset."""
    sk = build_skeleton(5)
    w1 = np.ones(sk.n_edges, dtype=np.int8)
    w2 = np.zeros(sk.n_triangles, dtype=np.int8)
    chosen = rng.choice(sk.n_triangles, size=4, replace=False)
    w2[chosen] = 1
    return sk, w1, w2


class TestBuildSkeleton:
    def test_candidate_counts(self):
        for n in range(2, 9):
            sk = build_skeleton(n)
            assert sk.n_edges == math.comb(n, 2)
            assert sk.n_triangles == math.comb(n, 3)

    def test_lexicographic_enumeration_n4(self):
        sk = build_skeleton(4)
        assert sk.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert sk.triangles == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_arrays_match_loop_enumeration(self):
        assert [f.name for f in dataclasses.fields(ComplexSkeleton)] == [
            "n_nodes", "edge_nodes", "tri_edges"
        ]
        for n in range(2, MAX_NODES + 1):
            sk = build_skeleton(n)
            triangles = tuple(itertools.combinations(range(n), 3))
            assert sk.edges == tuple(itertools.combinations(range(n), 2))
            for arr in (sk.edge_nodes, sk.tri_edges):
                assert arr.dtype == np.int64 and not arr.flags.writeable
            assert sk.triangles == triangles
            faces = [
                [edge_index(sk, i, j), edge_index(sk, i, k), edge_index(sk, j, k)]
                for i, j, k in triangles
            ]
            np.testing.assert_array_equal(sk.tri_edges, np.array(faces).reshape(-1, 3))

    def test_tuple_views_are_cached_on_first_read(self):
        for name in ("edges", "triangles"):
            assert isinstance(vars(ComplexSkeleton)[name], functools.cached_property)
        sk = build_skeleton(5)
        assert "edges" not in vars(sk) and "triangles" not in vars(sk)
        edges, triangles = sk.edges, sk.triangles
        assert vars(sk)["edges"] is edges and vars(sk)["triangles"] is triangles

    def test_incidence_signs_n3(self):
        expected_b1 = np.array(
            [
                [-1.0, -1.0, 0.0],
                [1.0, 0.0, -1.0],
                [0.0, 1.0, 1.0],
            ]
        )
        b1, b2 = incidence(3)
        np.testing.assert_array_equal(b1, expected_b1)
        np.testing.assert_array_equal(b2, np.array([[1.0], [-1.0], [1.0]]))
        np.testing.assert_array_equal(np.abs(b2), np.array([[1.0], [1.0], [1.0]]))

    def test_triangle_column_n4(self):
        _, b2 = incidence(4)
        np.testing.assert_array_equal(b2[:, 0], np.array([1.0, -1.0, 0.0, 1.0, 0.0, 0.0]))

    def test_chain_property_exact(self):
        for n in range(2, 16):
            b1, b2 = incidence(n)
            prod = b1 @ b2
            assert np.all(prod == 0.0), f"b1 @ b2 != 0 for n={n}"

    def test_arrays_read_only(self):
        sk = build_skeleton(4)
        with pytest.raises(ValueError):
            sk.edge_nodes[0, 0] = 5
        with pytest.raises(ValueError):
            sk.tri_edges[0, 0] = 5

    def test_stored_arrays_are_small(self):
        sk = build_skeleton(MAX_NODES)
        stored = [getattr(sk, f.name) for f in dataclasses.fields(sk)]
        nbytes = sum(v.nbytes for v in stored if isinstance(v, np.ndarray))
        assert nbytes < 1_000_000

    def test_node_count_bounds(self):
        with pytest.raises(ValueError):
            build_skeleton(1)
        with pytest.raises(ValueError):
            build_skeleton(MAX_NODES + 1)
        with pytest.raises(ValueError):
            build_skeleton(2.5)


class TestIndices:
    def test_exhaustive_positions(self):
        for n in range(2, 11):
            sk = build_skeleton(n)
            for pos, (i, j) in enumerate(sk.edges):
                assert edge_index(sk, i, j) == pos
            for pos, (i, j, k) in enumerate(sk.triangles):
                assert triangle_index(sk, i, j, k) == pos

    def test_rank_formulas_map_every_simplex_to_its_position(self):
        for n in range(2, MAX_NODES + 1):
            edges = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
            np.testing.assert_array_equal(_edge_rank(n, *edges.T), np.arange(len(edges)))
            tris = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
            tris = tris.reshape(-1, 3)
            np.testing.assert_array_equal(_triangle_rank(n, *tris.T), np.arange(len(tris)))

    @pytest.mark.parametrize(
        "vertices", [(0, 2, 1), (1, 1, 2), (0, 2, 2), (-1, 0, 1), (4, 5, 6)]
    )
    def test_triangle_index_rejects_invalid_triangles(self, vertices):
        with pytest.raises(ValueError, match=r"invalid triangle .* for 4 nodes"):
            triangle_index(build_skeleton(4), *vertices)

    def test_rejects_unsorted_and_out_of_range(self):
        sk = build_skeleton(4)
        with pytest.raises(ValueError):
            edge_index(sk, 3, 1)
        with pytest.raises(ValueError):
            edge_index(sk, 2, 2)
        with pytest.raises(ValueError):
            edge_index(sk, 0, 4)
        with pytest.raises(ValueError):
            triangle_index(sk, 2, 1, 0)
        with pytest.raises(ValueError):
            triangle_index(sk, 1, 2, 4)
        with pytest.raises(ValueError, match=r"invalid edge \(0, 4\) for 4 nodes"):
            edge_index(sk, np.int64(0), np.uint8(4))
        assert edge_index(sk, np.int64(1), np.uint8(3)) == edge_index(sk, 1, 3)
        assert triangle_index(sk, np.uint8(0), np.int32(1), 3) == triangle_index(sk, 0, 1, 3)

    @pytest.mark.parametrize(
        "vertices",
        [(0.5, 1), (0, 1.0), (False, True), (0, True), (0, 1.5, 3), (0.0, 1, 2), (False, 1, 2)],
    )
    def test_refuses_float_and_bool_vertices(self, vertices):
        """A float or a bool vertex is refused, not truncated to a
        neighbouring simplex."""
        sk = build_skeleton(5)
        index = edge_index if len(vertices) == 2 else triangle_index
        with pytest.raises(ValueError, match="vertex must be an integer"):
            index(sk, *vertices)


class TestLaplacians:
    def test_node_laplacian_k3(self):
        sk = _k3()
        l0 = node_laplacian(sk, np.ones(3))
        np.testing.assert_array_equal(
            l0, np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        )

    def test_node_laplacian_rows_sum_zero(self):
        rng = np.random.default_rng(7)
        sk = build_skeleton(6)
        w1 = (rng.random(sk.n_edges) < 0.5).astype(float)
        l0 = node_laplacian(sk, w1)
        np.testing.assert_allclose(l0.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(l0, l0.T, atol=0)

    @pytest.mark.parametrize(
        "form",
        [lambda w: w, lambda w: w != 0, lambda w: w.astype(np.float64), lambda w: w.tolist()],
        ids=["int8", "bool", "float", "list"],
    )
    def test_node_laplacian_equals_the_dense_oracle_bit_for_bit(self, form):
        """The scattered Laplacian is the oracle's ``b1 diag(w1) b1^T`` at
        n = MAX_NODES, signed zeros included, whatever the indicator form."""
        rng = np.random.default_rng(40)
        sk = build_skeleton(MAX_NODES)
        b1 = incidence(MAX_NODES)[0]
        for p in (0.05, 0.4, 0.9):
            w1 = (rng.random(sk.n_edges) < p).astype(np.int8)
            got = node_laplacian(sk, form(w1))
            want = (b1 * w1.astype(np.float64)) @ b1.T
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w1", [[1.0, -1.0, 0.0], [1.0, 1.0, np.nan], [0.5, 1.0, 0.0]])
    def test_node_laplacian_rejects_non_binary_weights(self, w1):
        with pytest.raises(ValueError, match="binary"):
            node_laplacian(_k3(), w1)


def _edge_signals(sk, kind, m, rng):
    """An (n_edges, m) edge signal of the given kind: floats, floats with
    zero rows, integers, or a Fortran-ordered or strided float view."""
    if kind == "int":
        return rng.integers(-5, 6, size=(sk.n_edges, m))
    x1 = rng.standard_normal((sk.n_edges, 2 * m))
    if kind == "strided":
        return x1[:, ::2]
    x1 = x1[:, :m].copy()
    if kind == "zero_rows":
        x1[rng.random(sk.n_edges) < 0.5] = 0.0
    return np.asfortranarray(x1) if kind == "fortran" else x1


def _assert_curl_energy(sk, x1, rng):
    """The blocked pass equals the unblocked one bit for bit, on every
    candidate and on a random subset in random order, and the dense
    oracle B2 within 1e-12 relative."""
    energy = _curl_energy(sk, x1, np.arange(sk.n_triangles))
    unblocked = _row_energy(triangle_curl(sk, x1))
    assert energy.dtype == unblocked.dtype and np.array_equal(energy, unblocked)
    subset = rng.permutation(sk.n_triangles)[: rng.integers(0, sk.n_triangles + 1)]
    assert np.array_equal(_curl_energy(sk, x1, subset), unblocked[subset])
    curl = incidence(sk.n_nodes)[1].T @ np.asarray(x1, dtype=np.float64)
    np.testing.assert_allclose(energy, (curl * curl).sum(axis=1), rtol=1e-12, atol=0)


class TestCurlEnergy:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_blocked_pass_equals_unblocked_and_dense(self, data):
        sk = build_skeleton(data.draw(st.integers(2, 11), label="n_nodes"))
        t = sk.n_triangles
        # Blocks that divide T exactly, leave a remainder, exceed T, and
        # the module's own block, which exceeds every T drawn here.
        divisors = [d for d in range(1, t + 1) if t % d == 0]
        blocks = sorted({1, 7, t + 1, topology._CURL_BLOCK, *divisors})
        block = data.draw(st.sampled_from(blocks), label="block")
        kind = data.draw(st.sampled_from(["float", "zero_rows", "int", "fortran", "strided"]))
        m = data.draw(st.integers(1, 6), label="signals")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x1 = _edge_signals(sk, kind, m, rng)
        with mock.patch.object(topology, "_CURL_BLOCK", block):
            _assert_curl_energy(sk, x1, rng)

    @pytest.mark.parametrize("kind", ["float", "zero_rows", "int"])
    def test_module_block_at_the_size_limits(self, kind):
        rng = np.random.default_rng(11)
        for n in (2, MAX_NODES):
            sk = build_skeleton(n)
            _assert_curl_energy(sk, _edge_signals(sk, kind, 3, rng), rng)
        # MAX_NODES ends on a partial block, so the last-block path runs.
        assert build_skeleton(MAX_NODES).n_triangles % topology._CURL_BLOCK != 0


class TestHodgeDecompose:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            sk, w1, w2 = _closed_selection_k5(rng)
            x = rng.standard_normal(int(w1.sum()))
            parts = hodge_decompose(sk, w1, w2, x)
            scale = np.linalg.norm(x)
            np.testing.assert_allclose(
                parts.gradient + parts.curl + parts.harmonic, x, atol=1e-8 * scale
            )
            assert abs(parts.gradient @ parts.curl) <= 1e-8 * scale**2
            assert abs(parts.gradient @ parts.harmonic) <= 1e-8 * scale**2
            assert abs(parts.curl @ parts.harmonic) <= 1e-8 * scale**2

    def test_div_of_curl_and_curl_of_gradient_vanish(self):
        rng = np.random.default_rng(5)
        sk, w1, w2 = _closed_selection_k5(rng)
        active_e = np.flatnonzero(w1)
        active_t = np.flatnonzero(w2)
        b1, b2 = incidence(sk.n_nodes)
        b1 = b1[:, active_e]
        b2 = b2[np.ix_(active_e, active_t)]
        x = rng.standard_normal(active_e.size)
        parts = hodge_decompose(sk, w1, w2, x)
        assert np.abs(b1 @ parts.curl).max() <= 1e-10
        assert np.abs(b2.T @ parts.gradient).max() <= 1e-10

    def test_no_triangles_means_no_curl(self):
        rng = np.random.default_rng(2)
        sk = build_skeleton(5)
        w1 = np.ones(sk.n_edges)
        w2 = np.zeros(sk.n_triangles)
        x = rng.standard_normal(sk.n_edges)
        parts = hodge_decompose(sk, w1, w2, x)
        np.testing.assert_array_equal(parts.curl, np.zeros(sk.n_edges))

    def test_rejects_open_selection(self):
        sk = build_skeleton(4)
        w1 = np.zeros(sk.n_edges)
        w2 = np.zeros(sk.n_triangles)
        w2[0] = 1
        with pytest.raises(ValueError):
            hodge_decompose(sk, w1, w2, np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_flow(self, bad):
        with pytest.raises(ValueError, match="x has non-finite entries"):
            hodge_decompose(build_skeleton(3), [1, 1, 1], [1], [1.0, bad, 0.0])


# The SVD reference's rank cutoff, relative to the largest singular value.
_SVD_RANK_CUTOFF = 1e-10


def _gram_factor(kind, n, edge_prob, fill, rng):
    """A matrix ``b`` whose Gram ``b^T b`` is one of the three integer
    Gram kinds the package decides a rank on, built from the oracle's
    dense incidence: a curl block B2[active, filled], whose Gram is
    B2^T B2 there; B1^T on a random edge set, whose Gram is its node
    Laplacian; or B2[U, filled]^T for a random share U of the filled
    triangles' edges, whose Gram is GreedySCL's A_UU / beta2."""
    b1, b2 = incidence(n)
    active = rng.random(b2.shape[0]) < edge_prob
    if kind == "node":
        return b1[:, active].T
    eligible = np.flatnonzero(np.abs(b2).T @ active == 3)
    share = {"empty": 0.0, "partial": rng.random(), "full": 1.0}[fill]
    filled = eligible[rng.random(eligible.size) < share]
    if kind == "curl":
        return b2[np.ix_(active, filled)]
    on_filled = np.flatnonzero(np.abs(b2[:, filled]).sum(axis=1))
    u_rows = on_filled[rng.random(on_filled.size) < rng.random()]
    return b2[np.ix_(u_rows, filled)].T


class TestRangeBasis:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 14),
        st.floats(0.0, 1.0),
        st.sampled_from(["empty", "partial", "full"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["curl", "node", "a_uu"]),
    )
    @example(14, 1.0, "full", 0, "curl")
    @example(14, 1.0, "empty", 0, "curl")
    @example(14, 1.0, "full", 0, "node")
    @example(14, 0.0, "full", 0, "node")
    @example(14, 0.15, "full", 0, "node")
    @example(14, 1.0, "full", 0, "a_uu")
    @example(6, 1.0, "partial", 0, "a_uu")
    def test_spans_what_the_svd_spans(self, n, edge_prob, fill, seed, kind):
        """On each Gram kind, empty and full fills and connected and
        disconnected graphs included, the kernel's width is the SVD rank
        and its projector is the SVD's."""
        b = _gram_factor(kind, n, edge_prob, fill, np.random.default_rng(seed))
        basis = _range_basis(b)
        u, sv, _ = np.linalg.svd(b, full_matrices=False)
        u = u[:, : int((sv > _SVD_RANK_CUTOFF * sv[:1]).sum())]
        if kind == "node":
            event(f"node: {'connected' if u.shape[1] == n - 1 else 'disconnected'}")
        else:
            event(f"{kind}: {'kernel' if u.shape[1] < b.shape[1] else 'no kernel'}")
        assert basis.shape == u.shape
        assert np.abs(basis @ basis.T - u @ u.T).max(initial=0.0) <= 1e-12


def _corrupted_document(data):
    """A closed complex on 2..12 nodes, serialized, then put through zero
    to two of the corruptions a hand-edited document can carry."""
    n = data.draw(st.integers(2, 12), label="n_nodes")
    candidates = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    edges = [e for e, k in zip(candidates, keep) if k]
    closed = [
        t for t in itertools.combinations(range(n), 3)
        if set(itertools.combinations(t, 2)) <= set(edges)
    ]
    tris = sorted(data.draw(st.sets(st.sampled_from(closed))) if closed else ())
    doc = {"n_nodes": n, "edges": [list(e) for e in edges], "triangles": [list(t) for t in tris]}
    for _ in range(data.draw(st.integers(1, 2), label="corruptions")):
        _corrupt(data, doc)
    return doc


def _corrupt(data, doc):
    n = doc["n_nodes"]
    kind = data.draw(st.sampled_from([
        "bool-or-float", "arity", "non-list", "out-of-range", "unsorted", "degenerate",
        "duplicate", "swap", "drop-edge", "add-triangle", "none",
    ]), label="corruption")
    if kind == "add-triangle":
        # Past n - 1 when n < 3, which makes the triangle out of range.
        vertex = st.integers(0, max(n, 3) - 1)
        tri = sorted(data.draw(st.sets(vertex, min_size=3, max_size=3)))
        tris = doc["triangles"]
        at = sum(1 for t in tris if isinstance(t, list) and t < tri)
        tris.insert(at, tri)
        return
    keys = [key for key in ("edges", "triangles") if doc[key]]
    if kind == "none" or not keys:
        return
    entries = doc[data.draw(st.sampled_from(keys))]
    pos = data.draw(st.integers(0, len(entries) - 1))
    entry = entries[pos]
    verts = list(entry) if isinstance(entry, list) and entry else [0, 1]
    at = data.draw(st.integers(0, len(verts) - 1))
    if kind == "bool-or-float":
        verts[at] = data.draw(st.sampled_from([True, False, float(n - 1), 0.5]))
    elif kind == "arity":
        verts = verts[:-1] if data.draw(st.booleans()) else verts + [n - 1]
    elif kind == "non-list":
        verts = data.draw(st.sampled_from([0, None, "0, 1", {"0": 1}, tuple(verts)]))
    elif kind == "out-of-range":
        verts[at] = data.draw(st.sampled_from([-1, n, n + 3, 2**63, -(2**70), 10**30]))
    elif kind == "unsorted":
        verts = verts[::-1]
    elif kind == "degenerate":
        verts[at] = verts[at - 1]
    elif kind == "duplicate":
        entries.insert(pos, copy.deepcopy(entry))
    elif kind == "swap" and pos + 1 < len(entries):
        entries[pos], entries[pos + 1] = entries[pos + 1], entries[pos]
    elif kind == "drop-edge" and doc["edges"]:
        del doc["edges"][pos % len(doc["edges"])]
    if kind not in ("duplicate", "swap", "drop-edge"):
        entries[pos] = verts


class TestObservedEdges:
    @pytest.mark.parametrize(
        "observed, dtype",
        [([0.5, 1.7, 2.9], "float64"), ([0.0, 1.0], "float64"), ([True, False], "bool")],
    )
    def test_refuses_float_and_bool_indices(self, observed, dtype):
        with pytest.raises(ValueError, match=f"integer indices, got dtype {dtype}"):
            check_observed_edges(10, observed)

    def test_integer_indices(self):
        obs = np.array([0, 4, 9], dtype=np.int64)
        assert check_observed_edges(10, obs) is obs
        got = check_observed_edges(10, obs.astype(np.int32))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, obs)
        empty = check_observed_edges(10, [])
        assert empty.dtype == np.int64 and empty.shape == (0,)


class TestComplexJson:
    def _sample(self):
        sk = build_skeleton(4)
        w1 = np.ones(sk.n_edges, dtype=np.int8)
        w2 = np.zeros(sk.n_triangles, dtype=np.int8)
        w2[0] = 1
        w2[3] = 1
        return sk, make_selection(sk, w1, w2)

    def test_round_trip(self, tmp_path):
        sk, sel = self._sample()
        path = tmp_path / "complex.json"
        write_json(path, complex_to_dict(sk, sel))
        sk2, sel2 = read_complex_json(path)
        assert sk2.n_nodes == sk.n_nodes
        np.testing.assert_array_equal(sel2.w1, sel.w1)
        np.testing.assert_array_equal(sel2.w2, sel.w2)

    def test_dict_shape(self):
        sk, sel = self._sample()
        doc = complex_to_dict(sk, sel)
        assert doc["n_nodes"] == 4
        assert doc["triangles"] == [[0, 1, 2], [1, 2, 3]]
        assert len(doc["edges"]) == 6

    def test_rejects_non_lexicographic(self):
        doc = {"n_nodes": 4, "edges": [[0, 2], [0, 1]], "triangles": []}
        with pytest.raises(ValueError, match="lexicographic"):
            complex_from_dict(doc)

    def test_rejects_unsorted_simplex(self):
        doc = {"n_nodes": 4, "edges": [[1, 0]], "triangles": []}
        with pytest.raises(ValueError):
            complex_from_dict(doc)

    def test_rejects_open_complex(self):
        doc = {
            "n_nodes": 4,
            "edges": [[0, 1], [0, 2]],
            "triangles": [[0, 1, 2]],
        }
        with pytest.raises(ValueError, match="not downward closed"):
            complex_from_dict(doc)

    @pytest.mark.parametrize(
        "edges, triangles",
        [([1, 2], []), ([[0, 1.7]], []), ([[0, 1], [0, 2], [1, 2]], [[0, 1, 2.0]]), (5, [])],
    )
    def test_rejects_non_integer_simplex_entries(self, edges, triangles):
        doc = {"n_nodes": 4, "edges": edges, "triangles": triangles}
        with pytest.raises(ValueError, match="entry|must be a list"):
            complex_from_dict(doc)

    @pytest.mark.parametrize(
        "edges, triangles, message",
        [
            ([[0, True]], [], "edge entry [0, True] must be a list of 2 integer vertices"),
            ([[0, 7]], [], "invalid edge (0, 7) for 4 nodes"),
            (
                [[0, 1], [1, 2]],
                [[0, 1, 1]],
                "invalid triangle (0, 1, 1) for 4 nodes",
            ),
            (
                [[0, 1], [0, 1]],
                [],
                "edges must be strictly lexicographic; saw [0, 1] out of order",
            ),
            (
                [[0, 1], [0, 2]],
                [[0, 1, 2]],
                "triangle (0, 1, 2) lists inactive edge(s) [(1, 2)]; "
                "complex is not downward closed",
            ),
            # Two faults: the earlier entry decides, whatever the later one is.
            (
                [[0, 2], [0, 1], [0, 9]],
                [],
                "edges must be strictly lexicographic; saw [0, 1] out of order",
            ),
            ([[0, 9], [1.5, 2]], [], "invalid edge (0, 9) for 4 nodes"),
            (
                [[0, 1], [0, 1.5]],
                [[2, 1, 0]],
                "edge entry [0, 1.5] must be a list of 2 integer vertices",
            ),
            (
                [[0, 1], [0, 2], [1, 2]],
                [[0, 1, 3], [0, 1, 2]],
                "triangles must be strictly lexicographic; saw [0, 1, 2] out of order",
            ),
            ([[0, 10**30]], [], f"invalid edge (0, {10**30}) for 4 nodes"),
        ],
        ids=[
            "bool-vertex", "out-of-range", "degenerate-triangle", "duplicate-edge",
            "open-triangle", "order-before-range", "range-before-type",
            "edges-before-triangles", "order-before-closure", "beyond-int64",
        ],
    )
    def test_rejection_messages(self, edges, triangles, message):
        doc = {"n_nodes": 4, "edges": edges, "triangles": triangles}
        with pytest.raises(ValueError) as exc:
            complex_from_dict(doc)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_parser(self, data):
        doc = _corrupted_document(data)
        try:
            w1, w2 = parse_complex(copy.deepcopy(doc))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                complex_from_dict(doc)
            assert str(got.value) == str(exc)
        else:
            _, selection = complex_from_dict(doc)
            for got_w, want_w in ((selection.w1, w1), (selection.w2, w2)):
                assert got_w.dtype == np.int8 and not got_w.flags.writeable
                np.testing.assert_array_equal(got_w, want_w)

    def test_rejects_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            complex_from_dict({"n_nodes": 4, "edges": []})

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_complex_json(path)

    def test_reads_complex_member_of_result_json(self, tmp_path):
        sk, sel = self._sample()
        path = tmp_path / "result.json"
        write_json(path, {"method": "RC", "complex": complex_to_dict(sk, sel), "eval": {}})
        sk2, sel2 = read_complex_json(path)
        assert sk2.n_nodes == sk.n_nodes
        np.testing.assert_array_equal(sel2.w1, sel.w1)
        np.testing.assert_array_equal(sel2.w2, sel.w2)


    def test_reads_on_a_given_skeleton(self):
        sk, sel = self._sample()
        sk2, sel2 = complex_from_dict(complex_to_dict(sk, sel), sk)
        assert sk2 is sk
        np.testing.assert_array_equal(sel2.w1, sel.w1)
        np.testing.assert_array_equal(sel2.w2, sel.w2)

    @pytest.mark.parametrize("n_nodes", [3, 5])
    def test_given_skeleton_of_another_size_is_not_used(self, n_nodes):
        """A document of another size is read on a skeleton of its own."""
        given = build_skeleton(4)
        doc = {"n_nodes": n_nodes, "edges": [[0, 1]], "triangles": []}
        sk, sel = complex_from_dict(doc, given)
        assert sk is not given and sk.n_nodes == n_nodes
        assert sel.w1.size == sk.n_edges and sel.w1.sum() == 1

    @pytest.mark.parametrize(
        "n_nodes, message",
        [
            (4.0, "n_nodes must be an integer, got float"),
            (True, "n_nodes must be an integer, got bool"),
        ],
    )
    def test_given_skeleton_refuses_another_size(self, n_nodes, message):
        doc = {"n_nodes": n_nodes, "edges": [[0, 1]], "triangles": []}
        with pytest.raises(ValueError) as exc:
            complex_from_dict(doc, build_skeleton(4))
        assert str(exc.value) == message

    def test_float_size_refused_on_a_skeleton_of_its_value(self, tmp_path):
        """``n_nodes: 40.0`` is refused even when the given skeleton has 40
        nodes: only a plain int selects the given skeleton."""
        path = tmp_path / "c.json"
        write_json(path, {"n_nodes": 40.0, "edges": [], "triangles": []})
        with pytest.raises(ValueError) as exc:
            read_complex_json(path, build_skeleton(40))
        assert str(exc.value) == f"{path}: n_nodes must be an integer, got float"


class TestReadComplexJson:
    """``read_complex_json`` is the one reader of a complex on disk."""

    @pytest.fixture
    def documents(self, tmp_path):
        """A bundle directory, its complex.json and a result.json holding
        the same complex, and the complex's selection."""
        doc = _closed_complex(9, seed=3, p_edge=0.6, p_tri=0.5)
        (tmp_path / "ds").mkdir()
        write_json(tmp_path / "ds" / "complex.json", doc)
        write_json(tmp_path / "result.json", {"method": "RC", "complex": doc})
        _, selection = complex_from_dict(doc)
        return [tmp_path / "ds", tmp_path / "ds" / "complex.json", tmp_path / "result.json"], selection

    def test_directory_complex_and_result_agree(self, documents):
        paths, selection = documents
        for path in paths:
            sk, sel = read_complex_json(path)
            assert sk.n_nodes == 9
            np.testing.assert_array_equal(sel.w1, selection.w1)
            np.testing.assert_array_equal(sel.w2, selection.w2)

    def test_given_skeleton_is_reused_only_at_its_size(self, documents):
        paths, selection = documents
        same, other = build_skeleton(9), build_skeleton(10)
        for path in paths:
            sk, sel = read_complex_json(path, same)
            assert sk is same
            np.testing.assert_array_equal(sel.w2, selection.w2)
            sk, sel = read_complex_json(path, other)
            assert sk is not other and sk.n_nodes == 9
            np.testing.assert_array_equal(sel.w2, selection.w2)

    def test_directory_without_complex_is_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            read_complex_json(tmp_path)
        assert exc.value.filename == str(tmp_path / "complex.json")


def _closed_complex(n, seed, p_edge, p_tri):
    """The document of a random downward-closed selection on ``n`` nodes."""
    sk = build_skeleton(n)
    rng = np.random.default_rng(seed)
    w1 = (rng.random(sk.n_edges) < p_edge).astype(np.int8)
    closed = (w1[sk.tri_edges] == 1).all(axis=1)
    w2 = (closed & (rng.random(sk.n_triangles) < p_tri)).astype(np.int8)
    return complex_to_dict(sk, make_selection(sk, w1, w2))


_complexes = st.builds(
    _closed_complex,
    st.integers(2, MAX_NODES),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
_strings = st.text(max_size=6)
_leaves = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | _strings
)
_values = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_strings, kids, max_size=3),
    max_leaves=10,
)
_reports = st.fixed_dictionaries(
    {
        **{
            f"{part}_{kind}": st.floats()
            for part in ("edge", "triangle")
            for kind in ("precision", "recall", "f1")
        },
        "nerr_l0": st.floats(),
        "nerr_lu": st.floats(),
        "closure_violations": st.integers(0, 10**6),
    }
)
_results = st.fixed_dictionaries(
    {
        "method": st.sampled_from(["GreedySCL", "SepSCL", "RC"]) | _strings,
        "complex": _complexes,
        "objective_trace": st.lists(st.floats(), max_size=6),
        "iterations_run": st.integers(0, 60),
        "converged": st.booleans(),
        "closure_violations": st.integers(0, 10),
        "pruned_triangles": st.integers(0, 10),
        "phase_seconds": st.dictionaries(_strings, st.floats(0, 1), max_size=4),
        "eval": _reports,
    },
    optional={"extra": _values},
)
_metas = st.dictionaries(_strings, _leaves, max_size=12)


def _written(doc) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        write_json(path, doc)
        with open(path, "rb") as fh:
            return fh.read()


class TestJsonLayout:
    @settings(max_examples=200, deadline=None)
    @given(_complexes | _results | _reports | _metas | _values)
    @example({"n_nodes": 2, "edges": [], "triangles": []})
    @example({"complex": {"n_nodes": 3, "edges": [[0, 1]], "triangles": []}, "method": "RC"})
    @example({"n_nodes": 3, "edges": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 1, 2]]})
    def test_bytes_are_the_compact_sorted_dump(self, doc):
        assert _written(doc) == (json.dumps(doc, sort_keys=True) + "\n").encode()

    def test_write_json_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": {"z": [1, 2.5], "a": None}, "a": True})
        assert path.read_bytes() == b'{"a": true, "b": {"a": null, "z": [1, 2.5]}}\n'
        assert read_json(path) == {"a": True, "b": {"a": None, "z": [1, 2.5]}}
