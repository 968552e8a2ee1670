"""Structural tests for the complete-complex scaffolding.

Frozen expectations below are hand-derived from the orientation
convention: edge (i,j) runs i -> j, triangle (i,j,k) traverses
i -> j -> k -> i.
"""

import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest

from scinfer.topology import (
    MAX_NODES,
    ComplexSkeleton,
    build_skeleton,
    closure_violations,
    complex_from_dict,
    complex_to_dict,
    edge_index,
    hodge_decompose,
    hodge_laplacian,
    is_closed,
    make_selection,
    node_laplacian,
    read_complex_json,
    read_json,
    triangle_index,
    upper_laplacian,
    write_complex_json,
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
        sk = _k3()
        expected_b1 = np.array(
            [
                [-1.0, -1.0, 0.0],
                [1.0, 0.0, -1.0],
                [0.0, 1.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(sk.b1_full, expected_b1)
        np.testing.assert_array_equal(sk.b2_full, np.array([[1.0], [-1.0], [1.0]]))
        np.testing.assert_array_equal(sk.b2_unsigned, np.array([[1.0], [1.0], [1.0]]))

    def test_triangle_column_n4(self):
        sk = build_skeleton(4)
        np.testing.assert_array_equal(
            sk.b2_full[:, 0], np.array([1.0, -1.0, 0.0, 1.0, 0.0, 0.0])
        )

    def test_chain_property_exact(self):
        for n in range(2, 16):
            sk = build_skeleton(n)
            prod = sk.b1_full @ sk.b2_full
            assert np.all(prod == 0.0), f"b1 @ b2 != 0 for n={n}"

    def test_arrays_read_only(self):
        sk = build_skeleton(4)
        with pytest.raises(ValueError):
            sk.b1_full[0, 0] = 5.0

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

    def test_upper_laplacian_single_triangle(self):
        sk = _k3()
        lu = upper_laplacian(sk, np.array([1.0]))
        np.testing.assert_array_equal(
            lu, np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        )

    def test_upper_laplacian_psd(self):
        rng = np.random.default_rng(3)
        sk = build_skeleton(6)
        w2 = (rng.random(sk.n_triangles) < 0.4).astype(float)
        lu = upper_laplacian(sk, w2)
        eigvals = np.linalg.eigvalsh(lu)
        assert eigvals.min() >= -1e-10

    def test_hodge_laplacian_filled_k3(self):
        sk = _k3()
        l1 = hodge_laplacian(sk, np.ones(3), np.ones(1))
        np.testing.assert_array_equal(l1, 3.0 * np.eye(3))

    def test_hodge_laplacian_rejects_open_selection(self):
        sk = build_skeleton(4)
        w1 = np.zeros(sk.n_edges)
        w1[edge_index(sk, 0, 1)] = 1
        w2 = np.zeros(sk.n_triangles)
        w2[0] = 1
        with pytest.raises(ValueError):
            hodge_laplacian(sk, w1, w2)


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
        b1 = sk.b1_full[:, active_e]
        b2 = sk.b2_full[np.ix_(active_e, active_t)]
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
        assert parts.triangle_potential.shape == (0,)

    def test_rejects_open_selection(self):
        sk = build_skeleton(4)
        w1 = np.zeros(sk.n_edges)
        w2 = np.zeros(sk.n_triangles)
        w2[0] = 1
        with pytest.raises(ValueError):
            hodge_decompose(sk, w1, w2, np.zeros(0))


class TestClosure:
    def test_counts_missing_edges(self):
        sk = build_skeleton(4)
        w1 = np.zeros(sk.n_edges)
        w1[edge_index(sk, 0, 1)] = 1
        w2 = np.zeros(sk.n_triangles)
        w2[triangle_index(sk, 0, 1, 2)] = 1
        report = closure_violations(sk, w1, w2)
        assert report.count == 2
        assert report.items == (
            (0, (edge_index(sk, 0, 2), edge_index(sk, 1, 2))),
        )
        assert not is_closed(sk, w1, w2)

    def test_closed_selection_reports_zero(self):
        sk = _k3()
        report = closure_violations(sk, np.ones(3), np.ones(1))
        assert report.count == 0
        assert report.items == ()
        assert is_closed(sk, np.ones(3), np.ones(1))


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
        write_complex_json(path, sk, sel)
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


class TestJsonLayout:
    def test_write_json_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": {"z": [1, 2.5], "a": None}, "a": True})
        assert path.read_bytes() == (
            b'{\n  "a": true,\n  "b": {\n    "a": null,\n    "z": [\n'
            b'      1,\n      2.5\n    ]\n  }\n}\n'
        )
        assert read_json(path) == {"a": True, "b": {"a": None, "z": [1, 2.5]}}
