"""Metric tests: normalized Laplacian error and support recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import incidence
from scinfer.evaluation import evaluate, nerr
from scinfer.synth import InstanceParams, generate_instance
from scinfer.topology import (
    build_skeleton,
    edge_index,
    make_selection,
    node_laplacian,
    triangle_index,
)


def _random_selection(seed, n=7, p=0.5):
    truth, _ = generate_instance(
        InstanceParams(n_nodes=n, edge_prob=p, n_node_signals=2, n_edge_signals=2),
        seed,
    )
    return truth.skeleton, truth.selection


def _drawn_selections(n, seed):
    """Skeleton on ``n`` nodes with a random (truth, estimate) pair; both
    are nonempty and neither need be downward closed."""
    sk = build_skeleton(n)
    rng = np.random.default_rng(seed)

    def draw():
        w1 = rng.random(sk.n_edges) < rng.uniform(0.1, 0.9)
        w2 = rng.random(sk.n_triangles) < rng.uniform(0.1, 0.9)
        w1[rng.integers(sk.n_edges)] = True
        w2[rng.integers(sk.n_triangles)] = True
        return make_selection(sk, w1, w2)

    return sk, draw(), draw()


class TestNerr:
    def test_exact_match_is_zero(self):
        sk, sel = _random_selection(0)
        l0 = node_laplacian(sk, sel.w1.astype(float))
        assert nerr(l0, l0) == 0.0

    def test_zero_estimate_is_one(self):
        sk, sel = _random_selection(1)
        l0 = node_laplacian(sk, sel.w1.astype(float))
        assert nerr(np.zeros_like(l0), l0) == pytest.approx(1.0)

    def test_doubled_estimate_is_one(self):
        sk, sel = _random_selection(2)
        l0 = node_laplacian(sk, sel.w1.astype(float))
        assert nerr(2.0 * l0, l0) == pytest.approx(1.0)

    def test_manual_recomputation(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        expected = ((b - a) ** 2).sum() / (b**2).sum()
        assert nerr(a, b) == pytest.approx(expected, rel=1e-12)

    def test_rejects_shape_mismatch_and_zero_reference(self):
        with pytest.raises(ValueError, match="shape"):
            nerr(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="zero"):
            nerr(np.eye(3), np.zeros((3, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3.0, 3.0))
    def test_scaling_identity(self, c):
        sk, sel = _random_selection(4)
        l0 = node_laplacian(sk, sel.w1.astype(float))
        assert nerr(c * l0, l0) == pytest.approx((1.0 - c) ** 2, abs=1e-9)

    def test_permutation_invariance(self):
        """Relabeling nodes consistently leaves both errors unchanged."""
        sk, truth = _random_selection(5)
        _, est = _random_selection(6)
        rng = np.random.default_rng(7)
        perm = rng.permutation(sk.n_nodes)

        def permute(sel):
            w1 = np.zeros_like(sel.w1)
            for idx in np.flatnonzero(sel.w1):
                i, j = sorted(int(perm[v]) for v in sk.edges[idx])
                w1[edge_index(sk, i, j)] = 1
            w2 = np.zeros_like(sel.w2)
            for idx in np.flatnonzero(sel.w2):
                i, j, k = sorted(int(perm[v]) for v in sk.triangles[idx])
                w2[triangle_index(sk, i, j, k)] = 1
            return make_selection(sk, w1, w2)

        base = evaluate(sk, est, truth)
        permuted = evaluate(sk, permute(est), permute(truth))
        assert permuted.nerr_l0 == pytest.approx(base.nerr_l0, rel=1e-12)
        assert permuted.nerr_lu == pytest.approx(base.nerr_lu, rel=1e-12)
        assert permuted.edge_f1 == pytest.approx(base.edge_f1, rel=1e-12)


class TestEvaluate:
    @pytest.mark.parametrize("side", ["est", "truth"])
    def test_rejects_selection_of_another_size(self, side):
        sk, sel = _random_selection(8)
        _, other = _random_selection(8, n=6)
        pair = {"est": sel, "truth": sel, side: other}
        with pytest.raises(ValueError, match=r"w1 must have shape \(21,\)"):
            evaluate(sk, pair["est"], pair["truth"])

    @pytest.mark.parametrize("value", [0.5, 1e-6, -1.0])
    @pytest.mark.parametrize("field", ["w1", "w2"])
    @pytest.mark.parametrize("side", ["est", "truth"])
    def test_rejects_non_binary_indicator(self, side, field, value):
        sk, sel = _random_selection(8)
        w = getattr(sel, field).astype(float)
        w[np.flatnonzero(w)[0]] = value
        pair = {"est": sel, "truth": sel, side: dataclasses.replace(sel, **{field: w})}
        with pytest.raises(ValueError, match=f"{field} must be binary"):
            evaluate(sk, pair["est"], pair["truth"])

    def test_self_comparison_is_ideal(self):
        sk, sel = _random_selection(8)
        report = evaluate(sk, sel, sel)
        assert report.nerr_l0 == 0.0
        assert report.nerr_lu == 0.0
        assert report.edge_f1 == 1.0
        assert report.triangle_f1 == 1.0
        assert report.closure_violations == 0

    def test_self_comparison_without_triangles(self):
        sk, sel = _random_selection(9)
        empty = make_selection(sk, sel.w1, np.zeros(sk.n_triangles))
        report = evaluate(sk, empty, empty)
        assert report.nerr_lu == 0.0
        assert report.triangle_precision == 1.0
        assert report.triangle_recall == 1.0
        assert report.triangle_f1 == 1.0

    def test_missing_all_triangles(self):
        sk, sel = _random_selection(10, p=0.8)
        assert sel.w2.sum() > 0
        est = make_selection(sk, sel.w1, np.zeros(sk.n_triangles))
        report = evaluate(sk, est, sel)
        assert report.nerr_lu == pytest.approx(1.0)
        assert report.triangle_recall == 0.0
        assert report.triangle_f1 == 0.0
        assert report.edge_f1 == 1.0

    def test_empty_estimate_against_triangled_truth(self):
        sk, sel = _random_selection(11)
        est = make_selection(sk, np.zeros(sk.n_edges), np.zeros(sk.n_triangles))
        report = evaluate(sk, est, sel)
        assert report.nerr_l0 == pytest.approx(1.0)
        assert report.edge_recall == 0.0
        assert report.edge_precision == 0.0

    def test_spurious_triangles_against_empty_truth(self):
        sk, _ = _random_selection(12)
        w1 = np.ones(sk.n_edges)
        w2 = np.zeros(sk.n_triangles)
        w2[0] = 1
        est = make_selection(sk, w1, w2)
        truth = make_selection(sk, w1, np.zeros(sk.n_triangles))
        report = evaluate(sk, est, truth)
        assert report.nerr_lu == math.inf
        assert report.triangle_recall == 0.0
        assert report.triangle_precision == 0.0

    def test_counts_cross_checked_by_hand(self):
        sk = build_skeleton(4)
        truth_w1 = np.array([1, 1, 1, 1, 0, 0], dtype=np.int8)
        est_w1 = np.array([1, 1, 0, 0, 1, 0], dtype=np.int8)
        truth = make_selection(sk, truth_w1, np.zeros(sk.n_triangles))
        est = make_selection(sk, est_w1, np.zeros(sk.n_triangles))
        report = evaluate(sk, est, truth)
        assert report.edge_precision == pytest.approx(2 / 3)
        assert report.edge_recall == pytest.approx(2 / 4)
        assert report.edge_f1 == pytest.approx(2 * (2 / 3) * (1 / 2) / (2 / 3 + 1 / 2))

    @settings(max_examples=60, deadline=None)
    @given(st.builds(_drawn_selections, st.integers(3, 12), st.integers(0, 2**32 - 1)))
    @example(_random_selection(13) + (_random_selection(14)[1],))
    def test_nerr_matches_direct_formula(self, case):
        sk, truth, est = case
        report = evaluate(sk, est, truth)
        b1, b2 = incidence(sk.n_nodes)
        l0_t, l0_e = ((b1 * sel.w1) @ b1.T for sel in (truth, est))
        lu_t, lu_e = ((b2 * sel.w2) @ b2.T for sel in (truth, est))
        assert report.nerr_l0 == pytest.approx(
            ((l0_t - l0_e) ** 2).sum() / (l0_t**2).sum(), rel=1e-12
        )
        assert report.nerr_lu == pytest.approx(
            ((lu_t - lu_e) ** 2).sum() / (lu_t**2).sum(), rel=1e-12
        )
        assert report.nerr_l0 == nerr(l0_e, l0_t)
        assert report.nerr_lu == nerr(lu_e, lu_t)

    def test_report_serializes(self):
        sk, sel = _random_selection(15)
        doc = evaluate(sk, sel, sel).to_dict()
        assert doc["nerr_l0"] == 0.0
        assert set(doc) == {
            "nerr_l0", "nerr_lu",
            "edge_precision", "edge_recall", "edge_f1",
            "triangle_precision", "triangle_recall", "triangle_f1",
            "closure_violations",
        }
