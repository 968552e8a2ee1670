"""Metric tests: normalized Laplacian error and support recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import evaluation_report, incidence
from scinfer.evaluation import evaluate
from scinfer.synth import InstanceParams, generate_instance
from scinfer.topology import (
    Selection,
    _edge_rank,
    _triangle_rank,
    build_skeleton,
    make_selection,
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
                w1[_edge_rank(sk.n_nodes, i, j)] = 1
            w2 = np.zeros_like(sel.w2)
            for idx in np.flatnonzero(sel.w2):
                i, j, k = sorted(int(perm[v]) for v in sk.triangles[idx])
                w2[_triangle_rank(sk.n_nodes, i, j, k)] = 1
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

    @pytest.mark.parametrize("value", [np.nan, 2, "1"])
    def test_refuses_what_make_selection_refuses(self, value):
        """One binary rule, with one message, for every entry point."""
        sk, sel = _random_selection(8)
        w1 = sel.w1.tolist()
        w1[int(np.flatnonzero(sel.w1)[0])] = value
        with pytest.raises(ValueError, match="w1 must be binary"):
            make_selection(sk, w1, sel.w2)
        with pytest.raises(ValueError, match="w1 must be binary"):
            evaluate(sk, dataclasses.replace(sel, w1=w1), sel)

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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(3, 12),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), min_size=4, max_size=4),
    )
    def test_every_field_matches_set_oracle(self, n, seed, densities):
        """Every field equals the set-based oracle exactly, on pairs that
        need not be closed and may be empty, and an int8, bool, float or
        list indicator gives the same report."""
        sk = build_skeleton(n)
        rng = np.random.default_rng(seed)
        sizes = (sk.n_edges, sk.n_triangles) * 2
        est_w1, est_w2, true_w1, true_w2 = (
            rng.random(size) < p for size, p in zip(sizes, densities)
        )
        want = evaluation_report(n, (est_w1, est_w2), (true_w1, true_w2))
        for form in (
            lambda w: w.astype(np.int8),
            lambda w: w,
            lambda w: w.astype(float),
            lambda w: w.astype(int).tolist(),
        ):
            est = Selection(form(est_w1), form(est_w2))
            truth = Selection(form(true_w1), form(true_w2))
            assert evaluate(sk, est, truth).to_dict() == want

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
