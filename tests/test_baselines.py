"""Baseline behavior: decoupled greedy pass and correlation thresholding."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from scinfer.baselines import METHODS, _node_correlations, run_rc, run_sep_scl
from scinfer.learner import HyperParams, objective_value
from scinfer.synth import InstanceParams, generate_instance
from scinfer.topology import build_skeleton, edge_index, is_closed, triangle_index


def _instance(seed, **overrides):
    defaults = dict(
        n_nodes=8,
        edge_prob=0.5,
        fill_fraction=0.5,
        n_node_signals=25,
        n_edge_signals=25,
        curl_atten=0.05,
        node_noise_std=0.05,
        edge_noise_std=0.02,
        observed_fraction=0.7,
    )
    defaults.update(overrides)
    truth, signals = generate_instance(InstanceParams(**defaults), seed)
    hp = HyperParams(
        e_min=int(truth.selection.w1.sum()), t_min=int(truth.selection.w2.sum())
    )
    return truth, signals, hp


class TestSepScl:
    def test_edge_budget_exact_and_closed(self):
        for seed in range(5):
            truth, signals, hp = _instance(seed)
            state = run_sep_scl(
                truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
            )
            assert int(state.selection.w1.sum()) == hp.e_min
            assert int(state.selection.w2.sum()) <= hp.t_min
            assert is_closed(truth.skeleton, state.selection.w1, state.selection.w2)
            assert state.closure_violations == 0

    def test_edge_set_ignores_observed_flows(self):
        """The graph estimate must not change when a different subset of
        edge flows is revealed; only node signals drive it."""
        truth, signals, hp = _instance(7)
        state_a = run_sep_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        rng = np.random.default_rng(99)
        active = np.flatnonzero(truth.selection.w1)
        other_obs = np.sort(rng.choice(active, size=max(1, active.size // 3), replace=False))
        other_x1 = rng.standard_normal((other_obs.size, 25))
        state_b = run_sep_scl(truth.skeleton, signals.x0, other_x1, other_obs, hp)
        np.testing.assert_array_equal(state_a.selection.w1, state_b.selection.w1)

    def test_edge_set_is_smoothness_ranking(self):
        truth, signals, hp = _instance(2)
        sk = truth.skeleton
        state = run_sep_scl(sk, signals.x0, signals.x1_obs, signals.observed_edges, hp)
        diffs = sk.b1_full.T @ signals.x0
        smooth = np.einsum("ij,ij->i", diffs, diffs)
        expected = np.zeros(sk.n_edges, dtype=np.int8)
        expected[np.argsort(smooth, kind="stable")[: hp.e_min]] = 1
        np.testing.assert_array_equal(state.selection.w1, expected)

    def test_zero_fill_of_unobserved_signals(self):
        truth, signals, hp = _instance(4)
        state = run_sep_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        unobserved = np.setdiff1d(
            np.arange(truth.skeleton.n_edges), signals.observed_edges
        )
        np.testing.assert_array_equal(state.x1_est[unobserved], 0.0)
        np.testing.assert_array_equal(
            state.x1_est[signals.observed_edges], signals.x1_obs
        )

    def test_objective_matches_public_objective(self):
        """The one-pass objective equals the public formula bit for bit."""
        truth, signals, hp = _instance(3)
        sk, obs = truth.skeleton, signals.observed_edges
        state = run_sep_scl(sk, signals.x0, signals.x1_obs, obs, hp)
        sel = state.selection
        assert state.objective_trace[0] == objective_value(
            sk, signals.x0, state.x1_est, sel.w1, sel.w2, obs, signals.x1_obs,
            replace(hp, gamma=0.0),
        )

    def test_requires_budgets(self):
        truth, signals, _ = _instance(0)
        with pytest.raises(ValueError, match="must be set"):
            run_sep_scl(
                truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges,
                HyperParams(),
            )


def _rc(sk, x0, e_min, t_min):
    """RC's selection under the common method signature, with no edge flows."""
    params = HyperParams(e_min=e_min, t_min=t_min)
    return run_rc(sk, x0, np.zeros((0, 1)), np.array([], dtype=np.int64), params).selection


def _rc_loop_reference(n, x0, e_min, t_min):
    """RC's selection with per-edge and per-triangle Python loops over the
    vertex tuples; also returns whether the clique trimming ran."""
    corr = _node_correlations(x0)
    edges = list(itertools.combinations(range(n), 2))
    strength = np.array([abs(corr[i, j]) for i, j in edges])
    w1 = np.zeros(len(edges), dtype=np.int8)
    w1[np.argsort(-strength, kind="stable")[:e_min]] = 1
    active = {edges[e] for e in np.flatnonzero(w1)}
    cliques = [
        (t, (i, j, k))
        for t, (i, j, k) in enumerate(itertools.combinations(range(n), 3))
        if {(i, j), (i, k), (j, k)} <= active
    ]
    trimmed = len(cliques) > t_min
    if trimmed:
        mins = [min(abs(corr[i, j]), abs(corr[i, k]), abs(corr[j, k])) for _, (i, j, k) in cliques]
        cliques = [cliques[p] for p in np.argsort(-np.array(mins), kind="stable")[:t_min]]
    w2 = np.zeros(math.comb(n, 3), dtype=np.int8)
    w2[[t for t, _ in cliques]] = 1
    return w1, w2, trimmed


class TestRc:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_loop_reference(self, data):
        n = data.draw(st.integers(4, 9))
        cols = data.draw(st.integers(2, 6))
        # Small integer entries make tied correlations, so the stable
        # tie order is compared too.
        x0 = np.array(
            data.draw(st.lists(st.integers(-2, 2), min_size=n * cols, max_size=n * cols)),
            dtype=np.float64,
        ).reshape(n, cols)
        n_edges = math.comb(n, 2)
        e_min = data.draw(st.integers(n_edges // 2, n_edges))
        t_min = data.draw(st.integers(0, 4))
        w1, w2, trimmed = _rc_loop_reference(n, x0, e_min, t_min)
        event("trimmed" if trimmed else "untrimmed")
        sel = _rc(build_skeleton(n), x0, e_min, t_min)
        np.testing.assert_array_equal(sel.w1, w1)
        np.testing.assert_array_equal(sel.w2, w2)

    def _correlated_signals(self, n=6, cols=40, seed=0):
        """Nodes 0,1,2 share one latent signal; node 3 is its negation;
        node 4 is constant (zero variance); node 5 is independent."""
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(cols)
        x0 = rng.standard_normal((n, cols)) * 0.05
        x0[0] = base
        x0[1] = base + 0.01 * rng.standard_normal(cols)
        x0[2] = base + 0.01 * rng.standard_normal(cols)
        x0[3] = -base + 0.01 * rng.standard_normal(cols)
        x0[4] = 2.5
        return x0

    def test_budget_mode_ranks_by_absolute_correlation(self):
        sk = build_skeleton(6)
        x0 = self._correlated_signals()
        sel = _rc(sk, x0, 6, sk.n_triangles)
        picked = {sk.edges[i] for i in np.flatnonzero(sel.w1)}
        # the 6 strongest pairs are exactly those among the latent block
        assert picked == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert int(sel.w1.sum()) == 6

    def test_clique_fill_and_budget_cap(self):
        sk = build_skeleton(6)
        x0 = self._correlated_signals()
        sel = _rc(sk, x0, 6, sk.n_triangles)
        # the block {0,1,2,3} is a 4-clique: all four triangles fill
        expected_tris = {
            triangle_index(sk, 0, 1, 2),
            triangle_index(sk, 0, 1, 3),
            triangle_index(sk, 0, 2, 3),
            triangle_index(sk, 1, 2, 3),
        }
        assert set(np.flatnonzero(sel.w2).tolist()) == expected_tris
        capped = _rc(sk, x0, 6, 2)
        assert int(capped.w2.sum()) == 2
        assert set(np.flatnonzero(capped.w2).tolist()) <= expected_tris

    def test_zero_variance_node_never_selected_first(self):
        sk = build_skeleton(6)
        x0 = self._correlated_signals()
        sel = _rc(sk, x0, 3, sk.n_triangles)
        for i in np.flatnonzero(sel.w1):
            assert 4 not in sk.edges[i]

    def test_full_budget_gives_complete_flag_complex(self):
        sk = build_skeleton(5)
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((5, 30))
        sel = _rc(sk, x0, sk.n_edges, sk.n_triangles)
        assert int(sel.w1.sum()) == sk.n_edges
        assert int(sel.w2.sum()) == sk.n_triangles

    def test_identical_rows_rank_first(self):
        sk = build_skeleton(4)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((4, 20))
        x0[3] = x0[2]
        sel = _rc(sk, x0, 1, sk.n_triangles)
        assert np.flatnonzero(sel.w1).tolist() == [edge_index(sk, 2, 3)]

    def test_output_always_closed(self):
        sk = build_skeleton(7)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x0 = rng.standard_normal((7, 15))
            sel = _rc(sk, x0, int(rng.integers(0, 22)), 3)
            assert is_closed(sk, sel.w1, sel.w2)

    @pytest.mark.parametrize("t_min", [-1, 5])
    def test_rejects_t_min_out_of_range(self, t_min):
        sk = build_skeleton(4)
        x0 = np.random.default_rng(2).standard_normal((4, 10))
        with pytest.raises(ValueError, match=r"t_min must be in \[0, 4\]"):
            _rc(sk, x0, 6, t_min)
        assert int(_rc(sk, x0, 6, sk.n_triangles).w2.sum()) == 4


# Malformed variants of a valid method call: (skeleton, x0, x1_obs,
# observed_edges, params) -> the same five arguments.
_BAD_INPUTS = {
    "reversed-observed": lambda sk, x0, x1, obs, hp: (sk, x0, x1, obs[::-1], hp),
    "observed-minus-one": lambda sk, x0, x1, obs, hp: (sk, x0, x1, np.r_[-1, obs[1:]], hp),
    "observed-n-edges": lambda sk, x0, x1, obs, hp: (sk, x0, x1, np.r_[obs[:-1], sk.n_edges], hp),
    "x1-obs-one-row": lambda sk, x0, x1, obs, hp: (sk, x0, x1[:1], obs, hp),
    "x1-obs-1d": lambda sk, x0, x1, obs, hp: (sk, x0, x1[:, 0], obs, hp),
    "x0-wrong-rows": lambda sk, x0, x1, obs, hp: (sk, x0[:-1], x1, obs, hp),
    "budgets-unset": lambda sk, x0, x1, obs, hp: (sk, x0, x1, obs, HyperParams()),
}


class TestMethods:
    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_bad_inputs_rejected(self, method, case):
        truth, signals, hp = _instance(0)
        args = _BAD_INPUTS[case](
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        with pytest.raises(ValueError):
            METHODS[method](*args)

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("signal", ["x0", "x1_obs"])
    def test_non_finite_signals_rejected(self, method, signal):
        truth, signals, hp = _instance(0)
        inputs = {"x0": signals.x0.copy(), "x1_obs": signals.x1_obs.copy()}
        inputs[signal][0, 0] = np.inf
        with pytest.raises(ValueError, match=f"{signal} has non-finite"):
            METHODS[method](
                truth.skeleton, inputs["x0"], inputs["x1_obs"], signals.observed_edges, hp
            )
