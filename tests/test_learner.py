"""Learner tests: hand examples, exhaustive-search oracles, and the
block-coordinate loop contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_edges,
    brute_force_triangles,
    edge_subproblem_value,
    full_objective,
    gradient_descent_interpolation,
    triangle_subproblem_value,
)
from scinfer import learner
from scinfer.learner import (
    HyperParams,
    edge_scores,
    interpolate_edge_signals,
    objective_value,
    run_greedy_scl,
    select_edges,
    select_triangles,
    triangle_scores,
)
from scinfer.synth import InstanceParams, generate_instance
from scinfer.topology import build_skeleton


def _random_subset_instance(seed, n=5):
    rng = np.random.default_rng(seed)
    sk = build_skeleton(n)
    x1 = rng.standard_normal((sk.n_edges, 3))
    x0 = rng.standard_normal((n, 4))
    w1 = (rng.random(sk.n_edges) < 0.6).astype(np.int8)
    w2 = (rng.random(sk.n_triangles) < 0.4).astype(np.int8)
    obs = np.sort(rng.choice(sk.n_edges, size=3, replace=False)).astype(np.int64)
    return sk, x0, x1, w1, w2, obs, rng


class TestTriangleScores:
    def test_single_triangle_hand_value(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha2=1.0, beta2=1.0, gamma=5.0)
        x1 = np.array([[1.0], [-1.0], [1.0]])
        scores = triangle_scores(sk, x1, np.ones(3), params)
        np.testing.assert_allclose(scores, [10.0])

    def test_missing_edge_penalty(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha2=1.0, beta2=1.0, gamma=5.0)
        x1 = np.array([[1.0], [-1.0], [1.0]])
        w1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(triangle_scores(sk, x1, w1, params), [20.0])

    def test_matches_gram_diagonal(self):
        sk, _, x1, w1, _, _, _ = _random_subset_instance(0, n=6)
        params = HyperParams(alpha2=0.7, beta2=1.3, gamma=2.0)
        gram_diag = np.diag(sk.b2_full.T @ x1 @ x1.T @ sk.b2_full)
        missing = sk.b2_unsigned.T @ (1.0 - w1.astype(float))
        expected = 0.7 + 1.3 * gram_diag + 2.0 * missing
        np.testing.assert_allclose(
            triangle_scores(sk, x1, w1, params), expected, rtol=1e-10
        )


class TestSelectTriangles:
    def test_matches_brute_force_value(self):
        params = HyperParams(alpha2=1e-3, beta2=1.0, gamma=10.0)
        for seed in range(6):
            sk, _, x1, w1, _, _, _ = _random_subset_instance(seed)
            for t_min in (0, 1, 3):
                scores = triangle_scores(sk, x1, w1, params)
                w2 = select_triangles(scores, t_min)
                val = triangle_subproblem_value(
                    sk.b2_full, x1, w1, w2, params.alpha2, params.beta2, params.gamma
                )
                best_val, _ = brute_force_triangles(
                    sk.b2_full, x1, w1, params.alpha2, params.beta2, params.gamma, t_min
                )
                assert abs(val - best_val) <= 1e-12 * max(1.0, abs(best_val))

    def test_exact_cardinality_and_stable_ties(self):
        scores = np.array([2.0, 1.0, 1.0, 0.5])
        np.testing.assert_array_equal(select_triangles(scores, 2), [0, 1, 0, 1])
        np.testing.assert_array_equal(select_triangles(scores, 3), [0, 1, 1, 1])

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            select_triangles(np.zeros(4), 5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
        st.integers(-100, 100),
        st.integers(0, 12),
    )
    def test_shift_invariance(self, raw_scores, shift, t_min):
        # Integer-valued floats keep the shift exact; with arbitrary
        # floats a large shift can absorb tiny score gaps and merge ties.
        scores = np.array(raw_scores, dtype=np.float64)
        t_min = min(t_min, scores.size)
        np.testing.assert_array_equal(
            select_triangles(scores, t_min), select_triangles(scores + shift, t_min)
        )


class TestEdgeScores:
    def test_path_signal_hand_values(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha1=0.0, beta1=1.0, gamma=0.0)
        x0 = np.array([[0.0], [1.0], [2.0]])
        scores = edge_scores(sk, x0, np.zeros(1), np.array([], dtype=np.int64), params)
        np.testing.assert_allclose(scores, [1.0, 4.0, 1.0])

    def test_observed_edges_score_zero(self):
        sk, x0, _, _, w2, obs, _ = _random_subset_instance(1)
        params = HyperParams()
        scores = edge_scores(sk, x0, w2, obs, params)
        np.testing.assert_array_equal(scores[obs], 0.0)

    def test_coverage_bonus_is_negative_gamma_per_triangle(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha1=0.0, beta1=0.0, gamma=7.0)
        scores = edge_scores(
            sk, np.zeros((3, 2)), np.ones(1), np.array([], dtype=np.int64), params
        )
        np.testing.assert_allclose(scores, [-7.0, -7.0, -7.0])


def _select_edges_two_branch(scores, obs, e_min, strict):
    """Edge selection written as two separate rules: strict ranks all
    unobserved edges; default takes the negatives, then pads from the
    stably sorted nonnegative pool."""
    w1 = np.zeros(scores.size, dtype=np.int8)
    w1[obs] = 1
    unobserved = np.flatnonzero(w1 == 0)
    if strict:
        order = unobserved[np.argsort(scores[unobserved], kind="stable")]
        w1[order[: e_min - obs.size]] = 1
        return w1
    w1[unobserved[scores[unobserved] < 0.0]] = 1
    shortfall = e_min - int(w1.sum())
    if shortfall > 0:
        pool = unobserved[scores[unobserved] >= 0.0]
        w1[pool[np.argsort(scores[pool], kind="stable")][:shortfall]] = 1
    return w1


class TestSelectEdges:
    def test_reference_example_both_modes(self):
        scores = np.array([0.0, 5.0, -2.0, 3.0])
        obs = np.array([0])
        for strict in (False, True):
            w1 = select_edges(scores, obs, e_min=2, strict_lemma_mode=strict)
            np.testing.assert_array_equal(w1, [1, 0, 1, 0])

    def test_default_mode_matches_brute_force_value(self):
        params = HyperParams(alpha1=1e-3, beta1=1.0, gamma=10.0)
        for seed in range(6):
            sk, x0, _, _, w2, obs, _ = _random_subset_instance(seed)
            for e_min in (3, 5, 8):
                scores = edge_scores(sk, x0, w2, obs, params)
                w1 = select_edges(scores, obs, e_min)
                val = edge_subproblem_value(
                    sk.b1_full, sk.b2_full, x0, w1, w2,
                    params.alpha1, params.beta1, params.gamma,
                )
                best_val, _ = brute_force_edges(
                    sk.b1_full, sk.b2_full, x0, w2, obs,
                    params.alpha1, params.beta1, params.gamma, e_min,
                )
                assert abs(val - best_val) <= 1e-12 * max(1.0, abs(best_val))

    def test_default_mode_exceeds_budget_on_negative_scores(self):
        scores = np.array([0.0, -1.0, -0.5, 2.0, -0.1])
        w1 = select_edges(scores, np.array([0]), e_min=2)
        np.testing.assert_array_equal(w1, [1, 1, 1, 0, 1])

    def test_strict_mode_exact_cardinality(self):
        scores = np.array([0.0, -1.0, -0.5, 2.0, -0.1])
        w1 = select_edges(scores, np.array([0]), e_min=2, strict_lemma_mode=True)
        np.testing.assert_array_equal(w1, [1, 1, 0, 0, 0])

    def test_rejects_budget_below_observed(self):
        with pytest.raises(ValueError, match="below"):
            select_edges(np.zeros(5), np.array([0, 1, 2]), e_min=2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 12))
    def test_budget_always_met(self, bits, e_min):
        rng = np.random.default_rng(bits)
        scores = rng.standard_normal(12)
        obs = np.flatnonzero([(bits >> i) & 1 for i in range(4)]).astype(np.int64)
        scores[obs] = 0.0
        e_min = max(e_min, obs.size)
        w1 = select_edges(scores, obs, e_min)
        assert w1.sum() >= e_min
        assert np.all(w1[obs] == 1)
        strict = select_edges(scores, obs, e_min, strict_lemma_mode=True)
        assert strict.sum() == e_min

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_two_branch_reference(self, data):
        # Small integers, halves and -0.0 make many ties, so the stable
        # tie order across the negative/nonnegative split is compared too.
        values = st.sampled_from([-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
        scores = np.array(data.draw(st.lists(values, min_size=1, max_size=14)))
        mask = data.draw(st.lists(st.booleans(), min_size=scores.size, max_size=scores.size))
        obs = np.flatnonzero(mask).astype(np.int64)
        e_min = data.draw(st.integers(obs.size, scores.size))
        for strict in (False, True):
            np.testing.assert_array_equal(
                select_edges(scores, obs, e_min, strict),
                _select_edges_two_branch(scores, obs, e_min, strict),
            )


class TestInterpolation:
    def test_fully_observed_no_triangles_is_identity(self):
        sk = build_skeleton(5)
        rng = np.random.default_rng(3)
        obs = np.arange(sk.n_edges, dtype=np.int64)
        x1o = rng.standard_normal((sk.n_edges, 4))
        out = interpolate_edge_signals(sk, np.zeros(sk.n_triangles), obs, x1o, HyperParams())
        np.testing.assert_allclose(out, x1o, atol=1e-12)

    def test_structural_zero_rows(self):
        sk = build_skeleton(6)
        rng = np.random.default_rng(4)
        w2 = np.zeros(sk.n_triangles)
        w2[0] = 1.0
        obs = np.array([7, 9], dtype=np.int64)
        x1o = rng.standard_normal((2, 3))
        out = interpolate_edge_signals(sk, w2, obs, x1o, HyperParams())
        covered = sk.b2_unsigned @ w2 > 0
        covered[obs] = True
        np.testing.assert_array_equal(out[~covered], 0.0)

    def test_matches_gradient_descent_oracle(self):
        params = HyperParams(beta2=1.0, eta=10.0)
        for seed in range(4):
            sk, _, _, _, w2, obs, rng = _random_subset_instance(seed, n=5)
            x1o = rng.standard_normal((obs.size, 3))
            closed = interpolate_edge_signals(sk, w2, obs, x1o, params)
            iterative = gradient_descent_interpolation(
                sk.b2_full, w2, obs, x1o, params.beta2, params.eta
            )
            scale = max(np.linalg.norm(iterative), 1e-12)
            assert np.linalg.norm(closed - iterative) <= 1e-6 * scale

    def test_satisfies_normal_equations(self):
        params = HyperParams(beta2=2.0, eta=5.0)
        sk, _, _, _, w2, obs, rng = _random_subset_instance(7, n=6)
        x1o = rng.standard_normal((obs.size, 4))
        x = interpolate_edge_signals(sk, w2, obs, x1o, params)
        lu = (sk.b2_full * w2.astype(float)) @ sk.b2_full.T
        theta = np.zeros((sk.n_edges, sk.n_edges))
        theta[obs, obs] = 1.0
        rhs = np.zeros((sk.n_edges, 4))
        rhs[obs] = params.eta * x1o
        resid = (params.beta2 * lu + params.eta * theta) @ x - rhs
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rhs)

    def test_requires_observations(self):
        sk = build_skeleton(4)
        with pytest.raises(ValueError, match="observed"):
            interpolate_edge_signals(
                sk, np.zeros(sk.n_triangles), np.array([], dtype=np.int64),
                np.zeros((0, 2)), HyperParams(),
            )


class TestObjective:
    def test_matches_literal_oracle(self):
        params = HyperParams(alpha1=0.01, alpha2=0.02, beta1=1.1, beta2=0.9, gamma=3.0, eta=4.0)
        for seed in range(5):
            sk, x0, x1, w1, w2, obs, rng = _random_subset_instance(seed)
            x1o = rng.standard_normal((obs.size, 3))
            ours = objective_value(sk, x0, x1, w1, w2, obs, x1o, params)
            ref = full_objective(sk.b1_full, sk.b2_full, x0, x1, w1, w2, obs, x1o, params)
            assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_triangle_block_decomposition(self):
        """objective == sum_t w2_t * score_t + terms independent of w2"""
        params = HyperParams()
        sk, x0, x1, w1, w2, obs, rng = _random_subset_instance(2)
        x1o = rng.standard_normal((obs.size, 3))
        s2 = triangle_scores(sk, x1, w1, params)
        diffs = sk.b1_full.T @ x0
        smooth = np.einsum("ij,ij->i", diffs, diffs)
        resid = x1[obs] - x1o
        rest = (
            params.alpha1 * w1.sum()
            + params.beta1 * smooth @ w1.astype(float)
            + params.eta * np.sum(resid * resid)
        )
        total = objective_value(sk, x0, x1, w1, w2, obs, x1o, params)
        np.testing.assert_allclose(total, s2 @ w2.astype(float) + rest, rtol=1e-12)

    def test_edge_block_decomposition(self):
        """objective == sum_unobserved w1_l * score_l + terms independent
        of the free edge indicators"""
        params = HyperParams()
        sk, x0, x1, w1, w2, obs, rng = _random_subset_instance(3)
        w1 = w1.astype(float)
        w1[obs] = 1.0
        x1o = rng.standard_normal((obs.size, 3))
        s1 = edge_scores(sk, x0, w2, obs, params)
        diffs = sk.b1_full.T @ x0
        smooth = np.einsum("ij,ij->i", diffs, diffs)
        curl = sk.b2_full.T @ x1
        curl_e = np.einsum("ij,ij->i", curl, curl)
        cover = sk.b2_unsigned @ w2.astype(float)
        resid = x1[obs] - x1o
        unobs = np.setdiff1d(np.arange(sk.n_edges), obs)
        rest = (
            params.alpha1 * obs.size
            + params.beta1 * smooth[obs].sum()
            + params.gamma * (cover.sum() - cover[obs].sum())
            + params.alpha2 * w2.sum()
            + params.beta2 * curl_e @ w2.astype(float)
            + params.eta * np.sum(resid * resid)
        )
        total = objective_value(sk, x0, x1, w1, w2, obs, x1o, params)
        np.testing.assert_allclose(total, s1[unobs] @ w1[unobs] + rest, rtol=1e-12)


def _learn_instance(seed, **overrides):
    defaults = dict(
        n_nodes=8,
        edge_prob=0.5,
        fill_fraction=0.5,
        n_node_signals=30,
        n_edge_signals=30,
        curl_atten=0.05,
        node_noise_std=0.05,
        edge_noise_std=0.02,
        observed_fraction=0.7,
    )
    defaults.update(overrides)
    params = InstanceParams(**defaults)
    truth, signals = generate_instance(params, seed)
    hp = HyperParams(
        e_min=int(truth.selection.w1.sum()), t_min=int(truth.selection.w2.sum())
    )
    return truth, signals, hp


class TestRunGreedyScl:
    def test_trace_nonincreasing_and_converges(self):
        for seed in range(8):
            truth, signals, hp = _learn_instance(seed)
            state = run_greedy_scl(
                truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
            )
            trace = np.array(state.objective_trace)
            assert trace.size == state.iterations_run
            assert np.all(np.diff(trace) <= 1e-10), f"seed {seed}: trace increased"
            assert state.converged
            assert state.closure_violations == 0

    def test_converged_state_is_a_fixpoint(self):
        truth, signals, hp = _learn_instance(3)
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        assert state.converged and state.pruned_triangles == 0
        sk = truth.skeleton
        w1 = state.selection.w1.astype(float)
        s2 = triangle_scores(sk, state.x1_est, w1, hp)
        w2_next = select_triangles(s2, hp.t_min)
        np.testing.assert_array_equal(w2_next, state.selection.w2)
        s1 = edge_scores(sk, signals.x0, w2_next, signals.observed_edges, hp)
        w1_next = select_edges(s1, signals.observed_edges, hp.e_min)
        np.testing.assert_array_equal(w1_next, state.selection.w1)

    def test_trace_matches_public_objective(self):
        """The one-pass objective equals the public formula bit for bit."""
        truth, signals, hp = _learn_instance(3)
        sk, obs = truth.skeleton, signals.observed_edges
        state = run_greedy_scl(sk, signals.x0, signals.x1_obs, obs, hp)
        assert state.converged and state.pruned_triangles == 0
        sel = state.selection
        assert state.objective_trace[-1] == objective_value(
            sk, signals.x0, state.x1_est, sel.w1, sel.w2, obs, signals.x1_obs, hp
        )

    def test_one_energy_pass_per_interpolation(self, monkeypatch):
        """k iterations take k + 1 curl-energy passes and one smoothness pass."""
        truth, signals, hp = _learn_instance(3)
        calls = {"triangle_curl": 0, "edge_gradient": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(learner, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(learner, name, counted)
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        assert calls == {"triangle_curl": state.iterations_run + 1, "edge_gradient": 1}

    def test_single_iteration_cap(self):
        truth, signals, hp = _learn_instance(1)
        hp = HyperParams(**{**hp.__dict__, "max_iters": 1})
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        assert state.iterations_run == 1
        assert not state.converged

    def test_prune_closure_toggle(self):
        truth, signals, hp = _learn_instance(5)
        loose = HyperParams(**{**hp.__dict__, "prune_closure": False})
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, loose
        )
        assert state.pruned_triangles == 0
        strict = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        assert strict.closure_violations == 0

    def test_strict_mode_exact_edge_budget(self):
        truth, signals, hp = _learn_instance(2)
        strict = HyperParams(**{**hp.__dict__, "strict_lemma_mode": True})
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, strict
        )
        assert int(state.selection.w1.sum()) == hp.e_min

    def test_noiseless_fully_observed_recovers_truth(self):
        truth, signals, hp = _learn_instance(
            7, node_noise_std=0.0, edge_noise_std=0.0, observed_fraction=1.0
        )
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        np.testing.assert_array_equal(state.selection.w1, truth.selection.w1)
        np.testing.assert_array_equal(state.selection.w2, truth.selection.w2)

    def test_validation_errors(self):
        truth, signals, hp = _learn_instance(0)
        sk = truth.skeleton
        with pytest.raises(ValueError, match="observed"):
            run_greedy_scl(sk, signals.x0, np.zeros((0, 30)), np.array([], dtype=np.int64), hp)
        bad = HyperParams(e_min=2, t_min=0)
        with pytest.raises(ValueError, match="e_min"):
            run_greedy_scl(sk, signals.x0, signals.x1_obs, signals.observed_edges, bad)
        unset = HyperParams()
        with pytest.raises(ValueError, match="must be set"):
            run_greedy_scl(sk, signals.x0, signals.x1_obs, signals.observed_edges, unset)

    def test_phase_timings_recorded(self):
        truth, signals, hp = _learn_instance(4)
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        for key in ("triangle_select", "edge_select", "interpolate", "objective", "total"):
            assert state.phase_seconds[key] >= 0.0
        assert state.phase_seconds["total"] > 0.0
