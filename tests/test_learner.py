"""Learner tests: hand examples, exhaustive-search oracles, and the
block-coordinate loop contracts."""

import time

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_edges,
    brute_force_triangles,
    edge_subproblem_value,
    full_objective,
    gradient_descent_interpolation,
    incidence,
    pinv_interpolation,
    reference_greedy_scl,
    triangle_subproblem_value,
    upper_gram,
)
from scinfer import learner, topology
from scinfer.evaluation import evaluate
from scinfer.learner import (
    HyperParams,
    _CurlMemo,
    _edge_scores,
    _objective,
    _select_by_tier,
    _triangle_scores,
    bucket_width,
    interpolate_edge_signals,
    run_greedy_scl,
    select_edges,
    select_triangles,
)
from scinfer.synth import InstanceParams, generate_instance
from scinfer.topology import (
    _curl_energy,
    _gram_blocks,
    _row_energy,
    build_skeleton,
    edge_coverage,
    edge_gradient,
    missing_edges,
    triangle_index,
)


def _random_subset_instance(seed, n=5):
    rng = np.random.default_rng(seed)
    sk = build_skeleton(n)
    x1 = rng.standard_normal((sk.n_edges, 3))
    x0 = rng.standard_normal((n, 4))
    w1 = (rng.random(sk.n_edges) < 0.6).astype(np.int8)
    w2 = (rng.random(sk.n_triangles) < 0.4).astype(np.int8)
    obs = np.sort(rng.choice(sk.n_edges, size=3, replace=False)).astype(np.int64)
    return sk, x0, x1, w1, w2, obs, rng


def _all_triangle_scores(sk, x1, w1, params):
    """Every candidate's triangle score, the full pass ``_select_by_tier`` must match."""
    energy = _curl_energy(sk, x1, np.arange(sk.n_triangles))
    return _triangle_scores(energy, missing_edges(sk, w1), params)


def _all_edge_scores(sk, x0, w2, obs, params):
    """Every candidate's edge score, as the methods take it."""
    return _edge_scores(sk, _row_energy(edge_gradient(sk, x0)), w2, obs, params)


def _full_objective(sk, x0, x1, w1, w2, obs, x1o, params):
    """The learner's objective with every candidate's curl energy."""
    smoothness = _row_energy(edge_gradient(sk, x0))
    energy = _curl_energy(sk, x1, np.arange(sk.n_triangles))
    return _objective(sk, smoothness, energy, x1, w1, w2, obs, x1o, params)


class TestTriangleScores:
    def test_single_triangle_hand_value(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha2=1.0, beta2=1.0, gamma=5.0)
        x1 = np.array([[1.0], [-1.0], [1.0]])
        scores = _all_triangle_scores(sk, x1, np.ones(3), params)
        np.testing.assert_allclose(scores, [10.0])

    def test_missing_edge_penalty(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha2=1.0, beta2=1.0, gamma=5.0)
        x1 = np.array([[1.0], [-1.0], [1.0]])
        w1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(_all_triangle_scores(sk, x1, w1, params), [20.0])

    def test_matches_gram_diagonal(self):
        sk, _, x1, w1, _, _, _ = _random_subset_instance(0, n=6)
        params = HyperParams(alpha2=0.7, beta2=1.3, gamma=2.0)
        _, b2 = incidence(sk.n_nodes)
        gram_diag = np.diag(b2.T @ x1 @ x1.T @ b2)
        missing = np.abs(b2).T @ (1.0 - w1.astype(float))
        expected = 0.7 + 1.3 * gram_diag + 2.0 * missing
        np.testing.assert_allclose(
            _all_triangle_scores(sk, x1, w1, params), expected, rtol=1e-10
        )


class TestSelectTriangles:
    def test_matches_brute_force_value(self):
        params = HyperParams(alpha2=1e-3, beta2=1.0, gamma=10.0)
        for seed in range(6):
            sk, _, x1, w1, _, _, _ = _random_subset_instance(seed)
            _, b2 = incidence(sk.n_nodes)
            for t_min in (0, 1, 3):
                scores = _all_triangle_scores(sk, x1, w1, params)
                w2 = select_triangles(scores, t_min, bucket_width(x1, params))
                val = triangle_subproblem_value(
                    b2, x1, w1, w2, params.alpha2, params.beta2, params.gamma
                )
                best_val, _ = brute_force_triangles(
                    b2, x1, w1, params.alpha2, params.beta2, params.gamma, t_min
                )
                assert abs(val - best_val) <= 1e-12 * max(1.0, abs(best_val))

    def test_exact_cardinality_and_stable_ties(self):
        scores = np.array([2.0, 1.0, 1.0, 0.5])
        for q in (0.0, 1e-9):
            np.testing.assert_array_equal(select_triangles(scores, 2, q), [0, 1, 0, 1])
            np.testing.assert_array_equal(select_triangles(scores, 3, q), [0, 1, 1, 1])

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            select_triangles(np.zeros(4), 5, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="scores has non-finite entries"):
            select_triangles(np.array([1.0, bad, 0.5]), 1, 1e-9)

    @pytest.mark.parametrize(
        "q, match",
        [(np.nan, "q must be >= 0 and finite"), (np.inf, "q must be >= 0 and finite"), (-1e-9, "q must")],
    )
    def test_rejects_bad_bucket_width(self, q, match):
        with pytest.raises(ValueError, match=match):
            select_triangles(np.array([1.0, 0.5]), 1, q)

    def test_scores_within_a_bucket_tie_to_the_lowest_index(self):
        # 0.08 and 0.08 * (1 + 1e-14) round to one bucket of width
        # 1e-9 * 30, so the lower index wins although its score is larger.
        scores = np.array([30.0, 0.08 * (1 + 1e-14), 0.08, 1.0])
        assert np.argmin(scores) == 2
        np.testing.assert_array_equal(select_triangles(scores, 1, 3e-8), [0, 1, 0, 0])
        scores[1] = 0.08 * (1 + 1e-6)
        np.testing.assert_array_equal(select_triangles(scores, 1, 3e-8), [0, 0, 1, 0])

    def test_all_zero_scores_rank_by_index(self):
        for q in (0.0, 1e-9):
            np.testing.assert_array_equal(select_triangles(np.zeros(4), 2, q), [1, 1, 0, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
        st.integers(-100, 100),
        st.integers(0, 12),
        st.sampled_from([0.0, 0.25, 1.0]),
    )
    def test_shift_invariance(self, raw_scores, shift, t_min, q):
        # Integer-valued floats and bucket widths that divide 1 keep the
        # shift exact; with arbitrary floats a large shift can absorb tiny
        # score gaps and merge ties.
        scores = np.array(raw_scores, dtype=np.float64)
        t_min = min(t_min, scores.size)
        np.testing.assert_array_equal(
            select_triangles(scores, t_min, q), select_triangles(scores + shift, t_min, q)
        )

    def test_bucket_width_bounds_every_sparsity_and_curl_term(self):
        params = HyperParams(alpha2=0.3, beta2=2.0)
        for seed in range(4):
            sk, _, x1, _, _, _, _ = _random_subset_instance(seed, n=7)
            bound = bucket_width(x1, params) / learner.SCORE_QUANTUM
            energy = _curl_energy(sk, x1, np.arange(sk.n_triangles))
            worst = params.alpha2 + params.beta2 * energy.max()
            largest_row = (x1 * x1).sum(axis=1).max()
            assert worst <= bound
            assert bound == pytest.approx(params.alpha2 + 9.0 * params.beta2 * largest_row)
        assert bucket_width(np.zeros((3, 2)), HyperParams(alpha2=0.0)) == 0.0


def _tier_instance(data):
    """Signals whose rows are zero, tiny (1e-6) or of scale ``amp``, so
    that many scores sit exactly on a tier floor or inside the floor's
    bucket while others reach past the next floors, with a random edge
    set, gamma 0 or log-uniform in [1e-3, 1e2] and any budget. A gamma
    of the curls' scale puts tier-m scores between later floors."""
    n = data.draw(st.integers(3, 8), label="n_nodes")
    sk = build_skeleton(n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    amp = data.draw(st.sampled_from([0.1, 1.0, 4.0]), label="amp")
    scale = rng.choice([0.0, 1e-6, amp], size=(sk.n_edges, 1), p=[0.4, 0.3, 0.3])
    x1 = scale * rng.standard_normal((sk.n_edges, 3))
    w1 = (rng.random(sk.n_edges) < data.draw(st.floats(0.0, 1.0), label="density")).astype(np.int8)
    params = HyperParams(
        alpha2=data.draw(st.sampled_from([0.0, 1e-3]), label="alpha2"),
        gamma=data.draw(
            st.just(0.0) | st.floats(-3.0, 2.0).map(lambda e: 10.0**e), label="gamma"
        ),
    )
    t_min = data.draw(st.integers(0, sk.n_triangles), label="t_min")
    return sk, x1, w1, params, t_min


class TestTieredSelection:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_selects_what_the_full_pass_selects(self, data):
        sk, x1, w1, params, t_min = _tier_instance(data)
        q = bucket_width(x1, params)
        missing = missing_edges(sk, w1)
        full = _curl_energy(sk, x1, np.arange(sk.n_triangles))
        want = select_triangles(_triangle_scores(full, missing, params), t_min, q)
        memo = _CurlMemo(sk, x1)
        # A memo already holding some energies, as after an interpolation.
        memo.fill(np.flatnonzero(want)[::2])
        got = _select_by_tier(memo, w1, params, q, t_min)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(memo.energy[memo.known], full[memo.known])
        assert memo.known[got != 0].all()
        assert not memo.energy[~memo.known].any()
        if params.gamma == 0.0 and t_min > 0:
            assert memo.known.all()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_budget_selects_what_the_full_pass_selects(self, data):
        """A stop one tier too early shows only at some budgets, so every
        budget of the instance is checked, each on a fresh memo."""
        sk, x1, w1, params, _ = _tier_instance(data)
        q = bucket_width(x1, params)
        scores = _all_triangle_scores(sk, x1, w1, params)
        for t_min in range(sk.n_triangles + 1):
            got = _select_by_tier(_CurlMemo(sk, x1), w1, params, q, t_min)
            np.testing.assert_array_equal(got, select_triangles(scores, t_min, q))

    def test_a_cut_between_later_floors_fills_the_next_tier(self):
        """The complete triangle (0, 1, 2) scores 1.5, between the floors
        1 and 2 of tiers 1 and 2, and the tier-1 triangle (0, 1, 3) has
        zero curl and scores 1. The cut of tier 0 alone is not below the
        floor of tier 1, so tier 1 must be filled, and it wins."""
        sk = build_skeleton(4)
        w1 = np.zeros(sk.n_edges, dtype=np.int8)
        w1[[0, 1, 2, 3]] = 1  # edges (0, 1), (0, 2), (0, 3), (1, 2)
        x1 = np.zeros((sk.n_edges, 1))
        x1[3] = np.sqrt(1.5)
        params = HyperParams(alpha2=0.0, gamma=1.0)
        q = bucket_width(x1, params)
        scores = _all_triangle_scores(sk, x1, w1, params)
        np.testing.assert_allclose(scores, [1.5, 1.0, 1.0, 3.5])
        got = _select_by_tier(_CurlMemo(sk, x1), w1, params, q, 1)
        np.testing.assert_array_equal(got, [0, 1, 0, 0])
        assert triangle_index(sk, 0, 1, 3) == 1

    def test_stops_at_the_first_tier_that_decides_the_cut(self):
        """With gamma = 10 and small curls, a budget the complete
        triangles fill needs only their energies, and t_min = 0 none."""
        sk = build_skeleton(6)
        x1 = 0.1 * np.random.default_rng(2).standard_normal((sk.n_edges, 3))
        w1 = np.ones(sk.n_edges, dtype=np.int8)
        w1[[0, 5]] = 0
        missing = missing_edges(sk, w1)
        params = HyperParams()
        q = bucket_width(x1, params)
        for t_min, filled in ((0, 0), (int((missing == 0).sum()), int((missing == 0).sum()))):
            memo = _CurlMemo(sk, x1)
            _select_by_tier(memo, w1, params, q, t_min)
            assert memo.known.sum() == filled


class TestEdgeScores:
    def test_path_signal_hand_values(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha1=0.0, beta1=1.0, gamma=0.0)
        x0 = np.array([[0.0], [1.0], [2.0]])
        scores = _all_edge_scores(sk, x0, np.zeros(1), np.array([], dtype=np.int64), params)
        np.testing.assert_allclose(scores, [1.0, 4.0, 1.0])

    def test_observed_edges_score_zero(self):
        sk, x0, _, _, w2, obs, _ = _random_subset_instance(1)
        params = HyperParams()
        scores = _all_edge_scores(sk, x0, w2, obs, params)
        np.testing.assert_array_equal(scores[obs], 0.0)

    def test_coverage_bonus_is_negative_gamma_per_triangle(self):
        sk = build_skeleton(3)
        params = HyperParams(alpha1=0.0, beta1=0.0, gamma=7.0)
        scores = _all_edge_scores(
            sk, np.zeros((3, 2)), np.ones(1), np.array([], dtype=np.int64), params
        )
        np.testing.assert_allclose(scores, [-7.0, -7.0, -7.0])


def _select_edges_two_branch(scores, obs, e_min):
    """Edge selection written in two steps: take the negatives, then pad
    from the stably sorted nonnegative pool."""
    w1 = np.zeros(scores.size, dtype=np.int8)
    w1[obs] = 1
    unobserved = np.flatnonzero(w1 == 0)
    w1[unobserved[scores[unobserved] < 0.0]] = 1
    shortfall = e_min - int(w1.sum())
    if shortfall > 0:
        pool = unobserved[scores[unobserved] >= 0.0]
        w1[pool[np.argsort(scores[pool], kind="stable")][:shortfall]] = 1
    return w1


class TestSelectEdges:
    def test_reference_example_both_modes(self):
        """Both terms of max(e_min - |observed|, #negative) can set the count."""
        scores = np.array([0.0, 5.0, -2.0, 3.0])
        obs = np.array([0])
        for e_min, expected in ((1, [1, 0, 1, 0]), (2, [1, 0, 1, 0]), (3, [1, 0, 1, 1])):
            w1 = select_edges(scores, obs, e_min=e_min)
            np.testing.assert_array_equal(w1, expected)

    def test_default_mode_matches_brute_force_value(self):
        params = HyperParams(alpha1=1e-3, beta1=1.0, gamma=10.0)
        for seed in range(6):
            sk, x0, _, _, w2, obs, _ = _random_subset_instance(seed)
            b1, b2 = incidence(sk.n_nodes)
            for e_min in (3, 5, 8):
                scores = _all_edge_scores(sk, x0, w2, obs, params)
                w1 = select_edges(scores, obs, e_min)
                val = edge_subproblem_value(
                    b1, b2, x0, w1, w2,
                    params.alpha1, params.beta1, params.gamma,
                )
                best_val, _ = brute_force_edges(
                    b1, b2, x0, w2, obs,
                    params.alpha1, params.beta1, params.gamma, e_min,
                )
                assert abs(val - best_val) <= 1e-12 * max(1.0, abs(best_val))

    def test_default_mode_exceeds_budget_on_negative_scores(self):
        scores = np.array([0.0, -1.0, -0.5, 2.0, -0.1])
        w1 = select_edges(scores, np.array([0]), e_min=2)
        np.testing.assert_array_equal(w1, [1, 1, 1, 0, 1])

    def test_rejects_repeated_observed_edge(self):
        scores = np.array([0.0, -1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            select_edges(scores, [0, 0], 3)

    def test_rejects_out_of_range_observed_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            select_edges(np.zeros(5), [9], e_min=2)

    def test_rejects_budget_below_observed(self):
        with pytest.raises(ValueError, match="below"):
            select_edges(np.zeros(5), np.array([0, 1, 2]), e_min=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        """A NaN sorts last and is never negative, so it would be dropped unseen."""
        with pytest.raises(ValueError, match="scores has non-finite entries"):
            select_edges(np.array([bad, 1.0, -1.0]), [], 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 12))
    def test_budget_always_met(self, bits, e_min):
        rng = np.random.default_rng(bits)
        scores = rng.standard_normal(12)
        obs = np.flatnonzero([(bits >> i) & 1 for i in range(4)]).astype(np.int64)
        scores[obs] = 0.0
        e_min = max(e_min, obs.size)
        w1 = select_edges(scores, obs, e_min)
        negatives = int((np.delete(scores, obs) < 0.0).sum())
        assert w1.sum() == max(e_min, obs.size + negatives)
        assert np.all(w1[obs] == 1)

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
        np.testing.assert_array_equal(
            select_edges(scores, obs, e_min), _select_edges_two_branch(scores, obs, e_min)
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
        covered = np.abs(incidence(sk.n_nodes)[1]) @ w2 > 0
        covered[obs] = True
        np.testing.assert_array_equal(out[~covered], 0.0)

    def test_matches_gradient_descent_oracle(self):
        params = HyperParams(beta2=1.0, eta=10.0)
        for seed in range(4):
            sk, _, _, _, w2, obs, rng = _random_subset_instance(seed, n=5)
            x1o = rng.standard_normal((obs.size, 3))
            closed = interpolate_edge_signals(sk, w2, obs, x1o, params)
            iterative = gradient_descent_interpolation(
                incidence(sk.n_nodes)[1], w2, obs, x1o, params.beta2, params.eta
            )
            scale = max(np.linalg.norm(iterative), 1e-12)
            assert np.linalg.norm(closed - iterative) <= 1e-6 * scale

    def test_satisfies_normal_equations(self):
        params = HyperParams(beta2=2.0, eta=5.0)
        sk, _, _, _, w2, obs, rng = _random_subset_instance(7, n=6)
        x1o = rng.standard_normal((obs.size, 4))
        x = interpolate_edge_signals(sk, w2, obs, x1o, params)
        _, b2 = incidence(sk.n_nodes)
        lu = (b2 * w2.astype(float)) @ b2.T
        theta = np.zeros((sk.n_edges, sk.n_edges))
        theta[obs, obs] = 1.0
        rhs = np.zeros((sk.n_edges, 4))
        rhs[obs] = params.eta * x1o
        resid = (params.beta2 * lu + params.eta * theta) @ x - rhs
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rhs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 9),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.6),
        st.sampled_from([0.1, 1.0, 4.0]),
        st.sampled_from([0.5, 10.0, 100.0]),
    )
    def test_matches_pinv_oracle(self, n, seed, density, beta2, eta):
        rng = np.random.default_rng(seed)
        sk = build_skeleton(n)
        w2 = (rng.random(sk.n_triangles) < density).astype(np.int8)
        n_obs = int(rng.integers(1, sk.n_edges + 1))
        obs = np.sort(rng.choice(sk.n_edges, size=n_obs, replace=False)).astype(np.int64)
        x1o = rng.standard_normal((n_obs, 3))
        params = HyperParams(beta2=beta2, eta=eta)
        got = interpolate_edge_signals(sk, w2, obs, x1o, params)
        want = pinv_interpolation(incidence(n)[1], w2, obs, x1o, beta2, eta)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    def test_zero_curl_weight_matches_pinv_oracle(self):
        sk, _, _, _, w2, obs, rng = _random_subset_instance(6, n=6)
        x1o = rng.standard_normal((obs.size, 3))
        got = interpolate_edge_signals(sk, w2, obs, x1o, HyperParams(beta2=0.0))
        want = pinv_interpolation(incidence(sk.n_nodes)[1], w2, obs, x1o, 0.0, 10.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", ["eta-0", "no-triangles", "no-observed-triangle"])
    def test_decoupled_cases_run_no_solve(self, case, monkeypatch):
        """eta = 0 gives zeros; no active triangle on an observed edge
        gives x1_obs on the observed rows and zeros elsewhere."""
        sk = build_skeleton(6)
        obs = np.array([0, 1, 2], dtype=np.int64)  # edges (0,1), (0,2), (0,3)
        w2 = np.zeros(sk.n_triangles, dtype=np.int8)
        if case == "no-observed-triangle":
            w2[[triangle_index(sk, 1, 2, 3), triangle_index(sk, 3, 4, 5)]] = 1
        x1o = np.random.default_rng(8).standard_normal((obs.size, 4))
        params = HyperParams(eta=0.0) if case == "eta-0" else HyperParams()
        want = pinv_interpolation(
            incidence(sk.n_nodes)[1], w2, obs, x1o, params.beta2, params.eta
        )
        for name in ("eigh", "solve"):
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name: pytest.fail(f"{_n} called"))
        got = interpolate_edge_signals(sk, w2, obs, x1o, params)
        expected = np.zeros_like(got)
        if case != "eta-0":
            expected[obs] = x1o
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_gram_blocks_equal_the_dense_products(self, n, seed, density, observed):
        """The scattered blocks are B2 diag(w2) B2^T on U x U, U x O and
        O x O exactly, U and O the unobserved and observed edges of the
        active triangles."""
        rng = np.random.default_rng(seed)
        sk = build_skeleton(n)
        w2 = (rng.random(sk.n_triangles) < density).astype(np.int8)
        obs = np.flatnonzero(rng.random(sk.n_edges) < observed)
        incident = edge_coverage(sk, w2) > 0
        is_obs = np.zeros(sk.n_edges, dtype=bool)
        is_obs[obs] = True
        u_rows, o_rows = np.flatnonzero(incident & ~is_obs), np.flatnonzero(incident & is_obs)
        dense = upper_gram(incidence(n)[1], w2)
        got = _gram_blocks(sk, np.flatnonzero(w2), u_rows, o_rows)
        want = (
            dense[np.ix_(u_rows, u_rows)], dense[np.ix_(u_rows, o_rows)],
            dense[np.ix_(o_rows, o_rows)],
        )
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_observations(self, bad):
        sk, _, _, _, w2, obs, rng = _random_subset_instance(2)
        x1o = rng.standard_normal((obs.size, 3))
        x1o[1, 2] = bad
        with pytest.raises(ValueError, match="x1_obs has non-finite entries"):
            interpolate_edge_signals(sk, w2, obs, x1o, HyperParams())

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
            ours = _full_objective(sk, x0, x1, w1, w2, obs, x1o, params)
            ref = full_objective(*incidence(sk.n_nodes), x0, x1, w1, w2, obs, x1o, params)
            assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_triangle_block_decomposition(self):
        """objective == sum_t w2_t * score_t + terms independent of w2"""
        params = HyperParams()
        sk, x0, x1, w1, w2, obs, rng = _random_subset_instance(2)
        x1o = rng.standard_normal((obs.size, 3))
        s2 = _all_triangle_scores(sk, x1, w1, params)
        b1, _ = incidence(sk.n_nodes)
        diffs = b1.T @ x0
        smooth = np.einsum("ij,ij->i", diffs, diffs)
        resid = x1[obs] - x1o
        rest = (
            params.alpha1 * w1.sum()
            + params.beta1 * smooth @ w1.astype(float)
            + params.eta * np.sum(resid * resid)
        )
        total = _full_objective(sk, x0, x1, w1, w2, obs, x1o, params)
        np.testing.assert_allclose(total, s2 @ w2.astype(float) + rest, rtol=1e-12)

    def test_edge_block_decomposition(self):
        """objective == sum_unobserved w1_l * score_l + terms independent
        of the free edge indicators"""
        params = HyperParams()
        sk, x0, x1, w1, w2, obs, rng = _random_subset_instance(3)
        w1 = w1.astype(float)
        w1[obs] = 1.0
        x1o = rng.standard_normal((obs.size, 3))
        s1 = _all_edge_scores(sk, x0, w2, obs, params)
        b1, b2 = incidence(sk.n_nodes)
        diffs = b1.T @ x0
        smooth = np.einsum("ij,ij->i", diffs, diffs)
        curl = b2.T @ x1
        curl_e = np.einsum("ij,ij->i", curl, curl)
        cover = np.abs(b2) @ w2.astype(float)
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
        total = _full_objective(sk, x0, x1, w1, w2, obs, x1o, params)
        np.testing.assert_allclose(total, s1[unobs] @ w1[unobs] + rest, rtol=1e-12)


class TestIndicatorInputs:
    @pytest.mark.parametrize(
        "value", [0.5, 1e-6, -1.0, 2.0], ids=lambda value: f"interpolate-w2-{value}"
    )
    def test_non_binary_indicator_rejected(self, value):
        """The one public block solve that takes an indicator refuses any
        entry other than 0 and 1."""
        sk, _, x1, _, w2, obs, _ = _random_subset_instance(5)
        w = w2.astype(float)
        w[0] = 1.0
        interpolate_edge_signals(sk, w, obs, x1[obs], HyperParams())
        w[0] = value
        with pytest.raises(ValueError, match="w2 must be binary"):
            interpolate_edge_signals(sk, w, obs, x1[obs], HyperParams())


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


@pytest.mark.parametrize("name", ["alpha1", "alpha2", "beta1", "beta2", "gamma", "eta"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")], ids=["neg", "nan", "inf"])
def test_weights_must_be_finite_and_nonnegative(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0 and finite"):
        HyperParams(**{name: value})
    assert getattr(HyperParams(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("name", ["e_min", "t_min"])
@pytest.mark.parametrize(
    "value, kind", [(313.7, "float"), (True, "bool"), (np.float64(3.0), "float64")],
    ids=["float", "bool", "np-float"],
)
def test_counts_must_be_integers(name, value, kind):
    """A fractional or boolean budget is refused, not truncated by one
    method and rejected by another; numpy integers are accepted."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {kind}$"):
        HyperParams(**{name: value})
    assert getattr(HyperParams(**{name: np.int64(3)}), name) == 3


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
            sel = state.selection
            assert evaluate(truth.skeleton, sel, truth.selection).closure_violations == 0

    def test_converged_state_is_a_fixpoint(self):
        truth, signals, hp = _learn_instance(3)
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        assert state.converged and state.pruned_triangles == 0
        sk = truth.skeleton
        w1 = state.selection.w1.astype(float)
        s2 = _all_triangle_scores(sk, state.x1_est, w1, hp)
        w2_next = select_triangles(s2, hp.t_min, bucket_width(state.x1_est, hp))
        np.testing.assert_array_equal(w2_next, state.selection.w2)
        s1 = _all_edge_scores(sk, signals.x0, w2_next, signals.observed_edges, hp)
        w1_next = select_edges(s1, signals.observed_edges, hp.e_min)
        np.testing.assert_array_equal(w1_next, state.selection.w1)

    def test_trace_matches_public_objective(self):
        """The objective the run takes from its memo of curl energies
        equals the one taken from every candidate's energy, bit for bit."""
        truth, signals, hp = _learn_instance(3)
        sk, obs = truth.skeleton, signals.observed_edges
        state = run_greedy_scl(sk, signals.x0, signals.x1_obs, obs, hp)
        assert state.converged and state.pruned_triangles == 0
        sel = state.selection
        assert state.objective_trace[-1] == _full_objective(
            sk, signals.x0, state.x1_est, sel.w1, sel.w2, obs, signals.x1_obs, hp
        )

    def test_one_energy_pass_per_interpolation(self, monkeypatch):
        """One interpolation per distinct w2 and one smoothness pass: a run
        that converges after k iterations sees the start w2 = 0 and k - 1
        distinct triangle sets after it. Under each interpolation's
        signals every candidate's curl energy is computed at most once,
        and fewer than all of them are."""
        truth, signals, hp = _learn_instance(3)
        sk = truth.skeleton
        calls = {"edge_gradient": 0, "interpolate_edge_signals": 0}
        scored = []
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(learner, name)):
                calls[_name] += 1
                if _name == "interpolate_edge_signals":
                    scored.append([])
                return _fn(*args)

            monkeypatch.setattr(learner, name, counted)

        def recorded(skeleton, x1, triangles):
            scored[-1].append(triangles)
            return _curl_energy(skeleton, x1, triangles)

        monkeypatch.setattr(learner, "_curl_energy", recorded)
        state = run_greedy_scl(sk, signals.x0, signals.x1_obs, signals.observed_edges, hp)
        assert state.converged and state.pruned_triangles == 0 and state.iterations_run > 1
        k = state.iterations_run
        assert calls == {"edge_gradient": 1, "interpolate_edge_signals": k}
        assert len(scored) == k
        for passes in scored:
            triangles = np.concatenate(passes)
            assert np.unique(triangles).size == triangles.size < sk.n_triangles

    def test_eigh_only_on_the_unobserved_block(self, monkeypatch):
        """Every eigendecomposition is |U| x |U|, U the unobserved edges
        of the active triangles, and none runs at w2 = 0."""
        truth, signals, hp = _learn_instance(5, n_nodes=10)
        sk, obs = truth.skeleton, signals.observed_edges
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            seen[-1][1].append(a.shape)
            return eigh(a)

        def recording_interpolate(skeleton, w2, *args):
            touched = edge_coverage(skeleton, w2) > 0
            touched[obs] = False
            seen.append((int(np.sum(w2)), [], int(touched.sum())))
            return interpolate_edge_signals(skeleton, w2, *args)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(learner, "interpolate_edge_signals", recording_interpolate)
        run_greedy_scl(sk, signals.x0, signals.x1_obs, obs, hp)
        assert seen[0] == (0, [], 0)
        assert any(shapes for _, shapes, _ in seen)
        for active, shapes, n_unobserved in seen:
            assert shapes == ([(n_unobserved, n_unobserved)] if active else [])

    @pytest.mark.parametrize(
        "noise, seed", [(0.0, 1017), (0.0, 1019), (0.05, 1019), (0.1, 1013)]
    )
    def test_selection_immune_to_rounding(self, noise, seed, monkeypatch):
        """Scaling every interpolated signal by (1 + 1e-12 N(0, 1)) leaves
        the selection unchanged on noise-sweep cells whose exact score
        ties rounding used to break."""
        truth, signals, hp = _learn_instance(
            seed, n_nodes=20, edge_prob=0.4, n_node_signals=100, n_edge_signals=100,
            node_noise_std=noise, edge_noise_std=0.0, observed_fraction=0.8,
        )
        args = (truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp)
        reference = run_greedy_scl(*args).selection
        rng = np.random.default_rng(seed)

        def perturbed(*a):
            out = interpolate_edge_signals(*a)
            return out * (1.0 + 1e-12 * rng.standard_normal(out.shape))

        monkeypatch.setattr(learner, "interpolate_edge_signals", perturbed)
        selection = run_greedy_scl(*args).selection
        np.testing.assert_array_equal(selection.w1, reference.w1)
        np.testing.assert_array_equal(selection.w2, reference.w2)

    def test_single_iteration_cap(self, monkeypatch):
        truth, signals, hp = _learn_instance(1)
        monkeypatch.setattr(learner, "MAX_ITERS", 1)
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        assert state.iterations_run == 1
        assert state.iterations_run == len(state.objective_trace)
        assert not state.converged

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

    def test_edge_phase_times_the_edge_selection(self, monkeypatch):
        """``edge_select`` covers the selection as well as the scores."""
        truth, signals, hp = _learn_instance(4)

        def slow_select_edges(*args):
            time.sleep(0.01)
            return select_edges(*args)

        monkeypatch.setattr(learner, "select_edges", slow_select_edges)
        state = run_greedy_scl(
            truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp
        )
        assert state.phase_seconds["edge_select"] >= 0.01 * state.iterations_run


# The bucket-boundary rule of the whole-loop comparison, fixed before any
# draw was compared. The reference interpolates by a full pseudoinverse and
# the package by a Schur solve, so their signals differ by about 1e-13
# relative, and a score s and the width q with them. A key round(s / q) is
# settled when s / q lies further than KEY_SLACK + WIDTH_SLACK * |s / q|
# from a bucket boundary (a half-integer). KEY_SLACK bounds the curl
# energy's error in units of q (the note on SCORE_QUANTUM: 7e-12 * M
# against q >= 9e-9 * beta2 * M); WIDTH_SLACK bounds the relative
# difference of the two widths, each taken from the largest row energy, ten
# times over. A draw in which the reference meets an unsettled key within
# one key of a cut may legitimately select otherwise: if it does, it is
# rejected. Every other draw must match exactly.
KEY_SLACK = 1e-3
WIDTH_SLACK = 1e-12
WEIGHTS = ("alpha1", "alpha2", "beta1", "beta2", "gamma", "eta")


def _loop_case(n, seed, weights, amp, observed_share, e_share, t_share):
    """A GreedySCL input on ``n`` nodes: Gaussian signals whose rows are
    zero, tiny (1e-6) or of scale ``amp``, so that curl energies fall
    below, inside and beyond a tier's ``gamma`` step; at least one
    observed edge, and budgets anywhere in their ranges."""
    sk = build_skeleton(n)
    rng = np.random.default_rng(seed)
    n_obs = max(1, round(observed_share * sk.n_edges))
    observed = np.sort(rng.choice(sk.n_edges, size=n_obs, replace=False)).astype(np.int64)
    x0, x1_obs = (
        rng.choice([0.0, 1e-6, amp], size=(rows, 1)) * rng.standard_normal((rows, cols))
        for rows, cols in ((n, int(rng.integers(1, 5))), (n_obs, int(rng.integers(1, 5))))
    )
    params = HyperParams(
        **dict(zip(WEIGHTS, weights)),
        e_min=n_obs + round(e_share * (sk.n_edges - n_obs)),
        t_min=round(t_share * sk.n_triangles),
    )
    return sk, x0, x1_obs, observed, params


_LOOP_CASES = st.builds(
    _loop_case,
    st.integers(3, 12),
    st.integers(0, 2**32 - 1),
    st.tuples(*[st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0])] * len(WEIGHTS)),
    st.sampled_from([0.1, 1.0, 4.0]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


class TestWholeLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(_LOOP_CASES)
    # A cut that tier 0 alone sets between the floors of tiers 1 and 2, which
    # a tier stop one tier early misses.
    @example(_loop_case(9, 1, (0.0, 0.0, 0.0, 1e-3, 1e-3, 1e-3), 4.0, 0.6875, 0.0, 0.5))
    def test_matches_the_plain_loop(self, case):
        """GreedySCL selects, iterates, prunes and interpolates as the plain
        loop of ``oracles.reference_greedy_scl`` does, which scores every
        candidate and re-interpolates by a pseudoinverse every time."""
        sk, x0, x1_obs, observed, params = case
        got = run_greedy_scl(sk, x0, x1_obs, observed, params)
        ref = reference_greedy_scl(
            sk.n_nodes, x0, x1_obs, observed, params, max_iters=learner.MAX_ITERS,
            score_quantum=learner.SCORE_QUANTUM, pinv_tol=topology._GRAM_CUTOFF,
        )
        event(f"highest tier selected: {max(ref['tiers'])}")
        event(f"zero weights: {sum(getattr(params, name) == 0.0 for name in WEIGHTS)}")
        event(f"pruned: {ref['pruned'] > 0}, converged: {ref['converged']}")
        near = np.concatenate([np.zeros(0), *ref["cut_values"]])
        margin = 0.5 - np.abs(near - np.round(near))
        slack = margin - KEY_SLACK - WIDTH_SLACK * np.abs(near)
        atol = 1e-12 * params.eta * np.sum(x1_obs**2)
        same = (
            np.array_equal(got.selection.w1, ref["w1"])
            and np.array_equal(got.selection.w2, ref["w2"])
            and got.iterations_run == ref["iterations_run"]
            and np.allclose(got.objective_trace, ref["trace"], rtol=1e-9, atol=atol)
        )
        if not same and (slack < 0.0).any():
            reject()
        assert same, (
            f"differs from the plain loop: iterations {got.iterations_run} vs "
            f"{ref['iterations_run']}, traces {got.objective_trace} vs {ref['trace']}, "
            f"bucket margin {margin.min(initial=np.inf):.3g} q"
        )
        assert got.converged == ref["converged"]
        assert got.pruned_triangles == ref["pruned"]
        np.testing.assert_allclose(
            got.x1_est, ref["x1"], rtol=0.0, atol=1e-9 * max(1.0, np.abs(x1_obs).max())
        )
