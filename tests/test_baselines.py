"""Baseline behavior: decoupled greedy pass and correlation thresholding."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import incidence
from scinfer.baselines import METHODS, _node_correlations, run_rc, run_sep_scl
from scinfer.evaluation import evaluate
from scinfer.learner import (
    HyperParams,
    _objective,
    _triangle_scores,
    bucket_width,
    select_triangles,
)
from scinfer.synth import InstanceParams, generate_instance
from scinfer.topology import (
    _curl_energy,
    _edge_rank,
    _row_energy,
    _triangle_rank,
    build_skeleton,
    edge_gradient,
    missing_edges,
    prune_open_triangles,
)


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
            report = evaluate(truth.skeleton, state.selection, truth.selection)
            assert report.closure_violations == 0

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
        b1, _ = incidence(sk.n_nodes)
        diffs = b1.T @ signals.x0
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
        """The objective SepSCL takes from the curl energies of its
        candidates equals the one taken from every candidate's energy of
        the zero-filled signals, bit for bit."""
        truth, signals, hp = _instance(3)
        sk, obs = truth.skeleton, signals.observed_edges
        state = run_sep_scl(sk, signals.x0, signals.x1_obs, obs, hp)
        sel, x1_filled = state.selection, state.x1_est
        smoothness = _row_energy(edge_gradient(sk, signals.x0))
        energy = _curl_energy(sk, x1_filled, np.arange(sk.n_triangles))
        assert state.objective_trace[0] == _objective(
            sk, smoothness, energy, x1_filled, sel.w1, sel.w2, obs,
            signals.x1_obs, replace(hp, gamma=0.0),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_selection_matches_full_ranking(self, data):
        """The triangles and the pruned count equal those of ranking every
        candidate's public score, whether the ranked prefix ends at the
        t_min-th triangle with no observed edge or, with fewer such
        triangles, runs over every candidate."""
        n = data.draw(st.integers(4, 12), label="n")
        truth, signals, _ = _instance(
            data.draw(st.integers(0, 2**16), label="seed"),
            n_nodes=n,
            edge_prob=data.draw(st.sampled_from([0.3, 0.6, 1.0]), label="edge_prob"),
            n_node_signals=5,
            n_edge_signals=5,
            observed_fraction=data.draw(st.sampled_from([0.2, 0.6, 1.0]), label="observed"),
        )
        sk, obs = truth.skeleton, signals.observed_edges
        hp = HyperParams(
            alpha2=data.draw(st.sampled_from([0.0, 1e-3, 1.0]), label="alpha2"),
            beta2=data.draw(st.sampled_from([0.0, 1.0]), label="beta2"),
            # Often every edge, so that no prune hides a wrong pick.
            e_min=data.draw(
                st.one_of(st.just(sk.n_edges), st.integers(0, sk.n_edges)), label="e_min"
            ),
            t_min=data.draw(st.integers(0, sk.n_triangles), label="t_min"),
        )
        state = run_sep_scl(sk, signals.x0, signals.x1_obs, obs, hp)
        decoupled = replace(hp, gamma=0.0)
        x1, w1 = state.x1_est, state.selection.w1
        energy = _curl_energy(sk, x1, np.arange(sk.n_triangles))
        scores = _triangle_scores(energy, missing_edges(sk, w1), decoupled)
        w2 = select_triangles(scores, hp.t_min, bucket_width(x1, decoupled))
        w2, pruned = prune_open_triangles(sk, w1, w2)
        np.testing.assert_array_equal(state.selection.w2, w2)
        assert state.pruned_triangles == pruned
        observed = np.zeros(sk.n_edges)
        observed[obs] = 1
        zero_curl = int(np.sum(missing_edges(sk, observed) == 3))
        event("full pass" if zero_curl < hp.t_min else "prefix")

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
            _triangle_rank(6, 0, 1, 2),
            _triangle_rank(6, 0, 1, 3),
            _triangle_rank(6, 0, 2, 3),
            _triangle_rank(6, 1, 2, 3),
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
        assert np.flatnonzero(sel.w1).tolist() == [_edge_rank(4, 2, 3)]

    def test_output_always_closed(self):
        sk = build_skeleton(7)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x0 = rng.standard_normal((7, 15))
            sel = _rc(sk, x0, int(rng.integers(0, 22)), 3)
            assert evaluate(sk, sel, sel).closure_violations == 0

    @pytest.mark.parametrize("t_min", [-1, 5])
    def test_rejects_t_min_out_of_range(self, t_min):
        sk = build_skeleton(4)
        x0 = np.random.default_rng(2).standard_normal((4, 10))
        with pytest.raises(ValueError, match=r"t_min must be in \[0, 4\]"):
            _rc(sk, x0, 6, t_min)
        assert int(_rc(sk, x0, 6, sk.n_triangles).w2.sum()) == 4


# Malformed variants of a valid method call: (skeleton, x0, x1_obs,
# observed_edges, params) -> the same five arguments, and the message.
_BAD_INPUTS = {
    "reversed-observed": (
        lambda sk, x0, x1, obs, hp: (sk, x0, x1, obs[::-1], hp), "strictly increasing"
    ),
    "observed-minus-one": (
        lambda sk, x0, x1, obs, hp: (sk, x0, x1, np.r_[-1, obs[1:]], hp), "out of range"
    ),
    "observed-n-edges": (
        lambda sk, x0, x1, obs, hp: (sk, x0, x1, np.r_[obs[:-1], sk.n_edges], hp), "out of range"
    ),
    "x1-obs-one-row": (
        lambda sk, x0, x1, obs, hp: (sk, x0, x1[:1], obs, hp), r"x1_obs must be 2-d with \d+ rows"
    ),
    "x1-obs-1d": (lambda sk, x0, x1, obs, hp: (sk, x0, x1[:, 0], obs, hp), "x1_obs must be 2-d"),
    "x0-wrong-rows": (
        lambda sk, x0, x1, obs, hp: (sk, x0[:-1], x1, obs, hp), "x0 must be 2-d with 8 rows"
    ),
    "budgets-unset": (lambda sk, x0, x1, obs, hp: (sk, x0, x1, obs, HyperParams()), "must be set"),
}


class TestMethods:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_output_is_downward_closed(self, method):
        """No method returns an active triangle that misses an edge.

        The second budget pair (e_min = |observed|, half of all triangles,
        a weak closure weight) leaves open triangles before the final
        prune of GreedySCL and SepSCL, so their prune path runs. RC fills
        only 3-cliques of its own edge set and never has one to prune.
        """
        pruned = []
        for seed in range(3):
            truth, signals, hp = _instance(seed)
            sk, obs = truth.skeleton, signals.observed_edges
            tight = replace(hp, e_min=obs.size, t_min=sk.n_triangles // 2, gamma=1.0)
            for params in (hp, tight):
                state = METHODS[method](sk, signals.x0, signals.x1_obs, obs, params)
                assert evaluate(sk, state.selection, truth.selection).closure_violations == 0
                pruned.append(state.pruned_triangles)
        assert (max(pruned) > 0) == (method != "RC")

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_bad_inputs_rejected(self, method, case):
        truth, signals, hp = _instance(0)
        edit, match = _BAD_INPUTS[case]
        args = edit(truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, hp)
        with pytest.raises(ValueError, match=match):
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
