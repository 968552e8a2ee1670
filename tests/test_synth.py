"""Statistical and structural tests for the instance generator."""

import io
import itertools
import math
import pickle
import re
from collections import deque
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import incidence
from scinfer.synth import (
    GenerationError,
    InstanceParams,
    _connected,
    fill_triangles,
    gen_low_curl_edge_signals,
    gen_smooth_node_signals,
    generate_instance,
    read_dataset,
    read_matrix_npy,
    sample_er_selection,
    sample_observed_edges,
    write_dataset,
    write_matrix_npy,
)
from scinfer.topology import (
    MAX_NODES,
    b2_block,
    build_skeleton,
    edge_index,
    hodge_decompose,
    missing_edges,
    node_laplacian,
)


def _er_instance(seed, n=10, p=0.5):
    sk = build_skeleton(n)
    rng = np.random.default_rng(seed)
    w1 = sample_er_selection(sk, p, rng)
    w2 = fill_triangles(sk, w1, 0.5, rng).w2
    return sk, w1, w2, rng


class TestErSelection:
    def test_density_near_p_conditional_on_connectivity(self):
        sk = build_skeleton(20)
        densities = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            w1 = sample_er_selection(sk, 0.4, rng)
            densities.append(w1.sum() / sk.n_edges)
        mean = float(np.mean(densities))
        assert 0.34 <= mean <= 0.46, f"mean density {mean} outside MC envelope"

    def test_p_zero_fails_after_max_attempts(self):
        sk = build_skeleton(5)
        with pytest.raises(GenerationError, match="1000 attempts"):
            sample_er_selection(sk, 0.0, np.random.default_rng(0))

    def test_p_one_gives_complete_graph(self):
        sk = build_skeleton(6)
        w1 = sample_er_selection(sk, 1.0, np.random.default_rng(0))
        assert w1.sum() == sk.n_edges

    def test_rejects_bad_probability(self):
        sk = build_skeleton(4)
        with pytest.raises(ValueError):
            sample_er_selection(sk, 1.5, np.random.default_rng(0))

    def test_connectivity_matches_reference_bfs(self):
        rng = np.random.default_rng(9)
        outcomes = set()
        for n in (2, 3, 6, 12, 20):
            sk = build_skeleton(n)
            edges = list(itertools.combinations(range(n), 2))
            for p in (0.05, 0.2, 0.4):
                for _ in range(15):
                    w1 = (rng.random(sk.n_edges) < p).astype(np.int8)
                    adj = {u: [] for u in range(n)}
                    for e in np.flatnonzero(w1):
                        i, j = edges[e]
                        adj[i].append(j)
                        adj[j].append(i)
                    seen, queue = {0}, deque([0])
                    while queue:
                        for v in adj[queue.popleft()]:
                            if v not in seen:
                                seen.add(v)
                                queue.append(v)
                    expected = len(seen) == n
                    assert _connected(sk, w1) == expected
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_connectivity_decided_at_the_smallest_spectral_gap(self):
        """At n = MAX_NODES the path has the smallest lambda_2 of any
        connected graph, 2 - 2 cos(pi / n); removing one of its edges or
        isolating a vertex leaves a second zero eigenvalue."""
        n = MAX_NODES
        sk = build_skeleton(n)
        path = np.zeros(sk.n_edges, dtype=np.int8)
        path[[edge_index(sk, i, i + 1) for i in range(n - 1)]] = 1
        assert _connected(sk, path)
        cut = path.copy()
        cut[edge_index(sk, n // 2, n // 2 + 1)] = 0
        assert not _connected(sk, cut)
        isolated = np.ones(sk.n_edges, dtype=np.int8)
        isolated[[edge_index(sk, i, n - 1) for i in range(n - 1)]] = 0
        assert not _connected(sk, isolated)

    def test_deterministic_given_seed(self):
        sk = build_skeleton(12)
        a = sample_er_selection(sk, 0.3, np.random.default_rng(42))
        b = sample_er_selection(sk, 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


def _fill_triangles_per_draw(skeleton, w1, fraction, rng):
    """The fill rule with its identifiability test rebuilt from fresh
    ``b2_block`` calls and an SVD on every draw, and a zero fill
    returned before any draw; also returns the number of draws and
    whether the kept draw passed."""
    unsigned = np.abs(incidence(skeleton.n_nodes)[1])
    eligible = np.flatnonzero(unsigned.T @ (np.asarray(w1) != 0) == 3)
    count = math.floor(fraction * eligible.size)
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    if count == 0:
        return w2, 0, True
    active = np.flatnonzero(w1)
    for draws in range(1, 201):
        w2[:] = 0
        w2[rng.choice(eligible, size=count, replace=False)] = 1
        filled, spurious = eligible[w2[eligible] == 1], eligible[w2[eligible] == 0]
        if spurious.size == 0:
            break
        u, sv, _ = np.linalg.svd(b2_block(skeleton, active, filled), full_matrices=False)
        u = u[:, : int((sv > 1e-10 * sv[0]).sum())]
        probe = b2_block(skeleton, active, spurious)
        if (np.linalg.norm(probe - u @ (u.T @ probe), axis=0) > 1e-8).all():
            break
    else:
        return w2, draws, False
    return w2, draws, True


class TestFillTriangles:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(4, 14),
        st.floats(0.3, 0.6),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_draw_reference(self, n, edge_prob, fraction, seed):
        sk = build_skeleton(n)
        rng = np.random.default_rng(seed)
        w1 = (rng.random(sk.n_edges) < edge_prob).astype(np.int8)
        ref_rng = np.random.default_rng(seed + 1)
        new_rng = np.random.default_rng(seed + 1)
        expected, draws, identifiable = _fill_triangles_per_draw(sk, w1, fraction, ref_rng)
        event("no draw" if draws == 0 else "one draw" if draws == 1 else "several draws")
        fill = fill_triangles(sk, w1, fraction, new_rng)
        np.testing.assert_array_equal(fill.w2, expected)
        assert (fill.draws, fill.identifiable) == (draws, identifiable)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "n, edge_prob, seed, draws, identifiable",
        [
            pytest.param(20, 0.4, 1010, 2, True, id="n20-passes-on-draw-2"),
            pytest.param(20, 0.4, 1000, 200, False, id="n20-all-200-draws-fail"),
            pytest.param(30, 0.3, 3000, 69, True, id="n30-passes-on-draw-69"),
        ],
    )
    def test_matches_per_draw_reference_at_larger_sizes(
        self, n, edge_prob, seed, draws, identifiable
    ):
        """Fixed connected instances at the sizes the sampled test above
        does not reach, each filled at fraction 0.5: every draw's decision
        and the kept fill match the SVD reference."""
        sk = build_skeleton(n)
        w1 = sample_er_selection(sk, edge_prob, np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed + 1)
        new_rng = np.random.default_rng(seed + 1)
        expected, *outcome = _fill_triangles_per_draw(sk, w1, 0.5, ref_rng)
        assert tuple(outcome) == (draws, identifiable)
        fill = fill_triangles(sk, w1, 0.5, new_rng)
        np.testing.assert_array_equal(fill.w2, expected)
        assert (fill.draws, fill.identifiable) == (draws, identifiable)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_reports_a_fill_no_draw_passes(self):
        """With nine of K5's ten triangles filled, the tenth and any
        fourth vertex bound a tetrahedron whose other three faces are
        filled, so every draw fails and the last is kept, flagged."""
        sk = build_skeleton(5)
        w1 = np.ones(sk.n_edges, dtype=np.int8)
        expected, draws, identifiable = _fill_triangles_per_draw(
            sk, w1, 0.9, np.random.default_rng(4)
        )
        fill = fill_triangles(sk, w1, 0.9, np.random.default_rng(4))
        assert (fill.draws, fill.identifiable) == (draws, identifiable) == (200, False)
        np.testing.assert_array_equal(fill.w2, expected)
        np.testing.assert_array_equal(np.asarray(fill), expected)

    def test_closure_and_count(self):
        for seed in range(10):
            sk, w1, w2, _ = _er_instance(seed)
            unsigned = np.abs(incidence(sk.n_nodes)[1])
            eligible = np.flatnonzero(unsigned.T @ w1.astype(float) == 3.0)
            assert w2.sum() == math.floor(0.5 * eligible.size)
            # every filled triangle is eligible
            assert np.all(w2[np.setdiff1d(np.arange(sk.n_triangles), eligible)] == 0)

    def test_extreme_fractions(self):
        sk, w1, _, rng = _er_instance(3)
        unsigned = np.abs(incidence(sk.n_nodes)[1])
        eligible = int(np.sum(unsigned.T @ w1.astype(float) == 3.0))
        assert fill_triangles(sk, w1, 0.0, rng).w2.sum() == 0
        assert fill_triangles(sk, w1, 1.0, rng).w2.sum() == eligible

    def test_rejects_bad_fraction(self):
        sk, w1, _, rng = _er_instance(1)
        with pytest.raises(ValueError):
            fill_triangles(sk, w1, 1.2, rng)

    def test_prefers_identifiable_fills(self):
        """On moderate instances, no unfilled eligible triangle has a
        boundary inside the span of the filled boundaries (otherwise it
        would mimic a filled triangle through any low-curl flow). The
        check here is an independent matrix_rank recomputation."""
        found_spurious_cases = 0
        for seed in range(12):
            sk, w1, w2, _ = _er_instance(seed, n=12, p=0.45)
            active = np.flatnonzero(w1)
            filled = np.flatnonzero(w2)
            _, b2 = incidence(sk.n_nodes)
            eligible = np.abs(b2).T @ w1.astype(float) == 3.0
            spurious = np.flatnonzero(eligible & (w2 == 0))
            if filled.size == 0 or spurious.size == 0:
                continue
            found_spurious_cases += 1
            base = b2[np.ix_(active, filled)]
            base_rank = np.linalg.matrix_rank(base)
            for u in spurious:
                grown = np.hstack([base, b2[active, u][:, None]])
                assert np.linalg.matrix_rank(grown) == base_rank + 1
        assert found_spurious_cases >= 8


class TestSmoothNodeSignals:
    def test_smoother_than_white_noise(self):
        """Inverse-spectrum filtering must beat white noise on the
        Laplacian quadratic form with clear statistical significance.

        Measured mean ratio on ER(20, 0.4) is ~0.91 (dense ER spectra
        are nearly flat, so the gain is real but modest)."""
        sk = build_skeleton(20)
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w1 = sample_er_selection(sk, 0.4, rng)
            l0 = node_laplacian(sk, w1.astype(float))
            x = gen_smooth_node_signals(sk, w1, 100, 0.0, rng)
            white = rng.standard_normal(x.shape)
            white /= np.linalg.norm(white, axis=0, keepdims=True)
            smooth_q = np.trace(x.T @ l0 @ x)
            white_q = np.trace(white.T @ l0 @ white)
            ratios.append(smooth_q / white_q)
        mean = float(np.mean(ratios))
        stderr = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))
        assert mean + 3 * stderr < 1.0, f"ratio {mean} +- {stderr} not significantly below 1"
        assert mean < 0.97

    def test_unit_columns_when_noiseless(self):
        sk, w1, _, rng = _er_instance(4)
        x = gen_smooth_node_signals(sk, w1, 50, 0.0, rng)
        np.testing.assert_allclose(np.linalg.norm(x, axis=0), 1.0, atol=1e-12)

    def test_filter_drops_exactly_the_kernel(self):
        """On a graph of two components, a 20-node path and a 20-node
        cycle, noiseless signals sum to zero on each component, so the
        filter drops both kernel directions, and they span the rest, so
        it keeps every other eigenvalue, the path's smallest at 6.2e-3
        times the largest included."""
        sk = build_skeleton(MAX_NODES)
        w1 = np.zeros(sk.n_edges, dtype=np.int8)
        for i in range(19):
            w1[edge_index(sk, i, i + 1)] = w1[edge_index(sk, 20 + i, 21 + i)] = 1
        w1[edge_index(sk, 20, 39)] = 1
        x = gen_smooth_node_signals(sk, w1, 60, 0.0, np.random.default_rng(3))
        for component in (slice(0, 20), slice(20, 40)):
            assert np.abs(x[component].sum(axis=0)).max() <= 1e-12
        assert np.linalg.matrix_rank(x) == sk.n_nodes - 2

    def test_noise_second_moment(self):
        """Same seed with and without noise isolates the noise draw."""
        sk = build_skeleton(20)
        rng = np.random.default_rng(9)
        w1 = sample_er_selection(sk, 0.4, rng)
        sigma = 0.3
        clean = gen_smooth_node_signals(sk, w1, 100, 0.0, np.random.default_rng(77))
        noisy = gen_smooth_node_signals(sk, w1, 100, sigma, np.random.default_rng(77))
        energy = np.sum((noisy - clean) ** 2)
        expected = sk.n_nodes * 100 * sigma**2
        assert abs(energy - expected) <= 0.15 * expected


class TestLowCurlEdgeSignals:
    def test_zero_atten_kills_curl(self):
        sk, w1, w2, rng = _er_instance(6)
        x1 = gen_low_curl_edge_signals(sk, w1, w2, 20, 0.0, 0.0, rng)
        active_e = np.flatnonzero(w1)
        active_t = np.flatnonzero(w2)
        b2a = incidence(sk.n_nodes)[1][np.ix_(active_e, active_t)]
        assert np.abs(b2a.T @ x1[active_e]).max() <= 1e-8

    def test_inactive_rows_exactly_zero(self):
        """Noise lands on the active rows only: it is the draw after the
        white one, scaled by noise_std."""
        sk, w1, w2, _ = _er_instance(8)
        noisy = gen_low_curl_edge_signals(sk, w1, w2, 10, 0.3, 0.1, np.random.default_rng(8))
        clean = gen_low_curl_edge_signals(sk, w1, w2, 10, 0.3, 0.0, np.random.default_rng(8))
        inactive = np.flatnonzero(w1 == 0)
        np.testing.assert_array_equal(noisy[inactive], 0.0)
        np.testing.assert_array_equal(clean[inactive], 0.0)
        replay = np.random.default_rng(8)
        active_e = np.flatnonzero(w1)
        replay.standard_normal((active_e.size, 10))
        noise = 0.1 * replay.standard_normal((active_e.size, 10))
        np.testing.assert_allclose(noisy[active_e] - clean[active_e], noise, rtol=0, atol=1e-12)

    def test_unit_columns_when_noiseless(self):
        sk, w1, w2, rng = _er_instance(2)
        x1 = gen_low_curl_edge_signals(sk, w1, w2, 15, 0.2, 0.0, rng)
        np.testing.assert_allclose(np.linalg.norm(x1, axis=0), 1.0, atol=1e-12)

    def test_atten_one_is_plain_white_noise(self):
        """curl_atten=1 must leave the white draw untouched up to
        normalization; replaying the rng exposes the raw draw."""
        sk, w1, w2, _ = _er_instance(5)
        state_rng = np.random.default_rng(123)
        x1 = gen_low_curl_edge_signals(sk, w1, w2, 12, 1.0, 0.0, state_rng)
        replay = np.random.default_rng(123)
        white = replay.standard_normal((int(w1.sum()), 12))
        white /= np.linalg.norm(white, axis=0, keepdims=True)
        np.testing.assert_allclose(x1[np.flatnonzero(w1)], white, atol=1e-12)

    def test_no_triangles_is_normalized_white_draw(self):
        """With no filled triangle there is no curl to attenuate, so the
        flows are the white draw, normalized per column, bit for bit."""
        sk, w1, _, _ = _er_instance(4)
        w2 = np.zeros(sk.n_triangles, dtype=np.int8)
        x1 = gen_low_curl_edge_signals(sk, w1, w2, 9, 0.05, 0.0, np.random.default_rng(77))
        white = np.random.default_rng(77).standard_normal((int(w1.sum()), 9))
        white /= np.linalg.norm(white, axis=0, keepdims=True)
        np.testing.assert_array_equal(x1[np.flatnonzero(w1)], white)

    def test_curl_fraction_scales_linearly_with_atten(self):
        """The curl/non-curl energy ratio per column scales with atten;
        per-column normalization cancels, so the ratio of ratios between
        two atten values is exact."""
        sk, w1, w2, _ = _er_instance(7)
        active_e = np.flatnonzero(w1)
        active_t = np.flatnonzero(w2)
        b2a = incidence(sk.n_nodes)[1][np.ix_(active_e, active_t)]
        u, s, _ = np.linalg.svd(b2a, full_matrices=False)
        basis = u[:, s > 1e-10 * s[0]]

        def curl_ratio(atten, seed):
            rng = np.random.default_rng(seed)
            xa = gen_low_curl_edge_signals(sk, w1, w2, 6, atten, 0.0, rng)[active_e]
            curl = basis @ (basis.T @ xa)
            rest = xa - curl
            return np.linalg.norm(curl, axis=0) / np.linalg.norm(rest, axis=0)

        r_small = curl_ratio(0.1, 55)
        r_big = curl_ratio(0.2, 55)
        np.testing.assert_allclose(r_big / r_small, 2.0, atol=1e-8)

    def test_curl_energy_scales_quadratically_across_seeds(self):
        sk, w1, w2, _ = _er_instance(9)
        active_e = np.flatnonzero(w1)
        active_t = np.flatnonzero(w2)
        b2a = incidence(sk.n_nodes)[1][np.ix_(active_e, active_t)]

        def mean_curl_energy(atten, seeds):
            vals = []
            for seed in seeds:
                rng = np.random.default_rng(seed)
                x1 = gen_low_curl_edge_signals(sk, w1, w2, 30, atten, 0.0, rng)
                vals.append(np.sum((b2a.T @ x1[active_e]) ** 2))
            return float(np.mean(vals))

        e1 = mean_curl_energy(0.1, range(100, 120))
        e2 = mean_curl_energy(0.2, range(300, 320))
        assert abs(e2 / e1 - 4.0) <= 0.8, f"curl energy ratio {e2 / e1} far from 4"

    def test_consistent_with_hodge_decomposition(self):
        """Per-column decomposition against the true complex must show
        attenuated curl relative to gradient+harmonic, matching atten."""
        sk, w1, w2, _ = _er_instance(11)
        atten = 0.25
        rng = np.random.default_rng(500)
        x1 = gen_low_curl_edge_signals(sk, w1, w2, 4, atten, 0.0, rng)
        active_e = np.flatnonzero(w1)
        replay = np.random.default_rng(500)
        white = replay.standard_normal((active_e.size, 4))
        for col in range(4):
            parts = hodge_decompose(sk, w1, w2, x1[active_e, col])
            ref = hodge_decompose(sk, w1, w2, white[:, col])
            norm_scale = np.linalg.norm(white[:, col] - (1 - atten) * ref.curl)
            np.testing.assert_allclose(
                parts.curl * norm_scale, atten * ref.curl, atol=1e-8
            )


class TestObservedEdges:
    def test_sorted_subset_with_exact_count(self):
        for seed in range(100):
            sk, w1, _, rng = _er_instance(seed, n=8)
            frac = 0.6
            obs = sample_observed_edges(sk, w1, frac, rng)
            active = np.flatnonzero(w1)
            assert obs.size == math.ceil(frac * active.size)
            assert np.all(np.diff(obs) > 0)
            assert set(obs.tolist()) <= set(active.tolist())

    def test_full_fraction_observes_everything(self):
        sk, w1, _, rng = _er_instance(13)
        obs = sample_observed_edges(sk, w1, 1.0, rng)
        np.testing.assert_array_equal(obs, np.flatnonzero(w1))

    def test_rejects_empty_graph_and_bad_fraction(self):
        rng = np.random.default_rng(0)
        sk = build_skeleton(5)
        with pytest.raises(ValueError, match="no active edges"):
            sample_observed_edges(sk, np.zeros(10), 0.5, rng)
        with pytest.raises(ValueError):
            sample_observed_edges(sk, np.ones(10), 0.0, rng)
        with pytest.raises(ValueError):
            sample_observed_edges(sk, np.ones(10), 1.5, rng)


_SHAPE, _BINARY, _OPEN = "must have shape", "must be binary", "selection is not downward closed"

# Each fault a stage must refuse in an indicator, with the message it gets.
_FAULTS = {
    "three too long": (lambda w: np.append(w, [1, 0, 1]), _SHAPE),
    "three too short": (lambda w: w[:-3], _SHAPE),
    "entries of 2": (lambda w: 2 * w, _BINARY),
    "entries of 0.5": (lambda w: 0.5 * w, _BINARY),
    "a NaN": (lambda w: np.where(np.arange(w.size) == 0, np.nan, w), _BINARY),
}

# The same binary indicator as int8, bool, float64 and a Python list.
_FORMS = (
    lambda w: w.astype(np.int8),
    lambda w: w != 0,
    lambda w: w.astype(np.float64),
    lambda w: w.tolist(),
)


class TestIndicatorChecks:
    """Every generator stage takes its indicators through
    ``topology._active_indices``: a faulty one raises that helper's shape
    or binary message (or the closure message for a ``w2`` filling a
    triangle on an inactive edge) instead of a raw IndexError or a silent
    result, and every binary form gives the same output."""

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_fill_refuses_a_faulty_w1(self, fault):
        sk, w1, _, rng = _er_instance(0, n=6)
        corrupt, message = _FAULTS[fault]
        with pytest.raises(ValueError, match=f"w1 {message}"):
            fill_triangles(sk, corrupt(w1), 0.5, rng)

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    @pytest.mark.parametrize("name", ["w1", "w2"])
    def test_flows_refuse_a_faulty_indicator(self, name, fault):
        sk, w1, w2, rng = _er_instance(3, n=6)
        assert w2.any()
        corrupt, message = _FAULTS[fault]
        args = {"w1": w1, "w2": w2}
        args[name] = corrupt(args[name])
        with pytest.raises(ValueError, match=f"{name} {message}"):
            gen_low_curl_edge_signals(sk, args["w1"], args["w2"], 4, 0.05, 0.0, rng)

    def test_flows_refuse_an_open_w2(self):
        """A triangle on an inactive edge would be cut to its active rows
        by ``b2_block``, so the flows would miss its true curl."""
        sk, w1, w2, rng = _er_instance(2, n=6)
        w2 = w2.copy()
        w2[np.flatnonzero(missing_edges(sk, w1) > 0)[0]] = 1
        with pytest.raises(ValueError, match=_OPEN):
            gen_low_curl_edge_signals(sk, w1, w2, 4, 0.05, 0.0, rng)

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_observed_edges_refuse_a_faulty_w1(self, fault):
        """The length is checked against the skeleton: a ``w1`` three
        entries too long is refused, not sampled past the candidate list."""
        sk, w1, _, rng = _er_instance(3, n=6)
        corrupt, message = _FAULTS[fault]
        with pytest.raises(ValueError, match=f"w1 {message}"):
            sample_observed_edges(sk, corrupt(w1), 0.5, rng)
        with pytest.raises(ValueError, match=f"w1 {_SHAPE}"):
            sample_observed_edges(sk, w1[None, :], 0.5, rng)

    def test_every_binary_form_gives_the_same_output(self):
        sk, w1, w2, _ = _er_instance(3, n=8)
        assert w2.any()
        runs = []
        for form in _FORMS:
            fill = fill_triangles(sk, form(w1), 0.5, np.random.default_rng(9))
            flows = gen_low_curl_edge_signals(
                sk, form(w1), form(w2), 5, 0.05, 0.1, np.random.default_rng(9)
            )
            observed = sample_observed_edges(sk, form(w1), 0.5, np.random.default_rng(9))
            runs.append((fill.w2, fill.draws, fill.identifiable, flows, observed))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                np.testing.assert_array_equal(got, want)


class TestInstanceChecks:
    @pytest.mark.parametrize("name", ["n_nodes", "n_node_signals", "n_edge_signals"])
    @pytest.mark.parametrize(
        "value, kind", [(8.0, "float"), (3.5, "float"), (True, "bool"), (np.float64(8.0), "float64")],
        ids=["float", "fraction", "bool", "np-float"],
    )
    def test_counts_must_be_integers(self, name, value, kind):
        """A count is refused where it enters, not truncated or failed on later."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {kind}$"):
            InstanceParams(**{name: value})
        assert getattr(InstanceParams(**{name: np.int64(8)}), name) == 8

    @pytest.mark.parametrize("name", ["curl_atten", "node_noise_std", "edge_noise_std"])
    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan], ids=["neg", "inf", "nan"])
    def test_scales_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            InstanceParams(**{name: value})

    @pytest.mark.parametrize(
        "seed, kind", [(0.5, "float"), (True, "bool"), (np.float64(3.0), "float64")],
        ids=["float", "bool", "np-float"],
    )
    def test_seed_must_be_an_integer(self, seed, kind):
        params = InstanceParams(n_nodes=5, n_node_signals=3, n_edge_signals=3)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {kind}$"):
            generate_instance(params, seed)
        truth, _ = generate_instance(params, np.int64(3))
        assert truth.meta["seed"] == 3 and type(truth.meta["seed"]) is int


def npy_bytes(arr, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=allow_pickle)
    return buf.getvalue()


def npz_bytes(arr):
    buf = io.BytesIO()
    np.savez(buf, a=arr)
    return buf.getvalue()


_UNREADABLE = "not a readable .npy matrix: "
BUNDLE_FILES = ("complex.json", "x0.npy", "x1_obs.npy", "observed_edges.npy", "meta.json")


class TestDatasetBundle:
    def _params(self):
        return InstanceParams(
            n_nodes=8,
            edge_prob=0.5,
            fill_fraction=0.5,
            n_node_signals=12,
            n_edge_signals=9,
            curl_atten=0.1,
            node_noise_std=0.05,
            edge_noise_std=0.02,
            observed_fraction=0.7,
        )

    def test_round_trip(self, tmp_path):
        """A bundle reads back as the pair it was written from: every array
        bit for bit, its meta the generator's, and writing that pair again
        gives the same five files."""
        params = self._params()
        truth, signals = generate_instance(params, seed=21)
        write_dataset(tmp_path / "a", truth, signals)
        back, back_signals = read_dataset(tmp_path / "a")
        for got, want in zip(
            (back_signals.x0, back_signals.x1_obs, back_signals.observed_edges,
             back.selection.w1, back.selection.w2),
            (signals.x0, signals.x1_obs, signals.observed_edges,
             truth.selection.w1, truth.selection.w2),
        ):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        write_dataset(tmp_path / "b", back, back_signals)
        for name in BUNDLE_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert back.meta == truth.meta
        assert (truth.meta["seed"], truth.meta["edge_prob"]) == (21, 0.5)
        assert type(truth.meta["fill_identifiable"]) is bool and truth.meta["fill_draws"] >= 1

    def test_numpy_scalar_params_round_trip(self, tmp_path):
        """Fields given as numpy scalars are written to meta.json as plain
        numbers of the same values, so the bundle is complete."""
        params = InstanceParams(
            n_nodes=np.int64(12),
            n_node_signals=np.int32(10),
            n_edge_signals=10,
            edge_prob=np.float32(0.6),
        )
        truth, signals = generate_instance(params, seed=3)
        write_dataset(tmp_path, truth, signals)
        meta = read_dataset(tmp_path)[0].meta
        assert meta == truth.meta
        assert {name: meta[name] for name in asdict(params)} == asdict(params)
        assert type(meta["n_nodes"]) is type(meta["n_node_signals"]) is int
        assert type(meta["edge_prob"]) is float

    def test_fraction_param_round_trip(self, tmp_path):
        """A Fraction, which the real-number rule accepts and json cannot
        encode, is written to meta.json as its float, so the bundle is
        complete and reads back."""
        params = InstanceParams(n_nodes=8, edge_prob=Fraction(1, 2))
        truth, signals = generate_instance(params, seed=3)
        write_dataset(tmp_path, truth, signals)
        back, back_signals = read_dataset(tmp_path)
        assert back.meta["edge_prob"] == 0.5 and type(back.meta["edge_prob"]) is float
        assert {name: back.meta[name] for name in asdict(params)} == asdict(params)
        np.testing.assert_array_equal(back.selection.w2, truth.selection.w2)
        np.testing.assert_array_equal(back_signals.observed_edges, signals.observed_edges)

    def test_byte_identical_across_runs(self, tmp_path):
        params = self._params()
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            truth, signals = generate_instance(params, seed=99)
            write_dataset(out, truth, signals)
            dirs.append(out)
        for fname in BUNDLE_FILES:
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes(), fname

    def test_matrix_npy_exact_round_trip(self, tmp_path):
        """Every bit survives, -0.0, subnormals and +-1e300 included, and a
        Fortran-ordered matrix is written and read back C-ordered."""
        rng = np.random.default_rng(31)
        arr = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        arr[0, :4] = [-0.0, 5e-324, -2.5e-310, np.finfo(float).tiny / 3]
        arr[1, :2] = [1e300, -1e300]
        files = []
        for order in ("C", "F"):
            path = tmp_path / f"{order}.npy"
            write_matrix_npy(path, np.array(arr, order=order))
            back = read_matrix_npy(path, np.float64, 2)
            assert back.flags.c_contiguous and back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_read_rejects_corrupt_bundle(self, tmp_path):
        params = self._params()
        truth, signals = generate_instance(params, seed=5)
        write_dataset(tmp_path, truth, signals)
        (tmp_path / "x0.npy").unlink()
        with pytest.raises(FileNotFoundError, match="x0.npy"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"meta"', "3"])
    def test_read_rejects_meta_that_is_not_an_object(self, tmp_path, text):
        params = self._params()
        truth, signals = generate_instance(params, seed=5)
        write_dataset(tmp_path, truth, signals)
        path = tmp_path / "meta.json"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: meta.json must be a JSON object")):
            read_dataset(tmp_path)

    def test_read_rejects_row_mismatch(self, tmp_path):
        params = self._params()
        truth, signals = generate_instance(params, seed=5)
        write_dataset(tmp_path, truth, signals)
        obs_path = tmp_path / "observed_edges.npy"
        obs_path.write_bytes(npy_bytes(np.load(obs_path, allow_pickle=False)[:-1]))
        with pytest.raises(ValueError, match="rows"):
            read_dataset(tmp_path)

    def test_observed_edges_bytes(self, tmp_path):
        """observed_edges.npy is the sampled indices as a 1-D int64 array."""
        params = self._params()
        truth, signals = generate_instance(params, seed=21)
        write_dataset(tmp_path, truth, signals)
        assert signals.observed_edges.dtype == np.int64
        assert (tmp_path / "observed_edges.npy").read_bytes() == npy_bytes(signals.observed_edges)
        assert read_dataset(tmp_path)[1].observed_edges.dtype == np.int64

    @pytest.mark.parametrize(
        "observed, message",
        [
            # The ids of the first five are the texts of the one-index-per-line
            # CSV that observed_edges.npy replaced; each case is its .npy form.
            pytest.param(np.array([1.5]), "expected a 1-D int64 matrix, got 1-D float64",
                         id="1.5\n"),
            pytest.param(np.array([0.0, 1.5]), "expected a 1-D int64 matrix, got 1-D float64",
                         id="0\n1.5\n"),
            pytest.param(np.array([[0, 1], [2]], dtype=object),
                         _UNREADABLE + "Object arrays cannot be loaded when allow_pickle=False",
                         id="0,1\n2\n"),
            pytest.param(np.array([[0, 1]], dtype=np.int64),
                         "expected a 1-D int64 matrix, got 2-D int64", id="0,1\n"),
            pytest.param(np.array(["x"]), "expected a 1-D int64 matrix, got 1-D <U1", id="x\n"),
            pytest.param(np.array([], dtype=np.int64), "empty matrix (0,)", id="empty"),
            pytest.param(np.array([5, 3], dtype=np.int64),
                         "observed_edges must be strictly increasing", id="unsorted"),
            pytest.param(np.array([0, 10**6], dtype=np.int64),
                         "observed edge index out of range", id="out-of-range"),
        ],
    )
    def test_read_rejects_bad_edge_index(self, tmp_path, observed, message):
        params = self._params()
        truth, signals = generate_instance(params, seed=5)
        write_dataset(tmp_path, truth, signals)
        path = tmp_path / "observed_edges.npy"
        path.write_bytes(npy_bytes(observed, allow_pickle=True))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_dataset(tmp_path)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda good: b"", _UNREADABLE + "EOF: reading magic string"),
            (lambda good: b"1.0,2.0\n3.0,4.0\n",
             _UNREADABLE + "the magic string is not correct"),
            (lambda good: good[:-8], _UNREADABLE + "Failed to read all data"),
            (lambda good: good[:20], _UNREADABLE + "EOF: reading array header"),
            (lambda good: npy_bytes(np.array([[1.0, None]], dtype=object), allow_pickle=True),
             _UNREADABLE + "Object arrays cannot be loaded when allow_pickle=False"),
            (lambda good: pickle.dumps(np.ones((2, 2))),
             _UNREADABLE + "the magic string is not correct"),
            (lambda good: npz_bytes(np.ones((2, 2))),
             _UNREADABLE + "the magic string is not correct"),
            (lambda good: npy_bytes(np.ones((2, 2), dtype=np.int64)),
             "expected a 2-D float64 matrix, got 2-D int64"),
            (lambda good: npy_bytes(np.ones((2, 2), dtype=np.float32)),
             "expected a 2-D float64 matrix, got 2-D float32"),
            (lambda good: npy_bytes(np.ones(4)), "expected a 2-D float64 matrix, got 1-D float64"),
            (lambda good: npy_bytes(np.ones((2, 2, 2))),
             "expected a 2-D float64 matrix, got 3-D float64"),
            (lambda good: npy_bytes(np.ones((0, 3))), "empty matrix (0, 3)"),
            (lambda good: npy_bytes(np.array([[1.0, np.nan]])), "non-finite values"),
            (lambda good: npy_bytes(np.array([[1.0], [-np.inf]])), "non-finite values"),
        ],
        ids=["empty", "text", "truncated-data", "truncated-header", "object", "pickled", "npz",
             "int64", "float32", "1d", "3d", "zero-rows", "nan", "inf"],
    )
    def test_matrix_npy_refusals_name_file(self, tmp_path, make, message):
        """Each malformed .npy is one ValueError that starts with the file
        and says what is wrong; no pickle, .npz archive or text is parsed."""
        path = tmp_path / "m.npy"
        write_matrix_npy(path, np.ones((3, 4)))
        path.write_bytes(make(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_matrix_npy(path, np.float64, 2)

