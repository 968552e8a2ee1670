"""Acceptance gate: eight pinned criteria, one PASS/FAIL line each,
and the golden outputs of the two shipped sweeps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 6 and 8 share one noise sweep; criterion 7 runs the
observed-fraction sweep. Both run the shipped configs at full scale
(N=20, 20 trials), dominate this module's runtime, and are compared
row by row with ``tests/golden``.
"""

import csv
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from scinfer import (
    HyperParams,
    InstanceParams,
    SweepSpec,
    bucket_width,
    build_skeleton,
    evaluate,
    generate_instance,
    hodge_decompose,
    interpolate_edge_signals,
    load_config,
    parse_sweep,
    run_greedy_scl,
    run_sweep,
    select_edges,
)
from scinfer.learner import _CurlMemo, _edge_scores, _select_by_tier
from scinfer.topology import (
    _face_counts,
    _row_energy,
    b2_block,
    edge_coverage,
    edge_gradient,
    missing_edges,
    triangle_curl,
)

from oracles import (
    brute_force_edges,
    brute_force_triangles,
    edge_subproblem_value,
    gradient_descent_interpolation,
    incidence,
    triangle_subproblem_value,
)


def _report(label: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _grid_mean(rows, method, metric, value):
    xs = [
        r[metric]
        for r in rows
        if r["method"] == method and r["sweep_value"] == value and r["status"] == "ok"
    ]
    assert xs, f"no ok rows for {method} at {value}"
    return float(np.mean(xs))


def _paired_samples(rows, method, metric, value):
    by_trial = {
        r["trial"]: r[metric]
        for r in rows
        if r["method"] == method and r["sweep_value"] == value and r["status"] == "ok"
    }
    return np.array([by_trial[t] for t in sorted(by_trial)])


NOISE_GRID = (0.0, 0.05, 0.1, 0.2)
FRACTION_GRID = (0.2, 0.4, 0.6, 0.8, 0.95)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _shipped_sweep(name, literal, tmp_path_factory):
    """Run ``configs/<name>.ini`` as shipped, after checking that it
    still parses to the literal spec the criteria were written for."""
    spec = parse_sweep(load_config(CONFIGS / f"{name}.ini"))
    assert spec == literal
    out = tmp_path_factory.mktemp(name)
    start = time.perf_counter()
    rows = run_sweep(spec, out, jobs=1)
    elapsed = time.perf_counter() - start
    assert all(r["status"] == "ok" for r in rows)
    return rows, elapsed, out


@pytest.fixture(scope="module")
def noise_sweep(tmp_path_factory):
    """N=20 noise sweep shared by criteria 6 and 8."""
    literal = SweepSpec(
        variable="node_noise_std",
        grid=NOISE_GRID,
        n_trials=20,
        base_seed=1000,
        methods=("GreedySCL", "SepSCL", "RC"),
        instance=InstanceParams(),
        params=HyperParams(),
    )
    return _shipped_sweep("noise_sweep", literal, tmp_path_factory)


@pytest.fixture(scope="module")
def observed_sweep(tmp_path_factory):
    """N=20 observed-fraction sweep for criterion 7."""
    literal = SweepSpec(
        variable="observed_fraction",
        grid=FRACTION_GRID,
        n_trials=20,
        base_seed=2000,
        methods=("GreedySCL", "SepSCL", "RC"),
        instance=InstanceParams(node_noise_std=0.1),
        params=HyperParams(),
    )
    return _shipped_sweep("observed_sweep", literal, tmp_path_factory)


def _rows_without_seconds(path):
    """Header and rows of a results.csv without its ``seconds`` column,
    the rows keyed by (sweep_value, trial, method)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = [{k: v for k, v in row.items() if k != "seconds"} for row in reader]
    header = [k for k in reader.fieldnames if k != "seconds"]
    return header, {(r["sweep_value"], r["trial"], r["method"]): r for r in rows}


class TestAcceptance:
    def test_c1_greedy_blocks_match_brute_force(self):
        """Both selection blocks, solved as GreedySCL solves them (the
        triangle tiers and the edge scores of its one smoothness pass), hit
        the exhaustive minimum on N=5."""
        skeleton = build_skeleton(5)
        b1, b2 = incidence(5)
        params = HyperParams(e_min=0, t_min=0)
        start = time.perf_counter()
        worst = 0.0
        for case in range(20):
            rng = np.random.default_rng(900 + case)
            x1_est = rng.standard_normal((skeleton.n_edges, 6))
            x0 = rng.standard_normal((skeleton.n_nodes, 6))
            w1 = (rng.random(skeleton.n_edges) < 0.6).astype(np.int8)
            w2 = (rng.random(skeleton.n_triangles) < 0.3).astype(np.int8)
            observed = np.flatnonzero(rng.random(skeleton.n_edges) < 0.4)
            t_min = int(rng.integers(0, skeleton.n_triangles + 1))
            e_min = int(rng.integers(observed.size, skeleton.n_edges + 1))

            q = bucket_width(x1_est, params)
            got_w2 = _select_by_tier(_CurlMemo(skeleton, x1_est), w1, params, q, t_min)
            got_val = triangle_subproblem_value(
                b2, x1_est, w1, got_w2, params.alpha2, params.beta2, params.gamma
            )
            best_val, _ = brute_force_triangles(
                b2, x1_est, w1, params.alpha2, params.beta2, params.gamma, t_min
            )
            worst = max(worst, abs(got_val - best_val) / max(abs(best_val), 1e-30))

            smoothness = _row_energy(edge_gradient(skeleton, x0))
            scores = _edge_scores(skeleton, smoothness, w2, observed, params)
            got_w1 = select_edges(scores, observed, e_min)
            got_val = edge_subproblem_value(
                b1, b2, x0, got_w1, w2,
                params.alpha1, params.beta1, params.gamma,
            )
            best_val, _ = brute_force_edges(
                b1, b2, x0, w2, observed,
                params.alpha1, params.beta1, params.gamma, e_min,
            )
            worst = max(worst, abs(got_val - best_val) / max(abs(best_val), 1e-30))
        elapsed = time.perf_counter() - start
        _report(
            "C1",
            worst <= 1e-12 and elapsed < 10.0,
            f"20 instances x 2 blocks vs 2^10 enumeration, worst rel gap "
            f"{worst:.2e} <= 1e-12, {elapsed:.1f}s < 10s",
        )

    def test_c2_interpolation_matches_solver_oracle(self):
        """Closed form equals gradient descent and solves the normal equations."""
        skeleton = build_skeleton(6)
        _, b2 = incidence(6)
        params = HyperParams(e_min=0, t_min=0)
        start = time.perf_counter()
        worst_gd, worst_ne = 0.0, 0.0
        for case in range(10):
            rng = np.random.default_rng(700 + case)
            w2 = (rng.random(skeleton.n_triangles) < 0.3).astype(np.int8)
            n_obs = int(rng.integers(1, skeleton.n_edges + 1))
            observed = np.sort(rng.choice(skeleton.n_edges, size=n_obs, replace=False))
            x1_obs = rng.standard_normal((n_obs, 5))

            got = interpolate_edge_signals(skeleton, w2, observed, x1_obs, params)
            want = gradient_descent_interpolation(
                b2, w2, observed, x1_obs, params.beta2, params.eta
            )
            worst_gd = max(
                worst_gd,
                np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30),
            )

            sys_mat = params.beta2 * (b2 * w2.astype(float)) @ b2.T
            sys_mat[observed, observed] += params.eta
            rhs = np.zeros_like(got)
            rhs[observed] = params.eta * x1_obs
            worst_ne = max(
                worst_ne,
                np.linalg.norm(sys_mat @ got - rhs) / max(np.linalg.norm(rhs), 1e-30),
            )
        elapsed = time.perf_counter() - start
        _report(
            "C2",
            worst_gd <= 1e-6 and worst_ne <= 1e-8 and elapsed < 10.0,
            f"10 instances: vs gradient descent {worst_gd:.2e} <= 1e-6, "
            f"normal equations {worst_ne:.2e} <= 1e-8, {elapsed:.1f}s < 10s",
        )

    def test_c3_monotone_convergence(self):
        """Nonincreasing objective; fixpoint within 50 iterations on >= 48/50."""
        instance = InstanceParams(n_nodes=10)
        start = time.perf_counter()
        monotone_ok = True
        converged_count = 0
        worst_rise = -np.inf
        for seed in range(50):
            truth, signals = generate_instance(instance, seed)
            params = HyperParams(
                e_min=int(truth.selection.w1.sum()),
                t_min=int(truth.selection.w2.sum()),
            )
            state = run_greedy_scl(
                truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, params
            )
            trace = state.objective_trace
            rises = [b - a for a, b in zip(trace, trace[1:])]
            if rises:
                worst_rise = max(worst_rise, max(rises))
            monotone_ok &= all(r <= 1e-10 for r in rises)
            converged_count += state.converged and state.iterations_run <= 50
        elapsed = time.perf_counter() - start
        _report(
            "C3",
            monotone_ok and converged_count >= 48 and elapsed < 60.0,
            f"50 ER(10,0.4) runs: worst trace rise {worst_rise:.2e} <= 1e-10, "
            f"converged {converged_count}/50 >= 48, {elapsed:.1f}s < 60s",
        )

    def test_c4_structural_invariants(self):
        """Chain property, closure of outputs, Hodge identities."""
        start = time.perf_counter()
        # Entries are {-1, 0, 1} held in float64 and the inputs are
        # integers, so every dot product is exact integer arithmetic: the
        # oracle product must be exactly zero, the package operators must
        # equal the oracle products exactly, and so must their chain. The
        # counts are integer arrays for an int8, bool, float or list
        # indicator alike.
        chain_ok = True
        rng = np.random.default_rng(4100)
        for n in range(2, 16):
            b1, b2 = incidence(n)
            entries_ok = bool(
                np.isin(b1, (-1.0, 0.0, 1.0)).all() and np.isin(b2, (-1.0, 0.0, 1.0)).all()
            )
            chain_ok &= entries_ok and not (b1 @ b2).any()

            skeleton = build_skeleton(n)
            n_e, n_t = skeleton.n_edges, skeleton.n_triangles
            x0 = rng.integers(-9, 10, size=(n, 4)).astype(float)
            x1 = rng.integers(-9, 10, size=(n_e, 4)).astype(float)
            w1 = rng.integers(0, 2, size=n_e).astype(float)
            w2 = rng.integers(0, 2, size=n_t).astype(float)
            rows = rng.permutation(n_e)[: rng.integers(1, n_e + 1)]
            cols = rng.permutation(n_t)[: rng.integers(0, n_t + 1)]
            chain_ok &= bool(
                np.array_equal(edge_gradient(skeleton, x0), b1.T @ x0)
                and np.array_equal(triangle_curl(skeleton, x1), b2.T @ x1)
                and np.array_equal(b2_block(skeleton, np.arange(n_e), np.arange(n_t)), b2)
                and np.array_equal(b2_block(skeleton, rows, cols), b2[np.ix_(rows, cols)])
                and np.array_equal(_face_counts(skeleton.edge_nodes, w1 != 0, n), np.abs(b1) @ w1)
                and not triangle_curl(skeleton, edge_gradient(skeleton, x0)).any()
            )
            forms = (lambda w: w.astype(np.int8), lambda w: w != 0, lambda w: w, list)
            for form in forms:
                for counts, oracle in (
                    (edge_coverage(skeleton, form(w2)), np.abs(b2) @ w2),
                    (missing_edges(skeleton, form(w1)), np.abs(b2).T @ (1.0 - w1)),
                ):
                    chain_ok &= counts.dtype.kind == "i" and np.array_equal(counts, oracle)

        closure_ok = True
        for n_nodes, seed in ((6, 0), (6, 1), (8, 2), (8, 3), (8, 4), (10, 5)):
            instance = InstanceParams(
                n_nodes=n_nodes, node_noise_std=0.1, observed_fraction=0.6
            )
            truth, signals = generate_instance(instance, seed)
            params = HyperParams(
                e_min=int(truth.selection.w1.sum()),
                t_min=int(truth.selection.w2.sum()),
            )
            state = run_greedy_scl(
                truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, params
            )
            report = evaluate(truth.skeleton, state.selection, truth.selection)
            closure_ok &= report.closure_violations == 0

        worst_hodge = 0.0
        for seed in range(10):
            truth, _ = generate_instance(InstanceParams(n_nodes=8), seed)
            rng = np.random.default_rng(4000 + seed)
            n_active = int(truth.selection.w1.sum())
            flow = rng.standard_normal(n_active)
            parts = hodge_decompose(truth.skeleton, truth.selection.w1, truth.selection.w2, flow)
            scale = max(np.linalg.norm(flow), 1e-30)
            recon = parts.gradient + parts.curl + parts.harmonic
            worst_hodge = max(worst_hodge, np.linalg.norm(recon - flow) / scale)
            for a, b in (
                (parts.gradient, parts.curl),
                (parts.gradient, parts.harmonic),
                (parts.curl, parts.harmonic),
            ):
                worst_hodge = max(worst_hodge, abs(float(a @ b)) / scale**2)
        elapsed = time.perf_counter() - start
        _report(
            "C4",
            chain_ok and closure_ok and worst_hodge <= 1e-8 and elapsed < 30.0,
            f"chain product exactly zero for N=2..15: {chain_ok}; "
            f"6 pruned outputs closed: {closure_ok}; Hodge worst residual "
            f"{worst_hodge:.2e} <= 1e-8; {elapsed:.1f}s < 30s",
        )

    def test_c5_noiseless_recovery(self):
        """Perfect edges and near-perfect triangles on clean full data."""
        instance = InstanceParams(n_nodes=15, edge_prob=0.4, observed_fraction=1.0)
        assert instance.curl_atten == 0.05
        start = time.perf_counter()
        good = 0
        f1s = []
        for seed in range(20):
            truth, signals = generate_instance(instance, seed)
            params = HyperParams(
                e_min=int(truth.selection.w1.sum()),
                t_min=int(truth.selection.w2.sum()),
            )
            state = run_greedy_scl(
                truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, params
            )
            report = evaluate(truth.skeleton, state.selection, truth.selection)
            good += report.edge_f1 == 1.0 and report.triangle_f1 >= 0.9
            f1s.append((report.edge_f1, report.triangle_f1))
        elapsed = time.perf_counter() - start
        _report(
            "C5",
            good >= 18 and elapsed < 120.0,
            f"edge F1 = 1.0 and triangle F1 >= 0.9 on {good}/20 ER(15,0.4) "
            f"seeds (need 18), min triangle F1 {min(t for _, t in f1s):.3f}, "
            f"{elapsed:.1f}s < 120s",
        )

    def test_c6_noise_trend(self, noise_sweep):
        """GreedySCL beats SepSCL on L0 everywhere; best LU at zero noise."""
        rows, elapsed, _ = noise_sweep
        greedy_l0 = [_grid_mean(rows, "GreedySCL", "nerr_l0", v) for v in NOISE_GRID]
        sep_l0 = [_grid_mean(rows, "SepSCL", "nerr_l0", v) for v in NOISE_GRID]
        l0_ok = all(g < s for g, s in zip(greedy_l0, sep_l0))
        greedy_lu0 = _grid_mean(rows, "GreedySCL", "nerr_lu", 0.0)
        sep_lu0 = _grid_mean(rows, "SepSCL", "nerr_lu", 0.0)
        rc_lu0 = _grid_mean(rows, "RC", "nerr_lu", 0.0)
        lu_ok = greedy_lu0 <= sep_lu0 and greedy_lu0 <= rc_lu0
        _report(
            "C6",
            l0_ok and lu_ok and elapsed < 900.0,
            f"mean NErr(L0) greedy {['%.3f' % v for v in greedy_l0]} < "
            f"sep {['%.3f' % v for v in sep_l0]} at all 4 noise levels: {l0_ok}; "
            f"noise-0 NErr(LU) {greedy_lu0:.3f} <= sep {sep_lu0:.3f} and "
            f"rc {rc_lu0:.3f}: {lu_ok}; {elapsed:.0f}s < 900s",
        )

    def test_c7_observed_fraction_trend(self, observed_sweep):
        """GreedySCL improves with more observations; SepSCL L0 is flat."""
        rows, elapsed, _ = observed_sweep
        monotone_ok = True
        for metric in ("nerr_l0", "nerr_lu"):
            for lo, hi in zip(FRACTION_GRID, FRACTION_GRID[1:]):
                diff = _paired_samples(rows, "GreedySCL", metric, hi) - _paired_samples(
                    rows, "GreedySCL", metric, lo
                )
                stderr = diff.std(ddof=1) / np.sqrt(diff.size)
                monotone_ok &= diff.mean() <= stderr
        sep_means = [_grid_mean(rows, "SepSCL", "nerr_l0", v) for v in FRACTION_GRID]
        sep_stderr = max(
            _paired_samples(rows, "SepSCL", "nerr_l0", v).std(ddof=1) / np.sqrt(20)
            for v in FRACTION_GRID
        )
        spread = max(sep_means) - min(sep_means)
        flat_ok = spread <= 2.0 * sep_stderr
        _report(
            "C7",
            monotone_ok and flat_ok and elapsed < 900.0,
            f"greedy NErr(L0)/NErr(LU) nonincreasing within 1 paired stderr "
            f"per step: {monotone_ok}; SepSCL L0 spread {spread:.2e} <= "
            f"2*stderr {2 * sep_stderr:.2e}: {flat_ok}; {elapsed:.0f}s < 900s",
        )

    def test_c8_upper_error_exceeds_node_error(self, noise_sweep):
        """Triangle-level error dominates edge-level error for GreedySCL."""
        rows, _, _ = noise_sweep
        greedy_l0 = [_grid_mean(rows, "GreedySCL", "nerr_l0", v) for v in NOISE_GRID]
        greedy_lu = [_grid_mean(rows, "GreedySCL", "nerr_lu", v) for v in NOISE_GRID]
        ok = all(u > l for u, l in zip(greedy_lu, greedy_l0))
        pairs = ", ".join(f"{u:.3f}>{l:.3f}" for u, l in zip(greedy_lu, greedy_l0))
        _report("C8", ok, f"mean NErr(LU) > NErr(L0) at every noise level: {pairs}")


class TestGoldenOutputs:
    """Both shipped sweeps reproduce the committed rows and charts
    exactly. A change that moves a row on purpose regenerates
    ``tests/golden`` (``scinfer sweep --config configs/<name>.ini``, then
    ``cut -d, -f1-8,10 results.csv | tr -d '\\r'`` and ``sha256sum`` of
    the two SVGs) and says which rows moved and why.

    The golden files were made with Python 3.11, NumPy 2.4.6 and its
    bundled OpenBLAS at ``OPENBLAS_NUM_THREADS=1``. The learners choose
    from float scores, so another NumPy or BLAS that moves a score in
    its last bit can flip a selection and a row; a failure that names
    rows on another NumPy is such a flip until shown otherwise."""

    @pytest.mark.parametrize("name", ["noise_sweep", "observed_sweep"])
    def test_rows_match_golden(self, name, request):
        _, _, out = request.getfixturevalue(name)
        header, got = _rows_without_seconds(out / "results.csv")
        want_header, want = _rows_without_seconds(GOLDEN / f"{name}.csv")
        assert header == want_header
        changed = []
        for key in sorted(want.keys() | got.keys()):
            old, new = want.get(key), got.get(key)
            if old is None or new is None:
                changed.append(f"{key}: {'new row' if old is None else 'row missing'}")
            elif old != new:
                cols = [c for c in header if old[c] != new[c]]
                changed.append(f"{key}: " + ", ".join(f"{c} {old[c]} -> {new[c]}" for c in cols))
        assert not changed, f"{len(changed)} {name} rows differ:\n" + "\n".join(changed)
        assert list(got) == list(want)

    def test_charts_match_golden(self, noise_sweep, observed_sweep):
        outs = {"noise_sweep": noise_sweep[2], "observed_sweep": observed_sweep[2]}
        for line in (GOLDEN / "svg.sha256").read_text().splitlines():
            digest, path = line.split()
            sweep, fname = path.split("/")
            got = hashlib.sha256((outs[sweep] / fname).read_bytes()).hexdigest()
            assert got == digest, f"{path} changed"
