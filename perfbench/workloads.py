"""The benchmark workloads, their output checks and their metrics.

Every workload is a closed loop: one caller, each call into
``scinfer.cli.main`` made after the previous one returned. The loop runs
whole operations (a sweep, or one round of learn/eval calls over every
bundle) until ``--seconds`` have passed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import layers
from tracer import Tracer, span_durations

METHODS = ("GreedySCL", "SepSCL", "RC")
SWEEP_CONFIG = "noise_sweep.ini"
# The sweep default is the base_seed the shipped config carries.
DEFAULT_SEEDS = {"noise_sweep": 1000, "learn_n40": 5000}
# Trial blocks of a sweep run. One sweep's 20 trials leave its throughput
# seed-dependent (how many draws fill_triangles needs varies by instance),
# so a run cycles through three blocks of fresh trials, in whole cycles.
SWEEP_BLOCKS = 3
# n=40 bundles per run. Learn latency at n=40 depends on the instance
# (3 to 9 GreedySCL iterations), so a run needs several bundles for its
# median to be steady across seeds; generation (5-10 s per bundle on each
# of the two set-up workers) caps it within the time a run may take.
LEARN_BUNDLES = 6
# Rounds over every bundle a run makes at least, so that each run has the
# same number of latency samples per method whatever the machine's speed.
# On ten seeds, six bundles visited twice gave steadier latencies than
# eight visited once.
LEARN_MIN_ROUNDS = 2
LEARN_INSTANCE = "[instance]\nn_nodes = 40\nnode_noise_std = 0.1\n"
# Cold starts per sweep run; setup_s is their median.
SETUP_REPEATS = 9
SETUP_WORKERS = 2


class ImportGuardError(RuntimeError):
    """scinfer was imported from somewhere other than the checkout's src/."""


def import_scinfer(root: str):
    """Import scinfer from ``root/src`` and refuse any other copy."""
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import scinfer
    import scinfer.cli  # noqa: F401

    expected = os.path.realpath(os.path.join(src, "scinfer"))
    for name, module in list(sys.modules.items()):
        if name != "scinfer" and not name.startswith("scinfer."):
            continue
        where = os.path.realpath(getattr(module, "__file__", None) or "")
        if os.path.dirname(where) != expected:
            raise ImportGuardError(f"{name} resolves to {where!r}, not {expected!r}")
    return scinfer


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``scinfer.cli.main`` in-process; return (exit code, stdout)."""
    from scinfer import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            code = -1
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# statistics and memory


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it. A run with fewer than 40 samples asks for a
    quarter of them beyond instead, so the tail never falls below p75 and,
    from four samples on, a single slow call does not set it."""
    xs = sorted(values)
    beyond = min(10, len(xs) // 4)
    idx = len(xs) - 1 - beyond
    return xs[idx], 100.0 * (idx + 1) / len(xs), beyond


def peak_rss_mb() -> float:
    """Peak resident set of this process so far. Set-up work runs in child
    processes, so this is the peak of the timed loop and the imports."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# output checks


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def check_sweep(out_dir: str, expected_rows: int):
    """Check a sweep's outputs. Returns (failed rows, digest, seconds by
    method); the digest covers results.csv without its ``seconds`` column
    and both charts."""
    seconds = {m: [] for m in METHODS}
    path = os.path.join(out_dir, "results.csv")
    if not os.path.exists(path):
        return expected_rows, None, seconds
    digest = hashlib.sha256()
    failed = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        ok = (
            row.get("status") == "ok"
            and all(_finite(row.get(k)) for k in ("nerr_l0", "nerr_lu", "edge_f1", "triangle_f1"))
            and _finite(row.get("closure_violations"))
            and float(row["closure_violations"]) == 0
        )
        failed += not ok
        if ok and row.get("method") in seconds and _finite(row.get("seconds")):
            seconds[row["method"]].append(float(row["seconds"]))
        digest.update(repr(sorted((k, v) for k, v in row.items() if k != "seconds")).encode())
    failed += max(0, expected_rows - len(rows))
    for chart in ("nerr_l0.svg", "nerr_lu.svg"):
        chart_path = os.path.join(out_dir, chart)
        if not os.path.exists(chart_path):
            return expected_rows, None, seconds
        with open(chart_path, "rb") as fh:
            digest.update(fh.read())
    return failed, digest.hexdigest(), seconds


def _downward_closed(complex_doc: dict) -> bool:
    edges = {tuple(e) for e in complex_doc["edges"]}
    return all(
        (i, j) in edges and (j, k) in edges and (i, k) in edges
        for i, j, k in complex_doc["triangles"]
    )


def check_result(path: str):
    """Check a result.json; return (ok, digest without phase_seconds, doc)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        ok = (
            _downward_closed(doc["complex"])
            and doc["closure_violations"] == 0
            and all(_finite(v) for v in doc["objective_trace"])
            and all(_finite(doc["eval"][k]) for k in ("nerr_l0", "nerr_lu"))
        )
    except (OSError, ValueError, KeyError, TypeError):
        return False, None, None
    kept = {k: v for k, v in doc.items() if k != "phase_seconds"}
    digest = hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()
    return ok, digest, doc


# ---------------------------------------------------------------------------
# workloads


class Run:
    """What one benchmark invocation accumulates."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool, work: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, set] = {}
        self.end_to_end: dict[str, float] = {}
        self.chunks: list[dict] = []
        self.traced_wall = None
        self.untraced_wall = None
        self.traced_names: list[str] = []
        self.detail: dict = {}

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def digest(self, key: str, value) -> None:
        self.digests.setdefault(key, set()).add(value)

    @property
    def consistent(self) -> bool:
        return all(len(v) == 1 and None not in v for v in self.digests.values())

    def output_digest(self) -> str:
        joined = json.dumps({k: sorted(map(str, v)) for k, v in sorted(self.digests.items())})
        return hashlib.sha256(joined.encode()).hexdigest()

    def traced_pass(self, observers, body) -> None:
        """Run ``body`` once with every public function traced."""
        tracer = Tracer(observers=observers)
        with tracer:
            start = time.perf_counter()
            body()
            self.traced_wall = time.perf_counter() - start
        self.traced_names = tracer.traced
        self.chunks.extend(tracer.collect())


def _cold_start(root: str, config: str) -> float:
    """Seconds for a fresh interpreter to import scinfer.cli and parse the
    sweep config, which every ``scinfer sweep`` call pays before its cells."""
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]);"
        "import scinfer.cli; from scinfer.config import load_config, parse_sweep;"
        "parse_sweep(load_config(sys.argv[2])); print(os.path.realpath(scinfer.__file__))"
    )
    src = os.path.join(root, "src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, src, config], capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - start
    expected = os.path.realpath(os.path.join(src, "scinfer", "__init__.py"))
    if proc.returncode != 0 or proc.stdout.strip() != expected:
        raise ImportGuardError(f"cold start failed or imported another scinfer: {proc.stderr[-500:]}")
    return elapsed


def run_sweep_workload(run: Run) -> None:
    """Sweep k of the run runs the shipped config with ``base_seed = seed +
    (k % SWEEP_BLOCKS) * trials``; the run ends after a whole cycle."""
    from scinfer.config import load_config, parse_sweep

    with open(os.path.join(run.root, "configs", SWEEP_CONFIG), "r", encoding="utf-8") as fh:
        template = fh.read()

    def write_config(seed: int) -> str:
        text, subs = re.subn(r"(?m)^base_seed\s*=.*$", f"base_seed = {seed}", template)
        if subs != 1:
            raise ValueError(f"configs/{SWEEP_CONFIG} has no single base_seed line")
        path = os.path.join(run.work, f"seed-{seed}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    first = write_config(run.seed)
    spec = parse_sweep(load_config(first))
    cells = len(spec.grid) * spec.n_trials
    rows = cells * len(spec.methods)
    setup = [_cold_start(run.root, first) for _ in range(SETUP_REPEATS)]

    def base_seed(k: int) -> int:
        return run.seed + (k % SWEEP_BLOCKS) * spec.n_trials

    def one_sweep(k: int, tag: str):
        config = write_config(base_seed(k))
        out = os.path.join(run.work, tag)
        start = time.perf_counter()
        code, _ = run_cli(["sweep", "--config", config, "--out", out, "--jobs", "1"])
        wall = time.perf_counter() - start
        failed, digest, seconds = check_sweep(out, rows)
        if code != 0:
            failed = rows
        run.count(rows, failed)
        run.digest(f"sweep-{base_seed(k)}", digest)
        shutil.rmtree(out, ignore_errors=True)
        return wall, seconds

    # evaluate() has no row of its own in results.csv, so it alone is timed
    # from outside in the untraced loop; the probe costs microseconds per call.
    probe = Tracer(only={"evaluation.evaluate"})
    walls, eval_s = [], []
    seconds = {m: [] for m in METHODS}
    with probe:
        start = time.perf_counter()
        while len(walls) % SWEEP_BLOCKS or time.perf_counter() - start < run.seconds:
            wall, per_method = one_sweep(len(walls), f"sweep-{len(walls)}")
            walls.append(wall)
            eval_s += span_durations(probe.collect(), "evaluation.evaluate")
            for method, values in per_method.items():
                seconds[method] += values
    if not eval_s:
        raise RuntimeError("evaluation.evaluate was never called; eval_p50_s is unmeasurable")
    # The traced pass repeats sweep 0, so its overhead is taken against it.
    run.untraced_wall = walls[0]
    greedy_tail = tail(seconds["GreedySCL"])
    run.end_to_end = {
        "setup_s": statistics.median(setup),
        "cells_per_s": cells * len(walls) / sum(walls),
        "learn_greedy_p50_s": statistics.median(seconds["GreedySCL"]),
        "learn_greedy_tail_s": greedy_tail[0],
        "learn_sepscl_p50_s": statistics.median(seconds["SepSCL"]),
        "learn_rc_p50_s": statistics.median(seconds["RC"]),
        "eval_p50_s": statistics.median(eval_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    run.detail.update(
        sweeps=len(walls),
        sweep_wall_s=walls,
        base_seeds=[base_seed(k) for k in range(len(walls))],
        cells_per_sweep=cells,
        rows_per_sweep=rows,
        setup_runs_s=setup,
        latency_source="results.csv seconds column (fit + evaluate per row); "
        "eval_p50_s times evaluate() calls",
        samples={m: len(v) for m, v in seconds.items()} | {"evaluate": len(eval_s)},
        greedy_tail_percentile=greedy_tail[1],
        greedy_tail_beyond=greedy_tail[2],
    )
    if run.trace:
        run.traced_pass(layers.OBSERVERS, lambda: one_sweep(0, "sweep-traced"))


def generate_bundle(task):
    """Set-up child: ``scinfer generate`` one n=40 bundle.

    Returns (seconds, chunks), chunks being the traced spans or None.
    """
    root, config, out, seed, trace = task
    import_scinfer(root)
    tracer = Tracer(observers=layers.OBSERVERS) if trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    code, _ = run_cli(["generate", "--config", config, "--out", out, "--seed", str(seed)])
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if code != 0:
        raise RuntimeError(f"scinfer generate failed for seed {seed} with status {code}")
    return elapsed, (tracer.collect() if tracer else None)


def _generate_in_child(task):
    """Run ``generate_bundle(task)`` in a fresh interpreter and wait for it.

    A plain child process, unlike a multiprocessing pool, leaves no helper
    process (such as the resource tracker) behind; ``subprocess.run``
    kills and reaps the child if it times out.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), json.dumps(task)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up generation failed: {proc.stderr[-2000:]}")
    seconds, chunks = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds, chunks


def run_learn_workload(run: Run) -> None:
    config = os.path.join(run.work, "instance.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(LEARN_INSTANCE)
    seeds = [run.seed + i for i in range(LEARN_BUNDLES)]
    bundles = [os.path.join(run.work, f"bundle-{s}") for s in seeds]
    tasks = [(run.root, config, b, s, run.trace) for b, s in zip(bundles, seeds)]
    with ThreadPoolExecutor(max_workers=SETUP_WORKERS) as pool:
        made = list(pool.map(_generate_in_child, tasks))
    setup = [seconds for seconds, _ in made]
    setup_chunks = [c for _, chunks in made if chunks for c in chunks]

    latency = {m: [] for m in METHODS}
    latency["eval"] = []

    def one_round(tag: str) -> None:
        for bundle in bundles:
            docs = {}
            for method in METHODS:
                out = os.path.join(run.work, tag, os.path.basename(bundle), method)
                start = time.perf_counter()
                code, _ = run_cli(["learn", bundle, "--method", method, "--out", out])
                latency[method].append(time.perf_counter() - start)
                ok, digest, docs[method] = check_result(os.path.join(out, "result.json"))
                run.count(1, int(code != 0 or not ok))
                run.digest(f"{os.path.basename(bundle)}/{method}", digest)
            est = os.path.join(run.work, tag, os.path.basename(bundle), "GreedySCL", "result.json")
            start = time.perf_counter()
            code, text = run_cli(["eval", "--est", est, "--truth", bundle])
            latency["eval"].append(time.perf_counter() - start)
            try:
                report = json.loads(text)
                # The eval subcommand must agree with the report learn embedded.
                ok = docs["GreedySCL"] is not None and report == docs["GreedySCL"]["eval"]
            except ValueError:
                ok = False
            run.count(1, int(code != 0 or not ok))
            run.digest(f"{os.path.basename(bundle)}/eval", text if ok else None)
        shutil.rmtree(os.path.join(run.work, tag), ignore_errors=True)

    walls = []
    start = time.perf_counter()
    while len(walls) < LEARN_MIN_ROUNDS or time.perf_counter() - start < run.seconds:
        t0 = time.perf_counter()
        one_round(f"round-{len(walls)}")
        walls.append(time.perf_counter() - t0)
    run.untraced_wall = statistics.median(walls)
    samples = {k: list(v) for k, v in latency.items()}
    greedy_tail = tail(latency["GreedySCL"])
    run.end_to_end = {
        "setup_s": statistics.median(setup),
        "cells_per_s": len(bundles) / statistics.median(walls),
        "learn_greedy_p50_s": statistics.median(latency["GreedySCL"]),
        "learn_greedy_tail_s": greedy_tail[0],
        "learn_sepscl_p50_s": statistics.median(latency["SepSCL"]),
        "learn_rc_p50_s": statistics.median(latency["RC"]),
        "eval_p50_s": statistics.median(latency["eval"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    run.detail.update(
        rounds=len(walls),
        round_wall_s=walls,
        bundle_seeds=seeds,
        setup_runs_s=setup,
        latency_source="wall time of each scinfer learn / scinfer eval call",
        samples={k: len(v) for k, v in samples.items()},
        latency_s=samples,
        greedy_tail_percentile=greedy_tail[1],
        greedy_tail_beyond=greedy_tail[2],
    )
    if run.trace:
        run.chunks.extend(setup_chunks)
        run.traced_pass(layers.OBSERVERS, lambda: one_round("round-traced"))


WORKLOADS = {
    "noise_sweep": run_sweep_workload,
    "learn_n40": run_learn_workload,
}


if __name__ == "__main__":
    # A set-up child started by _generate_in_child; the thread pins are
    # inherited from the benchmark process's environment.
    print(json.dumps(generate_bundle(json.loads(sys.argv[1]))))
