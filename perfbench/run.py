"""Benchmark of scinfer, driven through its public entry point
``scinfer.cli.main`` and importing the package from ``src/`` of the
checkout it runs in.

Run from the repository root:

    python3 perfbench/run.py --workload noise_sweep --seed 1000 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``noise_sweep``: ``scinfer sweep --config configs/noise_sweep.ini --jobs 1``,
  in whole cycles over three blocks of trials.
* ``learn_n40``: six n=40 bundles generated in set-up, then rounds of
  ``scinfer learn`` (GreedySCL, SepSCL, RC) and ``scinfer eval`` on each.

``--seed`` is the ``base_seed`` of the run's first sweep, in a copy of the
sweep config, or the first of the consecutive bundle seeds; the defaults
are 1000, the shipped ``base_seed``, and 5000. With ``--trace 0`` the
last line of standard output holds the end-to-end metrics of an untraced
run. With ``--trace 1`` the same untraced loop runs, then one traced pass
(the first sweep again, or a round over every bundle with the set-up
generation traced too), and the last line holds the per-layer metrics.
The line before it holds the details: machine facts, sample counts, tail
percentiles, output digests and per-metric status. The same details, and
for traced runs every span, are written under ``.perfbench/reports/``. A
run whose output digest differs from the one an earlier run of the same
workload, seed, package source and benchmark source recorded under
``.perfbench/digests/`` reports ``correct: false``.

The process pins OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 in its own environment before numpy loads. It exits
with status 2, printing no result, when the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = ("BENCHMARK.json", "src/scinfer/__init__.py", "src/scinfer/cli.py",
            "configs/noise_sweep.ini")


def _git_commit(root: str):
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, "r", encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, "r", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _tree_digest(root: str, pattern: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, pattern))):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def machine_facts(root: str) -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_sha256": _tree_digest(root, "src/scinfer/*.py"),
        "bench_sha256": _tree_digest(root, "perfbench/*.py"),
    }


def _recorded_digest(out_root: str, key: str, digest: str):
    """Output digest an earlier run of the same workload, seed and source
    recorded, or None; records ``digest`` when there is none yet."""
    path = os.path.join(out_root, "digests", key)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
    return None


def _metric_specs(root: str):
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"], [w["name"] for w in spec["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a scinfer checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    end_to_end, per_layer, workload_names = _metric_specs(root)
    if args.workload not in workload_names:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import workloads  # imports numpy, after the thread pins
    import layers

    scinfer = workloads.import_scinfer(root)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    out_root = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(out_root, "reports"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        run = workloads.Run(root, args.workload, seed, args.seconds, bool(args.trace), work)
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_facts(root)
    digest = run.output_digest()
    key = f"{args.workload}-seed{seed}-{machine['src_sha256'][:16]}-{machine['bench_sha256'][:16]}"
    previous = _recorded_digest(out_root, key, digest)
    consistent = run.consistent and previous in (None, digest)
    detail = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "scinfer_file": os.path.realpath(scinfer.__file__),
        "machine": machine,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(1, run.attempted),
        "output_digest": digest,
        "earlier_output_digest": previous,
        "digests_consistent": consistent,
        **run.detail,
    }
    if args.trace:
        values, status, totals = layers.layer_metrics(
            [m["name"] for m in per_layer],
            run.chunks,
            run.traced_names,
            run.traced_wall,
            run.untraced_wall,
        )
        units = {m["name"]: m["unit"] for m in per_layer}
        detail["metric_status"] = status
        detail["self_time_all"] = {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(totals.items())}
        spans_path = os.path.join(out_root, "reports", f"{args.workload}-seed{seed}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "observer_s"],
                       "chunks": run.chunks}, fh)
        detail["spans_file"] = os.path.relpath(spans_path, root)
    else:
        values = run.end_to_end
        units = {m["name"]: m["unit"] for m in end_to_end}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    report = os.path.join(out_root, "reports", f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=2, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = run.failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
