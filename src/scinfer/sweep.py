"""Experiment harness: sweep one instance parameter over a grid.

Each cell of the sweep is (grid value, trial). A cell regenerates the
instance with the swept field substituted and ``seed = base_seed +
trial``, so trial t sees the same random draws at every grid value and
across methods; curves over the grid are paired per trial. Budgets left
as ``auto`` are taken from the ground truth of each cell.

Outputs in ``out_dir``: ``results.csv`` (one row per cell and method,
deterministic order) and two charts ``nerr_l0.svg`` / ``nerr_lu.svg``
showing per-method means with standard-error whiskers. A failed cell
keeps its rows: numeric columns hold nan and the ``status`` column
carries the error text, "ok" otherwise. The ``seconds`` column is wall
time and is the only column not reproducible bit-for-bit.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import replace

import numpy as np

from .baselines import METHODS
from .config import SWEEP_AXES, SweepSpec, resolve_budgets
from .evaluation import evaluate, run_record
from .svgplot import line_plot_svg
from .synth import generate_instance
from .topology import _require_int

__all__ = ["CSV_COLUMNS", "run_sweep", "write_results_csv"]

CSV_COLUMNS = (
    "sweep_value",
    "trial",
    "method",
    "nerr_l0",
    "nerr_lu",
    "edge_f1",
    "triangle_f1",
    "closure_violations",
    "seconds",
    "status",
)


def _row(value, trial: int, method: str, record=None, seconds=math.nan, status="ok") -> dict:
    """One results row; its metrics are run record fields, nan without a record."""
    given = dict(sweep_value=value, trial=trial, method=method, seconds=seconds, status=status)
    fields = {**record["eval"], **record, **given} if record else given
    return {key: fields.get(key, math.nan) for key in CSV_COLUMNS}


def _cell_rows(spec: SweepSpec, grid_index: int, trial: int) -> list[dict]:
    """All rows of one (grid value, trial) cell, in method order."""
    value = spec.grid[grid_index]
    seed = spec.base_seed + trial
    instance = replace(spec.instance, **{spec.variable: value})
    try:
        truth, signals = generate_instance(instance, seed)
    except Exception as exc:
        return [_row(value, trial, m, status=f"{type(exc).__name__}: {exc}") for m in spec.methods]

    params = resolve_budgets(spec.params, truth.selection)

    rows = []
    for method in spec.methods:
        start = time.perf_counter()
        try:
            state = METHODS[method](
                truth.skeleton, signals.x0, signals.x1_obs, signals.observed_edges, params
            )
            report = evaluate(truth.skeleton, state.selection, truth.selection)
        except Exception as exc:
            rows.append(_row(value, trial, method, status=f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - start
        rows.append(_row(value, trial, method, run_record(method, state, report), seconds))
    return rows


def _cell_worker(args) -> list[dict]:
    return _cell_rows(*args)


def _fmt_cell(key: str, value) -> str:
    if key in ("trial", "closure_violations"):
        return str(value) if isinstance(value, (int, np.integer)) else f"{value:.12g}"
    if key in ("method", "status"):
        return str(value)
    return f"{float(value):.12g}"


def write_results_csv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(key, row[key]) for key in CSV_COLUMNS])


def _series_stats(rows: list[dict], spec: SweepSpec, metric: str):
    """Per-method (means, stderrs) over the grid, skipping failed rows."""
    samples = {}
    for row in rows:
        if row["status"] == "ok" and math.isfinite(row[metric]):
            samples.setdefault((row["method"], row["sweep_value"]), []).append(row[metric])
    series = []
    for method in spec.methods:
        arrays = [np.asarray(samples.get((method, v), []), dtype=float) for v in spec.grid]
        means = [float(a.mean()) if a.size else math.nan for a in arrays]
        errs = [float(a.std(ddof=1) / math.sqrt(a.size)) if a.size > 1 else 0.0 for a in arrays]
        series.append((method, means, errs))
    return series


def run_sweep(spec: SweepSpec, out_dir, jobs: int = 1) -> list[dict]:
    """Run the sweep, write results.csv and the two charts, return rows.

    ``out_dir`` is made before any cell runs, so a path that cannot be
    a directory fails before the sweep spends any time.

    ``jobs > 1`` distributes cells over ``min(jobs, cells)`` worker
    processes; the rows come back in the same deterministic (grid,
    trial, method) order either way.
    """
    _require_int("jobs", jobs, 1)
    os.makedirs(out_dir, exist_ok=True)
    tasks = [
        (spec, grid_index, trial)
        for grid_index in range(len(spec.grid))
        for trial in range(spec.n_trials)
    ]
    if jobs == 1:
        per_cell = [_cell_worker(task) for task in tasks]
    else:
        # Imported here so that a process running no workers does not load
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            per_cell = list(pool.map(_cell_worker, tasks))
    rows = [row for cell in per_cell for row in cell]

    write_results_csv(os.path.join(out_dir, "results.csv"), rows)
    x_label = SWEEP_AXES[spec.variable]
    for metric, fname, title in (
        ("nerr_l0", "nerr_l0.svg", "Node Laplacian error"),
        ("nerr_lu", "nerr_lu.svg", "Upper Laplacian error"),
    ):
        line_plot_svg(
            os.path.join(out_dir, fname),
            spec.grid,
            _series_stats(rows, spec, metric),
            title,
            x_label,
            "normalized squared error",
        )
    return rows
