"""Reference methods the joint learner is compared against.

The separate-estimation baseline reuses the learner's score machinery
with the closure coupling switched off and never interpolates: edges
come from node-signal smoothness alone (the observed-edge set plays no
role in its edge step, so its graph estimate cannot improve with more
observed flows), unobserved edge signals stay zero, and triangles are
scored against that zero-filled matrix. The correlation baseline
thresholds pairwise node correlations and fills every 3-clique.

``METHODS`` maps each method name to a callable taking ``(skeleton,
x0, x1_obs, observed_edges, params)`` and returning a LearnState; the
command line and the sweep harness dispatch through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .learner import (
    HyperParams,
    LearnState,
    _check_finite,
    edge_scores,
    objective_value,
    run_greedy_scl,
    select_edges,
    select_triangles,
    triangle_scores,
)
from .topology import (
    ComplexSkeleton,
    Selection,
    make_selection,
    missing_edges,
    prune_open_triangles,
)

__all__ = ["BaselineConfig", "METHODS", "run_sep_scl", "run_rc"]

_NO_OBS = np.array([], dtype=np.int64)


@dataclass(frozen=True)
class BaselineConfig:
    """Budgets of the correlation baseline: activate the ``e_min``
    strongest pairs and keep the ``t_min`` best cliques
    (``t_min=None`` keeps every clique)."""

    e_min: int = 0
    t_min: int | None = None


def run_sep_scl(
    skeleton: ComplexSkeleton,
    x0: np.ndarray,
    x1_obs: np.ndarray,
    observed_edges,
    params: HyperParams,
) -> LearnState:
    """Single-pass decoupled estimate of edges then triangles.

    Runs the learner's edge and triangle blocks once each with the
    closure weight zeroed. Unobserved edge signals are zero-filled, not
    interpolated. Triangles are pruned against the method's own edge set
    before returning, so the output is always downward closed.
    """
    t_start = time.perf_counter()
    _check_finite(x0=x0, x1_obs=x1_obs)
    if params.e_min is None or params.t_min is None:
        raise ValueError("params.e_min and params.t_min must be set")
    decoupled = replace(params, gamma=0.0)
    obs = np.asarray(observed_edges, dtype=np.int64)

    no_triangles = np.zeros(skeleton.n_triangles)
    s1 = edge_scores(skeleton, x0, no_triangles, _NO_OBS, decoupled)
    w1 = select_edges(s1, _NO_OBS, int(params.e_min))

    x1_filled = np.zeros((skeleton.n_edges, x1_obs.shape[1]))
    x1_filled[obs] = x1_obs

    s2 = triangle_scores(skeleton, x1_filled, w1, decoupled)
    w2 = select_triangles(s2, int(params.t_min))

    w2, pruned = prune_open_triangles(skeleton, w1, w2)

    objective = objective_value(skeleton, x0, x1_filled, w1, w2, obs, x1_obs, decoupled)
    elapsed = time.perf_counter() - t_start
    return LearnState(
        selection=make_selection(skeleton, w1, w2),
        x1_est=x1_filled,
        objective_trace=(objective,),
        iterations_run=1,
        converged=True,
        closure_violations=0,
        pruned_triangles=pruned,
        phase_seconds={"total": elapsed},
    )


def _node_correlations(x0: np.ndarray) -> np.ndarray:
    """Pearson correlations between node rows; zero-variance rows
    correlate with nothing (0) instead of propagating NaN."""
    x = np.asarray(x0, dtype=np.float64)
    centered = x - x.mean(axis=1, keepdims=True)
    cov = centered @ centered.T
    std = np.sqrt(np.diag(cov))
    denom = np.outer(std, std)
    corr = np.divide(cov, denom, out=np.zeros_like(cov), where=denom > 0.0)
    return np.clip(corr, -1.0, 1.0)


def run_rc(skeleton: ComplexSkeleton, x0: np.ndarray, config: BaselineConfig) -> Selection:
    """Correlation-thresholding baseline with clique-filled triangles.

    Edge strength is the absolute Pearson correlation of the endpoint
    signals. Triangles are the 3-cliques of the graph of the ``e_min``
    strongest pairs; with a finite ``t_min``, the cliques with the
    largest minimum edge strength survive.
    """
    if not 0 <= config.e_min <= skeleton.n_edges:
        raise ValueError(f"e_min must be in [0, {skeleton.n_edges}], got {config.e_min}")
    if config.t_min is not None and not 0 <= config.t_min <= skeleton.n_triangles:
        raise ValueError(f"t_min must be in [0, {skeleton.n_triangles}], got {config.t_min}")
    corr = _node_correlations(x0)
    strength = np.array([abs(corr[i, j]) for i, j in skeleton.edges])
    w1 = np.zeros(skeleton.n_edges, dtype=np.int8)
    w1[np.argsort(-strength, kind="stable")[: config.e_min]] = 1

    clique = missing_edges(skeleton, w1) == 0.0
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    w2[clique] = 1
    if config.t_min is not None and int(w2.sum()) > config.t_min:
        clique_idx = np.flatnonzero(clique)
        i, j, k = np.array([skeleton.triangles[t] for t in clique_idx]).reshape(-1, 3).T
        abs_corr = np.abs(corr)
        min_strengths = np.minimum(np.minimum(abs_corr[i, j], abs_corr[i, k]), abs_corr[j, k])
        keep = clique_idx[np.argsort(-min_strengths, kind="stable")[: config.t_min]]
        w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
        w2[keep] = 1
    return make_selection(skeleton, w1, w2)


def _run_rc_method(
    skeleton: ComplexSkeleton,
    x0: np.ndarray,
    x1_obs: np.ndarray,
    observed_edges,
    params: HyperParams,
) -> LearnState:
    """RC under the common method signature; it estimates no edge signals."""
    t_start = time.perf_counter()
    _check_finite(x0=x0, x1_obs=x1_obs)
    selection = run_rc(skeleton, x0, BaselineConfig(e_min=params.e_min, t_min=params.t_min))
    phase_seconds = {"total": time.perf_counter() - t_start}
    return LearnState(selection, np.zeros((0, 0)), (), 1, True, 0, 0, phase_seconds)


# Entries look the functions up when called, so a wrapper rebound on the
# module attribute (as perfbench's tracer does) also sees dispatched calls.
METHODS = {
    "GreedySCL": lambda *args: run_greedy_scl(*args),
    "SepSCL": lambda *args: run_sep_scl(*args),
    "RC": _run_rc_method,
}
