"""Reference methods the joint learner is compared against.

The separate-estimation baseline reuses the learner's score machinery
with the closure coupling switched off and never interpolates: edges
come from node-signal smoothness alone (the observed-edge set plays no
role in its edge step, so its graph estimate cannot improve with more
observed flows), unobserved edge signals stay zero, and triangles are
scored against that zero-filled matrix. The correlation baseline
thresholds pairwise node correlations and fills every 3-clique.

All three methods take ``(skeleton, x0, x1_obs, observed_edges, params)``,
run the learner's one input check and return a LearnState. ``METHODS``
maps each name to its function; the command line and the sweep use it.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .learner import (
    HyperParams,
    LearnState,
    _check_inputs,
    _edge_scores,
    _objective,
    _row_energy,
    _triangle_scores,
    run_greedy_scl,
    select_edges,
    select_triangles,
)
from .topology import (
    ComplexSkeleton,
    edge_gradient,
    make_selection,
    missing_edges,
    prune_open_triangles,
    triangle_curl,
    triangle_nodes,
)

__all__ = ["METHODS", "run_sep_scl", "run_rc"]

_NO_OBS = np.array([], dtype=np.int64)


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
    obs = _check_inputs(skeleton, x0, x1_obs, observed_edges, params)
    decoupled = replace(params, gamma=0.0)

    smoothness = _row_energy(edge_gradient(skeleton, np.asarray(x0, dtype=np.float64)))
    s1 = _edge_scores(skeleton, smoothness, np.zeros(skeleton.n_triangles), _NO_OBS, decoupled)
    w1 = select_edges(s1, _NO_OBS, int(params.e_min))

    x1_filled = np.zeros((skeleton.n_edges, x1_obs.shape[1]))
    x1_filled[obs] = x1_obs

    curl_energy = _row_energy(triangle_curl(skeleton, x1_filled))
    s2 = _triangle_scores(skeleton, curl_energy, w1, decoupled)
    w2 = select_triangles(s2, int(params.t_min))

    w2, pruned = prune_open_triangles(skeleton, w1, w2)

    args = (skeleton, smoothness, curl_energy, x1_filled, w1, w2, obs, x1_obs, decoupled)
    return LearnState(
        selection=make_selection(skeleton, w1, w2),
        x1_est=x1_filled,
        objective_trace=(_objective(*args),),
        iterations_run=1,
        converged=True,
        closure_violations=0,
        pruned_triangles=pruned,
        phase_seconds={"total": time.perf_counter() - t_start},
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


def run_rc(
    skeleton: ComplexSkeleton,
    x0: np.ndarray,
    x1_obs: np.ndarray,
    observed_edges,
    params: HyperParams,
) -> LearnState:
    """Correlation-thresholding baseline with clique-filled triangles.

    Edge strength is the absolute Pearson correlation of the endpoint
    signals. Triangles are the 3-cliques of the graph of the ``e_min``
    strongest pairs, ranked by their minimum edge strength; the first
    ``t_min`` survive, so ``t_min = n_triangles`` keeps every clique.
    The edge flows are checked but not used, and no edge signals are
    estimated.
    """
    t_start = time.perf_counter()
    _check_inputs(skeleton, x0, x1_obs, observed_edges, params)
    corr = _node_correlations(x0)
    strength = np.abs(corr[skeleton.edge_nodes[:, 0], skeleton.edge_nodes[:, 1]])
    w1 = np.zeros(skeleton.n_edges, dtype=np.int8)
    w1[np.argsort(-strength, kind="stable")[: params.e_min]] = 1

    cliques = np.flatnonzero(missing_edges(skeleton, w1) == 0.0)
    i, j, k = triangle_nodes(skeleton, cliques).T
    abs_corr = np.abs(corr)
    min_strengths = np.minimum(np.minimum(abs_corr[i, j], abs_corr[i, k]), abs_corr[j, k])
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    w2[cliques[np.argsort(-min_strengths, kind="stable")[: params.t_min]]] = 1
    selection = make_selection(skeleton, w1, w2)
    phase_seconds = {"total": time.perf_counter() - t_start}
    return LearnState(selection, np.zeros((0, 0)), (), 1, True, 0, 0, phase_seconds)


# Entries look the functions up when called, so a wrapper rebound on the
# module attribute (as perfbench's tracer does) also sees dispatched calls.
METHODS = {
    "GreedySCL": lambda *args: run_greedy_scl(*args),
    "SepSCL": lambda *args: run_sep_scl(*args),
    "RC": lambda *args: run_rc(*args),
}
