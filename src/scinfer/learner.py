"""Joint topology learning by block-coordinate subset selection.

The learner alternates three exact block solves of one objective over
(triangle indicators, edge indicators, interpolated edge signals):

  (A) triangle selection -- each candidate triangle carries a score
      combining its sparsity cost, the curl energy of the current edge
      signals through it, and a penalty per missing supporting edge;
      the t_min smallest scores win.
  (B) edge selection -- observed edges are forced; every other
      candidate carries sparsity cost plus node-signal smoothness minus
      a coverage bonus per active triangle leaning on it. The default
      mode activates every negative score and pads with the smallest
      nonnegative ones up to e_min (the exact block minimizer); the
      strict mode activates exactly e_min entries.
  (C) interpolation -- the edge-signal matrix minimizing curl energy
      through the active triangles plus a quadratic data-fit on the
      observed rows, solved in closed form by a pseudoinverse.

Scores are evaluated through squared row norms of the per-edge
gradients and per-triangle curls of the signals; the candidate-by-
candidate Gram matrices are never formed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .topology import (
    ComplexSkeleton,
    Selection,
    b2_block,
    closure_violations,
    edge_coverage,
    edge_gradient,
    make_selection,
    missing_edges,
    prune_open_triangles,
    triangle_curl,
)

__all__ = [
    "HyperParams",
    "LearnState",
    "triangle_scores",
    "select_triangles",
    "edge_scores",
    "select_edges",
    "interpolate_edge_signals",
    "objective_value",
    "run_greedy_scl",
]


@dataclass(frozen=True)
class HyperParams:
    """Weights and knobs of the learning objective.

    ``e_min``/``t_min`` are the minimum active-edge and active-triangle
    counts; they have no sensible universal default and must be set
    (reproduction runs derive them from the ground truth). ``pinv_tol``
    is the relative eigenvalue cutoff of the interpolation solve.
    ``strict_lemma_mode`` switches edge selection from the exact block
    minimizer to the fixed-cardinality rule.
    """

    alpha1: float = 1e-3
    alpha2: float = 1e-3
    beta1: float = 1.0
    beta2: float = 1.0
    gamma: float = 10.0
    eta: float = 10.0
    e_min: int | None = None
    t_min: int | None = None
    max_iters: int = 50
    pinv_tol: float = 1e-10
    strict_lemma_mode: bool = False
    prune_closure: bool = True


@dataclass(frozen=True)
class LearnState:
    """Outcome of a learning run."""

    selection: Selection
    x1_est: np.ndarray
    objective_trace: tuple[float, ...]
    iterations_run: int
    converged: bool
    closure_violations: int
    pruned_triangles: int
    phase_seconds: dict[str, float]


def _check_observed(skeleton: ComplexSkeleton, observed_edges) -> np.ndarray:
    obs = np.asarray(observed_edges, dtype=np.int64)
    if obs.ndim != 1:
        raise ValueError("observed_edges must be a 1-d index array")
    if obs.size:
        if obs.min() < 0 or obs.max() >= skeleton.n_edges:
            raise ValueError("observed edge index out of range")
        if np.any(np.diff(obs) <= 0):
            raise ValueError("observed_edges must be strictly increasing")
    return obs


def _check_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")


def triangle_scores(
    skeleton: ComplexSkeleton, x1_est: np.ndarray, w1, params: HyperParams
) -> np.ndarray:
    """Per-candidate-triangle selection scores.

    score_t = alpha2 + beta2 * ||row_t(b2^T X1)||^2
            + gamma * (# inactive supporting edges of t)
    """
    w1a = np.asarray(w1, dtype=np.float64)
    if w1a.shape != (skeleton.n_edges,):
        raise ValueError(f"w1 must have shape ({skeleton.n_edges},)")
    x1 = np.asarray(x1_est, dtype=np.float64)
    if x1.ndim != 2 or x1.shape[0] != skeleton.n_edges:
        raise ValueError(f"x1_est must have {skeleton.n_edges} rows")
    curl = triangle_curl(skeleton, x1)
    curl_energy = np.einsum("ij,ij->i", curl, curl)
    missing = missing_edges(skeleton, w1a)
    return params.alpha2 + params.beta2 * curl_energy + params.gamma * missing


def select_triangles(scores: np.ndarray, t_min: int) -> np.ndarray:
    """Activate the ``t_min`` smallest-score triangles (stable ties)."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= t_min <= scores.size:
        raise ValueError(f"t_min must be in [0, {scores.size}], got {t_min}")
    w2 = np.zeros(scores.size, dtype=np.int8)
    if t_min:
        order = np.argsort(scores, kind="stable")
        w2[order[:t_min]] = 1
    return w2


def edge_scores(
    skeleton: ComplexSkeleton, x0: np.ndarray, w2, observed_edges, params: HyperParams
) -> np.ndarray:
    """Per-candidate-edge selection scores; observed edges score zero.

    score_l = alpha1 + beta1 * ||row_l(b1^T X0)||^2
            - gamma * (# active triangles supported by l)
    """
    w2a = np.asarray(w2, dtype=np.float64)
    if w2a.shape != (skeleton.n_triangles,):
        raise ValueError(f"w2 must have shape ({skeleton.n_triangles},)")
    x0a = np.asarray(x0, dtype=np.float64)
    if x0a.ndim != 2 or x0a.shape[0] != skeleton.n_nodes:
        raise ValueError(f"x0 must have {skeleton.n_nodes} rows")
    obs = _check_observed(skeleton, observed_edges)
    diffs = edge_gradient(skeleton, x0a)
    smoothness = np.einsum("ij,ij->i", diffs, diffs)
    coverage = edge_coverage(skeleton, w2a)
    scores = params.alpha1 + params.beta1 * smoothness - params.gamma * coverage
    scores[obs] = 0.0
    return scores


def select_edges(
    scores: np.ndarray,
    observed_edges,
    e_min: int,
    strict_lemma_mode: bool = False,
) -> np.ndarray:
    """Pick the active edge set given scores and the forced observed set.

    Default mode returns the exact minimizer of the edge block: observed
    edges, every strictly negative score, then the smallest nonnegative
    scores until ``e_min`` entries are active. Strict mode activates
    exactly ``e_min`` entries: the observed set first, the rest by
    ascending score. Ties resolve to the lowest candidate index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    obs = np.asarray(observed_edges, dtype=np.int64)
    if not 0 <= e_min <= scores.size:
        raise ValueError(f"e_min must be in [0, {scores.size}], got {e_min}")
    if e_min < obs.size:
        raise ValueError(f"e_min={e_min} is below the {obs.size} observed edges")

    w1 = np.zeros(scores.size, dtype=np.int8)
    w1[obs] = 1
    unobserved = np.flatnonzero(w1 == 0)
    if strict_lemma_mode:
        quota = e_min - obs.size
        order = unobserved[np.argsort(scores[unobserved], kind="stable")]
        w1[order[:quota]] = 1
        return w1

    negative = unobserved[scores[unobserved] < 0.0]
    w1[negative] = 1
    shortfall = e_min - int(w1.sum())
    if shortfall > 0:
        pool = unobserved[scores[unobserved] >= 0.0]
        order = pool[np.argsort(scores[pool], kind="stable")]
        w1[order[:shortfall]] = 1
    return w1


def interpolate_edge_signals(
    skeleton: ComplexSkeleton,
    w2,
    observed_edges,
    x1_obs: np.ndarray,
    params: HyperParams,
) -> np.ndarray:
    """Closed-form minimizer of the interpolation block.

    Solves (beta2 * b2 diag(w2) b2^T + eta * Theta^T Theta) X =
    eta * Theta^T X1_obs by eigendecomposition with relative cutoff
    ``pinv_tol``, restricted to the rows that can be nonzero: observed
    edges and edges incident to an active triangle. All other rows of
    the result are structurally zero.
    """
    w2a = np.asarray(w2, dtype=np.float64)
    if w2a.shape != (skeleton.n_triangles,):
        raise ValueError(f"w2 must have shape ({skeleton.n_triangles},)")
    obs = _check_observed(skeleton, observed_edges)
    if obs.size == 0:
        raise ValueError("interpolation requires at least one observed edge")
    x1o = np.asarray(x1_obs, dtype=np.float64)
    if x1o.ndim != 2 or x1o.shape[0] != obs.size:
        raise ValueError(f"x1_obs must have {obs.size} rows, got {x1o.shape}")

    obs_mask = np.zeros(skeleton.n_edges, dtype=bool)
    obs_mask[obs] = True
    incident = edge_coverage(skeleton, w2a) > 0.0
    support = np.flatnonzero(obs_mask | incident)

    b2s = b2_block(skeleton, support, np.flatnonzero(w2a))
    sys_mat = params.beta2 * (b2s @ b2s.T)
    obs_in_support = obs_mask[support]
    sys_mat[np.diag_indices_from(sys_mat)] += params.eta * obs_in_support

    rhs = np.zeros((support.size, x1o.shape[1]))
    rhs[obs_in_support] = params.eta * x1o

    eigvals, eigvecs = np.linalg.eigh(sys_mat)
    cutoff = params.pinv_tol * eigvals.max()
    inv = np.zeros_like(eigvals)
    keep = eigvals > cutoff
    inv[keep] = 1.0 / eigvals[keep]
    x_support = eigvecs @ (inv[:, None] * (eigvecs.T @ rhs))

    x1_est = np.zeros((skeleton.n_edges, x1o.shape[1]))
    x1_est[support] = x_support
    return x1_est


def objective_value(
    skeleton: ComplexSkeleton,
    x0: np.ndarray,
    x1_est: np.ndarray,
    w1,
    w2,
    observed_edges,
    x1_obs: np.ndarray,
    params: HyperParams,
) -> float:
    """Full objective: sparsity + smoothness + curl fit + data fit + closure."""
    w1a = np.asarray(w1, dtype=np.float64)
    w2a = np.asarray(w2, dtype=np.float64)
    obs = np.asarray(observed_edges, dtype=np.int64)

    diffs = edge_gradient(skeleton, x0)
    smoothness = np.einsum("ij,ij->i", diffs, diffs)
    curl = triangle_curl(skeleton, x1_est)
    curl_energy = np.einsum("ij,ij->i", curl, curl)
    resid = x1_est[obs] - x1_obs
    return float(
        params.alpha1 * w1a.sum()
        + params.alpha2 * w2a.sum()
        + params.beta1 * smoothness @ w1a
        + params.beta2 * curl_energy @ w2a
        + params.eta * np.sum(resid * resid)
        + params.gamma * (1.0 - w1a) @ edge_coverage(skeleton, w2a)
    )


def run_greedy_scl(
    skeleton: ComplexSkeleton,
    x0: np.ndarray,
    x1_obs: np.ndarray,
    observed_edges,
    params: HyperParams,
) -> LearnState:
    """Alternate the three block solves until the selection stops moving.

    Starts from (observed edges only, no triangles, interpolated
    signals). Each iteration runs triangle selection, edge selection,
    then interpolation, and records the objective. Stops at the first
    iteration that leaves (w1, w2) unchanged, or after ``max_iters``.
    With ``prune_closure`` on, a final feasibility pass deactivates any
    triangle still missing a supporting edge and the signals are
    re-interpolated against the pruned triangle set.
    """
    t_start = time.perf_counter()
    _check_finite(x0=x0, x1_obs=x1_obs)
    obs = _check_observed(skeleton, observed_edges)
    if obs.size == 0:
        raise ValueError("at least one observed edge is required")
    if params.e_min is None or params.t_min is None:
        raise ValueError("params.e_min and params.t_min must be set")
    e_min, t_min = int(params.e_min), int(params.t_min)
    if not obs.size <= e_min <= skeleton.n_edges:
        raise ValueError(
            f"e_min must be in [{obs.size}, {skeleton.n_edges}], got {e_min}"
        )
    if not 0 <= t_min <= skeleton.n_triangles:
        raise ValueError(
            f"t_min must be in [0, {skeleton.n_triangles}], got {t_min}"
        )
    if params.max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    phase = {"triangle_select": 0.0, "edge_select": 0.0, "interpolate": 0.0, "objective": 0.0}

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        phase[key] += time.perf_counter() - t0
        return out

    w1 = np.zeros(skeleton.n_edges, dtype=np.int8)
    w1[obs] = 1
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    x1_est = timed("interpolate", interpolate_edge_signals, skeleton, w2, obs, x1_obs, params)

    trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(params.max_iters):
        prev_w1, prev_w2 = w1, w2
        s2 = timed("triangle_select", triangle_scores, skeleton, x1_est, w1, params)
        w2 = select_triangles(s2, t_min)
        s1 = timed("edge_select", edge_scores, skeleton, x0, w2, obs, params)
        w1 = select_edges(s1, obs, e_min, params.strict_lemma_mode)
        x1_est = timed("interpolate", interpolate_edge_signals, skeleton, w2, obs, x1_obs, params)
        trace.append(
            timed("objective", objective_value, skeleton, x0, x1_est, w1, w2, obs, x1_obs, params)
        )
        iterations += 1
        if np.array_equal(w1, prev_w1) and np.array_equal(w2, prev_w2):
            converged = True
            break

    pruned = 0
    if params.prune_closure:
        w2, pruned = prune_open_triangles(skeleton, w1, w2)
        if pruned:
            x1_est = timed(
                "interpolate", interpolate_edge_signals, skeleton, w2, obs, x1_obs, params
            )
    final_violations = closure_violations(skeleton, w1, w2).count
    phase["total"] = time.perf_counter() - t_start

    return LearnState(
        selection=make_selection(skeleton, w1, w2),
        x1_est=x1_est,
        objective_trace=tuple(trace),
        iterations_run=iterations,
        converged=converged,
        closure_violations=final_violations,
        pruned_triangles=pruned,
        phase_seconds=phase,
    )
