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
candidate Gram matrices are never formed. A run computes the node-signal
smoothness once and the curl energy once per interpolated signal, which
feeds both the objective of its iteration and the next triangle scores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .topology import (
    ComplexSkeleton,
    Selection,
    b2_block,
    check_observed_edges,
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

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


def _check_inputs(skeleton: ComplexSkeleton, x0, x1_obs, observed_edges, params) -> np.ndarray:
    """The input check every method runs first; returns the observed indices as int64."""
    obs = check_observed_edges(skeleton, observed_edges)
    for name, arr, rows in (("x0", x0, skeleton.n_nodes), ("x1_obs", x1_obs, obs.size)):
        if np.ndim(arr) != 2 or np.shape(arr)[0] != rows:
            raise ValueError(f"{name} must be 2-d with {rows} rows, got shape {np.shape(arr)}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")
    if params.e_min is None or params.t_min is None:
        raise ValueError("params.e_min and params.t_min must be set")
    if not 0 <= params.e_min <= skeleton.n_edges:
        raise ValueError(f"e_min must be in [0, {skeleton.n_edges}], got {params.e_min}")
    if not 0 <= params.t_min <= skeleton.n_triangles:
        raise ValueError(f"t_min must be in [0, {skeleton.n_triangles}], got {params.t_min}")
    return obs


def _row_energy(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", a, a)


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
    return _triangle_scores(skeleton, _row_energy(triangle_curl(skeleton, x1)), w1a, params)


def _triangle_scores(skeleton: ComplexSkeleton, curl_energy, w1, params) -> np.ndarray:
    missing = missing_edges(skeleton, w1)
    return params.alpha2 + params.beta2 * curl_energy + params.gamma * missing


def select_triangles(scores: np.ndarray, t_min: int) -> np.ndarray:
    """Activate the ``t_min`` smallest-score triangles (stable ties)."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= t_min <= scores.size:
        raise ValueError(f"t_min must be in [0, {scores.size}], got {t_min}")
    w2 = np.zeros(scores.size, dtype=np.int8)
    w2[np.argsort(scores, kind="stable")[:t_min]] = 1
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
    obs = check_observed_edges(skeleton, observed_edges)
    return _edge_scores(skeleton, _row_energy(edge_gradient(skeleton, x0a)), w2a, obs, params)


def _edge_scores(skeleton: ComplexSkeleton, smoothness, w2, obs, params) -> np.ndarray:
    coverage = edge_coverage(skeleton, w2)
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

    Observed edges are always active. Both modes then activate a prefix
    of one order of the unobserved edges (ascending score, ties to the
    lowest candidate index) and differ only in its length. Strict mode
    takes ``e_min - |observed|`` entries. Default mode also takes every
    strictly negative score, which sort first, so it returns the exact
    minimizer of the edge block.
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
    order = unobserved[np.argsort(scores[unobserved], kind="stable")]
    take = e_min - obs.size
    if not strict_lemma_mode:
        take = max(take, int((scores[unobserved] < 0.0).sum()))
    w1[order[:take]] = 1
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
    obs = check_observed_edges(skeleton, observed_edges)
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
    obs = np.asarray(observed_edges, dtype=np.int64)
    smoothness = _row_energy(edge_gradient(skeleton, x0))
    curl_energy = _row_energy(triangle_curl(skeleton, x1_est))
    return _objective(skeleton, smoothness, curl_energy, x1_est, w1, w2, obs, x1_obs, params)


def _objective(
    skeleton: ComplexSkeleton, smoothness, curl_energy, x1_est, w1, w2, obs, x1_obs, params
) -> float:
    w1a = np.asarray(w1, dtype=np.float64)
    w2a = np.asarray(w2, dtype=np.float64)
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
    obs = _check_inputs(skeleton, x0, x1_obs, observed_edges, params)
    if obs.size == 0:
        raise ValueError("at least one observed edge is required")
    e_min, t_min = int(params.e_min), int(params.t_min)

    phase = {"triangle_select": 0.0, "edge_select": 0.0, "interpolate": 0.0, "objective": 0.0}

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        phase[key] += time.perf_counter() - t0
        return out

    def interpolate(w2):
        x1 = interpolate_edge_signals(skeleton, w2, obs, x1_obs, params)
        return x1, _row_energy(triangle_curl(skeleton, x1))

    smoothness = _row_energy(edge_gradient(skeleton, np.asarray(x0, dtype=np.float64)))
    w1 = np.zeros(skeleton.n_edges, dtype=np.int8)
    w1[obs] = 1
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    x1_est, curl_energy = timed("interpolate", interpolate, w2)

    trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(params.max_iters):
        prev_w1, prev_w2 = w1, w2
        s2 = timed("triangle_select", _triangle_scores, skeleton, curl_energy, w1, params)
        w2 = select_triangles(s2, t_min)
        s1 = timed("edge_select", _edge_scores, skeleton, smoothness, w2, obs, params)
        w1 = select_edges(s1, obs, e_min, params.strict_lemma_mode)
        x1_est, curl_energy = timed("interpolate", interpolate, w2)
        args = (skeleton, smoothness, curl_energy, x1_est, w1, w2, obs, x1_obs, params)
        trace.append(timed("objective", _objective, *args))
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
