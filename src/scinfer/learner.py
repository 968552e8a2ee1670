"""Joint topology learning by block-coordinate subset selection.

The learner alternates three exact block solves of one objective over
(triangle indicators, edge indicators, interpolated edge signals):

  (A) triangle selection -- each candidate triangle carries a score
      combining its sparsity cost, the curl energy of the current edge
      signals through it, and a penalty per missing supporting edge;
      the t_min smallest scores win, ranked in buckets of width
      SCORE_QUANTUM times the largest score so that rounding in the
      solve cannot break an exact tie.
  (B) edge selection -- observed edges are forced; every other
      candidate carries sparsity cost plus node-signal smoothness minus
      a coverage bonus per active triangle leaning on it. Every negative
      score is activated, padded with the smallest nonnegative ones up
      to e_min: the exact block minimizer.
  (C) interpolation -- the minimum-norm edge-signal matrix minimizing
      curl energy through the active triangles plus a quadratic data-fit
      on the observed rows. Only the unobserved edges of active
      triangles can carry a kernel, so their rows are eliminated through
      a small pseudoinverse and the coupled observed rows solve the
      Schur complement, which is positive definite.

Scores are evaluated through squared row norms of the per-edge
gradients and per-triangle curls of the signals; the candidate-by-
candidate Gram matrices are never formed. The curl energy is evaluated
in fixed-size blocks of triangles (``topology._curl_energy``), so each
block's gathered rows stay in cache. A run computes the node-signal
smoothness once and interpolates, with one curl-energy pass, once per
distinct triangle set: an iteration that keeps the previous w2 reuses
the previous signals, which feed both the objective of its iteration
and the next triangle scores.

The result is always a simplicial complex: a final pass deactivates any
triangle still missing one of its edges.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .topology import (
    ComplexSkeleton,
    Selection,
    _as_indicator,
    _curl_energy,
    _row_energy,
    b2_block,
    check_observed_edges,
    edge_coverage,
    edge_gradient,
    make_selection,
    missing_edges,
    prune_open_triangles,
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

# Relative eigenvalue cutoff of the interpolation solve: eigenvalues of
# the unobserved block A_UU at or below PINV_TOL times its largest are
# treated as its kernel.
PINV_TOL = 1e-10

# Width of the score buckets ``select_triangles`` ranks, relative to the
# largest |score|. It must exceed the rounding error of the scores and
# stay far below their genuine gaps. The interpolation solve has relative
# error up to about kappa * m * 2**-53, for m <= 780 edge rows and kappa
# <= 1 + n_nodes * beta2 / eta the condition number of its Schur
# complement (5 at 40 nodes and the default weights): about 4e-13.
# 1e-9 clears that by more than three orders of magnitude. On the shipped
# sweeps, scores from two different solves of the same system differ by
# at most 4e-14 of the largest.
SCORE_QUANTUM = 1e-9


@dataclass(frozen=True)
class HyperParams:
    """Weights and knobs of the learning objective.

    ``e_min``/``t_min`` are the minimum active-edge and active-triangle
    counts; they have no sensible universal default and must be set
    (reproduction runs derive them from the ground truth). The six
    weights must be finite and nonnegative, so that every block solve
    minimizes the objective; zero is allowed.
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

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2", "gamma", "eta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
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
    pruned_triangles: int
    phase_seconds: dict[str, float]


def _check_inputs(skeleton: ComplexSkeleton, x0, x1_obs, observed_edges, params) -> np.ndarray:
    """The input check every method runs first; returns the observed indices as int64."""
    obs = check_observed_edges(skeleton.n_edges, observed_edges)
    _check_rows(("x0", x0, skeleton.n_nodes), ("x1_obs", x1_obs, obs.size))
    _check_finite(("x0", x0), ("x1_obs", x1_obs))
    if params.e_min is None or params.t_min is None:
        raise ValueError("params.e_min and params.t_min must be set")
    if not 0 <= params.e_min <= skeleton.n_edges:
        raise ValueError(f"e_min must be in [0, {skeleton.n_edges}], got {params.e_min}")
    if not 0 <= params.t_min <= skeleton.n_triangles:
        raise ValueError(f"t_min must be in [0, {skeleton.n_triangles}], got {params.t_min}")
    return obs


def _check_rows(*checks) -> None:
    """Each ``(name, arr, rows)`` must be a 2-d array with ``rows`` rows."""
    for name, arr, rows in checks:
        if np.ndim(arr) != 2 or np.shape(arr)[0] != rows:
            raise ValueError(f"{name} must be 2-d with {rows} rows, got shape {np.shape(arr)}")


def _check_finite(*checks) -> None:
    """Each ``(name, arr)`` must hold only finite values."""
    for name, arr in checks:
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")


def triangle_scores(
    skeleton: ComplexSkeleton, x1_est: np.ndarray, w1, params: HyperParams
) -> np.ndarray:
    """Per-candidate-triangle selection scores.

    score_t = alpha2 + beta2 * ||row_t(B2^T X1)||^2
            + gamma * (# inactive supporting edges of t)
    """
    w1a = _as_indicator(w1, skeleton.n_edges, "w1")
    _check_rows(("x1_est", x1_est, skeleton.n_edges))
    _check_finite(("x1_est", x1_est))
    x1 = np.asarray(x1_est, dtype=np.float64)
    return _triangle_scores(skeleton, _curl_energy(skeleton, x1), w1a, params)


def _triangle_scores(skeleton: ComplexSkeleton, curl_energy, w1, params) -> np.ndarray:
    missing = missing_edges(skeleton, w1)
    return params.alpha2 + params.beta2 * curl_energy + params.gamma * missing


def select_triangles(scores: np.ndarray, t_min: int) -> np.ndarray:
    """Activate the ``t_min`` smallest-score triangles.

    The ranking key is ``np.round(scores / q)`` with ``q = SCORE_QUANTUM
    * max|score|``, and equal keys go to the lowest candidate index.
    Scores that agree to within rounding error therefore tie exactly, and
    the index decides, not the last bits of the solve. Scores further
    apart than ``q`` keep their order, so the objective is within
    ``t_min * q`` of the block minimum. All-zero scores rank by index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= t_min <= scores.size:
        raise ValueError(f"t_min must be in [0, {scores.size}], got {t_min}")
    _check_finite(("scores", scores))
    q = SCORE_QUANTUM * np.abs(scores).max(initial=0.0)
    key = np.round(scores / q) if q > 0.0 else scores
    w2 = np.zeros(scores.size, dtype=np.int8)
    w2[np.argsort(key, kind="stable")[:t_min]] = 1
    return w2


def edge_scores(
    skeleton: ComplexSkeleton, x0: np.ndarray, w2, observed_edges, params: HyperParams
) -> np.ndarray:
    """Per-candidate-edge selection scores; observed edges score zero.

    score_l = alpha1 + beta1 * ||row_l(B1^T X0)||^2
            - gamma * (# active triangles supported by l)
    """
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2")
    _check_rows(("x0", x0, skeleton.n_nodes))
    x0a = np.asarray(x0, dtype=np.float64)
    obs = check_observed_edges(skeleton.n_edges, observed_edges)
    return _edge_scores(skeleton, _row_energy(edge_gradient(skeleton, x0a)), w2a, obs, params)


def _edge_scores(skeleton: ComplexSkeleton, smoothness, w2, obs, params) -> np.ndarray:
    coverage = edge_coverage(skeleton, w2)
    scores = params.alpha1 + params.beta1 * smoothness - params.gamma * coverage
    scores[obs] = 0.0
    return scores


def select_edges(scores: np.ndarray, observed_edges, e_min: int) -> np.ndarray:
    """Pick the active edge set given scores and the forced observed set.

    Observed edges are always active. The rest is a prefix of the
    unobserved edges in ascending score order (ties to the lowest
    candidate index), of length ``max(e_min - |observed|, #negative
    scores)``: every strictly negative score, which sort first, padded
    up to ``e_min``. That is the exact minimizer of the edge block.
    """
    scores = np.asarray(scores, dtype=np.float64)
    obs = check_observed_edges(scores.size, observed_edges)
    if not 0 <= e_min <= scores.size:
        raise ValueError(f"e_min must be in [0, {scores.size}], got {e_min}")
    if e_min < obs.size:
        raise ValueError(f"e_min={e_min} is below the {obs.size} observed edges")

    w1 = np.zeros(scores.size, dtype=np.int8)
    w1[obs] = 1
    unobserved = np.flatnonzero(w1 == 0)
    order = unobserved[np.argsort(scores[unobserved], kind="stable")]
    take = max(e_min - obs.size, int((scores[unobserved] < 0.0).sum()))
    w1[order[:take]] = 1
    return w1


def interpolate_edge_signals(
    skeleton: ComplexSkeleton,
    w2,
    observed_edges,
    x1_obs: np.ndarray,
    params: HyperParams,
) -> np.ndarray:
    """Closed-form minimum-norm minimizer of the interpolation block.

    Solves A X = eta * Theta^T X1_obs with A = beta2 * B2 diag(w2) B2^T
    + eta * Theta^T Theta for a binary ``w2``. The edges fall into four
    classes:

    - neither observed nor on an active triangle: structurally zero;
    - observed and on no active triangle: their block is ``eta * I``, so
      they equal ``x1_obs`` exactly;
    - observed and on an active triangle: the coupled rows O;
    - unobserved and on an active triangle: the rows U.

    The kernel of A is {v : v_O = 0, beta2 * B2[U]^T v_U = 0}, so only
    U can carry one. Its rows are x_U = -A_UU^+ A_UO x_O, with A_UU^+ taken
    from an eigendecomposition of the |U| x |U| block that drops every
    eigenvalue at or below ``PINV_TOL`` times its largest. x_O solves the
    Schur complement A_OO - A_OU A_UU^+ A_UO, which is at least
    ``eta * I``. With ``eta = 0`` the right-hand side vanishes and the
    result is all zero; with no active triangle on an observed edge no
    solve runs.
    """
    w2a = _as_indicator(w2, skeleton.n_triangles, "w2")
    obs = check_observed_edges(skeleton.n_edges, observed_edges)
    if obs.size == 0:
        raise ValueError("interpolation requires at least one observed edge")
    _check_rows(("x1_obs", x1_obs, obs.size))
    _check_finite(("x1_obs", x1_obs))
    x1o = np.asarray(x1_obs, dtype=np.float64)

    x1_est = np.zeros((skeleton.n_edges, x1o.shape[1]))
    if params.eta == 0.0:
        return x1_est
    x1_est[obs] = x1o
    incident = edge_coverage(skeleton, w2a) > 0.0
    coupled = incident[obs]
    if not coupled.any():
        return x1_est
    incident[obs] = False
    o_rows, u_rows = obs[coupled], np.flatnonzero(incident)

    active = np.flatnonzero(w2a)
    b2o = b2_block(skeleton, o_rows, active)
    b2u = b2_block(skeleton, u_rows, active)
    eigvals, eigvecs = np.linalg.eigh(params.beta2 * (b2u @ b2u.T))
    keep = eigvals > PINV_TOL * eigvals.max(initial=0.0)
    root_inv = np.zeros_like(eigvals)
    root_inv[keep] = 1.0 / np.sqrt(eigvals[keep])
    # h^T h = A_OU A_UU^+ A_UO, so the Schur complement is symmetric.
    h = root_inv[:, None] * (eigvecs.T @ (params.beta2 * (b2u @ b2o.T)))
    schur = params.beta2 * (b2o @ b2o.T) - h.T @ h
    schur[np.diag_indices_from(schur)] += params.eta
    x_o = np.linalg.solve(schur, params.eta * x1o[coupled])

    x1_est[o_rows] = x_o
    x1_est[u_rows] = -eigvecs @ (root_inv[:, None] * (h @ x_o))
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
    obs = check_observed_edges(skeleton.n_edges, observed_edges)
    rows = (("x0", x0, skeleton.n_nodes), ("x1_est", x1_est, skeleton.n_edges))
    _check_rows(*rows, ("x1_obs", x1_obs, obs.size))
    w1 = _as_indicator(w1, skeleton.n_edges, "w1")
    w2 = _as_indicator(w2, skeleton.n_triangles, "w2")
    smoothness = _row_energy(edge_gradient(skeleton, x0))
    curl_energy = _curl_energy(skeleton, x1_est)
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
    then interpolation, and records the objective. The interpolation
    depends on w2 alone, so an iteration that keeps the previous w2
    keeps the previous signals without solving again. Stops at the first
    iteration that leaves (w1, w2) unchanged, or after ``max_iters``.
    A final feasibility pass then deactivates any triangle still missing
    a supporting edge, so the result is downward closed; if it removed
    any, the signals are re-interpolated against the pruned triangle set.
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
        return x1, _curl_energy(skeleton, x1)

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
        w1 = select_edges(s1, obs, e_min)
        if not np.array_equal(w2, prev_w2):
            x1_est, curl_energy = timed("interpolate", interpolate, w2)
        args = (skeleton, smoothness, curl_energy, x1_est, w1, w2, obs, x1_obs, params)
        trace.append(timed("objective", _objective, *args))
        iterations += 1
        if np.array_equal(w1, prev_w1) and np.array_equal(w2, prev_w2):
            converged = True
            break

    w2, pruned = prune_open_triangles(skeleton, w1, w2)
    if pruned:
        x1_est = timed("interpolate", interpolate_edge_signals, skeleton, w2, obs, x1_obs, params)
    phase["total"] = time.perf_counter() - t_start

    return LearnState(
        selection=make_selection(skeleton, w1, w2),
        x1_est=x1_est,
        objective_trace=tuple(trace),
        iterations_run=iterations,
        converged=converged,
        pruned_triangles=pruned,
        phase_seconds=phase,
    )
