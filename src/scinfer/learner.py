"""Joint topology learning by block-coordinate subset selection.

The learner alternates three exact block solves of one objective over
(triangle indicators, edge indicators, interpolated edge signals):

  (A) triangle selection -- each candidate triangle carries a score
      combining its sparsity cost, the curl energy of the current edge
      signals through it, and a penalty per missing supporting edge;
      the t_min smallest scores win, ranked in buckets whose width
      (``bucket_width``) bounds the first two terms of every score, so
      that rounding in the solve cannot break an exact tie.
  (B) edge selection -- observed edges are forced; every other
      candidate carries sparsity cost plus node-signal smoothness minus
      a coverage bonus per active triangle leaning on it. Every negative
      score is activated, padded with the smallest nonnegative ones up
      to e_min: the exact block minimizer.
  (C) interpolation -- the minimum-norm edge-signal matrix minimizing
      curl energy through the active triangles plus a quadratic data-fit
      on the observed rows. Only the unobserved edges of active
      triangles can carry a kernel, so their rows are eliminated through
      a small pseudoinverse, its rank decided by ``topology._rank_mask``,
      and the coupled observed rows solve the Schur complement, which is
      positive definite. The blocks of B2 diag(w2) B2^T are scattered by
      ``topology._gram_blocks``.

Scores are evaluated through squared row norms of the per-edge
gradients and per-triangle curls of the signals; the candidate-by-
candidate Gram matrices are never formed. The curl energy is evaluated
in fixed-size blocks of triangles (``topology._curl_energy``), so each
block's gathered rows stay in cache. A run computes the node-signal
smoothness once and interpolates once per distinct triangle set: an
iteration that keeps the previous w2 reuses the previous signals. A
triangle with m missing edges scores at least alpha2 + m * gamma, so
GreedySCL computes curl energies tier by tier in m and stops once no
later tier can reach the cut; each energy is computed at most once per
interpolation, and the objective needs those of the active triangles
only.

The result is always a simplicial complex: a final pass deactivates any
triangle still missing one of its edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .topology import (
    ComplexSkeleton,
    Selection,
    _active_indices,
    _check_finite,
    _curl_energy,
    _gram_blocks,
    _rank_mask,
    _require_int,
    _require_real,
    _row_energy,
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
    "bucket_width",
    "select_triangles",
    "select_edges",
    "interpolate_edge_signals",
    "run_greedy_scl",
]

# Width of the score buckets ``select_triangles`` ranks, relative to
# alpha2 + 9 * beta2 * M, M = max_e ||x1_e||^2, which bounds the sparsity
# and curl terms of every candidate's score (``bucket_width``). It must
# exceed the rounding error of those terms and stay far below their
# genuine gaps. The interpolation solve has relative error up to about
# delta = kappa * m * 2**-53, for m <= 780 edge rows and kappa <= 1 +
# n_nodes * beta2 / eta the condition number of its Schur complement (5
# at 40 nodes and the default weights): delta is about 4e-13. A curl sums
# three edge rows, each off by at most delta * sqrt(M), and has norm at
# most 3 * sqrt(M), so its energy is off by at most about 18 * delta * M:
# 7e-12 * M, which the bucket width of at least 9e-9 * beta2 * M clears by
# three orders of magnitude. On the shipped sweeps, scores from two
# different solves of the same system differ by at most 4e-14 of the
# largest.
SCORE_QUANTUM = 1e-9

# Iteration cap of ``run_greedy_scl``: a safety bound, not part of the
# objective. Every GreedySCL run on the shipped sweeps and the n = 40
# benchmark bundles reaches its fixpoint in 2 to 9 iterations.
MAX_ITERS = 50


@dataclass(frozen=True)
class HyperParams:
    """Weights and budgets of the learning objective.

    ``e_min``/``t_min`` are the minimum active-edge and active-triangle
    counts; they have no sensible universal default and must be set
    (reproduction runs derive them from the ground truth). The six
    weights must be finite, nonnegative real numbers, so that every
    block solve minimizes the objective; zero is allowed. The budgets,
    when set, must be Python or numpy integers. A bool is refused
    everywhere, and a float budget rather than truncated.
    """

    alpha1: float = 1e-3
    alpha2: float = 1e-3
    beta1: float = 1.0
    beta2: float = 1.0
    gamma: float = 10.0
    eta: float = 10.0
    e_min: int | None = None
    t_min: int | None = None

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2", "gamma", "eta"):
            _require_real(name, getattr(self, name))
        for name in ("e_min", "t_min"):
            if getattr(self, name) is not None:
                _require_int(name, getattr(self, name))


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
    _require_int("e_min", params.e_min, 0, skeleton.n_edges)
    _require_int("t_min", params.t_min, 0, skeleton.n_triangles)
    return obs


def _check_rows(*checks) -> None:
    """Each ``(name, arr, rows)`` must be a 2-d array with ``rows`` rows."""
    for name, arr, rows in checks:
        if np.ndim(arr) != 2 or np.shape(arr)[0] != rows:
            raise ValueError(f"{name} must be 2-d with {rows} rows, got shape {np.shape(arr)}")


def _triangle_scores(curl_energy, missing, params):
    return params.alpha2 + params.beta2 * curl_energy + params.gamma * missing


def bucket_width(x1_est: np.ndarray, params: HyperParams) -> float:
    """Width ``q`` of the triangle-score buckets for the edge signals
    ``x1_est``: ``SCORE_QUANTUM * (alpha2 + 9 * beta2 * max_e ||x1_e||^2)``.

    A triangle's curl is a signed sum of three edge rows, so its energy
    is at most 9 times the largest squared row norm: ``q /
    SCORE_QUANTUM`` bounds ``alpha2 + beta2 * curl energy`` for every
    candidate, scored or not.
    """
    energy = _row_energy(np.asarray(x1_est, dtype=np.float64))
    return SCORE_QUANTUM * (params.alpha2 + 9.0 * params.beta2 * energy.max(initial=0.0))


def _bucket(scores, q):
    """Ranking key of ``select_triangles``: the bucket index at width
    ``q > 0``, the score itself at ``q = 0``."""
    return np.round(scores / q) if q > 0.0 else scores


def select_triangles(scores: np.ndarray, t_min: int, q: float) -> np.ndarray:
    """Activate the ``t_min`` smallest-score triangles.

    The ranking key is ``np.round(scores / q)`` for the bucket width
    ``q`` that ``bucket_width`` gives for the signals the scores came
    from, and equal keys go to the lowest candidate index. Scores that
    agree to within rounding error therefore tie exactly, and the index
    decides, not the last bits of the solve. Scores further apart than
    ``q`` keep their order, so the objective is within ``t_min * q`` of
    the block minimum. ``q = 0`` ranks the scores themselves.
    """
    scores = np.asarray(scores, dtype=np.float64)
    _require_int("t_min", t_min, 0, scores.size)
    _require_real("q", q)
    _check_finite(("scores", scores))
    w2 = np.zeros(scores.size, dtype=np.int8)
    w2[np.argsort(_bucket(scores, q), kind="stable")[:t_min]] = 1
    return w2


class _CurlMemo:
    """Curl energies of one signal matrix ``x1``, computed on demand;
    ``energy`` is valid where ``known`` is True and 0 elsewhere."""

    def __init__(self, skeleton: ComplexSkeleton, x1: np.ndarray):
        self.skeleton, self.x1 = skeleton, x1
        self.energy = np.zeros(skeleton.n_triangles)
        self.known = np.zeros(skeleton.n_triangles, dtype=bool)

    def fill(self, triangles: np.ndarray) -> None:
        todo = triangles[~self.known[triangles]]
        self.energy[todo] = _curl_energy(self.skeleton, self.x1, todo)
        self.known[todo] = True


def _select_by_tier(memo: _CurlMemo, w1, params, q: float, t_min: int) -> np.ndarray:
    """``select_triangles`` of the full triangle scores for the edge set
    ``w1``, computing only the curl energies that can decide the cut.

    Tier m holds the candidates with m missing edges, and none of them
    scores below its floor ``alpha2 + m * gamma``. The tiers are filled
    into ``memo`` in order of m until the ``t_min``-th smallest key of
    the filled tiers is strictly below the key of the next tier's floor:
    no candidate of a later tier can then reach the cut or tie into it,
    so ranking the filled tiers alone selects what the full pass selects.
    With ``gamma = 0`` every floor is ``alpha2``, no key falls below it,
    and every tier is filled.
    """
    missing = missing_edges(memo.skeleton, w1)
    for m in range(5):
        filled = np.flatnonzero(missing < m)
        scores = _triangle_scores(memo.energy[filled], missing[filled], params)
        if m == 4 or t_min == 0:
            break
        floor = _bucket(_triangle_scores(0.0, float(m), params), q)
        if t_min <= filled.size and np.partition(_bucket(scores, q), t_min - 1)[t_min - 1] < floor:
            break
        memo.fill(np.flatnonzero(missing == m))
    w2 = np.zeros(missing.size, dtype=np.int8)
    w2[filled] = select_triangles(scores, t_min, q)
    return w2


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
    _require_int("e_min", e_min, 0, scores.size)
    if e_min < obs.size:
        raise ValueError(f"e_min={e_min} is below the {obs.size} observed edges")
    _check_finite(("scores", scores))

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
    from an eigendecomposition of the |U| x |U| block that keeps the
    eigenvalues ``topology._rank_mask`` keeps. x_O solves the
    Schur complement A_OO - A_OU A_UU^+ A_UO, which is at least
    ``eta * I``. The blocks A_UU, A_UO and A_OO are scattered from the
    active triangles (``_gram_blocks``). With ``eta = 0`` the right-hand
    side vanishes and the result is all zero; with no active triangle on
    an observed edge no solve runs.
    """
    w2a, active_t = _active_indices(w2, skeleton.n_triangles, "w2")
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
    incident = edge_coverage(skeleton, w2a) > 0
    coupled = incident[obs]
    if not coupled.any():
        return x1_est
    incident[obs] = False
    o_rows, u_rows = obs[coupled], np.flatnonzero(incident)

    g_uu, g_uo, g_oo = _gram_blocks(skeleton, active_t, u_rows, o_rows)
    eigvals, eigvecs = np.linalg.eigh(params.beta2 * g_uu)
    keep = _rank_mask(eigvals)
    root_inv = np.zeros_like(eigvals)
    root_inv[keep] = 1.0 / np.sqrt(eigvals[keep])
    # h^T h = A_OU A_UU^+ A_UO, so the Schur complement is symmetric.
    h = root_inv[:, None] * (eigvecs.T @ (params.beta2 * g_uo))
    schur = params.beta2 * g_oo - h.T @ h
    schur[np.diag_indices_from(schur)] += params.eta
    x_o = np.linalg.solve(schur, params.eta * x1o[coupled])

    x1_est[o_rows] = x_o
    x1_est[u_rows] = -eigvecs @ (root_inv[:, None] * (h @ x_o))
    return x1_est


def _objective(
    skeleton: ComplexSkeleton, smoothness, curl_energy, x1_est, w1, w2, obs, x1_obs, params
) -> float:
    resid = x1_est[obs] - x1_obs
    return float(
        params.alpha1 * w1.sum()
        + params.alpha2 * w2.sum()
        + params.beta1 * smoothness @ w1
        + params.beta2 * curl_energy @ w2
        + params.eta * np.sum(resid * resid)
        + params.gamma * (w1 == 0) @ edge_coverage(skeleton, w2)
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
    keeps the previous signals without solving again. Each interpolation
    starts a memo of curl energies and fixes the bucket width
    (``bucket_width``) of the scores taken from its signals. The
    objective reads the energies of the active triangles; the triangle
    step fills the memo tier by tier of missing edges and stops once no
    later tier can reach the ``t_min`` cut (``_select_by_tier``), so it
    selects what ranking every score would. Stops at the first
    iteration that leaves (w1, w2) unchanged, or after ``MAX_ITERS``.
    A final feasibility pass then deactivates any triangle still missing
    a supporting edge, so the result is downward closed; if it removed
    any, the signals are re-interpolated against the pruned triangle set.
    """
    t_start = time.perf_counter()
    obs = _check_inputs(skeleton, x0, x1_obs, observed_edges, params)
    e_min, t_min = int(params.e_min), int(params.t_min)

    phase = {"triangle_select": 0.0, "edge_select": 0.0, "interpolate": 0.0, "objective": 0.0}

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        phase[key] += time.perf_counter() - t0
        return out

    def interpolate(w2):
        x1 = interpolate_edge_signals(skeleton, w2, obs, x1_obs, params)
        memo = _CurlMemo(skeleton, x1)
        memo.fill(np.flatnonzero(w2))
        return x1, memo, bucket_width(x1, params)

    def select_edge_block(w2):
        return select_edges(_edge_scores(skeleton, smoothness, w2, obs, params), obs, e_min)

    smoothness = _row_energy(edge_gradient(skeleton, np.asarray(x0, dtype=np.float64)))
    w1 = np.zeros(skeleton.n_edges, dtype=np.int8)
    w1[obs] = 1
    w2 = np.zeros(skeleton.n_triangles, dtype=np.int8)
    x1_est, memo, q = timed("interpolate", interpolate, w2)

    trace: list[float] = []
    converged = False
    for _ in range(MAX_ITERS):
        prev_w1, prev_w2 = w1, w2
        w2 = timed("triangle_select", _select_by_tier, memo, w1, params, q, t_min)
        w1 = timed("edge_select", select_edge_block, w2)
        if not np.array_equal(w2, prev_w2):
            x1_est, memo, q = timed("interpolate", interpolate, w2)
        args = (skeleton, smoothness, memo.energy, x1_est, w1, w2, obs, x1_obs, params)
        trace.append(timed("objective", _objective, *args))
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
        iterations_run=len(trace),
        converged=converged,
        pruned_triangles=pruned,
        phase_seconds=phase,
    )
