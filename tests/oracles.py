"""Independent oracles for the test suite.

Everything here recomputes target quantities from first principles:
dense incidence matrices enumerated from the orientation rule,
exhaustive subset enumeration for the cardinality-constrained selection
subproblems, fixed-step gradient descent and a full-system pseudoinverse
for the interpolation solve, and literal matrix-product objective
formulas (no row-norm shortcuts), a plain GreedySCL loop that scores
every candidate and interpolates by the full pseudoinverse, a
complex-document reader that checks one entry at a time, and set-based
recovery metrics with the Laplacians built entry by entry. The implementations under test must
agree with these to tight tolerances; the oracles deliberately share no
code with the package and import nothing from it.
"""

from __future__ import annotations

import itertools

import numpy as np


def incidence(n):
    """Dense boundary matrices ``(b1, b2)`` of the complete complex on
    ``n`` vertices: ``b1`` is nodes by edges, ``b2`` edges by triangles.

    Edges and triangles are the lexicographic vertex combinations. Edge
    ``(i, j)`` carries -1 at ``i`` and +1 at ``j``; triangle ``(i, j, k)``
    carries +1 on ``(i, j)``, -1 on ``(i, k)`` and +1 on ``(j, k)``.
    """
    edges = list(itertools.combinations(range(n), 2))
    position = {edge: col for col, edge in enumerate(edges)}
    triangles = list(itertools.combinations(range(n), 3))
    b1 = np.zeros((n, len(edges)))
    for col, (i, j) in enumerate(edges):
        b1[i, col] = -1.0
        b1[j, col] = 1.0
    b2 = np.zeros((len(edges), len(triangles)))
    for col, (i, j, k) in enumerate(triangles):
        b2[position[(i, j)], col] = 1.0
        b2[position[(i, k)], col] = -1.0
        b2[position[(j, k)], col] = 1.0
    return b1, b2


def parse_complex(data):
    """Reference reading of a serialized complex, one entry at a time.

    Returns the indicator vectors ``(w1, w2)`` (int8) over the
    lexicographic vertex combinations, or raises ``ValueError`` for the
    first fault in document order: edges entry by entry, then triangles,
    then the first listed triangle (in candidate order) with an unlisted
    edge. An entry is faulty if it is not a list of integer vertices of
    the right count, if it is not a candidate simplex (a vertex out of
    range, or vertices not strictly increasing), or if it does not come
    strictly after its predecessor.
    """
    if not isinstance(data, dict):
        raise ValueError("complex document must be a JSON object")
    for key in ("n_nodes", "edges", "triangles"):
        if key not in data:
            raise ValueError(f"complex document missing key '{key}'")
    for key in ("edges", "triangles"):
        if not isinstance(data[key], list):
            raise ValueError(f"complex document key '{key}' must be a list")
    n = data["n_nodes"]
    edges = list(itertools.combinations(range(n), 2))
    triangles = list(itertools.combinations(range(n), 3))
    edge_pos = {edge: pos for pos, edge in enumerate(edges)}
    tri_pos = {tri: pos for pos, tri in enumerate(triangles)}
    w1 = np.zeros(len(edges), dtype=np.int8)
    w2 = np.zeros(len(triangles), dtype=np.int8)
    for kind, size, position, w in (("edge", 2, edge_pos, w1), ("triangle", 3, tri_pos, w2)):
        prev = None
        for entry in data[kind + "s"]:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == size
                and all(type(v) is int for v in entry)
            ):
                raise ValueError(
                    f"{kind} entry {entry!r} must be a list of {size} integer vertices"
                )
            simplex = tuple(entry)
            if simplex not in position:
                raise ValueError(f"invalid {kind} {simplex} for {n} nodes")
            if prev is not None and simplex <= prev:
                raise ValueError(
                    f"{kind}s must be strictly lexicographic; saw {entry!r} out of order"
                )
            prev = simplex
            w[position[simplex]] = 1
    for pos, (i, j, k) in enumerate(triangles):
        missing = [e for e in ((i, j), (i, k), (j, k)) if not w1[edge_pos[e]]]
        if w2[pos] and missing:
            raise ValueError(
                f"triangle {(i, j, k)} lists inactive edge(s) {missing}; "
                "complex is not downward closed"
            )
    return w1, w2


def upper_gram(b2, w2):
    """Dense ``B2 diag(w2) B2^T``, the edges-by-edges curl Gram matrix."""
    return b2 @ np.diag(np.asarray(w2, dtype=float)) @ b2.T


def triangle_subproblem_value(b2, x1_est, w1, w2, alpha2, beta2, gamma):
    """Literal value of the triangle-block partial objective."""
    w2 = np.asarray(w2, dtype=float)
    lu = b2 @ np.diag(w2) @ b2.T
    fit = np.trace(x1_est @ x1_est.T @ lu)
    closure = (1.0 - np.asarray(w1, dtype=float)) @ np.abs(b2) @ w2
    return alpha2 * w2.sum() + beta2 * fit + gamma * closure


def brute_force_triangles(b2, x1_est, w1, alpha2, beta2, gamma, t_min):
    """Exhaustive minimum of the triangle block over all admissible w2.

    Enumerates every binary vector with at least ``t_min`` active
    entries. Only usable for small candidate counts.
    """
    n = b2.shape[1]
    best_val = np.inf
    best_w2 = None
    for bits in itertools.product((0, 1), repeat=n):
        w2 = np.array(bits, dtype=float)
        if w2.sum() < t_min:
            continue
        val = triangle_subproblem_value(b2, x1_est, w1, w2, alpha2, beta2, gamma)
        if val < best_val:
            best_val = val
            best_w2 = w2
    return best_val, best_w2


def edge_subproblem_value(b1, b2, x0, w1, w2, alpha1, beta1, gamma):
    """Literal value of the edge-block partial objective."""
    w1 = np.asarray(w1, dtype=float)
    l0 = b1 @ np.diag(w1) @ b1.T
    fit = np.trace(x0 @ x0.T @ l0)
    closure = (1.0 - w1) @ np.abs(b2) @ np.asarray(w2, dtype=float)
    return alpha1 * w1.sum() + beta1 * fit + gamma * closure


def brute_force_edges(b1, b2, x0, w2, observed, alpha1, beta1, gamma, e_min):
    """Exhaustive minimum of the edge block over admissible w1.

    Admissible vectors contain every observed edge and have at least
    ``e_min`` active entries.
    """
    n = b1.shape[1]
    observed = set(int(o) for o in observed)
    best_val = np.inf
    best_w1 = None
    for bits in itertools.product((0, 1), repeat=n):
        w1 = np.array(bits, dtype=float)
        if any(w1[o] == 0 for o in observed):
            continue
        if w1.sum() < e_min:
            continue
        val = edge_subproblem_value(b1, b2, x0, w1, w2, alpha1, beta1, gamma)
        if val < best_val:
            best_val = val
            best_w1 = w1
    return best_val, best_w1


def interpolation_objective(b2, w2, observed, x1_obs, x, beta2, eta):
    """Quadratic objective the interpolation step is meant to minimize."""
    lu = b2 @ np.diag(np.asarray(w2, dtype=float)) @ b2.T
    fit = np.trace(x.T @ lu @ x)
    resid = x[np.asarray(observed, dtype=int)] - x1_obs
    return beta2 * fit + eta * np.sum(resid * resid)


def gradient_descent_interpolation(
    b2, w2, observed, x1_obs, beta2, eta, max_iters=400_000, tol=1e-14
):
    """First-order solve of the interpolation subproblem.

    Fixed-step gradient descent from the origin; iterates stay inside
    the range of the system matrix, so the limit is the minimum-norm
    minimizer (the pseudoinverse solution). Returns the iterate once the
    relative gradient norm drops below ``tol``.
    """
    n_edges = b2.shape[0]
    n_cols = x1_obs.shape[1]
    observed = np.asarray(observed, dtype=int)
    w2 = np.asarray(w2, dtype=float)

    lu = b2 @ np.diag(w2) @ b2.T
    theta_diag = np.zeros(n_edges)
    theta_diag[observed] = 1.0
    rhs = np.zeros((n_edges, n_cols))
    rhs[observed] = eta * x1_obs

    sys_mat = beta2 * lu + eta * np.diag(theta_diag)
    lip = 2.0 * np.linalg.eigvalsh(sys_mat).max()
    if lip <= 0:
        return np.zeros((n_edges, n_cols))
    step = 1.0 / lip
    rhs_scale = max(np.linalg.norm(rhs), 1e-30)

    x = np.zeros((n_edges, n_cols))
    for _ in range(max_iters):
        grad = 2.0 * (sys_mat @ x - rhs)
        if np.linalg.norm(grad) <= tol * rhs_scale:
            break
        x -= step * grad
    return x


def pinv_interpolation(b2, w2, observed, x1_obs, beta2, eta, pinv_tol=1e-10):
    """Minimum-norm interpolation by a pseudoinverse of the full system.

    Eigendecomposes the dense edges-by-edges system matrix
    ``beta2 * B2 diag(w2) B2^T + eta * Theta^T Theta`` and inverts every
    eigenvalue above ``pinv_tol`` times the largest; the rest span the
    kernel, which the solution avoids.
    """
    observed = np.asarray(observed, dtype=int)
    lu = b2 @ np.diag(np.asarray(w2, dtype=float)) @ b2.T
    theta_diag = np.zeros(b2.shape[0])
    theta_diag[observed] = 1.0
    sys_mat = beta2 * lu + eta * np.diag(theta_diag)
    rhs = np.zeros((b2.shape[0], x1_obs.shape[1]))
    rhs[observed] = eta * x1_obs

    eigvals, eigvecs = np.linalg.eigh(sys_mat)
    inv = np.zeros_like(eigvals)
    keep = eigvals > pinv_tol * eigvals.max()
    inv[keep] = 1.0 / eigvals[keep]
    return eigvecs @ (inv[:, None] * (eigvecs.T @ rhs))


def full_objective(
    skeleton_b1, skeleton_b2, x0, x1_est, w1, w2, observed, x1_obs, params
):
    """Literal full objective, matrix products only."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    l0 = skeleton_b1 @ np.diag(w1) @ skeleton_b1.T
    lu = skeleton_b2 @ np.diag(w2) @ skeleton_b2.T
    resid = x1_est[np.asarray(observed, dtype=int)] - x1_obs
    return (
        params.alpha1 * w1.sum()
        + params.alpha2 * w2.sum()
        + params.beta1 * np.trace(x0 @ x0.T @ l0)
        + params.beta2 * np.trace(x1_est @ x1_est.T @ lu)
        + params.eta * np.sum(resid * resid)
        + params.gamma * ((1.0 - w1) @ np.abs(skeleton_b2) @ w2)
    )


def reference_greedy_scl(
    n, x0, x1_obs, observed, params, max_iters=50, score_quantum=1e-9, pinv_tol=1e-10
):
    """GreedySCL's loop as its docstrings state it, with nothing skipped.

    Dense ``B1`` and ``B2`` come from ``incidence(n)``. Starting from
    (observed edges, no triangles, the interpolation of no triangles),
    each iteration:

    - scores every candidate triangle, ``alpha2 + beta2 * curl energy +
      gamma * missing edges``, and activates the ``t_min`` smallest by
      the bucket rule: key ``round(score / q)`` with ``q = score_quantum
      * (alpha2 + 9 * beta2 * max_e ||x1_e||^2)`` (the score itself when
      ``q = 0``), equal keys to the lowest index;
    - scores every edge, ``alpha1 + beta1 * smoothness - gamma * active
      triangles on it``, keeps the observed edges and activates the
      unobserved ones in stable ascending order, as many as
      ``max(e_min - |observed|, negative unobserved scores)``;
    - interpolates with ``pinv_interpolation`` on the new triangles,
      always, and appends ``full_objective``.

    It stops when an iteration leaves (w1, w2) unchanged, or after
    ``max_iters``. Every triangle still missing an edge is then
    deactivated and, if any was, the signals are interpolated again.

    Returns a dict: ``w1``, ``w2``, ``x1``, ``trace``, ``iterations_run``,
    ``converged``, ``pruned``, ``tiers``, the most missing edges of a
    triangle selected at each triangle step (-1 for none), and
    ``cut_values``, which holds for each triangle step the ``score / q``
    of every candidate whose key is within one of the ``t_min``-th
    smallest key (empty when ``q = 0`` or the budget selects none or all).
    """
    b1, b2 = incidence(n)
    closure = np.abs(b2)
    observed = np.asarray(observed, dtype=int)
    unobserved = np.setdiff1d(np.arange(b1.shape[1]), observed)
    grad = b1.T @ x0
    smoothness = np.sum(grad * grad, axis=1)

    def interpolate(w2):
        return pinv_interpolation(b2, w2, observed, x1_obs, params.beta2, params.eta, pinv_tol)

    def triangle_step(x1, w1):
        curl = b2.T @ x1
        energy = np.sum(curl * curl, axis=1)
        missing = (1.0 - w1) @ closure
        scores = params.alpha2 + params.beta2 * energy + params.gamma * missing
        q = score_quantum * (params.alpha2 + 9.0 * params.beta2 * np.max(np.sum(x1 * x1, axis=1)))
        keys = np.round(scores / q) if q > 0.0 else scores
        order = np.argsort(keys, kind="stable")
        w2 = np.zeros(b2.shape[1])
        w2[order[: params.t_min]] = 1.0
        near = np.zeros(0)
        if q > 0.0 and 0 < params.t_min < keys.size:
            cut = keys[order[params.t_min - 1]]
            near = (scores / q)[np.abs(keys - cut) <= 1.0]
        return w2, near, int(missing[w2 == 1.0].max(initial=-1))

    def edge_step(w2):
        scores = params.alpha1 + params.beta1 * smoothness - params.gamma * (closure @ w2)
        ranked = unobserved[np.argsort(scores[unobserved], kind="stable")]
        take = max(params.e_min - observed.size, int(np.sum(scores[unobserved] < 0.0)))
        w1 = np.zeros(b1.shape[1])
        w1[observed] = 1.0
        w1[ranked[:take]] = 1.0
        return w1

    w1 = np.zeros(b1.shape[1])
    w1[observed] = 1.0
    w2 = np.zeros(b2.shape[1])
    x1 = interpolate(w2)
    trace, tiers, cut_values, converged = [], [], [], False
    for _ in range(max_iters):
        prev_w1, prev_w2 = w1, w2
        w2, near, tier = triangle_step(x1, w1)
        tiers.append(tier)
        cut_values.append(near)
        w1 = edge_step(w2)
        x1 = interpolate(w2)
        trace.append(full_objective(b1, b2, x0, x1, w1, w2, observed, x1_obs, params))
        if np.array_equal(w1, prev_w1) and np.array_equal(w2, prev_w2):
            converged = True
            break

    open_triangles = (w2 == 1.0) & ((1.0 - w1) @ closure > 0)
    if open_triangles.any():
        w2 = np.where(open_triangles, 0.0, w2)
        x1 = interpolate(w2)
    return {
        "w1": w1, "w2": w2, "x1": x1, "trace": trace, "iterations_run": len(trace),
        "converged": converged, "pruned": int(open_triangles.sum()), "tiers": tiers,
        "cut_values": cut_values,
    }


def evaluation_report(n, est, truth):
    """Reference values of every ``EvalReport`` field, from sets.

    ``est`` and ``truth`` are ``(w1, w2)`` pairs of 0/1 sequences over
    the lexicographic vertex pairs and triples of ``n`` vertices. Each
    side becomes a set of edge and a set of triangle vertex tuples; the
    two Laplacians are built entry by entry as sparse dicts with the
    orientation signs of ``incidence`` (``L0 = B1 B1^T`` over the active
    edges, ``LU = B2 B2^T`` over the active triangles) and compared over
    the union of their entries, in exact integer arithmetic. NErr of an
    empty truth is 0 against an empty estimate and inf otherwise.
    """
    edges = list(itertools.combinations(range(n), 2))
    triangles = list(itertools.combinations(range(n), 3))

    def active(candidates, w):
        return {c for c, flag in zip(candidates, w) if flag}

    def laplacian(boundaries):
        entries = {}
        for boundary in boundaries:
            for a, sign_a in boundary:
                for b, sign_b in boundary:
                    entries[a, b] = entries.get((a, b), 0) + sign_a * sign_b
        return entries

    def node_boundary(edge):
        i, j = edge
        return ((i, -1), (j, 1))

    def edge_boundary(tri):
        i, j, k = tri
        return (((i, j), 1), ((i, k), -1), ((j, k), 1))

    def nerr(l_est, l_true):
        keys = set(l_est) | set(l_true)
        num = sum((l_true.get(key, 0) - l_est.get(key, 0)) ** 2 for key in keys)
        den = sum(v * v for v in l_true.values())
        if den == 0:
            return 0.0 if num == 0 else float("inf")
        return num / den

    def scores(pred, actual):
        tp = len(pred & actual)
        if pred:
            precision = tp / len(pred)
        else:
            precision = 1.0 if not actual else 0.0
        if actual:
            recall = tp / len(actual)
        else:
            recall = 1.0 if not pred else 0.0
        f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
        return precision, recall, f1

    e_est, e_true = active(edges, est[0]), active(edges, truth[0])
    t_est, t_true = active(triangles, est[1]), active(triangles, truth[1])
    edge_p, edge_r, edge_f1 = scores(e_est, e_true)
    tri_p, tri_r, tri_f1 = scores(t_est, t_true)
    return {
        "nerr_l0": nerr(
            laplacian(map(node_boundary, e_est)), laplacian(map(node_boundary, e_true))
        ),
        "nerr_lu": nerr(
            laplacian(map(edge_boundary, t_est)), laplacian(map(edge_boundary, t_true))
        ),
        "edge_precision": edge_p,
        "edge_recall": edge_r,
        "edge_f1": edge_f1,
        "triangle_precision": tri_p,
        "triangle_recall": tri_r,
        "triangle_f1": tri_f1,
        "closure_violations": sum(
            face not in e_est for tri in t_est for face, _ in edge_boundary(tri)
        ),
    }
