"""Independent oracles for the test suite.

Everything here recomputes target quantities from first principles:
dense incidence matrices enumerated from the orientation rule,
exhaustive subset enumeration for the cardinality-constrained selection
subproblems, fixed-step gradient descent and a full-system pseudoinverse
for the interpolation solve, and literal matrix-product objective
formulas (no row-norm shortcuts), and a complex-document reader that
checks one entry at a time. The implementations under test must
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
