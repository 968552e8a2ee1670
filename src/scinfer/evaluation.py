"""Recovery metrics: normalized Laplacian errors and support scores.

Laplacian errors always compare the full candidate-axis embeddings
(node-by-node for the graph Laplacian, candidate-edge-by-candidate-edge
for the upper one), so estimates with different active sets stay
directly comparable. Both errors are computed exactly from integer
counts: a diagonal of node degrees (per-edge triangle counts) plus two
(six) off-diagonal unit entries per active edge (triangle). Every count
is taken over the active simplices alone, the diagonals by the face
count behind ``topology.edge_coverage``, and no indicator is copied to
floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .topology import ComplexSkeleton, Selection, _active_indices, _face_counts

__all__ = ["EvalReport", "nerr", "evaluate"]


@dataclass(frozen=True)
class EvalReport:
    nerr_l0: float
    nerr_lu: float
    edge_precision: float
    edge_recall: float
    edge_f1: float
    triangle_precision: float
    triangle_recall: float
    triangle_f1: float
    closure_violations: int

    def to_dict(self) -> dict:
        return asdict(self)


def nerr(l_est: np.ndarray, l_true: np.ndarray) -> float:
    """Squared-Frobenius error of an estimate, normalized by the truth.

    ``||l_true - l_est||_F^2 / ||l_true||_F^2``; raises on shape
    mismatch or an identically zero reference.
    """
    a = np.asarray(l_est, dtype=np.float64)
    b = np.asarray(l_true, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = np.sum(b * b)
    if denom == 0.0:
        raise ValueError("reference matrix is identically zero")
    return float(np.sum((b - a) ** 2) / denom)


def _count_nerr(faces, size: int, est_idx, true_idx, tp: int, off_diag: int) -> float:
    """``nerr`` of the combinatorial Laplacians of two sets of active
    simplices, given as rows of ``faces`` (an edge's two nodes, or a
    triangle's three edges) that share ``tp`` simplices.

    The diagonal counts the active simplices on each of ``size`` faces
    and each active simplex adds ``off_diag`` unit entries off it, so
    every sum is an exact integer. An empty truth scores 0 against an
    empty estimate and inf otherwise.
    """
    diag_est = _face_counts(faces, est_idx, size)
    diag_true = _face_counts(faces, true_idx, size)
    diff = diag_true - diag_est
    num = int(np.dot(diff, diff)) + off_diag * (est_idx.size + true_idx.size - 2 * tp)
    den = int(np.dot(diag_true, diag_true)) + off_diag * true_idx.size
    if den == 0:
        return 0.0 if num == 0 else math.inf
    return num / den


def _support_metrics(tp: int, pred: int, actual: int) -> tuple[float, float, float]:
    if pred == 0:
        precision = 1.0 if actual == 0 else 0.0
    else:
        precision = tp / pred
    if actual == 0:
        recall = 1.0 if pred == 0 else 0.0
    else:
        recall = tp / actual
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def evaluate(skeleton: ComplexSkeleton, est: Selection, truth: Selection) -> EvalReport:
    """Compare an estimated selection against the ground truth; both
    hold binary indicators over this skeleton's candidates, of any dtype
    (``topology._active_indices`` checks them). Only the active
    simplices are read."""
    (e1, e1_idx), (t1, t1_idx) = (
        _active_indices(sel.w1, skeleton.n_edges, "w1") for sel in (est, truth)
    )
    (_, e2_idx), (t2, t2_idx) = (
        _active_indices(sel.w2, skeleton.n_triangles, "w2") for sel in (est, truth)
    )
    edges_tp = int(np.count_nonzero(t1[e1_idx]))
    tris_tp = int(np.count_nonzero(t2[e2_idx]))
    nerr_l0 = _count_nerr(skeleton.edge_nodes, skeleton.n_nodes, e1_idx, t1_idx, edges_tp, 2)
    nerr_lu = _count_nerr(skeleton.tri_edges, skeleton.n_edges, e2_idx, t2_idx, tris_tp, 6)
    e_p, e_r, e_f1 = _support_metrics(edges_tp, e1_idx.size, t1_idx.size)
    t_p, t_r, t_f1 = _support_metrics(tris_tp, e2_idx.size, t2_idx.size)
    est_faces = skeleton.tri_edges[e2_idx]
    return EvalReport(
        nerr_l0=nerr_l0,
        nerr_lu=nerr_lu,
        edge_precision=e_p,
        edge_recall=e_r,
        edge_f1=e_f1,
        triangle_precision=t_p,
        triangle_recall=t_r,
        triangle_f1=t_f1,
        closure_violations=est_faces.size - int(np.count_nonzero(e1[est_faces])),
    )
