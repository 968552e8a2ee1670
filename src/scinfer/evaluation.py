"""Recovery metrics: normalized Laplacian errors and support scores.

Laplacian errors always compare the full candidate-axis embeddings
(node-by-node for the graph Laplacian, candidate-edge-by-candidate-edge
for the upper one), so estimates with different active sets stay
directly comparable. Both errors are computed exactly from integer
counts: a diagonal of node degrees (per-edge triangle counts) plus two
(six) off-diagonal unit entries per active edge (triangle).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .topology import (
    ComplexSkeleton,
    Selection,
    _as_indicator,
    _violation_count,
    edge_coverage,
    node_degrees,
)

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


def _count_nerr(diag_est, diag_true, w_est, w_true, off_diag: int) -> float:
    """``nerr`` of two combinatorial Laplacians given their diagonals and
    simplex indicators, with ``off_diag`` unit entries per simplex.

    An empty truth scores 0 against an empty estimate and inf otherwise.
    """
    num = np.sum((diag_true - diag_est) ** 2) + off_diag * np.count_nonzero(w_est != w_true)
    den = np.sum(diag_true * diag_true) + off_diag * np.count_nonzero(w_true)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return float(num / den)


def _support_metrics(est: np.ndarray, true: np.ndarray) -> tuple[float, float, float]:
    est_b = est.astype(bool)
    true_b = true.astype(bool)
    tp = int(np.sum(est_b & true_b))
    pred = int(est_b.sum())
    actual = int(true_b.sum())
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
    must be binary indicators over this skeleton's candidates."""
    e1, t1 = (_as_indicator(sel.w1, skeleton.n_edges, "w1") for sel in (est, truth))
    e2, t2 = (_as_indicator(sel.w2, skeleton.n_triangles, "w2") for sel in (est, truth))
    nerr_l0 = _count_nerr(node_degrees(skeleton, e1), node_degrees(skeleton, t1), e1, t1, 2)
    nerr_lu = _count_nerr(edge_coverage(skeleton, e2), edge_coverage(skeleton, t2), e2, t2, 6)
    e_p, e_r, e_f1 = _support_metrics(e1, t1)
    t_p, t_r, t_f1 = _support_metrics(e2, t2)
    return EvalReport(
        nerr_l0=nerr_l0,
        nerr_lu=nerr_lu,
        edge_precision=e_p,
        edge_recall=e_r,
        edge_f1=e_f1,
        triangle_precision=t_p,
        triangle_recall=t_r,
        triangle_f1=t_f1,
        closure_violations=_violation_count(skeleton, e1, e2),
    )
