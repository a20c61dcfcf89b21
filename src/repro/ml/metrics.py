"""Classification metrics used throughout the SpliDT evaluation.

The paper reports macro/weighted F1 scores; these implementations follow the
standard definitions (per-class precision/recall, averaged either uniformly or
by class support).
"""

from __future__ import annotations

import numpy as np

AVERAGES = ("macro", "weighted", "micro")


def _encode(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    classes, index = np.unique(np.concatenate([y_true, y_pred]), return_inverse=True)
    index = index.reshape(-1).astype(np.intp, copy=False)
    return classes, index[: y_true.size], index[y_true.size:]


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Confusion matrix ``C`` with ``C[i, j]`` = true class i predicted as j."""
    classes, true_idx, pred_idx = _encode(y_true, y_pred)
    n = classes.size
    matrix = np.zeros((n, n), dtype=np.int64)
    np.add.at(matrix, (true_idx, pred_idx), 1)
    return matrix


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly-correct predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))


def precision_recall_f1(
    y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro"
) -> tuple[float, float, float]:
    """Precision, recall and F1 with the requested averaging.

    Classes that never appear in ``y_true`` or ``y_pred`` contribute zero to
    the macro average, matching the paper's conservative scoring of rare
    classes.
    """
    if average not in AVERAGES:
        raise ValueError(f"average must be one of {AVERAGES}")
    matrix = confusion_matrix(y_true, y_pred).astype(float)
    if matrix.size == 0:
        return 0.0, 0.0, 0.0

    true_positives = np.diag(matrix)
    predicted = matrix.sum(axis=0)
    actual = matrix.sum(axis=1)

    if average == "micro":
        tp = true_positives.sum()
        precision = tp / predicted.sum() if predicted.sum() else 0.0
        recall = tp / actual.sum() if actual.sum() else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if (precision + recall) > 0
            else 0.0
        )
        return float(precision), float(recall), float(f1)

    with np.errstate(divide="ignore", invalid="ignore"):
        per_class_precision = np.where(predicted > 0, true_positives / predicted, 0.0)
        per_class_recall = np.where(actual > 0, true_positives / actual, 0.0)
        denom = per_class_precision + per_class_recall
        per_class_f1 = np.where(
            denom > 0, 2 * per_class_precision * per_class_recall / denom, 0.0
        )

    if average == "macro":
        weights = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    else:  # weighted
        support = actual
        total = support.sum()
        weights = support / total if total else np.zeros_like(support)

    # Clip away float-summation overshoot so scores stay within [0, 1].
    precision = float(np.clip(np.sum(weights * per_class_precision), 0.0, 1.0))
    recall = float(np.clip(np.sum(weights * per_class_recall), 0.0, 1.0))
    f1 = float(np.clip(np.sum(weights * per_class_f1), 0.0, 1.0))
    return precision, recall, f1


def f1_score(y_true: np.ndarray, y_pred: np.ndarray, average: str = "macro") -> float:
    """Averaged F1 score (the paper's headline metric)."""
    return precision_recall_f1(y_true, y_pred, average)[2]
