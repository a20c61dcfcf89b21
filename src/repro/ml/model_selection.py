"""Dataset splitting: a stratified train/test split."""

from __future__ import annotations

import numpy as np


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    *,
    test_size: float = 0.25,
    random_state: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split ``(X, y)`` into train and test partitions, class by class.

    Each class keeps its proportion: ``round(test_size · n_c)`` of its
    ``n_c`` samples go to the test split, at least one, and at least one
    stays in train when the class has two or more.

    Args:
        X: Feature matrix.
        y: Labels (the strata).
        test_size: Fraction of samples assigned to the test split (0, 1).
        random_state: Seed for the shuffle.

    Returns:
        ``(X_train, X_test, y_train, y_test)``.
    """
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    X = np.asarray(X)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y have mismatched lengths")
    rng = np.random.default_rng(random_state)
    test_mask = np.zeros(X.shape[0], dtype=bool)
    for cls in np.unique(y):
        class_indices = np.flatnonzero(y == cls)
        rng.shuffle(class_indices)
        n_test = max(1, int(round(class_indices.size * test_size)))
        n_test = min(n_test, class_indices.size - 1) if class_indices.size > 1 else 1
        test_mask[class_indices[:n_test]] = True

    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]

