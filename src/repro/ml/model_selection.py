"""Dataset splitting: a (stratified) train/test split."""

from __future__ import annotations

import numpy as np


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    *,
    test_size: float = 0.25,
    stratify: bool = True,
    random_state: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split ``(X, y)`` into train and test partitions.

    Args:
        X: Feature matrix.
        y: Labels (used for stratification).
        test_size: Fraction of samples assigned to the test split (0, 1).
        stratify: Preserve per-class proportions when True.
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
    n_samples = X.shape[0]

    test_mask = np.zeros(n_samples, dtype=bool)
    if stratify:
        for cls in np.unique(y):
            class_indices = np.flatnonzero(y == cls)
            rng.shuffle(class_indices)
            n_test = max(1, int(round(class_indices.size * test_size)))
            n_test = min(n_test, class_indices.size - 1) if class_indices.size > 1 else 1
            test_mask[class_indices[:n_test]] = True
    else:
        indices = rng.permutation(n_samples)
        n_test = max(1, int(round(n_samples * test_size)))
        test_mask[indices[:n_test]] = True

    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]

