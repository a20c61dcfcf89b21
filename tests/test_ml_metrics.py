"""Unit tests for classification metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy_score([1, 1, 1], [2, 2, 2]) == 0.0

    def test_half_right(self):
        assert accuracy_score([1, 1, 2, 2], [1, 1, 1, 1]) == 0.5

    def test_empty(self):
        assert accuracy_score(np.array([]), np.array([])) == 0.0


class TestConfusionMatrix:
    def test_shape_covers_all_classes(self):
        matrix = confusion_matrix([0, 1, 2], [0, 0, 0])
        assert matrix.shape == (3, 3)

    def test_diagonal_for_perfect_predictions(self):
        matrix = confusion_matrix([0, 1, 1, 2], [0, 1, 1, 2])
        np.testing.assert_array_equal(np.diag(matrix), [1, 2, 1])
        assert matrix.sum() == 4

    def test_off_diagonal_counts(self):
        matrix = confusion_matrix([0, 0, 1], [1, 1, 0])
        assert matrix[0, 1] == 2
        assert matrix[1, 0] == 1

    def test_rows_sum_to_true_counts(self):
        y_true = [0, 0, 1, 2, 2, 2]
        y_pred = [0, 1, 1, 0, 2, 2]
        matrix = confusion_matrix(y_true, y_pred)
        np.testing.assert_array_equal(matrix.sum(axis=1), [2, 1, 3])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])


class TestF1:
    def test_perfect_macro_f1(self):
        assert f1_score([0, 1, 2], [0, 1, 2], "macro") == pytest.approx(1.0)

    def test_perfect_weighted_f1(self):
        assert f1_score([0, 0, 1], [0, 0, 1], "weighted") == pytest.approx(1.0)

    def test_all_wrong_f1_is_zero(self):
        assert f1_score([0, 0], [1, 1], "macro") == 0.0

    def test_binary_known_value(self):
        # TP=2, FP=1, FN=1 for class 1; precision=2/3, recall=2/3, F1=2/3.
        y_true = [1, 1, 1, 0, 0, 0]
        y_pred = [1, 1, 0, 1, 0, 0]
        _, _, f1 = precision_recall_f1(y_true, y_pred, "macro")
        assert f1 == pytest.approx(2 / 3, abs=1e-9)

    def test_micro_equals_accuracy_for_single_label(self):
        y_true = [0, 1, 2, 1, 0]
        y_pred = [0, 1, 1, 1, 2]
        _, _, micro = precision_recall_f1(y_true, y_pred, "micro")
        assert micro == pytest.approx(accuracy_score(y_true, y_pred))

    def test_weighted_at_least_for_majority_class_correct(self):
        y_true = [0] * 90 + [1] * 10
        y_pred = [0] * 100
        weighted = f1_score(y_true, y_pred, "weighted")
        macro = f1_score(y_true, y_pred, "macro")
        assert weighted > macro

    def test_invalid_average_raises(self):
        with pytest.raises(ValueError):
            f1_score([0], [0], "bogus")

    def test_f1_bounded(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        for average in ("macro", "weighted", "micro"):
            value = f1_score(y_true, y_pred, average)
            assert 0.0 <= value <= 1.0


class TestPrecisionRecall:
    def test_precision_perfect(self):
        assert precision_recall_f1([0, 1], [0, 1], "macro")[0] == pytest.approx(1.0)

    def test_recall_perfect(self):
        assert precision_recall_f1([0, 1], [0, 1], "macro")[1] == pytest.approx(1.0)

    def test_precision_recall_asymmetry(self):
        # Predicting everything as class 1: recall for class 1 is 1, precision low.
        y_true = [0, 0, 0, 1]
        y_pred = [1, 1, 1, 1]
        precision, recall, _ = precision_recall_f1(y_true, y_pred, "macro")
        assert recall == pytest.approx(0.5)   # class 0 recall 0, class 1 recall 1
        assert precision == pytest.approx(0.125)  # class 0: 0, class 1: 1/4

    def test_string_labels(self):
        assert f1_score(["a", "b"], ["a", "b"]) == pytest.approx(1.0)
