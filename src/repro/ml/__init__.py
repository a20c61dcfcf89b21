"""Minimal, numpy-based machine-learning substrate.

The SpliDT paper trains its partitioned decision trees with scikit-learn's
``DecisionTreeClassifier``.  That library is not available offline, so this
package provides the pieces the system needs, implemented from scratch:

* :class:`DecisionTreeClassifier` — CART with gini/entropy splitting, plus
  a *feature budget*: the tree may use at most ``max_distinct_features``
  different features, the constraint SpliDT places on each subtree.
* :class:`RandomForestRegressor` — bagged regression trees (mean squared
  error) grown in lockstep, the Bayesian optimiser's surrogate.
* metrics (accuracy, precision/recall/F1 with macro and weighted averaging,
  confusion matrices) and ``train_test_split``.
"""

from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
)
from repro.ml.model_selection import train_test_split
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier
from repro.ml._tree import Tree, TreeNode

__all__ = [
    "DecisionTreeClassifier",
    "RandomForestRegressor",
    "Tree",
    "TreeNode",
    "accuracy_score",
    "confusion_matrix",
    "f1_score",
    "precision_recall_f1",
    "train_test_split",
]
