"""Shared fixtures for the test suite.

Expensive artefacts (synthetic datasets, materialised windows, trained
models, compiled rules) are session-scoped so the several hundred tests that
consume them stay fast.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without an editable install.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import core, datasets  # noqa: E402
from repro.baselines import exit_tree, train_topk_model  # noqa: E402
from repro.core.config import TopKConfig  # noqa: E402
from repro.core.range_marking import generate_rules, stacked_training_matrix  # noqa: E402
from repro.pipeline import ExperimentSpec, get_system  # noqa: E402


@pytest.fixture(scope="session")
def small_dataset():
    """A small D3 (VPN-detection-like) dataset: 360 flows, 13 classes."""
    return datasets.load_dataset("D3", n_flows=360, seed=11)


@pytest.fixture(scope="session")
def dataset_store(small_dataset):
    """Dataset store over the small dataset."""
    return datasets.DatasetStore(small_dataset, random_state=11)


@pytest.fixture(scope="session")
def windowed3(dataset_store):
    """The small dataset materialised into 3 windows."""
    return dataset_store.fetch(3)


@pytest.fixture(scope="session")
def splidt_config():
    """A modest partitioned-tree configuration (D=6, k=4, 3 partitions)."""
    return core.SpliDTConfig(depth=6, features_per_subtree=4, partition_sizes=(2, 2, 2))


@pytest.fixture(scope="session")
def splidt_model(windowed3, splidt_config):
    """A trained partitioned tree on the small dataset."""
    return core.train_partitioned_tree(windowed3, splidt_config, random_state=3)


@pytest.fixture(scope="session")
def splidt_rules(splidt_model, windowed3):
    """Compiled TCAM rules of the trained partitioned tree."""
    return generate_rules(splidt_model, stacked_training_matrix(windowed3, 3))


@pytest.fixture(scope="session")
def topk_program_model(windowed3):
    """``(model, rules)`` the data plane runs for a top-k model (depth 6, k=4).

    The model is the top-k tree's one-partition form, :func:`exit_tree`.
    """
    topk_model = train_topk_model(windowed3, TopKConfig(depth=6, top_k=4))
    return exit_tree(topk_model), topk_model.generate_rules(windowed3.flow_matrix("train"))


@pytest.fixture(scope="session")
def netbeacon_factory(windowed3):
    """``flow_slots -> ProgramFactory`` of NetBeacon programs on the small dataset.

    Each factory call is ``get_system("netbeacon").build_program(...)`` over the
    system's own selection and compiled rules; the factory pickles into
    ``sharded-mp`` workers.
    """
    system = get_system("netbeacon")
    spec = ExperimentSpec(system="netbeacon", seed=11)
    candidate = system.train(spec, windowed3)
    rules = system.compile(candidate, windowed3, spec)
    return lambda flow_slots: system.program_factory(
        candidate, rules, spec.replace(flow_slots=flow_slots)
    )


@pytest.fixture(scope="session")
def classification_data():
    """A simple, well-separated synthetic classification problem."""
    rng = np.random.default_rng(0)
    n_per_class = 80
    X0 = rng.normal(loc=[0, 0, 0, 5], scale=1.0, size=(n_per_class, 4))
    X1 = rng.normal(loc=[4, 0, 0, 0], scale=1.0, size=(n_per_class, 4))
    X2 = rng.normal(loc=[0, 4, 4, 0], scale=1.0, size=(n_per_class, 4))
    X = np.vstack([X0, X1, X2])
    y = np.repeat([0, 1, 2], n_per_class)
    return X, y
