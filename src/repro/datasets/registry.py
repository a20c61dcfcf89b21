"""Top-level dataset loading API.

``load_dataset("D3", n_flows=2000, seed=7)`` generates the synthetic
equivalent of ISCX-VPN-2016.
"""

from __future__ import annotations

from repro.datasets.flows import FlowDataset
from repro.datasets.generators import SyntheticTrafficGenerator
from repro.datasets.profiles import get_profile

#: Default number of flows generated for offline training experiments.
DEFAULT_TRAINING_FLOWS = 1500


def load_dataset(key: str, n_flows: int = DEFAULT_TRAINING_FLOWS, seed: int = 0) -> FlowDataset:
    """Generate the labelled flow dataset for ``key``.

    Args:
        key: Dataset key (``"D1"`` … ``"D7"``).
        n_flows: Number of flows to generate (training-scale, not the
            data-plane concurrent-flow count).
        seed: Seed controlling both class signatures and sampled flows.
    """
    return SyntheticTrafficGenerator(get_profile(key), seed=seed).generate(n_flows)


def dataset_summary(key: str) -> dict:
    """Metadata summary used by the README/examples (mirrors Table 2)."""
    profile = get_profile(key)
    return {
        "key": profile.key,
        "source": profile.source_name,
        "description": profile.description,
        "classes": profile.n_classes,
    }
