"""Model configuration for SpliDT partitioned decision trees.

A configuration is exactly the hyper-parameter tuple the paper's design
search explores: overall tree depth ``D``, features per subtree ``k`` and the
partition-size vector ``[i1, …, ip]`` with ``sum(i) == D``, plus the feature
bit precision used when compiling rules (Figure 12 lowers it from 32 bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpliDTConfig:
    """Hyper-parameters of one partitioned decision tree.

    Attributes:
        depth: Total tree depth ``D`` (sum of the partition sizes).
        features_per_subtree: ``k`` — the feature-slot budget of every subtree.
        partition_sizes: Depth of each partition ``[i1, …, ip]``.
        bit_width: Feature register / match-key precision in bits.
        min_samples_leaf: Minimum training samples per subtree leaf.
        criterion: Split criterion passed to the CART learner.
    """

    depth: int
    features_per_subtree: int
    partition_sizes: tuple[int, ...]
    bit_width: int = 32
    min_samples_leaf: int = 5
    criterion: str = "gini"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.features_per_subtree < 1:
            raise ValueError("features_per_subtree must be >= 1")
        if not self.partition_sizes:
            raise ValueError("partition_sizes must not be empty")
        if any(size < 1 for size in self.partition_sizes):
            raise ValueError("every partition size must be >= 1")
        if sum(self.partition_sizes) != self.depth:
            raise ValueError(
                f"partition sizes {self.partition_sizes} must sum to depth {self.depth}"
            )
        if self.bit_width not in (8, 16, 32):
            raise ValueError("bit_width must be 8, 16 or 32")

    @property
    def n_partitions(self) -> int:
        """Number of partitions ``p``."""
        return len(self.partition_sizes)

    @staticmethod
    def uniform(depth: int, n_partitions: int, features_per_subtree: int, **kwargs) -> "SpliDTConfig":
        """Build a configuration with (near-)uniform partition sizes.

        The depth is split as evenly as possible across ``n_partitions``;
        earlier partitions receive the remainder.
        """
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if depth < n_partitions:
            raise ValueError("depth must be >= n_partitions")
        base = depth // n_partitions
        remainder = depth % n_partitions
        sizes = tuple(base + (1 if i < remainder else 0) for i in range(n_partitions))
        return SpliDTConfig(
            depth=depth,
            features_per_subtree=features_per_subtree,
            partition_sizes=sizes,
            **kwargs,
        )


@dataclass(frozen=True)
class TopKConfig:
    """Configuration of a one-shot top-k baseline model (NetBeacon / Leo).

    Attributes:
        depth: Maximum tree depth.
        top_k: Number of (global) stateful features the model may use.
        bit_width: Feature precision in bits.
        use_stateful: When False the model is restricted to stateless
            per-packet features (the IIsy / Planter setting).
    """

    depth: int
    top_k: int
    bit_width: int = 32
    use_stateful: bool = True
    min_samples_leaf: int = 5

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.bit_width not in (8, 16, 32):
            raise ValueError("bit_width must be 8, 16 or 32")


def enumerate_partitionings(depth: int, n_partitions: int) -> list[tuple[int, ...]]:
    """All compositions of ``depth`` into ``n_partitions`` positive parts.

    The design search does not draw from this set: it proposes ``(depth, k,
    n_partitions)`` and splits the depth near-uniformly
    (:meth:`SpliDTConfig.uniform`).
    """
    if n_partitions < 1 or depth < n_partitions:
        return []
    if n_partitions == 1:
        return [(depth,)]
    results = []
    for first in range(1, depth - n_partitions + 2):
        for rest in enumerate_partitionings(depth - first, n_partitions - 1):
            results.append((first,) + rest)
    return results
