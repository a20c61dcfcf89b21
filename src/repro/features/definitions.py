"""Catalogue of flow features computed by the window feature engine.

The paper extends CICFlowMeter to emit statistics at every window boundary;
this module defines the feature set our engine computes.  Every feature is
annotated with:

* whether it is *stateful* (needs per-flow registers) or *stateless*
  (available from the current packet alone), and
* the depth of its register *dependency chain* in the data plane — e.g.
  inter-arrival-time statistics need the previous packet's timestamp stored
  in an earlier pipeline stage (the paper reports chains up to 3 stages).

The default catalogue has 41 features, matching the ``N = 41`` the paper
quotes for dataset D1.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Packets shorter than this count as "small", longer than large threshold as "large".
SMALL_PACKET_BYTES = 100
LARGE_PACKET_BYTES = 1000

#: Gap (seconds) separating two bursts.
BURST_GAP_SECONDS = 0.01


@dataclass(frozen=True)
class FeatureDefinition:
    """Description of one flow feature.

    Attributes:
        index: Position of the feature in extracted feature vectors.
        name: Stable feature name.
        stateful: Whether per-flow state is required to compute it.
        dependency_depth: Number of chained register stages needed before the
            feature register itself can be updated (0 = direct update).
        operator: The data-plane update operator (``count``, ``sum``, ``max``,
            ``min``, ``mean``, ``last``, ``rate``, ``stateless``).
    """

    index: int
    name: str
    stateful: bool
    dependency_depth: int
    operator: str


def _make_catalogue() -> list[FeatureDefinition]:
    specs: list[tuple[str, bool, int, str]] = [
        # name, stateful, dependency_depth, operator
        ("pkt_count", True, 0, "count"),
        ("byte_count", True, 0, "sum"),
        ("mean_pkt_len", True, 1, "mean"),
        ("min_pkt_len", True, 0, "min"),
        ("max_pkt_len", True, 0, "max"),
        ("std_pkt_len", True, 2, "mean"),
        ("first_pkt_len", True, 0, "last"),
        ("last_pkt_len", True, 0, "last"),
        ("mean_iat", True, 2, "mean"),
        ("min_iat", True, 1, "min"),
        ("max_iat", True, 1, "max"),
        ("std_iat", True, 3, "mean"),
        ("duration", True, 1, "last"),
        ("pkt_rate", True, 2, "rate"),
        ("byte_rate", True, 2, "rate"),
        ("syn_count", True, 0, "count"),
        ("ack_count", True, 0, "count"),
        ("fin_count", True, 0, "count"),
        ("psh_count", True, 0, "count"),
        ("rst_count", True, 0, "count"),
        ("urg_count", True, 0, "count"),
        ("fwd_pkt_count", True, 0, "count"),
        ("bwd_pkt_count", True, 0, "count"),
        ("fwd_byte_count", True, 0, "sum"),
        ("bwd_byte_count", True, 0, "sum"),
        ("fwd_bwd_pkt_ratio", True, 1, "mean"),
        ("mean_fwd_pkt_len", True, 1, "mean"),
        ("mean_bwd_pkt_len", True, 1, "mean"),
        ("max_fwd_pkt_len", True, 0, "max"),
        ("max_bwd_pkt_len", True, 0, "max"),
        ("small_pkt_count", True, 0, "count"),
        ("large_pkt_count", True, 0, "count"),
        ("payload_sum", True, 0, "sum"),
        ("mean_payload", True, 1, "mean"),
        ("burst_count", True, 1, "count"),
        ("max_burst_len", True, 2, "max"),
        ("idle_max", True, 1, "max"),
        ("src_port", False, 0, "stateless"),
        ("dst_port", False, 0, "stateless"),
        ("protocol", False, 0, "stateless"),
        ("pkt_len_first", False, 0, "stateless"),
    ]
    catalogue = []
    for index, (name, stateful, depth, operator) in enumerate(specs):
        catalogue.append(
            FeatureDefinition(
                index=index,
                name=name,
                stateful=stateful,
                dependency_depth=depth,
                operator=operator,
            )
        )
    return catalogue


#: The default catalogue, index-aligned with extracted feature vectors.
FEATURES: list[FeatureDefinition] = _make_catalogue()

#: Total number of features (N in the paper).
N_FEATURES: int = len(FEATURES)

#: Name → definition lookup.
FEATURES_BY_NAME: dict[str, FeatureDefinition] = {f.name: f for f in FEATURES}

#: Indices of stateful features only.
STATEFUL_INDICES: tuple[int, ...] = tuple(f.index for f in FEATURES if f.stateful)

#: Indices of stateless (per-packet) features only.
STATELESS_INDICES: tuple[int, ...] = tuple(f.index for f in FEATURES if not f.stateful)

#: Indices of the four stateless header fields every data-plane program
#: reads per packet, in (src_port, dst_port, protocol, pkt_len_first)
#: order — resolved once at import time so the per-packet reference paths
#: never rebuild the name -> index mapping.
STATELESS_HEADER_INDICES: tuple[int, int, int, int] = tuple(
    FEATURES_BY_NAME[name].index
    for name in ("src_port", "dst_port", "protocol", "pkt_len_first")
)


def dependency_depth(indices: list[int] | tuple[int, ...]) -> int:
    """Deepest register dependency chain across the given feature indices."""
    if not indices:
        return 0
    return max(FEATURES[i].dependency_depth for i in indices)
