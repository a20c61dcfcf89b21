"""Adversarial and overload traffic construction.

:func:`build_workload` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into a replayable :class:`ScenarioWorkload`: legitimate flows come from the
profile's :class:`~repro.datasets.generators.SyntheticTrafficGenerator`
(streamed one at a time, never all in RAM), each adversarial layer rewrites
them in order, and flood layers append spoofed attack flows after the
legitimate block.  The same code path serves both representations — a
materialised flow list for small scenarios and a
:class:`~repro.datasets.streams.StreamedPacketWriter` spill for million-flow
ones — so a scenario's traffic is bit-identical under either (locked by the
tests).

Layer semantics (parameters documented on
:class:`~repro.scenarios.spec.LayerSpec`):

* **heavy-hitter** — source-address concentration: each flow's ``src_ip``
  is redrawn from a small pool under a Zipf(``skew``) law, so a handful of
  sources own most flows (and their CRC32 slots collide accordingly).
* **flash-crowd** — correlated arrivals: a ``fraction`` of flows have their
  start times compressed into ``[at, at + width)``, preserving each flow's
  internal packet spacing.  Temporal overlap in the flow table spikes.
* **ddos-flood** — many short spoofed flows (1–3 packets by default) from
  random sources against one target, appended after the legitimate block.
  Too short to classify, they exist purely to occupy and churn flow slots.
* **evasion** — the :mod:`repro.analysis.robustness` spoofing model layered
  onto mixed traffic: a ``fraction`` of flows advertise ``scale``× their
  true flow size, shifting every window boundary the subtrees see.

All randomness comes from one `numpy` Generator derived from the scenario
seed — disjoint from the base generator's stream, so layering never changes
which legitimate flows are drawn (the rng-independence property the
generators' explicit-``rng`` parameter exists for).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays, PROTO_TCP, PROTO_UDP
from repro.datasets.generators import SyntheticTrafficGenerator
from repro.datasets.profiles import get_profile
from repro.datasets.streams import (
    StreamedPacketSource,
    StreamedPacketWriter,
    iter_packet_chunks,
)
from repro.scenarios.spec import LayerSpec, ScenarioError, ScenarioSpec

#: Default parameters per layer kind (merged under explicit params).
_LAYER_DEFAULTS: dict[str, dict] = {
    "heavy-hitter": {"skew": 1.2, "n_sources": 16},
    "flash-crowd": {"at": 0.4, "width": 0.05, "fraction": 0.7},
    "ddos-flood": {
        "flows": 1024,
        "start": 0.0,
        "duration": 1.0,
        "min_packets": 1,
        "max_packets": 3,
    },
    "evasion": {"scale": 0.5, "fraction": 0.5},
}

#: Flood flows generated per sub-block.  A generation-time knob (not the
#: replay ``chunk_size``): bounds the columns + temporaries a flood layer
#: holds in RAM, and is deliberately identical for the streamed and
#: materialised paths so both consume the layer rng in the same order.
_FLOOD_GEN_CHUNK = 65536


def layer_params(layer: LayerSpec) -> dict:
    """The layer's parameters with kind defaults filled in."""
    params = dict(_LAYER_DEFAULTS[layer.kind])
    params.update(layer.params)
    return params


def validate_layer_params(layer: LayerSpec) -> None:
    """Check a layer's parameters; raises :class:`ScenarioError`."""
    defaults = _LAYER_DEFAULTS[layer.kind]
    unknown = set(layer.params) - set(defaults)
    if unknown:
        raise ScenarioError(
            f"{layer.kind}: unknown parameters {sorted(unknown)}; "
            f"expected a subset of {sorted(defaults)}"
        )
    params = layer_params(layer)
    if layer.kind == "heavy-hitter":
        if params["skew"] <= 0:
            raise ScenarioError(f"heavy-hitter: skew must be > 0, got {params['skew']}")
        if params["n_sources"] < 1:
            raise ScenarioError(
                f"heavy-hitter: n_sources must be >= 1, got {params['n_sources']}"
            )
    elif layer.kind == "flash-crowd":
        if not 0.0 < params["fraction"] <= 1.0:
            raise ScenarioError(
                f"flash-crowd: fraction must be in (0, 1], got {params['fraction']}"
            )
        if params["width"] <= 0:
            raise ScenarioError(f"flash-crowd: width must be > 0, got {params['width']}")
    elif layer.kind == "ddos-flood":
        if params["flows"] < 1:
            raise ScenarioError(f"ddos-flood: flows must be >= 1, got {params['flows']}")
        if not 1 <= params["min_packets"] <= params["max_packets"]:
            raise ScenarioError(
                f"ddos-flood: need 1 <= min_packets <= max_packets, got "
                f"{params['min_packets']}..{params['max_packets']}"
            )
        if params["duration"] <= 0:
            raise ScenarioError(
                f"ddos-flood: duration must be > 0, got {params['duration']}"
            )
    elif layer.kind == "evasion":
        if params["scale"] <= 0:
            raise ScenarioError(f"evasion: scale must be > 0, got {params['scale']}")
        if not 0.0 < params["fraction"] <= 1.0:
            raise ScenarioError(
                f"evasion: fraction must be in (0, 1], got {params['fraction']}"
            )


@dataclass
class ScenarioWorkload:
    """A replayable adversarial workload: flows + SoA + attack metadata.

    ``flows``/``soa`` satisfy every ``(flows, soa)`` consumer in the
    repository (replay engines, serve engines, chunk iteration).  Flows
    ``[0, n_legit)`` are legitimate base traffic — quality metrics are
    computed over them only; anything after is attack load.  ``advertised``
    carries the per-flow *advertised* flow sizes when an evasion layer is
    active (``None`` = honest header everywhere).
    """

    name: str
    flows: object
    soa: PacketArrays
    class_names: list[str]
    n_legit: int
    advertised: np.ndarray | None = None
    source: StreamedPacketSource | None = None

    @property
    def n_flows(self) -> int:
        """Total flows (legitimate + attack)."""
        return self.soa.n_flows

    @property
    def n_packets(self) -> int:
        """Total packets across all flows."""
        return self.soa.n_packets

    @property
    def streamed(self) -> bool:
        """Whether the packet columns are memmap-backed (out-of-core)."""
        return self.source is not None

    def iter_chunks(self, chunk_size: int | None = None):
        """Stream the workload as :class:`PacketChunk` objects."""
        return iter_packet_chunks(self.flows, chunk_size, soa=self.soa)

    def close(self) -> None:
        """Release the backing directory of a streamed workload (idempotent)."""
        if self.source is not None:
            self.source.close()

    def __enter__(self) -> "ScenarioWorkload":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Per-flow layers (legitimate traffic rewrites)
# ----------------------------------------------------------------------
def _zipf_weights(n_sources: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, n_sources + 1, dtype=np.float64)
    weights = ranks ** -skew
    return weights / weights.sum()


class _HeavyHitterLayer:
    def __init__(self, params: dict) -> None:
        self.n_sources = int(params["n_sources"])
        self.weights = _zipf_weights(self.n_sources, float(params["skew"]))
        # A fixed source pool: heavy hitters are *specific* machines.
        self.pool = (0x0A800000 + np.arange(self.n_sources)).astype(np.int64)

    def apply(self, flow: Flow, rng: np.random.Generator) -> Flow:
        source = int(self.pool[int(rng.choice(self.n_sources, p=self.weights))])
        tuple_ = flow.five_tuple
        flow.five_tuple = FiveTuple(
            src_ip=source,
            dst_ip=tuple_.dst_ip,
            src_port=tuple_.src_port,
            dst_port=tuple_.dst_port,
            protocol=tuple_.protocol,
        )
        return flow


class _FlashCrowdLayer:
    def __init__(self, params: dict) -> None:
        self.at = float(params["at"])
        self.width = float(params["width"])
        self.fraction = float(params["fraction"])

    def apply(self, flow: Flow, rng: np.random.Generator) -> Flow:
        crowd = rng.random() < self.fraction
        offset = rng.random()  # always drawn: rng stream independent of membership
        if not crowd or not flow.packets:
            return flow
        new_start = self.at + offset * self.width
        delta = new_start - flow.packets[0].timestamp
        for packet in flow.packets:
            packet.timestamp += delta
        return flow


class _EvasionLayer:
    def __init__(self, params: dict) -> None:
        self.scale = float(params["scale"])
        self.fraction = float(params["fraction"])

    def advertise(self, flow: Flow, advertised: int, rng: np.random.Generator) -> int:
        if rng.random() < self.fraction:
            return max(int(round(advertised * self.scale)), 1)
        return advertised


# ----------------------------------------------------------------------
# Flood layers (appended attack traffic)
# ----------------------------------------------------------------------
class _DdosFloodLayer:
    def __init__(self, params: dict) -> None:
        self.flows = int(params["flows"])
        self.start = float(params["start"])
        self.duration = float(params["duration"])
        self.min_packets = int(params["min_packets"])
        self.max_packets = int(params["max_packets"])

    def build_block(
        self, rng: np.random.Generator, first_flow_id: int, n: int | None = None
    ) -> dict:
        """Vectorized flood construction (the million-flow fast path).

        Returns :meth:`StreamedPacketWriter.add_flow_block` keyword
        arguments: per-flow columns plus flow-major per-packet columns.
        ``n`` caps the block at a sub-range of the flood so million-flow
        floods can be generated (and spilled) in bounded-memory chunks.
        """
        n = self.flows if n is None else n
        counts = rng.integers(self.min_packets, self.max_packets + 1, size=n)
        total = int(counts.sum())
        starts = self.start + rng.random(n) * self.duration
        # Flow-major timestamps: each flow's packets are its start plus a
        # tiny cumulative spacing (floods hammer, they don't converse).
        iats = rng.exponential(1e-4, size=total)
        flow_index = np.repeat(np.arange(n), counts)
        offsets = np.cumsum(iats)
        bases = np.zeros(n)
        flow_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=flow_starts[1:])
        first = np.minimum(flow_starts[:-1], max(total - 1, 0))
        bases[counts > 0] = offsets[first][counts > 0]
        timestamps = starts[flow_index] + (offsets - bases[flow_index])
        protocols = np.where(rng.random(n) < 0.8, PROTO_UDP, PROTO_TCP)
        return {
            # Spoofed sources across the whole address space; one victim /28.
            "src_ips": rng.integers(0x01000000, 0xDF000000, size=n),
            "dst_ips": 0xC0A80010 + rng.integers(0, 16, size=n),
            "src_ports": rng.integers(1024, 65535, size=n),
            "dst_ports": np.where(rng.random(n) < 0.5, 80, 443),
            "protocols": protocols,
            "labels": np.zeros(n, dtype=np.int64),
            "counts": counts,
            "timestamps": timestamps,
            "sizes": rng.integers(40, 120, size=total).astype(np.float64),
            "flags": np.where(np.repeat(protocols, counts) == PROTO_TCP, 0x02, 0),
            "directions": np.ones(total, dtype=np.int64),
            "payloads": np.zeros(total, dtype=np.float64),
            "flow_ids": first_flow_id + np.arange(n, dtype=np.int64),
        }


def _block_to_flows(block: dict) -> list[Flow]:
    """Materialise a flood block as ``Flow`` objects (small scenarios only)."""
    flows = []
    counts = np.asarray(block["counts"])
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    for i in range(len(counts)):
        lo, hi = int(starts[i]), int(starts[i + 1])
        packets = [
            Packet(
                timestamp=float(block["timestamps"][pos]),
                size=int(block["sizes"][pos]),
                flags=int(block["flags"][pos]),
                direction=int(block["directions"][pos]),
                payload=int(block["payloads"][pos]),
            )
            for pos in range(lo, hi)
        ]
        flows.append(
            Flow(
                five_tuple=FiveTuple(
                    src_ip=int(block["src_ips"][i]),
                    dst_ip=int(block["dst_ips"][i]),
                    src_port=int(block["src_ports"][i]),
                    dst_port=int(block["dst_ports"][i]),
                    protocol=int(block["protocols"][i]),
                ),
                packets=packets,
                label=int(block["labels"][i]),
                class_name="ddos-flood",
                flow_id=int(block["flow_ids"][i]),
            )
        )
    return flows


# ----------------------------------------------------------------------
# Workload assembly
# ----------------------------------------------------------------------
def build_workload(
    spec: ScenarioSpec, *, traffic_flows: int | None = None
) -> ScenarioWorkload:
    """Generate the workload a :class:`ScenarioSpec` describes.

    ``traffic_flows`` overrides the spec's legitimate flow count (the
    occupancy sweep uses this to scale pressure without editing specs).
    Layer transforms draw from an rng derived from ``spec.seed`` but
    disjoint from the base generator's stream, so adding a layer never
    changes which legitimate flows are generated underneath it.
    """
    spec.validate()
    profile = get_profile(spec.dataset)
    n_legit = traffic_flows if traffic_flows is not None else spec.traffic_flows
    generator = SyntheticTrafficGenerator(profile, seed=spec.seed)
    layer_rng = np.random.default_rng(np.random.SeedSequence([0x5CE7A810, spec.seed]))

    per_flow_layers = []
    evasion_layers = []
    flood_layers = []
    for layer in spec.layers:
        params = layer_params(layer)
        if layer.kind == "heavy-hitter":
            per_flow_layers.append(_HeavyHitterLayer(params))
        elif layer.kind == "flash-crowd":
            per_flow_layers.append(_FlashCrowdLayer(params))
        elif layer.kind == "evasion":
            evasion_layers.append(_EvasionLayer(params))
        elif layer.kind == "ddos-flood":
            flood_layers.append(_DdosFloodLayer(params))

    writer = StreamedPacketWriter() if spec.streamed else None
    # Until ``finish`` hands the spill directory to its source, nothing else
    # owns it: a failed build removes it here.
    try:
        flow_list: list[Flow] = []
        advertised: list[int] = []

        for flow in generator.iter_flows(n_legit):
            for layer in per_flow_layers:
                flow = layer.apply(flow, layer_rng)
            size = flow.n_packets
            for layer in evasion_layers:
                size = layer.advertise(flow, size, layer_rng)
            advertised.append(size)
            if writer is not None:
                writer.add_flow(
                    flow.five_tuple,
                    flow.label,
                    timestamps=[p.timestamp for p in flow.packets],
                    sizes=[p.size for p in flow.packets],
                    flags=[p.flags for p in flow.packets],
                    directions=[p.direction for p in flow.packets],
                    payloads=[p.payload for p in flow.packets],
                    flow_id=flow.flow_id,
                )
            else:
                flow_list.append(flow)

        next_flow_id = n_legit
        flood_blocks: list[dict] = []
        for layer in flood_layers:
            # Generate in bounded sub-blocks so a million-flow flood never holds
            # its full column set (plus construction temporaries) in RAM at
            # once.  Both the streamed and materialised paths chunk identically,
            # consuming the layer rng in the same order — bit-exact parity
            # between them is locked by tests/test_scenarios.py.
            remaining = layer.flows
            while remaining > 0:
                n = min(remaining, _FLOOD_GEN_CHUNK)
                block = layer.build_block(layer_rng, next_flow_id, n=n)
                next_flow_id += n
                remaining -= n
                advertised.extend(np.asarray(block["counts"], dtype=np.int64).tolist())
                if writer is not None:
                    writer.add_flow_block(**block)
                    del block
                else:
                    flood_blocks.append(block)

        class_names = [signature.name for signature in generator.signatures]
        advertised_arr = np.asarray(advertised, dtype=np.int64) if evasion_layers else None

        if writer is not None:
            source = writer.finish(name=spec.name, class_names=class_names)
    except BaseException:
        if writer is not None:
            writer.abort()
        raise

    if writer is not None:
        return ScenarioWorkload(
            name=spec.name,
            flows=source.flows,
            soa=source.soa,
            class_names=class_names,
            n_legit=n_legit,
            advertised=advertised_arr,
            source=source,
        )

    for block in flood_blocks:
        flow_list.extend(_block_to_flows(block))
    soa = PacketArrays.from_flows(flow_list)
    return ScenarioWorkload(
        name=spec.name,
        flows=flow_list,
        soa=soa,
        class_names=class_names,
        n_legit=n_legit,
        advertised=advertised_arr,
    )


__all__ = [
    "ScenarioWorkload",
    "build_workload",
    "layer_params",
    "validate_layer_params",
]
