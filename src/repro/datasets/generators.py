"""Synthetic traffic generation for the D1–D7 dataset equivalents.

Design goals (these are the properties of the real captures that SpliDT's
evaluation relies on, so the synthetic substitutes must preserve them):

1. **Signal is spread across many weakly-informative features.**  Each class
   is described by a *code*: a level (low / neutral / high) for each of a
   dozen behavioural attribute groups (packet-size regime, inter-arrival
   regime, flag mix, direction mix, burstiness, payload density, …).  Codes
   are drawn randomly per class, so separating all classes requires reading
   most groups — a small global top-k feature set cannot do it, which is why
   the top-k baselines saturate below the full-feature model (paper Figure 2).

2. **Signal is phase-local.**  Every attribute group is *expressed* in one of
   three flow phases (early / middle / late) and stays near a neutral value in
   the other phases.  Whole-flow aggregates therefore dilute the signal, while
   per-window statistics see it cleanly — the property that makes SpliDT's
   window-based partitioned inference effective and that produces the
   per-subtree feature sparsity of the paper's Table 1.

3. **Classes overlap.**  The ``separability`` knob of the dataset profile
   scales the gap between attribute levels relative to the per-packet noise,
   and ``label_noise`` flips a fraction of labels, reproducing the very
   different peak F1 scores of the seven datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.datasets.flows import (
    PACKET_DTYPES,
    PROTO_TCP,
    PROTO_UDP,
    FiveTuple,
    Flow,
    FlowDataset,
    LazyFlowList,
    PacketArraysWriter,
    PacketColumns,
    TCP_FLAGS,
)
from repro.datasets.profiles import DatasetProfile

#: Number of behavioural phases a flow moves through (early / middle / late).
N_PHASES = 3

#: Number of discrete levels an attribute group can take.
N_LEVELS = 3


@dataclass(frozen=True)
class AttributeGroup:
    """One behavioural attribute group.

    Attributes:
        name: Group name.
        phase: Flow phase (0..N_PHASES-1) in which the group is expressed, or
            ``None`` when it is expressed throughout the flow.
        neutral: Parameter value used outside the expressed phase and for
            level 1 (the neutral level).
        low: Parameter value of level 0.
        high: Parameter value of level 2.
    """

    name: str
    phase: int | None
    neutral: float
    low: float
    high: float

    def value(self, level: int, phase: int, separability: float) -> float:
        """Parameter value for a class at ``level`` observed in ``phase``.

        Outside the expressed phase the group decays towards its neutral
        value; the level gap is scaled by the dataset's separability.
        """
        if level == 1:
            return self.neutral
        target = self.low if level == 0 else self.high
        expression = 1.0 if (self.phase is None or phase == self.phase) else 0.15
        return self.neutral + (target - self.neutral) * expression * separability


#: The attribute groups a class code spans.  Phases are spread so that every
#: phase carries signal from several groups.
ATTRIBUTE_GROUPS: tuple[AttributeGroup, ...] = (
    AttributeGroup("pkt_size_level", phase=0, neutral=450.0, low=120.0, high=1200.0),
    AttributeGroup("pkt_size_spread", phase=1, neutral=80.0, low=15.0, high=320.0),
    AttributeGroup("iat_level", phase=1, neutral=0.01, low=0.0008, high=0.12),
    AttributeGroup("iat_spread", phase=2, neutral=0.35, low=0.08, high=1.1),
    AttributeGroup("burstiness", phase=2, neutral=0.25, low=0.02, high=0.8),
    AttributeGroup("syn_activity", phase=0, neutral=0.05, low=0.0, high=0.45),
    AttributeGroup("psh_activity", phase=2, neutral=0.3, low=0.05, high=0.9),
    AttributeGroup("rst_activity", phase=1, neutral=0.01, low=0.0, high=0.12),
    AttributeGroup("direction_mix", phase=1, neutral=0.5, low=0.15, high=0.9),
    AttributeGroup("payload_density", phase=0, neutral=0.5, low=0.1, high=0.92),
    AttributeGroup("small_pkt_bias", phase=2, neutral=0.2, low=0.0, high=0.7),
    AttributeGroup("idle_profile", phase=0, neutral=0.02, low=0.0, high=0.25),
    AttributeGroup("port_profile", phase=None, neutral=1.0, low=0.0, high=2.0),
)


@dataclass
class ClassSignature:
    """Behavioural code of one traffic class."""

    class_index: int
    name: str
    protocol: int
    dst_port_base: int
    levels: dict[str, int]

    def parameter(self, group: AttributeGroup, phase: int, separability: float) -> float:
        """Resolved parameter value of ``group`` in ``phase`` for this class."""
        return group.value(self.levels[group.name], phase, separability)


class SyntheticTrafficGenerator:
    """Generates labelled packet-level flows for a dataset profile.

    Args:
        profile: The dataset profile to synthesise.
        seed: Integer seed deriving both the class signatures and (when
            ``rng`` is not given) the flow-generation stream.
        rng: Optional explicit :class:`numpy.random.Generator` to draw the
            *flow bodies* from, so scenario composition can share one rng
            stream across several generators without coupling their seeds.
            Class signatures stay a pure function of ``(profile, seed)``
            either way — sharing an rng never changes the feature geometry,
            only which concrete flows are drawn.
    """

    def __init__(
        self,
        profile: DatasetProfile,
        seed: int = 0,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = rng if rng is not None else np.random.default_rng(self._dataset_seed())
        self.groups = ATTRIBUTE_GROUPS
        self.signatures = [
            self._build_signature(index) for index in range(profile.n_classes)
        ]

    def _dataset_seed(self) -> int:
        # CRC32 keeps the derived seed stable across processes (Python's
        # built-in hash() of strings is salted per interpreter run).
        import binascii

        token = f"{self.profile.key}:{self.seed}".encode()
        return binascii.crc32(token) & 0x7FFFFFFF

    # ------------------------------------------------------------------
    # Class signatures
    # ------------------------------------------------------------------
    def _build_signature(self, class_index: int) -> ClassSignature:
        rng = np.random.default_rng(self._dataset_seed() + 7919 * (class_index + 1))
        levels: dict[str, int] = {}
        for group in self.groups:
            levels[group.name] = int(rng.integers(0, N_LEVELS))
        # Guarantee at least a few non-neutral groups so every class is learnable.
        non_neutral = [name for name, level in levels.items() if level != 1]
        informative_target = max(3, self.profile.signature_features)
        group_names = [g.name for g in self.groups]
        while len(non_neutral) < informative_target:
            name = group_names[int(rng.integers(0, len(group_names)))]
            if levels[name] == 1:
                levels[name] = int(rng.choice([0, 2]))
                non_neutral.append(name)

        protocol = PROTO_TCP if rng.random() < 0.7 else PROTO_UDP
        return ClassSignature(
            class_index=class_index,
            name=f"{self.profile.key.lower()}-class-{class_index:02d}",
            protocol=protocol,
            dst_port_base=0,
            levels=levels,
        )

    #: Shared destination-port pools per ``port_profile`` level.  Many classes
    #: share the same pool, so ports alone cannot identify a class (which is
    #: why the per-packet baselines saturate early).
    _PORT_POOLS: tuple[tuple[int, ...], ...] = (
        (80, 443, 8080, 8443),
        tuple(range(1024, 65535, 977)),
        (53, 123, 1883, 5060, 5683),
    )

    # ------------------------------------------------------------------
    # Flow generation
    # ------------------------------------------------------------------
    def iter_flows(self, n_flows: int):
        """Yield ``n_flows`` labelled flows one at a time, in draw order.

        The streaming counterpart of :meth:`generate`: the rng draw sequence
        is identical (``generate`` writes this iterator's flows), so
        consumers that spill flows out-of-core — e.g. a
        :class:`~repro.datasets.streams.StreamedPacketWriter` — observe
        bit-identical traffic without ever holding the flow list.  Each flow
        is a view of its own packet columns (``flow.packets.columns()``).
        """
        if n_flows < self.profile.n_classes:
            raise ValueError(
                f"need at least {self.profile.n_classes} flows for {self.profile.key}"
            )
        rng = self._rng
        labels = rng.integers(0, self.profile.n_classes, size=n_flows)
        labels[: self.profile.n_classes] = np.arange(self.profile.n_classes)
        rng.shuffle(labels)

        for flow_id in range(n_flows):
            true_label = int(labels[flow_id])
            flow = self._generate_flow(flow_id, true_label, rng)
            if rng.random() < self.profile.label_noise:
                flow.label = int(rng.integers(0, self.profile.n_classes))
                flow.class_name = self.signatures[flow.label].name
            yield flow

    def generate(self, n_flows: int) -> FlowDataset:
        """Generate ``n_flows`` labelled flows (classes roughly balanced).

        The flows are written into one :class:`PacketArrays` as they are
        drawn; the dataset's ``flows`` is a :class:`LazyFlowList` over it.
        """
        writer = PacketArraysWriter()
        for flow in self.iter_flows(n_flows):
            writer.add_flow(
                flow.five_tuple,
                flow.label,
                flow_id=flow.flow_id,
                **flow.packets.columns()._asdict(),
            )
        class_names = [sig.name for sig in self.signatures]
        return FlowDataset(
            name=self.profile.key,
            description=self.profile.description,
            flows=LazyFlowList(writer.finish(), class_names),
            class_names=class_names,
            metadata={
                "source_name": self.profile.source_name,
                "seed": self.seed,
                "n_classes": self.profile.n_classes,
            },
        )

    def _generate_flow(self, flow_id: int, label: int, rng: np.random.Generator) -> Flow:
        return self._draw_flow(flow_id, label, self.signatures[label], rng)

    def _phase_parameters(
        self, signature: ClassSignature, wobble: dict[str, float], phase: int
    ) -> tuple[float, ...]:
        """Everything the packet loop reads that is constant within ``phase``."""
        separability = self.profile.separability
        noise = 1.0 - separability + 0.25  # per-packet noise floor
        param = {
            group.name: signature.parameter(group, phase, separability) * wobble[group.name]
            for group in self.groups
        }
        mean_iat = max(param["iat_level"], 1e-5)
        return (
            param["pkt_size_level"],
            max(param["pkt_size_spread"] * noise * 2.0, 10.0),
            param["small_pkt_bias"],
            param["burstiness"],
            mean_iat * 0.04,
            param["idle_profile"],
            mean_iat * 20.0,
            np.log(mean_iat),
            max(param["iat_spread"] * (0.5 + noise), 0.05),
            param["syn_activity"] * 0.3,
            param["psh_activity"],
            param["rst_activity"] * 0.3,
            param["direction_mix"],
            param["payload_density"],
            0.1 * noise,
        )

    def _draw_flow(
        self,
        flow_id: int,
        label: int,
        behaviour: ClassSignature,
        rng: np.random.Generator,
        start: float | None = None,
    ) -> Flow:
        """Draw one flow labelled ``label`` whose packets follow ``behaviour``.

        The flow views its own packet columns: each packet's five fields are
        appended to them as they are drawn, and no :class:`Packet` is built.

        ``start`` is the first packet's predecessor timestamp when the caller
        has already drawn it; otherwise it is drawn after the flow's wobble.
        The order and arguments of the rng calls are the dataset: every
        committed table and harness digest depends on them
        (``tests/test_datasets_generators.py::TestGoldenTraffic``).
        """
        n_packets = max(6, int(rng.lognormal(np.log(self.profile.mean_flow_packets), 0.45)))
        n_packets = min(n_packets, 1500)

        port_pool = self._PORT_POOLS[behaviour.levels["port_profile"]]
        five_tuple = FiveTuple(
            src_ip=int(rng.integers(0x0A000000, 0x0AFFFFFF)),
            dst_ip=int(rng.integers(0xC0A80000, 0xC0A8FFFF)),
            src_port=int(rng.integers(1024, 65535)),
            dst_port=int(port_pool[int(rng.integers(0, len(port_pool)))]),
            protocol=behaviour.protocol,
        )

        # Per-flow behavioural wobble: flows of the same class deviate from the
        # class code, both by multiplicative jitter and by occasionally
        # flipping a group's level entirely (intra-class variance).
        noise_level = 1.0 - self.profile.separability
        flip_probability = 0.02 + 0.3 * noise_level
        wobble_sigma = 0.1 + 0.45 * noise_level
        flow_levels = dict(behaviour.levels)
        for name in flow_levels:
            if rng.random() < flip_probability:
                flow_levels[name] = int(rng.integers(0, N_LEVELS))
        flow_signature = replace(behaviour, levels=flow_levels)
        flow_wobble = {
            group.name: float(rng.lognormal(0.0, wobble_sigma)) for group in self.groups
        }
        timestamp = float(rng.uniform(0, 1.0)) if start is None else start

        random, normal, uniform = rng.random, rng.normal, rng.uniform
        exponential, lognormal = rng.exponential, rng.lognormal
        tcp = behaviour.protocol == PROTO_TCP
        syn_bit, ack_bit = TCP_FLAGS["SYN"], TCP_FLAGS["ACK"]
        psh_bit, rst_bit = TCP_FLAGS["PSH"], TCP_FLAGS["RST"]
        # Packet ``i`` is in phase ``min(N_PHASES * i // n_packets, N_PHASES - 1)``.
        bounds = [-(-phase * n_packets // N_PHASES) for phase in range(N_PHASES)]
        bounds.append(n_packets)
        # Each packet's five fields go straight into the flow's columns.
        columns = PacketColumns([], [], [], [], [])
        (
            add_timestamp, add_size, add_flags, add_direction, add_payload,
        ) = (column.append for column in columns)
        for phase in range(N_PHASES):
            (
                mean_size, size_sigma, small_bias,
                burst, burst_scale, idle, idle_scale, log_mean_iat, iat_sigma,
                syn, psh, rst, direction_mix, payload_density, payload_sigma,
            ) = self._phase_parameters(flow_signature, flow_wobble, phase)
            for packet_index in range(bounds[phase], bounds[phase + 1]):
                size = normal(mean_size, size_sigma)
                if random() < small_bias:
                    size = uniform(40, 90)
                size = int(min(max(size, 40), 1514))

                if random() < burst:
                    iat = exponential(burst_scale)
                elif random() < idle:
                    iat = exponential(idle_scale)
                else:
                    iat = lognormal(log_mean_iat, iat_sigma)
                timestamp += min(max(iat, 1e-6), 30.0)

                flags = 0
                if tcp:
                    if packet_index == 0 or random() < syn:
                        flags |= syn_bit
                    if packet_index > 0:
                        flags |= ack_bit
                    if random() < psh:
                        flags |= psh_bit
                    if random() < rst:
                        flags |= rst_bit

                direction = 1 if random() < direction_mix else -1
                density = payload_density + normal(0, payload_sigma)
                payload = int(size * min(max(density, 0.0), 1.0))
                add_timestamp(timestamp)
                add_size(size)
                add_flags(flags)
                add_direction(direction)
                add_payload(payload)

        columns = PacketColumns(*(
            np.array(values, dtype=dtype) for values, dtype in zip(columns, PACKET_DTYPES)
        ))
        return Flow(
            five_tuple=five_tuple,
            packets=columns.packets(),
            label=label,
            class_name=self.signatures[label].name,
            flow_id=flow_id,
        )


class PhaseShiftGenerator(SyntheticTrafficGenerator):
    """Traffic with a mid-stream concept drift (the phase-change demo).

    Flows that *start* at or after the ``shift_at`` fraction of the stream
    (start times run over ``[0, horizon)``) behave like a different class:
    their packets follow the
    signature of class ``(label + rotation) % n_classes`` while the
    ground-truth label is unchanged.  A model trained on pre-shift traffic
    therefore collapses on post-shift flows — exactly the regime the online
    loop (:mod:`repro.online`) must detect, retrain on and recover from.

    The class signatures are byte-identical to
    :class:`SyntheticTrafficGenerator`'s for the same profile and seed
    (they are seeded independently of flow generation), so a model trained
    on the ordinary dataset faces only the behaviour rotation, not a new
    feature geometry.  The flow-body draw order differs from the base
    generator — the start time is drawn *first* so the shift decision is a
    pure function of when the flow begins — which is why this is a separate
    generator instead of a flag on the base one (the base rng stream, and
    with it every existing dataset, stays untouched).
    """

    def __init__(
        self,
        profile: DatasetProfile,
        seed: int = 0,
        *,
        rng: np.random.Generator | None = None,
        shift_at: float = 0.5,
        rotation: int = 1,
        horizon: float = 1.0,
    ) -> None:
        super().__init__(profile, seed, rng=rng)
        if not 0.0 < shift_at < 1.0:
            raise ValueError(f"shift_at must be in (0, 1), got {shift_at}")
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if profile.n_classes < 2:
            raise ValueError("phase shift needs at least 2 classes to rotate")
        self.shift_at = float(shift_at)
        self.horizon = float(horizon)
        self.rotation = int(rotation) % profile.n_classes
        if self.rotation == 0:
            self.rotation = 1

    @property
    def shift_time(self) -> float:
        """Absolute stream time of the shift (``shift_at * horizon``)."""
        return self.shift_at * self.horizon

    def _generate_flow(self, flow_id: int, label: int, rng: np.random.Generator) -> Flow:
        # The unit draw both decides the shift side and (scaled by the
        # horizon) places the flow start, so the rng stream is independent
        # of the horizon: stretching time never changes which flows drift.
        unit_start = float(rng.uniform(0, 1.0))
        start = unit_start * self.horizon
        behaviour = label
        if unit_start >= self.shift_at:
            behaviour = (label + self.rotation) % self.profile.n_classes
        return self._draw_flow(flow_id, label, self.signatures[behaviour], rng, start)
