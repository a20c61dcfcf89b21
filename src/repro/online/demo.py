"""The phase-change demo: drift hits, the online loop detects and recovers.

Scenario: a partitioned model is trained on ordinary traffic, then serves a
stream generated by :class:`~repro.datasets.generators.PhaseShiftGenerator`
— halfway through, flow behaviour rotates across classes while ground-truth
labels stay put.  The static model's F1 collapses on post-shift flows; the
online loop (:mod:`repro.online.loop`) sees the error spike, buffers newly
labelled flows, retrains the model on them and hot-swaps it in,
recovering accuracy for flows that start after the swap — while flows
already in flight finish on the old model bit-exactly.

``python -m repro online-demo`` runs this end to end; the ``pipeline-smoke``
CI job asserts the recovery thresholds.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SpliDTConfig
from repro.core.partitioned_tree import train_partitioned_tree
from repro.core.range_marking import generate_rules, stacked_training_matrix
from repro.dataplane.runtime import score_verdicts
from repro.datasets.generators import PhaseShiftGenerator, SyntheticTrafficGenerator
from repro.datasets.materialize import DatasetStore
from repro.datasets.profiles import get_profile
from repro.datasets.streams import iter_packet_chunks
from repro.online.config import OnlineConfig
from repro.online.loop import OnlineController
from repro.serve import create_engine

#: Acceptance thresholds of the demo (see ISSUE/ROADMAP): the static model
#: must lose at least this much F1 after the shift, and the online loop must
#: recover to within this gap of the pre-shift F1.
MIN_STATIC_DROP = 0.30
MAX_RECOVERY_GAP = 0.05


def _subset_f1(result, flow_ids) -> tuple[float, int]:
    """Weighted F1 of a session's verdicts of ``flow_ids``, and how many it scored."""
    report = score_verdicts(result.verdicts, result.truth_ids, result.truth_labels, flow_ids)
    return float(report.f1_score), report.n_samples


def _verdicts_bit_identical(left, right, flow_ids) -> bool:
    """Whether both verdict snapshots agree exactly on every given flow, decided or not."""
    ids = np.fromiter(flow_ids, dtype=np.int64)

    def rows(verdicts):
        return [column[np.isin(verdicts.flow_ids, ids)] for column in verdicts.columns[:-1]]

    return all(map(np.array_equal, rows(left), rows(right)))


def default_online_config() -> OnlineConfig:
    """The demo's tuned online-loop configuration."""
    return OnlineConfig(
        enabled=True,
        window=48,
        warmup_flows=24,
        min_retrain_flows=200,
        cooldown_flows=24,
    )


def run_phase_change_demo(
    *,
    dataset: str = "D7",
    train_flows: int = 360,
    serve_flows: int = 600,
    seed: int = 7,
    shift_at: float = 0.5,
    horizon: float = 60.0,
    engine: str = "microbatch",
    chunk_size: int = 64,
    flow_slots: int = 8192,
    depth: int = 6,
    features_per_subtree: int = 4,
    partition_sizes: tuple[int, ...] = (2, 2, 2),
    online: OnlineConfig | None = None,
) -> dict:
    """Train, drift, detect, retrain, swap, recover — and measure all of it.

    Returns a JSON-ready dict: the static model's pre-/post-shift F1, the
    online session's post-swap F1, the drift/swap event log, the swap
    latency, and whether pre-swap flows matched a no-swap replay of the old
    model bit-for-bit.
    """
    online = (online or default_online_config()).validate()
    profile = get_profile(dataset)
    config = SpliDTConfig(
        depth=depth,
        features_per_subtree=features_per_subtree,
        partition_sizes=tuple(partition_sizes),
    )

    # Train the static model on ordinary (pre-shift) traffic.
    train_dataset = SyntheticTrafficGenerator(profile, seed=seed).generate(train_flows)
    windowed = DatasetStore(train_dataset, random_state=seed).fetch(config.n_partitions)
    model = train_partitioned_tree(windowed, config, random_state=seed)
    rules = generate_rules(
        model, stacked_training_matrix(windowed, config.n_partitions)
    )

    # The drifting stream: same class signatures, behaviour rotated for
    # flows starting at or after shift_at.  Starts are stretched over a
    # horizon much longer than flow durations so verdicts track flow
    # starts — otherwise every flow is already in flight (and pinned to
    # the old model) by the time drift is even detectable.
    generator = PhaseShiftGenerator(
        profile, seed=seed, shift_at=shift_at, horizon=horizon
    )
    shifted = generator.generate(serve_flows)
    shift_time = generator.shift_time
    soa = shifted.packet_arrays()
    pre = soa.first_timestamps < shift_time
    pre_ids = soa.flow_ids[pre].tolist()
    post_ids = soa.flow_ids[~pre].tolist()

    # Deployed as ``serve`` deploys SpliDT: the default target, no eviction.
    # (Imported here: ``repro.pipeline`` imports this package.)
    from repro.pipeline import ExperimentSpec, get_system

    factory = get_system("splidt").program_factory(
        model, rules, ExperimentSpec(dataset=dataset, seed=seed, flow_slots=flow_slots)
    )

    # Static baseline: the old model serves the whole stream through the
    # same engine type, no swap — the bit-exactness comparison then
    # isolates the swap (not engine-vs-engine differences on collided
    # register slots, which are identical in both sessions).
    static_engine = create_engine(
        factory,
        engine=engine,
        chunk_size=chunk_size,
    )
    static_engine.open()
    for chunk in iter_packet_chunks(shifted.flows, chunk_size):
        static_engine.ingest(chunk)
    static_engine.drain()
    static = static_engine.close()
    static_pre_f1, _ = _subset_f1(static, pre_ids)
    static_post_f1, _ = _subset_f1(static, post_ids)

    # Online session: same stream, with the controller riding along.
    controller = OnlineController(
        config=online,
        model_config=config,
        factory=factory,
        class_names=shifted.class_names,
    )
    serve_engine = create_engine(
        factory,
        engine=engine,
        chunk_size=chunk_size,
    )
    serve_engine.open()
    for chunk in iter_packet_chunks(shifted.flows, chunk_size):
        serve_engine.ingest(chunk)
        controller.observe_chunk(serve_engine, chunk)
    serve_engine.drain()
    controller.poll(serve_engine, allow_swap=False)
    online_result = serve_engine.close()

    online_pre_f1, _ = _subset_f1(online_result, pre_ids)
    swaps = controller.swap_events
    if swaps:
        first_swap = swaps[0]
        pre_swap_ids = set(first_swap.started_flow_ids)
        recovered_ids = [
            flow_id
            for flow_id in post_ids
            if flow_id not in swaps[-1].started_flow_ids
        ]
        post_swap_f1, post_swap_n = _subset_f1(online_result, recovered_ids)
        bit_identical = _verdicts_bit_identical(
            online_result.verdicts, static.verdicts, pre_swap_ids
        )
        recovery_gap = static_pre_f1 - post_swap_f1
    else:
        post_swap_f1, post_swap_n = 0.0, 0
        bit_identical = _verdicts_bit_identical(
            online_result.verdicts, static.verdicts, online_result.verdicts.keys()
        )
        recovery_gap = 1.0

    static_drop = static_pre_f1 - static_post_f1
    return {
        "dataset": dataset,
        "seed": seed,
        "engine": engine,
        "serve_flows": serve_flows,
        "shift_at": shift_at,
        "pre_shift_flows": len(pre_ids),
        "post_shift_flows": len(post_ids),
        "static": {
            "pre_f1": round(static_pre_f1, 6),
            "post_f1": round(static_post_f1, 6),
            "drop": round(static_drop, 6),
        },
        "online": {
            "pre_f1": round(online_pre_f1, 6),
            "post_swap_f1": round(post_swap_f1, 6),
            "post_swap_flows": post_swap_n,
            "recovery_gap": round(recovery_gap, 6),
            "summary": controller.summary(),
        },
        "events": [
            {
                "kind": event.kind,
                "n_verdicts": event.n_verdicts,
                "error_rate": round(event.error_rate, 6),
                **event.detail,
            }
            for event in controller.events
        ],
        "swaps": [
            {
                "epoch": event.epoch,
                "latency_s": round(event.latency_s, 6),
                "buffered_packets": event.buffered_packets,
                "pinned_flows": event.pinned_flows,
                "pinned_slots": event.pinned_slots,
                "flows_started": event.flows_started,
            }
            for event in swaps
        ],
        "pre_swap_bit_identical": bool(bit_identical),
        "static_drop_ok": bool(static_drop >= MIN_STATIC_DROP),
        "recovered": bool(swaps and recovery_gap <= MAX_RECOVERY_GAP),
    }
