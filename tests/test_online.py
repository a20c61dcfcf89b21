"""The online loop (`repro.online`): drift, retrain, hot swap.

Covers the pieces bottom-up — config validation, the Page–Hinkley detector,
the controller's state machine against a scripted fake engine, the refresh
(Algorithm 1's own trainer on the buffered flows), ``serve --online``
through the CLI — and finally the full phase-change demo with its
acceptance thresholds (the same run the ``pipeline-smoke`` CI job asserts).
"""

from __future__ import annotations

import importlib
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.partitioned_tree import (
    OUTCOME_EXIT,
    OUTCOME_NEXT,
    train_partitioned_tree,
)
from repro.core.range_marking import generate_rules, stacked_training_matrix
from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.dataplane.verdicts import VerdictStore, Verdicts
from repro.datasets.flows import FlowDataset
from repro.datasets.materialize import materialize
from repro.datasets.streams import iter_packet_chunks
from repro.online import (
    COOLDOWN,
    MAX_RECOVERY_GAP,
    MIN_STATIC_DROP,
    MONITORING,
    RETRAINING,
    DriftMonitor,
    OnlineConfig,
    OnlineConfigError,
    OnlineController,
    PageHinkley,
    default_online_config,
    run_phase_change_demo,
)
from repro.online.drift import WindowedErrorRate
from repro.pipeline import ExperimentSpec, get_system
from repro.pipeline.cli import main
from repro.scenarios import get_workload_scenario
from repro.switch.targets import TOFINO2
from repro.serve import MicroBatchEngine, SwapEvent


class TestOnlineConfig:
    def test_defaults_validate_and_chain(self):
        config = OnlineConfig()
        assert config.validate() is config
        assert not config.enabled

    @pytest.mark.parametrize(
        "overrides",
        [
            {"window": -1},
            {"window": 0},
            {"ph_delta": -0.1},
            {"ph_threshold": 0.0},
            {"ph_threshold": -1.0},
            {"ph_delta": -1e-9},
            {"warmup_flows": -1},
            {"min_retrain_flows": 0},
            {"retrain_window": 8, "min_retrain_flows": 16},
            {"retrain_window": 0},
            {"cooldown_flows": -1},
            {"min_retrain_flows": -5},
            {"cooldown_flows": -32},
        ],
    )
    def test_invalid_configs_raise(self, overrides):
        with pytest.raises(OnlineConfigError):
            OnlineConfig(**overrides).validate()

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError, match="window"):
            OnlineConfig(window=0).validate()

    @pytest.mark.parametrize(
        "removed",
        [
            {"detector": "page-hinkley"},
            {"error_threshold": 0.35},
            {"retrain_passes": 2},
            {"exit_confidence": 0.95},
        ],
    )
    def test_removed_fields_are_rejected(self, removed):
        # Deleted, not aliased: the learner knobs and the second detector.
        with pytest.raises(TypeError, match=next(iter(removed))):
            OnlineConfig(**removed)

    def test_replace_returns_new_config(self):
        config = OnlineConfig()
        other = config.replace(enabled=True, window=16)
        assert (other.enabled, other.window) == (True, 16)
        assert not config.enabled and config.window == 64

    def test_demo_default_config_is_valid(self):
        config = default_online_config()
        assert config.enabled and config.validate() is config


class TestPageHinkley:
    def test_no_false_alarm_on_stationary_noise(self):
        # The tuned serve-path defaults must absorb a stationary 15% error
        # rate without ever alarming.
        config = OnlineConfig()
        rng = np.random.default_rng(5)
        detector = PageHinkley(
            delta=config.ph_delta,
            threshold=config.ph_threshold,
            min_samples=config.warmup_flows,
        )
        alarms = [detector.update(float(rng.random() < 0.15)) for _ in range(600)]
        assert not any(alarms)

    def test_detects_error_rate_jump_quickly(self):
        config = OnlineConfig()
        rng = np.random.default_rng(5)
        detector = PageHinkley(
            delta=config.ph_delta,
            threshold=config.ph_threshold,
            min_samples=config.warmup_flows,
        )
        for _ in range(200):
            assert not detector.update(float(rng.random() < 0.15))
        lag = None
        for sample in range(1, 101):
            if detector.update(float(rng.random() < 0.85)):
                lag = sample
                break
        assert lag is not None and lag <= 30

    def test_reset_forgets_history(self):
        detector = PageHinkley(threshold=1.0, min_samples=2)
        for _ in range(20):
            detector.update(0.0)
        for _ in range(20):
            detector.update(1.0)
        assert detector.cumulation - detector.minimum > 0.0
        detector.reset()
        assert detector.n == 0 and detector.cumulation == detector.minimum == 0.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            PageHinkley(threshold=0.0)


class TestDriftMonitor:
    def test_page_hinkley_detector_alarms_on_shift(self):
        monitor = DriftMonitor(OnlineConfig(warmup_flows=16).validate())
        assert not any(monitor.observe(1, 1) for _ in range(64))
        assert any(monitor.observe(1, 0) for _ in range(64))

    def test_reset_rearms_the_monitor(self):
        monitor = DriftMonitor(OnlineConfig(warmup_flows=16).validate())
        for _ in range(64):
            monitor.observe(1, 0)
        monitor.reset()
        assert len(monitor.windowed._outcomes) == 0
        assert monitor.error_rate == 0.0
        assert not any(monitor.observe(1, 1) for _ in range(64))


class TestWindowedErrorRate:
    def test_matches_naive_window_rate(self):
        rng = np.random.default_rng(5)
        errors = rng.random(200) < 0.3
        windowed = WindowedErrorRate(window=16)
        for index, error in enumerate(errors):
            windowed.update(bool(error))
            recent = errors[max(0, index - 15): index + 1]
            assert windowed.rate == recent.sum() / recent.size
        assert len(windowed._outcomes) == 16

    def test_old_outcomes_age_out(self):
        windowed = WindowedErrorRate(window=2)
        windowed.update(True)
        windowed.update(True)
        assert windowed.rate == 1.0
        windowed.update(False)
        windowed.update(False)
        assert windowed.rate == 0.0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            WindowedErrorRate(window=0)

    def test_reset_empties_the_window(self):
        windowed = WindowedErrorRate(window=4)
        windowed.update(True)
        windowed.reset()
        assert len(windowed._outcomes) == 0 and windowed.rate == 0.0


class _FakeFlow:
    def __init__(self, flow_id, label):
        self.flow_id = flow_id
        self.label = label


class _FakeEngine:
    """Scripted verdict feed that records every ``swap_model`` factory."""

    def __init__(self):
        self._store = VerdictStore()
        self.factories = []

    def deliver(self, flow_id, label, decided_at):
        self._store.append_row(flow_id, label, decided_at, 0.0, 0, False, 0)

    def verdicts(self):
        return self._store.snapshot()

    def swap_model(self, factory):
        self.factories.append(factory)
        return SwapEvent(
            epoch=len(self.factories), latency_s=0.0, buffered_packets=0,
            pinned_slots=0, pinned_flows=0, watermark=0.0, flows_started=0,
        )


def _bind(controller, engine, flows):
    """Observe a chunk of a source holding ``flows`` (nothing decided yet)."""
    soa = SimpleNamespace(
        flow_ids=np.array([flow.flow_id for flow in flows], dtype=np.int64),
        labels=np.array([flow.label for flow in flows], dtype=np.int64),
    )
    assert controller.observe_chunk(engine, SimpleNamespace(soa=soa, flows=flows)) is None


#: Thirteen classes, the label space of the scripted state-machine tests.
CLASS_NAMES = [f"class-{index}" for index in range(13)]


def _deployed(model=None, rules=None, **spec):
    """The factory of a deployed SpliDT program (1,024 slots unless ``spec`` says)."""
    return get_system("splidt").program_factory(
        model, rules, ExperimentSpec(**{"flow_slots": 1024, **spec})
    )


def _controller(splidt_config, class_names=CLASS_NAMES, **overrides):
    # Page–Hinkley at delta 0.15 / threshold 4.0: eight correct verdicts then
    # a run of wrong ones alarms on the eighth wrong one (statistic 4.10;
    # 3.75 one verdict earlier).
    knobs = dict(
        enabled=True,
        window=8,
        warmup_flows=8,
        ph_threshold=4.0,
        min_retrain_flows=8,
        retrain_window=16,
        cooldown_flows=2,
    )
    return OnlineController(
        config=OnlineConfig(**{**knobs, **overrides}).validate(),
        model_config=splidt_config,
        factory=_deployed(),
        class_names=class_names,
    )


class TestOnlineControllerStateMachine:
    def test_alarm_moves_to_retraining(self, splidt_config):
        controller = _controller(splidt_config)
        engine = _FakeEngine()
        # Eight correct verdicts, then exactly enough wrong ones for the
        # alarm to fire on the last (see ``_controller``).
        _bind(controller, engine, [_FakeFlow(fid, 0) for fid in range(16)])
        for fid in range(16):
            engine.deliver(fid, 0 if fid < 8 else 1, float(fid))
        controller.poll(engine, allow_swap=False)
        assert controller.state == RETRAINING
        assert [event.kind for event in controller.events] == ["drift"]
        assert controller.events[0].n_verdicts == controller.n_verdicts == 16

    def test_unknown_flows_are_skipped(self, splidt_config):
        controller = _controller(splidt_config)
        engine = _FakeEngine()
        engine.deliver(99, 1, 0.0)  # never bound: no ground truth
        controller.poll(engine, allow_swap=False)
        assert controller.state == MONITORING
        assert len(controller.monitor.windowed._outcomes) == 0

    def test_stale_old_epoch_verdicts_do_not_feed_the_monitor(self, splidt_config):
        controller = _controller(splidt_config)
        engine = _FakeEngine()
        _bind(controller, engine, [_FakeFlow(0, 0), _FakeFlow(1, 0)])
        controller._stale = {0}
        engine.deliver(0, 1, 0.0)  # wrong, but decided on the old epoch
        engine.deliver(1, 0, 1.0)
        controller.poll(engine, allow_swap=False)
        assert len(controller.monitor.windowed._outcomes) == 1
        assert controller._stale == set()
        assert controller.n_verdicts == 2

    def test_cooldown_rearms_monitoring(self, splidt_config):
        controller = _controller(splidt_config)
        controller.state = COOLDOWN
        controller._cooldown_left = 2
        controller.monitor.observe(0, 1)
        engine = _FakeEngine()
        _bind(controller, engine, [_FakeFlow(0, 0), _FakeFlow(1, 0)])
        engine.deliver(0, 1, 0.0)
        engine.deliver(1, 1, 1.0)
        controller.poll(engine, allow_swap=False)
        assert controller.state == MONITORING
        # The monitor was reset when cooldown expired.
        assert len(controller.monitor.windowed._outcomes) == 0

    def test_verdicts_graded_in_decision_order(self, splidt_config):
        controller = _controller(splidt_config)
        engine = _FakeEngine()
        _bind(controller, engine, [_FakeFlow(fid, 0) for fid in range(4)])
        # Delivered out of order; the drift event must fire at the same
        # verdict count regardless of dict insertion order.
        for fid in (3, 0, 2, 1):
            engine.deliver(fid, 0, float(fid))
        controller.poll(engine, allow_swap=False)
        assert controller.n_verdicts == 4
        assert controller.state == MONITORING

    def test_verdicts_across_polls_graded_once_in_decision_order(
        self, splidt_config, monkeypatch
    ):
        controller = _controller(splidt_config)
        engine = _FakeEngine()
        # A flow's label is its id, so the monitor's inputs name the flow.
        _bind(controller, engine, [_FakeFlow(fid, fid) for fid in range(10)])
        graded = []
        monkeypatch.setattr(
            controller.monitor, "observe",
            lambda y_true, y_pred: graded.append(y_true) or False,
        )
        # Each poll's new verdicts arrive out of flow-id order, and a later
        # poll's flow ids interleave with the earlier ones'.
        for batch in ([(7, 0.5), (2, 0.9), (5, 0.5)], [(9, 0.1), (0, 2.0), (3, 2.0)], []):
            for fid, decided_at in batch:
                engine.deliver(fid, fid, decided_at)
            controller.poll(engine, allow_swap=False)
        assert graded == [5, 7, 2, 9, 0, 3]
        assert controller.n_verdicts == 6

    def test_verdicts_without_ground_truth_are_graded_and_skipped(self, splidt_config):
        controller = _controller(splidt_config)
        engine = _FakeEngine()
        _bind(controller, engine, [_FakeFlow(fid, 0) for fid in (1, 3)])
        for fid in (0, 1, 2, 3, 4):
            engine.deliver(fid, 0, float(fid))
        controller.poll(engine, allow_swap=False)
        assert controller.n_verdicts == 5
        assert len(controller.monitor.windowed._outcomes) == 2
        assert controller.monitor.accuracy == 1.0
        controller.poll(engine, allow_swap=False)
        assert controller.n_verdicts == 5


def test_poll_and_stats_read_columns_not_verdict_objects(
    splidt_config, splidt_model, splidt_rules, small_dataset, monkeypatch
):
    """Neither a poll nor ``stats()`` builds a ``FlowVerdict``, new verdicts or not."""
    built = []
    getitem = Verdicts.__getitem__
    monkeypatch.setattr(
        Verdicts, "__getitem__", lambda self, key: built.append(key) or getitem(self, key)
    )
    controller = _controller(splidt_config)
    engine = MicroBatchEngine(SpliDTDataPlane(splidt_model, splidt_rules)).open()
    polls_without_news = 0
    for chunk in iter_packet_chunks(small_dataset.flows, 500):
        engine.ingest(chunk)
        controller.observe_chunk(engine, chunk)
        polls_without_news += controller.poll(engine, allow_swap=False) is None
        engine.stats()
    engine.drain()
    controller.poll(engine, allow_swap=False)
    stats = engine.stats()
    assert polls_without_news > 0 and stats.flows_decided > 0
    assert controller.n_verdicts == stats.flows_decided
    assert built == []


def _numpy_calls(read) -> int:
    """NumPy functions and methods ``read()`` calls (Python- or C-level)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or type(owner).__module__
        else:
            return
        calls += (module or "").startswith("numpy")

    sys.setprofile(profile)
    try:
        read()
    finally:
        sys.setprofile(None)
    return calls


def test_an_unchanged_session_is_read_in_constant_numpy_work(
    splidt_config, splidt_model, splidt_rules, small_dataset
):
    """A repeat ``poll`` and ``stats()`` on a session with nothing new cost the same, whatever its length.

    Its verdict snapshot, the scores of it and the sort order of its source
    are kept: nothing is sorted, gathered or concatenated again.
    """

    def repeat_cost(n_flows: int) -> tuple[int, int]:
        controller = _controller(splidt_config)
        engine = MicroBatchEngine(SpliDTDataPlane(splidt_model, splidt_rules)).open()
        for chunk in iter_packet_chunks(small_dataset.flows[:n_flows], 500):
            engine.ingest(chunk)
            controller.observe_chunk(engine, chunk)
        engine.drain()
        controller.poll(engine, allow_swap=False)
        decided = engine.stats().flows_decided
        calls = _numpy_calls(lambda: (controller.poll(engine, allow_swap=False), engine.stats()))
        return calls, decided

    (short, decided_short), (long, decided_long) = repeat_cost(30), repeat_cost(360)
    assert decided_long > 5 * decided_short > 0
    assert long == short <= 2


def _tree_nodes(subtree):
    return [
        (node.feature, node.threshold.hex(), node.left, node.right, node.depth)
        for node in subtree.tree.tree_.nodes
    ]


class TestRefreshIsAlgorithm1:
    """The swapped-in model is the offline trainer's, fitted on the buffer."""

    @pytest.fixture(scope="class")
    def refresh(self, small_dataset, splidt_config):
        flows = list(small_dataset.flows[:150])
        class_names = small_dataset.class_names
        controller = _controller(
            splidt_config, class_names,
            min_retrain_flows=len(flows), retrain_window=len(flows),
        )
        controller.state = RETRAINING
        engine = _FakeEngine()
        _bind(controller, engine, flows)
        for position, flow in enumerate(flows):
            engine.deliver(flow.flow_id, flow.label, float(position))
        event = controller.poll(engine)

        n_partitions = splidt_config.n_partitions
        windowed = materialize(
            FlowDataset("expected", "", flows, class_names), n_partitions
        )
        model = train_partitioned_tree(windowed, splidt_config, split="all")
        rules = generate_rules(
            model, stacked_training_matrix(windowed, n_partitions, split="all")
        )
        return controller, engine, event, model, rules

    def test_buffer_full_fires_exactly_one_swap(self, refresh):
        controller, engine, event, _, _ = refresh
        assert len(engine.factories) == 1
        assert controller.swap_events == [event] and event.epoch == 1
        assert controller.state == COOLDOWN
        assert controller.events[-1].detail["retrain_flows"] == 150

    def test_model_matches_the_offline_trainer_subtree_by_subtree(
        self, refresh, small_dataset
    ):
        _, engine, _, expected, _ = refresh
        model = engine.factories[0].model
        assert model.n_classes == len(small_dataset.class_names)
        assert model.class_names == list(small_dataset.class_names)
        assert (model.root_sid, model.default_label) == (
            expected.root_sid, expected.default_label,
        )
        assert sorted(model.subtrees) == sorted(expected.subtrees)
        assert len(model.subtrees) > 1
        for sid, subtree in model.subtrees.items():
            twin = expected.subtrees[sid]
            assert subtree.partition == twin.partition
            assert subtree.n_training_samples == twin.n_training_samples
            assert _tree_nodes(subtree) == _tree_nodes(twin)
            assert subtree.outcomes == twin.outcomes

    def test_rules_match_generate_rules(self, refresh):
        _, engine, _, _, expected = refresh
        factory = engine.factories[0]
        assert factory.spec.flow_slots == 1024
        rules = factory.rules
        assert rules.bit_width == expected.bit_width
        np.testing.assert_array_equal(
            rules.quantizer.scales_, expected.quantizer.scales_
        )
        assert sorted(rules.subtree_rules) == sorted(expected.subtree_rules)
        for sid, subtree_rules in rules.subtree_rules.items():
            twin = expected.subtree_rules[sid]
            assert subtree_rules.mark_tables == twin.mark_tables
            assert subtree_rules.model_rules == twin.model_rules

    def test_leaf_outcomes_follow_algorithm_1(self, refresh, splidt_config):
        # A leaf chains to the next partition only when it used its whole
        # depth budget and still holds more than one class.
        _, engine, _, _, _ = refresh
        model = engine.factories[0].model
        last = splidt_config.n_partitions - 1
        kinds = set()
        for subtree in model.subtrees.values():
            budget = splidt_config.partition_sizes[subtree.partition]
            for leaf in subtree.tree.tree_.leaves():
                outcome = subtree.outcomes[leaf.node_id]
                kinds.add(outcome.kind)
                chains = (
                    subtree.partition < last
                    and leaf.depth == budget
                    and np.count_nonzero(leaf.value) > 1
                )
                assert outcome.kind == (OUTCOME_NEXT if chains else OUTCOME_EXIT)
        assert kinds == {OUTCOME_EXIT, OUTCOME_NEXT}

    def test_refreshed_program_replays(self, refresh, small_dataset):
        _, engine, _, _, _ = refresh
        program = engine.factories[0]()
        assert isinstance(program, SpliDTDataPlane)
        result = replay_dataset(program, small_dataset)
        # Short flows can end undecided; nearly all must get a verdict.
        assert len(result.verdicts) >= 0.9 * len(small_dataset.flows)


@pytest.mark.parametrize(
    "path",
    [
        "repro.online.incremental",
        "repro.online:HoeffdingSubtreeLearner",
        "repro.online:IncrementalPartitionedTrainer",
        "repro.online:FrozenTreeClassifier",
        "repro.online:DEFAULT_BINS",
        "repro.online:FeatureDistributionMonitor",
        "repro.online:DETECTORS",
        "repro.online.drift:FeatureDistributionMonitor",
        "repro.online.config:DETECTORS",
        "repro.ml.splitter:split_gains_from_counts",
    ],
)
def test_second_learner_and_detector_are_gone(path):
    """One tree learner, one drift detector: removed names are not aliased."""
    module, _, name = path.partition(":")
    if not name:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
        return
    assert not hasattr(importlib.import_module(module), name)


def test_removed_learner_import_fails_loudly():
    with pytest.raises(ImportError):
        from repro.online import HoeffdingSubtreeLearner  # noqa: F401


@pytest.mark.parametrize("removed", [{"n_classes": 13}, {"rules": None}])
def test_controller_rejects_removed_keywords(splidt_config, removed):
    with pytest.raises(TypeError, match=next(iter(removed))):
        OnlineController(
            config=OnlineConfig(), model_config=splidt_config, factory=_deployed(),
            class_names=CLASS_NAMES, **removed,
        )


def test_controller_requires_class_names(splidt_config):
    with pytest.raises(TypeError, match="class_names"):
        OnlineController(
            config=OnlineConfig(), model_config=splidt_config, factory=_deployed()
        )


def test_serve_online_through_the_cli(capsys):
    """``serve --online`` builds its controller and leaves a quiet stream alone."""
    argv = ["serve", "--dataset", "D3", "--n-flows", "140", "--seed", "4",
            "--depth", "6", "--k", "3", "--partitions", "3",
            "--replay-flows", "80", "--chunk-size", "64", "--progress-every", "0"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--online", "--drift-window", "16",
                 "--min-retrain-flows", "24", "--cooldown-flows", "8"]) == 0
    online = capsys.readouterr().out
    assert "(microbatch engine, chunks of 64 pkts, online loop)" in online
    assert "online loop       : 0 drift alarm(s), 0 swap(s), final state monitoring" in online

    def decided(stdout):
        (line,) = [l for l in stdout.splitlines() if l.startswith("flows decided")]
        return line

    # No alarm, no swap: attaching the loop changes no verdict.
    assert decided(online) == decided(plain)
    assert "/80" in decided(online)


def test_a_swapped_in_model_is_deployed_like_the_one_it_replaces(
    small_dataset, splidt_config, splidt_model, splidt_rules
):
    """The refreshed program keeps the deployment's target, slots and eviction."""
    scenario = get_workload_scenario("table-pressure").replace(eviction="lru")
    deployed = _deployed(
        splidt_model, splidt_rules, target="tofino2", flow_slots=2048, scenario=scenario
    )
    flows = list(small_dataset.flows[:40])
    controller = OnlineController(
        config=OnlineConfig(
            enabled=True, window=8, warmup_flows=8, min_retrain_flows=len(flows),
            retrain_window=len(flows),
        ).validate(),
        model_config=splidt_config,
        factory=deployed,
        class_names=small_dataset.class_names,
    )
    controller.state = RETRAINING
    engine = _FakeEngine()
    _bind(controller, engine, flows)
    for position, flow in enumerate(flows):
        engine.deliver(flow.flow_id, flow.label, float(position))
    assert controller.poll(engine) is not None

    (factory,) = engine.factories
    parent, child = deployed(), pickle.loads(pickle.dumps(factory))()
    assert isinstance(child, SpliDTDataPlane) and child.model is not parent.model
    assert child.target == parent.target == TOFINO2
    assert child.flow_slots == parent.flow_slots == 2048
    assert type(child.eviction) is type(parent.eviction)
    assert child.eviction.name == "lru"


class TestPhaseChangeDemo:
    """The end-to-end acceptance run (same thresholds as CI's pipeline-smoke)."""

    @pytest.fixture(scope="class")
    def demo(self):
        return run_phase_change_demo()

    def test_static_model_collapses_after_the_shift(self, demo):
        assert demo["static"]["drop"] >= MIN_STATIC_DROP
        assert demo["static_drop_ok"]

    def test_online_loop_detects_retrains_and_swaps(self, demo):
        kinds = [event["kind"] for event in demo["events"]]
        assert "drift" in kinds and "swap" in kinds
        assert len(demo["swaps"]) >= 1
        assert demo["swaps"][0]["latency_s"] > 0.0

    def test_online_loop_recovers_post_swap(self, demo):
        assert demo["recovered"]
        assert demo["online"]["recovery_gap"] <= MAX_RECOVERY_GAP
        assert demo["online"]["post_swap_flows"] > 0

    def test_pre_swap_flows_bit_identical_to_no_swap_session(self, demo):
        assert demo["pre_swap_bit_identical"]
