"""The online loop (`repro.online`): drift, incremental retrain, hot swap.

Covers the pieces bottom-up — config validation, the Page–Hinkley and
feature-distribution detectors, the Hoeffding subtree learner, the
recursive incremental trainer — then the controller's state machine against
a scripted fake engine, and finally the full phase-change demo with its
acceptance thresholds (the same run the ``online-smoke`` CI job asserts).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.range_marking import FeatureQuantizer, generate_rules
from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.features.flowmeter import FlowMeter
from repro.ml.splitter import find_best_split
from repro.ml.tree import DecisionTreeClassifier
from repro.online import (
    COOLDOWN,
    MAX_RECOVERY_GAP,
    MIN_STATIC_DROP,
    MONITORING,
    RETRAINING,
    DriftMonitor,
    FeatureDistributionMonitor,
    HoeffdingSubtreeLearner,
    IncrementalPartitionedTrainer,
    OnlineConfig,
    OnlineConfigError,
    OnlineController,
    OnlineProgramFactory,
    PageHinkley,
    default_online_config,
    run_phase_change_demo,
)


class TestOnlineConfig:
    def test_defaults_validate_and_chain(self):
        config = OnlineConfig()
        assert config.validate() is config
        assert not config.enabled and config.detector == "page-hinkley"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"detector": "adwin"},
            {"window": 0},
            {"ph_delta": -0.1},
            {"ph_threshold": 0.0},
            {"error_threshold": 0.0},
            {"error_threshold": 1.5},
            {"warmup_flows": -1},
            {"min_retrain_flows": 0},
            {"retrain_window": 8, "min_retrain_flows": 16},
            {"retrain_passes": 0},
            {"cooldown_flows": -1},
            {"exit_confidence": 0.5},
            {"exit_confidence": 1.1},
        ],
    )
    def test_invalid_configs_raise(self, overrides):
        with pytest.raises(OnlineConfigError):
            OnlineConfig(**overrides).validate()

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError, match="detector"):
            OnlineConfig(detector="bogus").validate()

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
        assert detector.statistic > 0.0
        detector.reset()
        assert detector.n == 0 and detector.statistic == 0.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            PageHinkley(threshold=0.0)


class TestFeatureDistributionMonitor:
    def test_stationary_stream_scores_near_zero(self):
        rng = np.random.default_rng(2)
        monitor = FeatureDistributionMonitor(window=32)
        for _ in range(128):
            monitor.observe(rng.normal(size=4))
        monitor.freeze_reference()
        for _ in range(64):
            monitor.observe(rng.normal(size=4))
        assert monitor.shift_score() < 1.0

    def test_mean_shift_scores_large(self):
        rng = np.random.default_rng(2)
        monitor = FeatureDistributionMonitor(window=32)
        for _ in range(128):
            monitor.observe(rng.normal(size=4))
        monitor.freeze_reference()
        for _ in range(64):
            monitor.observe(rng.normal(size=4) + [0.0, 5.0, 0.0, 0.0])
        assert monitor.shift_score() > 3.0

    def test_score_is_zero_before_reference(self):
        monitor = FeatureDistributionMonitor()
        monitor.observe([1.0, 2.0])
        assert monitor.shift_score() == 0.0

    def test_freeze_needs_two_observations(self):
        monitor = FeatureDistributionMonitor()
        monitor.observe([1.0])
        with pytest.raises(ValueError, match="2 observations"):
            monitor.freeze_reference()

    def test_reset_forgets_reference(self):
        monitor = FeatureDistributionMonitor(window=4)
        for value in (1.0, 2.0, 3.0):
            monitor.observe([value])
        monitor.freeze_reference()
        monitor.reset()
        assert monitor.n_observed == 0 and monitor.shift_score() == 0.0


class TestDriftMonitor:
    def test_error_window_detector_alarms_past_threshold(self):
        config = OnlineConfig(
            detector="error-window", window=8, warmup_flows=8, error_threshold=0.5
        ).validate()
        monitor = DriftMonitor(config)
        assert not any(monitor.observe(0, 0) for _ in range(16))
        alarms = [monitor.observe(0, 1) for _ in range(8)]
        assert any(alarms)
        assert monitor.error_rate > 0.0

    def test_page_hinkley_detector_alarms_on_shift(self):
        monitor = DriftMonitor(OnlineConfig(warmup_flows=16).validate())
        assert not any(monitor.observe(1, 1) for _ in range(64))
        assert any(monitor.observe(1, 0) for _ in range(64))

    def test_reset_rearms_the_monitor(self):
        monitor = DriftMonitor(OnlineConfig(warmup_flows=16).validate())
        for _ in range(64):
            monitor.observe(1, 0)
        monitor.reset()
        assert monitor.n_observed == 0
        assert monitor.error_rate == 0.0
        assert not any(monitor.observe(1, 1) for _ in range(64))


@pytest.fixture(scope="module")
def separable_quantizer(classification_data):
    X, _ = classification_data
    return FeatureQuantizer(bit_width=12).fit(np.clip(X, 0.0, None))


def _feed(learner, X, y, passes=2):
    for _ in range(passes):
        for vector, label in zip(X, y):
            learner.observe(vector, int(label))
        learner.force_expand()
    return learner


class TestHoeffdingSubtreeLearner:
    def test_learns_separable_classes(self, classification_data, separable_quantizer):
        X, y = classification_data
        learner = _feed(
            HoeffdingSubtreeLearner(
                n_classes=3, max_depth=3, quantizer=separable_quantizer
            ),
            X, y,
        )
        frozen = learner.freeze()
        accuracy = float(np.mean(frozen.predict(X) == y))
        assert accuracy >= 0.9

    def test_matches_batch_cart_on_same_budget(
        self, classification_data, separable_quantizer
    ):
        # With forced expansion over a finite buffer the streamed tree
        # should not trail a batch CART fit of the same depth by much.
        X, y = classification_data
        learner = _feed(
            HoeffdingSubtreeLearner(
                n_classes=3, max_depth=2, quantizer=separable_quantizer
            ),
            X, y,
        )
        streamed = float(np.mean(learner.freeze().predict(X) == y))
        cart = DecisionTreeClassifier(max_depth=2).fit(X, y)
        batch = float(np.mean(cart.predict(X) == y))
        assert streamed >= batch - 0.05

    def test_respects_depth_budget(self, classification_data, separable_quantizer):
        X, y = classification_data
        learner = _feed(
            HoeffdingSubtreeLearner(
                n_classes=3, max_depth=2, quantizer=separable_quantizer
            ),
            X, y, passes=4,
        )
        assert learner.freeze().get_depth() <= 2

    def test_respects_feature_budget(self, classification_data, separable_quantizer):
        X, y = classification_data
        learner = _feed(
            HoeffdingSubtreeLearner(
                n_classes=3, max_depth=3, quantizer=separable_quantizer,
                max_distinct_features=1,
            ),
            X, y,
        )
        assert len(learner.used_features) <= 1
        assert learner.freeze().features_used() <= learner.used_features

    def test_force_expand_noop_on_pure_leaf(self, separable_quantizer):
        learner = HoeffdingSubtreeLearner(
            n_classes=3, max_depth=2, quantizer=separable_quantizer
        )
        for _ in range(16):
            learner.observe([1.0, 1.0, 1.0, 1.0], 0)
        assert learner.force_expand() == 0
        assert learner.freeze().get_n_leaves() == 1

    def test_emitted_thresholds_are_raw_feature_space(
        self, classification_data, separable_quantizer
    ):
        X, y = classification_data
        learner = _feed(
            HoeffdingSubtreeLearner(
                n_classes=3, max_depth=2, quantizer=separable_quantizer
            ),
            X, y,
        )
        tree = learner.freeze().tree_
        for node in tree.nodes:
            if node.feature >= 0:
                column = X[:, node.feature]
                assert column.min() - 1.0 <= node.threshold <= column.max() + 1.0

    @staticmethod
    def _exact_split(X, y, feature, learner):
        return find_best_split(
            X, y, allowed_features=np.array([feature]), criterion=learner.criterion,
            min_samples_leaf=learner.min_samples_leaf, n_classes=learner.n_classes,
            rng=np.random.default_rng(0),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_binned_gain_never_exceeds_the_exact_splitters(self, seed):
        # Cuts between histogram bins are a subset of the cuts between
        # distinct values, scored from the same class counts.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        X = np.abs(rng.normal(size=(n, 5))) * rng.integers(1, 50, size=5)
        X[:, 4] = rng.integers(0, 4, size=n)
        y = rng.integers(0, 4, size=n)
        learner = HoeffdingSubtreeLearner(
            n_classes=4, max_depth=1, quantizer=FeatureQuantizer(bit_width=12).fit(X),
            min_samples_leaf=int(rng.integers(1, 6)), grace_period=n + 1, n_bins=16,
        )
        for vector, label in zip(X, y):
            learner.observe(vector, int(label))
        for feature, feature_bins in learner._root.stats.bins.items():
            cut = learner._best_cut(feature_bins)
            exact = self._exact_split(X, y, feature, learner)
            if cut is not None:
                assert cut[0] <= (exact.improvement if exact is not None else 0.0) + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_binned_cut_is_the_exact_one_when_every_value_has_its_own_bin(self, seed):
        # 6-bit integer features on a 6-bit grid with 64 bins: bin == value.
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(30, 200))
        X = rng.integers(0, 64, size=(n, 4)).astype(float)
        X[0] = 63.0
        y = rng.integers(0, 3, size=n)
        learner = HoeffdingSubtreeLearner(
            n_classes=3, max_depth=1, quantizer=FeatureQuantizer(bit_width=6).fit(X),
            min_samples_leaf=int(rng.integers(1, 6)), grace_period=n + 1,
        )
        for vector, label in zip(X, y):
            learner.observe(vector, int(label))
        for feature, feature_bins in learner._root.stats.bins.items():
            assert len(feature_bins) == np.unique(X[:, feature]).size
            gain, threshold, _, _ = learner._best_cut(feature_bins)
            exact = self._exact_split(X, y, feature, learner)
            assert gain == pytest.approx(exact.improvement, abs=1e-12)
            assert threshold == exact.threshold


@pytest.fixture(scope="module")
def buffered_flows(small_dataset, splidt_config):
    """(windows, label) pairs as the controller buffers them."""
    meter = FlowMeter()
    return [
        (meter.extract_windows(flow, splidt_config.n_partitions), flow.label)
        for flow in small_dataset.flows[:180]
    ]


class TestIncrementalPartitionedTrainer:
    def _trainer(self, splidt_config, splidt_rules, small_dataset):
        return IncrementalPartitionedTrainer(
            config=splidt_config,
            n_classes=len(small_dataset.class_names),
            class_names=small_dataset.class_names,
            quantizer=splidt_rules.quantizer,
        )

    def test_builds_a_deployable_model(
        self, buffered_flows, splidt_config, splidt_rules, small_dataset
    ):
        trainer = self._trainer(splidt_config, splidt_rules, small_dataset)
        for windows, label in buffered_flows:
            trainer.add_flow(windows, label)
        assert trainer.n_flows == len(buffered_flows)
        model = trainer.build_model()
        assert model.root_sid == 1
        assert model.config is splidt_config
        for subtree in model.subtrees.values():
            assert 0 <= subtree.partition < splidt_config.n_partitions
            assert subtree.tree.get_depth() <= splidt_config.partition_sizes[
                subtree.partition
            ]
            assert len(subtree.tree.features_used()) <= (
                splidt_config.features_per_subtree
            )
        # Refreshed models must beat the majority-class baseline on the
        # flows they were refreshed from.
        matrix = np.stack(
            [w[: splidt_config.n_partitions] for w, _ in buffered_flows], axis=1
        )
        labels = np.asarray([label for _, label in buffered_flows])
        predictions = model.predict_windows(matrix)
        majority = float(np.mean(labels == np.bincount(labels).argmax()))
        assert float(np.mean(predictions == labels)) > majority

    def test_refreshed_model_compiles_and_replays(
        self, buffered_flows, splidt_config, splidt_rules, small_dataset
    ):
        trainer = self._trainer(splidt_config, splidt_rules, small_dataset)
        for windows, label in buffered_flows:
            trainer.add_flow(windows, label)
        model = trainer.build_model()
        matrix = np.vstack([w[: splidt_config.n_partitions] for w, _ in buffered_flows])
        rules = generate_rules(model, matrix)
        program = SpliDTDataPlane(model, rules, flow_slots=4096)
        result = replay_dataset(program, small_dataset, engine="reference")
        # Short flows can end undecided; nearly all must get a verdict.
        assert len(result.verdicts) >= 0.9 * len(small_dataset.flows)

    def test_add_flow_validates_shape_and_label(
        self, splidt_config, splidt_rules, small_dataset, buffered_flows
    ):
        trainer = self._trainer(splidt_config, splidt_rules, small_dataset)
        with pytest.raises(ValueError, match="windows"):
            trainer.add_flow(np.zeros(4), 0)
        with pytest.raises(ValueError, match="windows"):
            trainer.add_flow(np.zeros((1, 4)), 0)
        with pytest.raises(ValueError, match="label"):
            trainer.add_flow(buffered_flows[0][0], -1)

    def test_build_without_flows_raises(
        self, splidt_config, splidt_rules, small_dataset
    ):
        trainer = self._trainer(splidt_config, splidt_rules, small_dataset)
        with pytest.raises(ValueError, match="no flows"):
            trainer.build_model()

    def test_rejects_bad_passes(self, splidt_config, splidt_rules, small_dataset):
        with pytest.raises(ValueError, match="passes"):
            IncrementalPartitionedTrainer(
                config=splidt_config,
                n_classes=3,
                quantizer=splidt_rules.quantizer,
                passes=0,
            )


class _FakeVerdict:
    def __init__(self, flow_id, label, decided_at):
        self.flow_id = flow_id
        self.label = label
        self.decided_at = decided_at


class _FakeFlow:
    def __init__(self, flow_id, label):
        self.flow_id = flow_id
        self.label = label


class _FakeEngine:
    """Scripted verdict feed for controller state-machine tests."""

    def __init__(self):
        self._verdicts = {}

    def deliver(self, flow_id, label, decided_at):
        self._verdicts[flow_id] = _FakeVerdict(flow_id, label, decided_at)

    def verdicts(self):
        return dict(self._verdicts)


def _controller(splidt_config, splidt_rules, **overrides):
    config = OnlineConfig(
        enabled=True,
        detector="error-window",
        window=8,
        warmup_flows=8,
        error_threshold=0.5,
        min_retrain_flows=8,
        retrain_window=16,
        cooldown_flows=2,
        **overrides,
    ).validate()
    return OnlineController(
        config=config,
        model_config=splidt_config,
        flow_slots=1024,
        n_classes=13,
        rules=splidt_rules,
    )


class TestOnlineControllerStateMachine:
    def test_alarm_moves_to_retraining(self, splidt_config, splidt_rules):
        controller = _controller(splidt_config, splidt_rules)
        engine = _FakeEngine()
        # Exactly enough uniformly wrong verdicts for the alarm to fire on
        # the last one (window and warmup both 8, threshold 0.5).
        controller.bind_flows([_FakeFlow(fid, 0) for fid in range(8)])
        for fid in range(8):
            engine.deliver(fid, 1, float(fid))
        controller.poll(engine, allow_swap=False)
        assert controller.state == RETRAINING
        assert [event.kind for event in controller.events] == ["drift"]
        assert controller.n_verdicts == 8

    def test_unknown_flows_are_skipped(self, splidt_config, splidt_rules):
        controller = _controller(splidt_config, splidt_rules)
        engine = _FakeEngine()
        engine.deliver(99, 1, 0.0)  # never bound: no ground truth
        controller.poll(engine, allow_swap=False)
        assert controller.state == MONITORING
        assert controller.monitor.n_observed == 0

    def test_stale_old_epoch_verdicts_do_not_feed_the_monitor(
        self, splidt_config, splidt_rules
    ):
        controller = _controller(splidt_config, splidt_rules)
        engine = _FakeEngine()
        controller.bind_flows([_FakeFlow(0, 0), _FakeFlow(1, 0)])
        controller._stale = {0}
        engine.deliver(0, 1, 0.0)  # wrong, but decided on the old epoch
        engine.deliver(1, 0, 1.0)
        controller.poll(engine, allow_swap=False)
        assert controller.monitor.n_observed == 1
        assert controller._stale == set()
        assert controller.n_verdicts == 2

    def test_cooldown_rearms_monitoring(self, splidt_config, splidt_rules):
        controller = _controller(splidt_config, splidt_rules)
        controller.state = COOLDOWN
        controller._cooldown_left = 2
        controller.monitor.observe(0, 1)
        engine = _FakeEngine()
        controller.bind_flows([_FakeFlow(0, 0), _FakeFlow(1, 0)])
        engine.deliver(0, 1, 0.0)
        engine.deliver(1, 1, 1.0)
        controller.poll(engine, allow_swap=False)
        assert controller.state == MONITORING
        # The monitor was reset when cooldown expired.
        assert controller.monitor.n_observed == 0

    def test_verdicts_graded_in_decision_order(self, splidt_config, splidt_rules):
        controller = _controller(splidt_config, splidt_rules)
        engine = _FakeEngine()
        controller.bind_flows([_FakeFlow(fid, 0) for fid in range(4)])
        # Delivered out of order; the drift event must fire at the same
        # verdict count regardless of dict insertion order.
        for fid in (3, 0, 2, 1):
            engine.deliver(fid, 0, float(fid))
        controller.poll(engine, allow_swap=False)
        assert controller.n_verdicts == 4
        assert controller.state == MONITORING


class TestOnlineProgramFactory:
    def test_is_picklable_and_builds_a_program(self, splidt_model, splidt_rules):
        factory = OnlineProgramFactory(splidt_model, splidt_rules, 2048)
        clone = pickle.loads(pickle.dumps(factory))
        program = clone()
        assert isinstance(program, SpliDTDataPlane)
        assert program.flow_slots == 2048


class TestPhaseChangeDemo:
    """The end-to-end acceptance run (same thresholds as CI's online-smoke)."""

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
