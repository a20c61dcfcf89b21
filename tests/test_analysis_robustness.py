"""Tests for the flow-size spoofing robustness analysis (paper §6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import evaluate_flow_size_spoofing, robustness
from repro.dataplane import SpliDTDataPlane, oracle, replay_dataset


@pytest.fixture(scope="module")
def spoofing_results(splidt_model, splidt_rules, small_dataset):
    subset = small_dataset.subset(np.arange(60))
    return evaluate_flow_size_spoofing(
        splidt_model, splidt_rules, subset, scales=(1.0, 0.5, 4.0)
    )


class TestFlowSizeSpoofing:
    def test_one_result_per_scale(self, spoofing_results):
        assert [r.scale for r in spoofing_results] == [1.0, 0.5, 4.0]

    def test_honest_baseline_classifies_everything(self, spoofing_results):
        honest = spoofing_results[0]
        assert honest.decided_fraction == pytest.approx(1.0)
        assert honest.f1_score > 0.0

    def test_scores_bounded(self, spoofing_results):
        for result in spoofing_results:
            assert 0.0 <= result.f1_score <= 1.0
            assert 0.0 <= result.decided_fraction <= 1.0

    def test_inflated_flow_size_hurts_or_delays(self, spoofing_results, splidt_model):
        honest, _, inflated = spoofing_results
        # Advertising a 4x larger flow pushes window boundaries past the real
        # flow end: either some flows never get a verdict or accuracy drops or
        # fewer partition transitions happen.
        degraded = (
            inflated.decided_fraction < honest.decided_fraction - 1e-9
            or inflated.f1_score <= honest.f1_score + 1e-9
            or inflated.mean_recirculations < honest.mean_recirculations
        )
        assert degraded

    def test_truncated_flow_size_changes_windows(self, spoofing_results, splidt_model):
        honest, truncated, _ = spoofing_results
        # With a 0.5x advertised size, boundaries fire after fewer packets, so
        # the subtrees see truncated windows; recirculation still happens.
        assert truncated.mean_recirculations <= splidt_model.n_partitions - 1


def _fields(verdicts) -> dict:
    return {
        fid: (v.label, v.decided_at, v.first_packet_at, v.n_recirculations, v.early_exit)
        for fid, v in verdicts.items()
    }


class TestSpoofedReplayIsTheDeployedProgram:
    """Spoofing replays in arrival order through the planes, on a contended table."""

    SLOTS = 64

    @pytest.fixture(scope="class")
    def subset(self, small_dataset):
        return small_dataset.subset(np.arange(60))

    def test_honest_scale_is_the_vectorized_replay(
        self, splidt_model, splidt_rules, subset, monkeypatch
    ):
        replays = []
        replay = robustness._replay_with_spoofed_size
        monkeypatch.setattr(
            robustness, "_replay_with_spoofed_size",
            lambda *args, **kwargs: (replays.append(replay(*args, **kwargs)), replays[-1])[1],
        )
        evaluate_flow_size_spoofing(
            splidt_model, splidt_rules, subset, scales=(1.0,), flow_slots=self.SLOTS
        )
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=self.SLOTS)
        vectorized = replay_dataset(program, subset)
        assert _fields(replays[0].verdicts) == _fields(vectorized.verdicts)
        assert replays[0].recirculation == vectorized.recirculation

    @pytest.mark.parametrize("scale", (0.5, 4.0))
    def test_spoofed_scale_is_the_per_packet_replay(
        self, splidt_model, splidt_rules, subset, scale
    ):
        replayed = robustness._replay_with_spoofed_size(
            splidt_model, splidt_rules, subset, scale=scale, flow_slots=self.SLOTS
        )
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=self.SLOTS)
        soa = subset.packet_arrays()
        spoofed = [max(int(round(flow.n_packets * scale)), 1) for flow in subset.flows]
        oracle.replay_positions(program, subset.flows, soa, soa.interleave_order, spoofed)
        assert _fields(replayed.verdicts) == _fields(program.verdicts)
        assert replayed.recirculation == program.recirculation_stats()
