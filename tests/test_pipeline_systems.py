"""System/scenario registry behaviour."""

from __future__ import annotations

import pytest

from repro.pipeline import (
    ExperimentSpec,
    SpecError,
    available_scenarios,
    available_systems,
    get_scenario,
    get_system,
    register_scenario,
    register_system,
)
from repro.pipeline.systems import SCENARIOS, SYSTEMS, System


def test_builtin_systems_registered():
    assert {"splidt", "netbeacon", "leo", "per_packet", "topk", "pforest"} <= set(
        available_systems()
    )


def test_builtin_scenarios_registered():
    assert {"quickstart", "vpn-detection", "iot-intrusion"} <= set(available_scenarios())
    for name in available_scenarios():
        get_scenario(name).validate()


def test_get_system_unknown_raises():
    with pytest.raises(SpecError, match="unknown system"):
        get_system("quantum-tree")


def test_get_scenario_unknown_raises():
    with pytest.raises(SpecError, match="unknown scenario"):
        get_scenario("no-such-scenario")


def test_register_custom_system_reachable_from_spec():
    class EchoSystem(System):
        name = "echo-test"
        supports_replay = False

        def train(self, spec, windowed):
            return "trained"

        def offline_report(self, model, windowed, spec):
            raise NotImplementedError

    register_system(EchoSystem())
    try:
        assert get_system("echo-test").train(None, None) == "trained"
        ExperimentSpec(system="echo-test", depth=6, n_partitions=3).validate()
    finally:
        SYSTEMS.pop("echo-test")


def test_register_unnamed_system_rejected():
    with pytest.raises(ValueError):
        register_system(System())


def test_register_custom_scenario():
    register_scenario("tmp-scenario", ExperimentSpec(dataset="D1"))
    try:
        assert get_scenario("tmp-scenario").dataset == "D1"
    finally:
        SCENARIOS.pop("tmp-scenario")


class _ProbeSystem(System):
    """Module-level so ProgramFactory pickling can resolve it by reference."""

    name = "probe-test"
    supports_replay = True

    def build_program(self, model, rules, spec):
        return ("program", model, rules)


def test_program_factory_uses_the_exact_instance_in_process():
    # An UNREGISTERED adapter must keep working in-process, exactly as the
    # old closure-based factory did (single-process serving path).
    system = _ProbeSystem()
    factory = system.program_factory("m", None, ExperimentSpec())
    assert factory() == ("program", "m", None)
    assert factory.system is system


def test_program_factory_pickles_registered_systems_by_name():
    import pickle

    system = _ProbeSystem()
    register_system(system)
    try:
        factory = system.program_factory("m", None, ExperimentSpec())
        restored = pickle.loads(pickle.dumps(factory))
        # Re-resolved through the registry: same adapter, not a copy.
        assert restored.system is system
        assert restored() == ("program", "m", None)
    finally:
        SYSTEMS.pop("probe-test")


def test_program_factory_pickles_unregistered_systems_directly():
    import pickle

    system = _ProbeSystem()  # never registered
    factory = system.program_factory("m", None, ExperimentSpec())
    restored = pickle.loads(pickle.dumps(factory))
    assert restored.system is not system  # carried by value
    assert restored() == ("program", "m", None)


def test_splidt_program_factory_roundtrip_builds_fresh_programs():
    import pickle

    from repro.pipeline import Experiment

    experiment = Experiment(ExperimentSpec(dataset="D3", n_flows=60, depth=4,
                                           features_per_subtree=2, n_partitions=2))
    factory = experiment.system.program_factory(
        experiment.train(), experiment.compile(), experiment.spec
    )
    restored = pickle.loads(pickle.dumps(factory))
    assert restored.system is get_system("splidt")
    program = restored()
    assert program is not restored()  # fresh program per call
