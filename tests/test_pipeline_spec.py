"""ExperimentSpec validation, resolution and serialisation."""

from __future__ import annotations

import pytest

from repro.core.config import SpliDTConfig
from repro.online import OnlineConfig
from repro.pipeline import ExperimentSpec, ServeConfig, SpecError
from repro.switch.targets import TOFINO2


class TestValidation:
    def test_default_spec_is_valid(self):
        assert ExperimentSpec().validate() is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset": "D99"},
            {"system": "no-such-system"},
            {"n_flows": 5},
            {"target": "tofino9"},
            {"replay_engine": "turbo"},
            {"replay_engine": "fused"},  # removed engine name: rejected, not aliased
            {"replay_flows": 0},
            {"flow_slots": 0},
            {"test_size": 0.0},
            {"test_size": 1.5},
            {"n_trees": 0},
            {"depth": 0},
            {"bit_width": 12},
            # partition sizes must sum to the depth
            {"depth": 9, "partition_sizes": (3, 3)},
            # more partitions than depth levels
            {"depth": 2, "n_partitions": 3},
            {"serve": ServeConfig(engine="warp")},
            {"serve": ServeConfig(engine="sharded")},  # removed engine name: rejected, not aliased
            {"serve": ServeConfig(chunk_size=0)},
            {"serve": ServeConfig(chunk_size=512, backpressure=256)},
        ],
    )
    def test_invalid_specs_raise(self, overrides):
        with pytest.raises(SpecError):
            ExperimentSpec(**{**{"dataset": "D3"}, **overrides}).validate()

    def test_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            ExperimentSpec(dataset="bogus").validate()

    def test_error_message_names_the_problem(self):
        with pytest.raises(SpecError, match="dataset"):
            ExperimentSpec(dataset="bogus").validate()
        with pytest.raises(SpecError, match="system"):
            ExperimentSpec(system="bogus").validate()


class TestResolution:
    def test_model_config_uniform_split(self):
        spec = ExperimentSpec(depth=9, features_per_subtree=4, n_partitions=3)
        assert spec.model_config() == SpliDTConfig(
            depth=9, features_per_subtree=4, partition_sizes=(3, 3, 3)
        )

    def test_explicit_partition_sizes_win(self):
        spec = ExperimentSpec(depth=9, partition_sizes=(5, 3, 1))
        assert spec.model_config().partition_sizes == (5, 3, 1)

    def test_partition_sizes_coerced_to_tuple(self):
        spec = ExperimentSpec(depth=9, partition_sizes=[5, 3, 1])
        assert spec.partition_sizes == (5, 3, 1)

    def test_target_spec_lookup(self):
        assert ExperimentSpec(target="Tofino2").target_spec() is TOFINO2

    # SPLIDT_REPLAY_ENGINE used to be the default behind replay_engine=None;
    # the engine is now a plain spec field the environment cannot reach.
    def test_engine_spec_field_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("SPLIDT_REPLAY_ENGINE", "vectorized")
        spec = ExperimentSpec(replay_engine="reference").validate()
        assert spec.replay_engine == "reference"

    def test_engine_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SPLIDT_REPLAY_ENGINE", "reference")
        assert ExperimentSpec().validate().replay_engine == "vectorized"

    def test_engine_default_without_env(self, monkeypatch):
        monkeypatch.delenv("SPLIDT_REPLAY_ENGINE", raising=False)
        assert ExperimentSpec().replay_engine == "vectorized"

    def test_bad_env_engine_raises(self, monkeypatch):
        # Only the spec field can carry a bad engine, and that still raises.
        monkeypatch.setenv("SPLIDT_REPLAY_ENGINE", "warp")
        assert ExperimentSpec().validate().replay_engine == "vectorized"
        with pytest.raises(SpecError, match="warp"):
            ExperimentSpec(replay_engine="warp").validate()

    def test_src_reads_no_ambient_env_knob(self):
        # Spec -> constructor -> CLI is the whole config surface: nothing
        # under src/ names the environment, under any variable name.
        import ast
        from pathlib import Path

        import repro

        env_names = {"environ", "getenv"}
        reads = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr in env_names)
            or (isinstance(node, ast.Name) and node.id in env_names)
            or (isinstance(node, ast.alias) and node.name in env_names)
        ]
        assert reads == []

    def test_src_imports_only_declared_dependencies(self):
        # `pip install -e .` must be enough to `import repro`: every top-level
        # module imported anywhere under src/repro is the package itself, the
        # standard library, or named in setup.py's install_requires.
        import ast
        import re
        import sys
        from pathlib import Path

        import repro

        package = Path(repro.__file__).parent
        setup_call = next(
            node
            for node in ast.walk(ast.parse((package.parents[1] / "setup.py").read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
        )
        requires = next(
            ast.literal_eval(keyword.value)
            for keyword in setup_call.keywords
            if keyword.arg == "install_requires"
        )
        declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in requires}
        imported = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - {"repro"} - set(sys.stdlib_module_names)
        assert third_party <= declared, sorted(third_party - declared)

    def test_topk_config_for_baselines(self):
        spec = ExperimentSpec(system="netbeacon", depth=8, features_per_subtree=3)
        config = spec.topk_config()
        assert (config.depth, config.top_k, config.use_stateful) == (8, 3, True)
        assert not ExperimentSpec(system="per_packet").topk_config().use_stateful


class TestSerialisation:
    def test_roundtrip(self):
        spec = ExperimentSpec(dataset="D6", n_flows=300, seed=5,
                              partition_sizes=(4, 3, 2), replay_engine="reference")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_compatible(self):
        import json

        payload = json.dumps(ExperimentSpec(partition_sizes=(3, 3, 3)).to_dict())
        assert ExperimentSpec.from_dict(json.loads(payload)).partition_sizes == (3, 3, 3)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="mystery"):
            ExperimentSpec.from_dict({"dataset": "D3", "mystery": 1})
        # Run directories written while `lookup` was a spec field are
        # rejected by name, not migrated.
        with pytest.raises(SpecError, match="lookup"):
            ExperimentSpec.from_dict({"dataset": "D3", "lookup": "lut"})

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"serve": {"shards": 2}}, "shards"),
            ({"dse": {"workers": 2}}, "workers"),
            ({"dse": {"affinity": True}}, "affinity"),
        ],
    )
    def test_removed_nested_keys_rejected_by_name(self, payload, key):
        with pytest.raises(SpecError, match=key):
            ExperimentSpec.from_dict({"dataset": "D3", **payload})

    def test_replace_returns_new_spec(self):
        spec = ExperimentSpec(dataset="D3")
        other = spec.replace(dataset="D6", seed=9)
        assert (other.dataset, other.seed) == ("D6", 9)
        assert spec.dataset == "D3"


class TestServeConfig:
    def test_default_spec_carries_serve_config(self):
        spec = ExperimentSpec().validate()
        assert spec.serve == ServeConfig()
        assert spec.serve.engine == "microbatch"

    def test_serve_roundtrips_as_nested_dict(self):
        import json

        spec = ExperimentSpec(
            serve=ServeConfig(engine="sharded-mp", workers=3, chunk_size=128,
                              backpressure=4096)
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["serve"] == {
            "engine": "sharded-mp", "workers": 3,
            "spawn_method": None, "ring_slots": 64,
            "chunk_size": 128, "backpressure": 4096,
            "online": {
                "enabled": False, "window": 64,
                "ph_delta": 0.15, "ph_threshold": 5.0, "warmup_flows": 32,
                "min_retrain_flows": 96, "retrain_window": 512,
                "cooldown_flows": 32,
            },
        }
        restored = ExperimentSpec.from_dict(payload)
        assert restored == spec
        assert isinstance(restored.serve, ServeConfig)

    def test_sharded_mp_serve_roundtrip(self):
        import json

        spec = ExperimentSpec(
            serve=ServeConfig(engine="sharded-mp", workers=6, spawn_method="spawn")
        ).validate()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["serve"]["engine"] == "sharded-mp"
        assert payload["serve"]["workers"] == 6
        assert payload["serve"]["spawn_method"] == "spawn"
        restored = ExperimentSpec.from_dict(payload)
        assert restored == spec and restored.serve.workers == 6

    def test_serve_mp_validation(self):
        with pytest.raises(SpecError, match="workers"):
            ExperimentSpec(serve=ServeConfig(engine="sharded-mp", workers=0)).validate()
        with pytest.raises(SpecError, match="spawn_method"):
            ExperimentSpec(serve=ServeConfig(spawn_method="warp")).validate()
        with pytest.raises(SpecError, match="ring_slots"):
            ExperimentSpec(serve=ServeConfig(ring_slots=0)).validate()

    def test_serve_transport_roundtrip(self):
        import json

        spec = ExperimentSpec(
            serve=ServeConfig(engine="sharded-mp", ring_slots=8)
        ).validate()
        payload = json.loads(json.dumps(spec.to_dict()))
        # The ring is the only transport: its geometry is all that travels.
        assert "transport" not in payload["serve"]
        assert payload["serve"]["ring_slots"] == 8
        restored = ExperimentSpec.from_dict(payload)
        assert restored == spec and restored.serve.ring_slots == 8

    def test_serve_dict_coerced_at_construction(self):
        spec = ExperimentSpec(serve={"engine": "streaming", "chunk_size": 32})
        assert spec.serve == ServeConfig(engine="streaming", chunk_size=32)

    def test_unknown_serve_keys_rejected(self):
        with pytest.raises(SpecError, match="serve"):
            ExperimentSpec.from_dict({"serve": {"engine": "microbatch", "warp": 9}})
        with pytest.raises(SpecError, match="transport"):
            ExperimentSpec.from_dict({"serve": {"engine": "sharded-mp", "transport": "ring"}})

    def test_serve_replace(self):
        config = ServeConfig()
        assert config.replace(workers=8).workers == 8
        assert config.workers == 4


class TestOnlineConfigInSpec:
    def test_default_serve_carries_disabled_online(self):
        spec = ExperimentSpec().validate()
        assert isinstance(spec.serve.online, OnlineConfig)
        assert not spec.serve.online.enabled

    def test_online_roundtrips_through_json(self):
        import json

        spec = ExperimentSpec(
            serve=ServeConfig(
                online=OnlineConfig(enabled=True, ph_threshold=3.0,
                                    window=32, min_retrain_flows=48,
                                    retrain_window=64)
            )
        ).validate()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["serve"]["online"]["enabled"] is True
        assert payload["serve"]["online"]["ph_threshold"] == 3.0
        restored = ExperimentSpec.from_dict(payload)
        assert restored == spec
        assert isinstance(restored.serve.online, OnlineConfig)
        assert restored.serve.online.window == 32

    def test_online_dict_coerced_at_construction(self):
        spec = ExperimentSpec(
            serve={"engine": "microbatch",
                   "online": {"enabled": True, "window": 16}}
        )
        assert spec.serve.online == OnlineConfig(enabled=True, window=16)

    def test_unknown_online_keys_rejected(self):
        with pytest.raises(SpecError, match="online"):
            ExperimentSpec.from_dict(
                {"serve": {"online": {"enabled": True, "warp": 9}}}
            )

    @pytest.mark.parametrize(
        "key", ["retrain_passes", "exit_confidence", "detector", "error_threshold"]
    )
    def test_removed_online_keys_rejected(self, key):
        # One learner, one detector: a spec still carrying their knobs fails
        # loudly, naming the key, instead of being silently accepted.
        payload = ExperimentSpec().to_dict()
        payload["serve"]["online"][key] = 2
        with pytest.raises(SpecError, match=key):
            ExperimentSpec.from_dict(payload)

    def test_invalid_online_config_fails_spec_validation(self):
        with pytest.raises(SpecError, match="online"):
            ExperimentSpec(
                serve=ServeConfig(online=OnlineConfig(window=0))
            ).validate()
        with pytest.raises(SpecError, match="online"):
            ExperimentSpec(
                serve=ServeConfig(online=OnlineConfig(min_retrain_flows=0))
            ).validate()


class TestDseConfig:
    def test_default_spec_carries_dse_config(self):
        from repro.pipeline import DseConfig

        spec = ExperimentSpec().validate()
        assert spec.dse == DseConfig()
        assert spec.dse.method == "bayesian"

    def test_dse_roundtrips_as_nested_dict(self):
        import json

        from repro.pipeline import DseConfig

        spec = ExperimentSpec(
            dse=DseConfig(iterations=8, batch_size=2, method="random",
                          depth_range=(2, 8))
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["dse"] == {
            "iterations": 8, "batch_size": 2, "method": "random",
            "depth_range": [2, 8],
            "k_range": [1, 6], "partitions_range": [1, 5],
        }
        restored = ExperimentSpec.from_dict(payload)
        assert restored == spec
        assert isinstance(restored.dse, DseConfig)
        assert restored.dse.depth_range == (2, 8)

    def test_dse_dict_coerced_at_construction(self):
        from repro.pipeline import DseConfig

        spec = ExperimentSpec(dse={"iterations": 6, "batch_size": 2})
        assert isinstance(spec.dse, DseConfig)
        assert spec.dse.batch_size == 2

    def test_unknown_dse_keys_rejected(self):
        payload = ExperimentSpec().to_dict()
        payload["dse"]["pool_size"] = 8
        with pytest.raises(SpecError, match="pool_size"):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"iterations": 0},
            {"batch_size": 0},
            {"method": "grid"},
            {"k_range": (4, 2)},
            {"depth_range": (8, 2)},
            {"partitions_range": (0, 3)},
        ],
    )
    def test_invalid_dse_configs_raise(self, overrides):
        from repro.pipeline import DseConfig

        with pytest.raises(SpecError):
            ExperimentSpec(dse=DseConfig(**overrides)).validate()
