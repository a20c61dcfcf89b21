"""The named workload-scenario catalog.

Each entry is a ready-to-run :class:`~repro.scenarios.spec.ScenarioSpec` —
``python -m repro scenario list`` prints this table, ``scenario run <name>``
executes one.  These are *workload* presets (what attacks the deployment);
the ``--scenario`` flag of ``python -m repro run`` selects *experiment*
presets (what is deployed) — the two registries are deliberately separate.
"""

from __future__ import annotations

from repro.scenarios.spec import DegradationBounds, LayerSpec, ScenarioError, ScenarioSpec

#: Registered workload scenarios, keyed by name.
WORKLOAD_SCENARIOS: dict[str, ScenarioSpec] = {}


def register_workload_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the catalog (later registrations override)."""
    if not spec.name or spec.name == "custom":
        raise ScenarioError("catalog scenarios must carry a distinctive name")
    WORKLOAD_SCENARIOS[spec.name] = spec
    return spec


def get_workload_scenario(name: str) -> ScenarioSpec:
    """Look up a catalog scenario by name."""
    try:
        return WORKLOAD_SCENARIOS[name]
    except KeyError as exc:
        raise ScenarioError(
            f"unknown workload scenario {name!r}; "
            f"expected one of {tuple(sorted(WORKLOAD_SCENARIOS))}"
        ) from exc


# ----------------------------------------------------------------------
# Catalog entries
# ----------------------------------------------------------------------
register_workload_scenario(
    ScenarioSpec(
        name="heavy-hitter",
        dataset="D3",
        traffic_flows=360,
        layers=(LayerSpec("heavy-hitter", {"skew": 1.3, "n_sources": 16}),),
    )
)

register_workload_scenario(
    ScenarioSpec(
        name="flash-crowd",
        dataset="D3",
        traffic_flows=360,
        layers=(LayerSpec("flash-crowd", {"at": 0.4, "width": 0.05, "fraction": 0.7}),),
    )
)

register_workload_scenario(
    ScenarioSpec(
        name="ddos-flood",
        dataset="D3",
        traffic_flows=360,
        layers=(LayerSpec("ddos-flood", {"flows": 4096, "duration": 1.0}),),
        eviction="idle-timeout",
        eviction_timeout=0.05,
    )
)

register_workload_scenario(
    ScenarioSpec(
        name="evasion-spoof",
        dataset="D3",
        traffic_flows=360,
        layers=(LayerSpec("evasion", {"scale": 0.5, "fraction": 0.5}),),
    )
)

# Pure table pressure: benign traffic, but far more live flows than register
# slots.  The occupancy sweep scales this one's flow count.
register_workload_scenario(
    ScenarioSpec(
        name="table-pressure",
        dataset="D3",
        traffic_flows=512,
        eviction="idle-timeout",
        eviction_timeout=0.1,
    )
)

# The CI smoke: a downsized DDoS against a small table with LRU eviction.
# Bounds assert the deployment keeps classifying legitimate flows while the
# flood churns the slots.
register_workload_scenario(
    ScenarioSpec(
        name="ddos-eviction-smoke",
        dataset="D2",
        traffic_flows=160,
        layers=(
            LayerSpec("ddos-flood", {"flows": 512, "duration": 1.0}),
            LayerSpec("heavy-hitter", {"skew": 1.2, "n_sources": 12}),
        ),
        eviction="lru",
        bounds=DegradationBounds(min_accuracy=0.35, min_decided_fraction=0.25),
    )
)

# The out-of-core flagship: ~a million short spoofed flows over a modest
# legitimate population, spilled to disk and replayed via memmap columns.
# Materialised, every packet column would sit in RAM; streamed, the
# resident cost is the per-flow columns plus page cache.
register_workload_scenario(
    ScenarioSpec(
        name="million-flow-streamed",
        dataset="D2",
        traffic_flows=2048,
        layers=(LayerSpec("ddos-flood", {"flows": 1_000_000, "duration": 120.0}),),
        eviction="idle-timeout",
        eviction_timeout=0.5,
        streamed=True,
    )
)


__all__ = [
    "WORKLOAD_SCENARIOS",
    "get_workload_scenario",
    "register_workload_scenario",
]
