"""One candidate, one selection, one feasibility test — for every system.

A baseline's (k, depth) grid is evaluated once, every candidate carries a
``ResourceEstimate`` built in ``core.resources``, and "best at N flows" is
``core.best_at_flows``.  The goldens below were captured from the per-target
``search_netbeacon`` / ``search_leo`` / ``search_per_packet`` loops before they
were deleted; the property test writes their feasibility inequality out.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
from types import SimpleNamespace

import pytest

from repro import datasets
from repro.baselines import TopKTrainer, leo_table_cost
from repro.baselines import topk as topk_module
from repro.core import best_at_flows, check_feasibility
from repro.core.config import TopKConfig
from repro.core.resources import (
    DEPENDENCY_REGISTER_BITS,
    RESERVED_BITS,
    UNBOUNDED_FLOWS,
    TableCost,
    estimate_topk_resources,
)
from repro.features.definitions import (
    FEATURES,
    FEATURES_BY_NAME,
    STATEFUL_INDICES,
    STATELESS_INDICES,
    dependency_depth,
)
from repro.ml.tree import DecisionTreeClassifier
from repro.pipeline import Experiment, ExperimentSpec, available_systems, get_system
from repro.pipeline.systems import System
from repro.switch.targets import TARGETS

FLOW_TARGETS = (100_000, 500_000, 1_000_000)
SEARCHED = ("netbeacon", "leo", "per_packet")


@pytest.fixture(scope="module")
def bench_windowed():
    """The benchmark harness's datasets (500 flows, seed 7), fetched on demand."""
    cache = {}

    def fetch(key):
        if key not in cache:
            dataset = datasets.load_dataset(key, n_flows=500, seed=7)
            cache[key] = datasets.DatasetStore(dataset, random_state=7).fetch(3)
        return cache[key]

    return fetch


@pytest.fixture(scope="module")
def bench_candidates(bench_windowed):
    """``(key, system) -> candidates``: each system's grid on a benchmark dataset, evaluated once."""
    trainers, cache = {}, {}

    def candidates(key, system):
        if (key, system) not in cache:
            trainer = trainers.setdefault(key, TopKTrainer(bench_windowed(key), random_state=0))
            cache[key, system] = get_system(system).candidates(
                trainer, ExperimentSpec(system=system)
            )
        return cache[key, system]

    return candidates


class TestEvaluatedOnce:
    def test_a_grid_ranks_once_and_fits_each_configuration_once(self, windowed3, monkeypatch):
        fits, rankings = [], []
        fit, rank = DecisionTreeClassifier.fit, topk_module.select_top_k_features

        def counting_fit(self, X, y, *args, **kwargs):
            fits.append(self.max_depth)
            return fit(self, X, y, *args, **kwargs)

        def counting_rank(*args, **kwargs):
            rankings.append(kwargs["candidate_indices"])
            return rank(*args, **kwargs)

        monkeypatch.setattr(DecisionTreeClassifier, "fit", counting_fit)
        monkeypatch.setattr(topk_module, "select_top_k_features", counting_rank)

        trainer = TopKTrainer(windowed3)
        spec = ExperimentSpec()
        netbeacon = get_system("netbeacon")
        candidates = netbeacon.candidates(trainer, spec)
        grid = [(k, d) for k in netbeacon.k_range for d in netbeacon.depth_range]
        assert [(c.model.config.top_k, c.model.config.depth) for c in candidates] == grid
        assert len(rankings) == 1
        # The depth-12 reference tree, then one tree per grid point.
        assert fits == [12] + [depth for _, depth in grid]

        # Only feasibility depends on the flow target: selecting fits nothing.
        picked = [best_at_flows(candidates, n) for n in FLOW_TARGETS]
        assert len(fits) == 1 + len(grid) and len(rankings) == 1
        assert all(any(p is c for c in candidates) for p in picked if p is not None)

        # A second system on the same trainer shares the ranking ...
        leo = get_system("leo")
        leo.candidates(trainer, spec)
        assert len(rankings) == 1
        assert len(fits) == 1 + len(grid) + len(leo.k_range) * len(leo.depth_range)
        # ... and the stateless setting ranks its own candidates, once.
        get_system("per_packet").candidates(trainer, spec)
        get_system("per_packet").candidates(trainer, spec)
        assert rankings == [
            tuple(STATEFUL_INDICES) + tuple(STATELESS_INDICES), tuple(STATELESS_INDICES)
        ]

    def test_the_top_k_are_a_prefix_of_the_ranking(self, windowed3):
        X, y = windowed3.flow_matrix("train"), windowed3.split_labels("train")
        ranking = TopKTrainer(windowed3).ranking(True)
        candidates = tuple(STATEFUL_INDICES) + tuple(STATELESS_INDICES)
        assert sorted(ranking) == sorted(candidates)
        for k in (1, 2, 4, 7):
            assert topk_module.select_top_k_features(
                X, y, k, candidate_indices=candidates
            ) == ranking[:k]


#: (k, depth, f1.hex(), TCAM entries, feature-register bits) of the model the
#: parent's per-target search loops picked, through the registered adapters.
GOLDEN_SELECTIONS = {
    ("D3", "netbeacon", 100_000): (4, 8, "0x1.64447f7794799p-1", 965, 96),
    ("D3", "netbeacon", 500_000): (4, 8, "0x1.64447f7794799p-1", 965, 96),
    ("D3", "netbeacon", 1_000_000): (2, 12, "0x1.779881cee882fp-2", 1372, 32),
    ("D3", "leo", 100_000): (6, 6, "0x1.6cc23021cecfcp-1", 2048, 160),
    ("D3", "leo", 500_000): (6, 6, "0x1.6cc23021cecfcp-1", 2048, 160),
    ("D3", "leo", 1_000_000): (2, 6, "0x1.89f40e20926a7p-2", 2048, 32),
    ("D3", "per_packet", 100_000): (4, 10, "0x1.03be8921f0810p-1", 1384, 0),
    ("D3", "per_packet", 500_000): (4, 10, "0x1.03be8921f0810p-1", 1384, 0),
    ("D3", "per_packet", 1_000_000): (4, 10, "0x1.03be8921f0810p-1", 1384, 0),
    ("D6", "netbeacon", 100_000): (4, 4, "0x1.ab6b98592c037p-1", 437, 96),
    ("D6", "netbeacon", 500_000): (4, 4, "0x1.ab6b98592c037p-1", 437, 96),
    ("D6", "netbeacon", 1_000_000): (2, 12, "0x1.006798d035fddp-1", 1226, 32),
    ("D6", "leo", 100_000): (4, 6, "0x1.9eabde6d9853ep-1", 2048, 96),
    ("D6", "leo", 500_000): (4, 6, "0x1.9eabde6d9853ep-1", 2048, 96),
    ("D6", "leo", 1_000_000): (2, 6, "0x1.028ddd7827dc1p-1", 2048, 32),
    ("D6", "per_packet", 100_000): (4, 10, "0x1.3b936ade8ff5cp-1", 1258, 0),
    ("D6", "per_packet", 500_000): (4, 10, "0x1.3b936ade8ff5cp-1", 1258, 0),
    ("D6", "per_packet", 1_000_000): (4, 10, "0x1.3b936ade8ff5cp-1", 1258, 0),
}


@pytest.mark.parametrize("key", ["D3", "D6"])
def test_selection_matches_the_deleted_search_loops(key, bench_windowed, bench_candidates):
    windowed = bench_windowed(key)
    for system in SEARCHED:
        candidates = bench_candidates(key, system)
        for n_flows in FLOW_TARGETS:
            best = best_at_flows(candidates, n_flows)
            config, resources = best.model.config, best.resources
            assert (
                config.top_k,
                config.depth,
                best.report.f1_score.hex(),
                resources.tcam_entries,
                resources.layout.feature_bits,
            ) == GOLDEN_SELECTIONS[key, system, n_flows], (key, system, n_flows)
        # ``train`` is that selection at the spec's flow target.
        spec = ExperimentSpec(system=system, target_flows=FLOW_TARGETS[-1], seed=0)
        trained = get_system(system).train(spec, windowed)
        assert trained.model.config == best.model.config
        assert trained.report.f1_score == best.report.f1_score


def _rules_digest(rules) -> str:
    """SHA-256 of a rule set's entries (mark tables, model rules) and quantiser scales."""
    entries = []
    for sid, subtree in sorted(rules.subtree_rules.items()):
        tables = [
            (t.sid, t.feature, tuple(t.thresholds), t.bit_width, t.n_ternary_entries)
            for _, t in sorted(subtree.mark_tables.items())
        ]
        model = [
            (r.sid, tuple(sorted(r.mark_intervals.items())), r.outcome_kind, r.outcome_value)
            for r in subtree.model_rules
        ]
        entries.append((sid, tables, model))
    sha = hashlib.sha256(repr((rules.bit_width, rules.quantizer.bit_width, entries)).encode())
    sha.update(rules.quantizer.scales_.tobytes())
    return sha.hexdigest()


#: ``_rules_digest`` of every D3 grid point's rules at the system's compile
#: matrix, recorded from the baselines' own range-marking compiler before
#: ``TopKModel.generate_rules`` became ``generate_rules(exit_tree(model))``.
GOLDEN_RULE_DIGESTS = {
    ("netbeacon", 1, 4): "d0a3691b6f33e5ad1f98ade360a7be72a68e47dc6643d0395a6b388ecb84588c",
    ("netbeacon", 1, 8): "5c302a788c52dc11026702d68b70fab82f0b8a584367745d27057f2cd627d9e1",
    ("netbeacon", 1, 12): "ea990f80b29b1963772d96fc23b2adc6667781fd18efcca995a410e15a74f629",
    ("netbeacon", 2, 4): "15a3f7208e726c72dd9e7797ee5d636e413e6a4b42bc67fe0e82bf1712e164ba",
    ("netbeacon", 2, 8): "1cd2a66835e7190833e9188bb69940098ec19538b2807434fdf6affc657f75c6",
    ("netbeacon", 2, 12): "5347161321ee14189223360cfb17ecb86d74d242071b1381052313d329d42055",
    ("netbeacon", 4, 4): "1edeb8ba57218e1ab574dfebe7afd3ca163d8f43f950efec6bbfc9430e1caea4",
    ("netbeacon", 4, 8): "c1221ee4280f2eddb4406a192cf38797571ff14d7f530e6768f2b3558c7ee6b2",
    ("netbeacon", 4, 12): "f1814130d37b0b818e850785a164862ec243eaac1e9856b183ab42a24a09f3a7",
    ("netbeacon", 6, 4): "7337a1af181ed8d86d4efbfe835f70cc887a1ac52e3068c7df3f5923bdd3bda4",
    ("netbeacon", 6, 8): "ce5b6b3c3bc3493387a66cb6ef9883c4d7c914709a26d47d8e1c128530145d43",
    ("netbeacon", 6, 12): "ce5b6b3c3bc3493387a66cb6ef9883c4d7c914709a26d47d8e1c128530145d43",
    ("leo", 1, 3): "f9d4ffaacc6bf86f0e9027a2aa6918e2c9152dd41adbfdd4c40d5b0002535b22",
    ("leo", 1, 6): "632bd057350994859021db4e91eada27baa6958d8a1ad587fbe716f6cb89afca",
    ("leo", 1, 11): "4e08629a0bab000a38857a0618bee64a1ed67e8308d32ce109316f8e01a9c7fc",
    ("leo", 2, 3): "6455b595c9800bbe913e3f89720f47bfe940bf1739cec810a5ed8dbee9413f97",
    ("leo", 2, 6): "39924859cccaf37c458c52143e18b4455b23268d659120b1c39e3307a8436027",
    ("leo", 2, 11): "5347161321ee14189223360cfb17ecb86d74d242071b1381052313d329d42055",
    ("leo", 4, 3): "0631daae2c9b1ecacd227f7150ea2ea1d728d5cc35dbf3e7bf275af07ef93386",
    ("leo", 4, 6): "c4cd9ca88b309ff9922a67fb2f07071e05c1604cead25055e3bc9e91768ec67a",
    ("leo", 4, 11): "f1814130d37b0b818e850785a164862ec243eaac1e9856b183ab42a24a09f3a7",
    ("leo", 6, 3): "0631daae2c9b1ecacd227f7150ea2ea1d728d5cc35dbf3e7bf275af07ef93386",
    ("leo", 6, 6): "68f498f7ea21d503de33587a2da9ef2bf5c35e26c265aa6b496aa32c7fd76e91",
    ("leo", 6, 11): "ce5b6b3c3bc3493387a66cb6ef9883c4d7c914709a26d47d8e1c128530145d43",
    ("per_packet", 4, 6): "5dba0a1ee7f95c08ee881d27c59e74aa949fc25e0aa667287859ee84708da65b",
    ("per_packet", 4, 10): "42a02a1bdf5b55d944ced2443760ed17e44a00cd6f16470567ae30db714a257f",
}


def test_one_rule_compiler_keeps_every_baseline_rule_set(bench_windowed, bench_candidates):
    windowed = bench_windowed("D3")
    digests = {}
    for system in SEARCHED:
        spec = ExperimentSpec(system=system)
        for candidate in bench_candidates("D3", system):
            rules = get_system(system).compile(candidate, windowed, spec)
            config = candidate.model.config
            digests[system, config.top_k, config.depth] = _rules_digest(rules)
    assert digests == GOLDEN_RULE_DIGESTS


#: Fixed rankings to cut top-k sets from: a 3-deep dependency chain first with
#: a stateless feature among the stateful ones, and stateless features first
#: (so k = 1, 2 keep no feature register at all).
_RANKINGS = (
    [FEATURES_BY_NAME["std_iat"].index]
    + list(STATEFUL_INDICES[:3])
    + list(STATELESS_INDICES[:1])
    + list(STATEFUL_INDICES[3:5]),
    list(STATELESS_INDICES[:2]) + list(STATEFUL_INDICES[:5]),
)


def _stub_model(k: int, depth: int, ranking=_RANKINGS[0]) -> SimpleNamespace:
    features = ranking[:k]
    return SimpleNamespace(
        config=TopKConfig(depth=depth, top_k=k),
        feature_indices=features,
        features_used=lambda: set(features),
    )


@pytest.mark.parametrize("target", TARGETS.values(), ids=list(TARGETS))
@pytest.mark.parametrize("system", ["netbeacon", "leo"])
def test_check_feasibility_is_the_inequality_the_baselines_wrote_out(system, target):
    """``feasible_netbeacon`` / ``feasible_leo``, as they stood, against the shared test."""
    unfit = []
    for ranking, k, depth in itertools.product(_RANKINGS, range(1, 8), range(3, 19)):
        model = _stub_model(k, depth, ranking)
        if system == "leo":
            costs = [leo_table_cost(model, None, target)]
        else:
            costs = [
                TableCost(entries=900, bits=bits, match_key_bits=8 * k)
                for bits in (target.tcam_bits / 2, target.tcam_bits, target.tcam_bits + 1)
            ]
        stateful = [i for i in model.feature_indices if FEATURES[i].stateful]
        per_flow_bits = (
            len(stateful) * 32
            + RESERVED_BITS
            + dependency_depth(stateful) * DEPENDENCY_REGISTER_BITS
        )
        tcam_stages = max(1, math.ceil(k / target.max_mats_per_stage)) + 1
        for cost in costs:
            estimate = estimate_topk_resources(model, cost, target=target)
            register_stages = max(target.n_stages - tcam_stages - cost.extra_stages, 0)
            budget = register_stages * target.register_bits_per_stage
            assert estimate.layout.total_bits == per_flow_bits
            assert estimate.stages_for_registers == register_stages
            for n_flows in (1, 10**5, 5 * 10**5, 10**6, 10**7):
                verdict = check_feasibility(estimate, n_flows=n_flows)
                old = per_flow_bits * n_flows <= budget and cost.bits <= target.tcam_bits
                if estimate.stages_for_tables > target.n_stages:
                    # The one bound the baselines never tested themselves.
                    unfit.append((k, depth))
                    assert not verdict.feasible
                    assert any("stages" in v for v in verdict.violations)
                else:
                    assert verdict.feasible == old, (k, depth, n_flows, cost)
    # Only Leo's deepest layouts on the ten-stage target outgrow a pipeline.
    if (system, target.name) == ("leo", "BlueField3"):
        assert {depth for _, depth in unfit} == {17, 18}
    else:
        assert unfit == []


def test_leo_extra_stages_are_its_depth_wise_layout():
    for depth in range(1, 19):
        cost = leo_table_cost(_stub_model(4, depth), None, TARGETS["tofino1"])
        assert cost.extra_stages == max(math.ceil(depth / 4) - 1, 0)


@pytest.mark.parametrize("system", available_systems())
def test_every_system_deploys_with_resources_and_the_shared_verdict(system):
    spec = ExperimentSpec(
        dataset="D3", n_flows=150, seed=3, system=system, depth=6, features_per_subtree=3,
        n_partitions=3, target_flows=500_000,
    )
    experiment = Experiment(spec)
    deployment = experiment.deploy()
    resources, feasibility = deployment.resources, deployment.feasibility
    assert resources is not None and feasibility is not None
    assert resources.target is spec.target_spec()
    assert resources.max_flows > 0 and resources.tcam_entries > 0
    assert feasibility == check_feasibility(resources, n_flows=spec.target_flows)
    assert feasibility.n_flows == spec.target_flows
    assert type(experiment.system).feasibility is System.feasibility
    if system in SEARCHED:
        # ``train`` selected among the candidates feasible at the target.
        assert feasibility.feasible and experiment.train().resources is resources
    assert (resources.max_flows == UNBOUNDED_FLOWS) == (system == "per_packet")
    summary = experiment.run().summary()
    assert summary["max_flows"] == resources.max_flows
    assert summary["feasible"] is feasibility.feasible


@pytest.mark.parametrize(
    "path",
    [
        "repro.baselines:feasible_netbeacon",
        "repro.baselines:feasible_leo",
        "repro.baselines:topk_per_flow_bits",
        "repro.baselines:search_netbeacon",
        "repro.baselines:search_leo",
        "repro.baselines:search_per_packet",
        "repro.baselines:netbeacon_tcam_cost",
        "repro.baselines:pforest_tcam_cost",
        "repro.baselines.netbeacon:feasible_netbeacon",
        "repro.baselines.netbeacon:search_netbeacon",
        "repro.baselines.netbeacon:BaselineCandidate",
        "repro.baselines.leo:feasible_leo",
        "repro.baselines.leo:search_leo",
        "repro.baselines.iisy:search_per_packet",
        "repro.baselines.topk:topk_per_flow_bits",
        "repro.baselines:TopKModel.as_subtree",
        "repro.baselines:TopKModel.register_layout",
        "repro.baselines:PForestModel.register_layout",
        "repro.pipeline.systems:_TopKSearchSystem.feasibility",
        "repro.pipeline.systems:_TopKSearchSystem._search",
        "repro.switch:FlowIndexer.release",
        "repro.switch:FlowIndexer.occupancy",
    ],
)
def test_second_answers_are_gone(path):
    """Removed names fail loudly: no alias answers "does it fit" beside ``core.resources``."""
    module, _, attribute = path.partition(":")
    *owners, name = attribute.split(".")
    owner = importlib.import_module(module)
    for part in owners:
        owner = getattr(owner, part)
    assert name not in vars(owner)


def test_a_baseline_candidate_carries_one_estimate_and_no_copies_of_it():
    from repro.baselines import BaselineCandidate

    assert set(BaselineCandidate.__dataclass_fields__) == {"model", "report", "resources"}
