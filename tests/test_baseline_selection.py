"""One candidate, one selection, one feasibility test — for every system.

A baseline's (k, depth) grid is evaluated once, every candidate carries a
``ResourceEstimate`` built in ``core.resources``, and "best at N flows" is
``core.best_at_flows``, which ranks on the validation split.  The rule-set
goldens below were captured from the baselines' own compiler before it was
deleted; the property test writes the deleted search loops' feasibility
inequality out.
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
        X, y = windowed3.flow_matrix("fit"), windowed3.split_labels("fit")
        ranking = TopKTrainer(windowed3).ranking(True)
        candidates = tuple(STATEFUL_INDICES) + tuple(STATELESS_INDICES)
        assert sorted(ranking) == sorted(candidates)
        for k in (1, 2, 4, 7):
            assert topk_module.select_top_k_features(
                X, y, k, candidate_indices=candidates
            ) == ranking[:k]


#: (k, depth, test f1.hex(), TCAM entries, feature-register bits) of the model
#: of best validation F1 feasible at each target, through the registered adapters.
GOLDEN_SELECTIONS = {
    ("D3", "netbeacon", 100_000): (4, 8, "0x1.4896f520080a3p-1", 877, 96),
    ("D3", "netbeacon", 500_000): (4, 8, "0x1.4896f520080a3p-1", 877, 96),
    ("D3", "netbeacon", 1_000_000): (2, 12, "0x1.9568f6bc375eep-2", 944, 32),
    ("D3", "leo", 100_000): (4, 6, "0x1.313c2cf4fd7a1p-1", 2048, 96),
    ("D3", "leo", 500_000): (4, 6, "0x1.313c2cf4fd7a1p-1", 2048, 96),
    ("D3", "leo", 1_000_000): (2, 11, "0x1.9568f6bc375eep-2", 4096, 32),
    ("D3", "per_packet", 100_000): (4, 6, "0x1.92bf145675d50p-2", 729, 0),
    ("D3", "per_packet", 500_000): (4, 6, "0x1.92bf145675d50p-2", 729, 0),
    ("D3", "per_packet", 1_000_000): (4, 6, "0x1.92bf145675d50p-2", 729, 0),
    ("D6", "netbeacon", 100_000): (4, 8, "0x1.9f45087907bdcp-1", 655, 96),
    ("D6", "netbeacon", 500_000): (4, 8, "0x1.9f45087907bdcp-1", 655, 96),
    ("D6", "netbeacon", 1_000_000): (2, 4, "0x1.fb0a740737752p-2", 372, 32),
    ("D6", "leo", 100_000): (4, 6, "0x1.9f45087907bdcp-1", 2048, 96),
    ("D6", "leo", 500_000): (4, 6, "0x1.9f45087907bdcp-1", 2048, 96),
    ("D6", "leo", 1_000_000): (2, 6, "0x1.e7ed2d9f1d0ecp-2", 2048, 32),
    ("D6", "per_packet", 100_000): (4, 6, "0x1.463eb9689b602p-1", 670, 0),
    ("D6", "per_packet", 500_000): (4, 6, "0x1.463eb9689b602p-1", 670, 0),
    ("D6", "per_packet", 1_000_000): (4, 6, "0x1.463eb9689b602p-1", 670, 0),
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
#: ``TopKModel.generate_rules`` became ``generate_rules(exit_tree(model))``,
#: and recorded again when the training matrices came to be the window
#: plane's values: thresholds and quantiser scales moved in their last bits
#: only (to 9 significant digits every rule set is the one recorded before).
#: The models were fitted on the whole train split, so the test fits them so.
GOLDEN_RULE_DIGESTS = {
    ("netbeacon", 1, 4): "75a8ee44f6a9c34d353e2f398e2de8ef9302b98f3978bcd9ed3ce33975818fad",
    ("netbeacon", 1, 8): "5a5e7215565937a26de28bba266dc32d16f085b5b82f8e11bae073ffac2dd997",
    ("netbeacon", 1, 12): "8cce76508aa9fc527908ab9439d3fd6cef4f7b35463d46bc37e8764be015836b",
    ("netbeacon", 2, 4): "dbb4e3797e0af4706498e2efb71ac82fe6c49b457a7d024dafa9b1dd38ed3834",
    ("netbeacon", 2, 8): "8448bafc09e4e831759aacfdb90b720548472f05ac73e5b590f298f333a7daa2",
    ("netbeacon", 2, 12): "ce75a104fd16c0c614bc01f4f55a3cd27cc7b6109176f94c08e05f32479f8e5c",
    ("netbeacon", 4, 4): "ba065465930cdf2b4a42acb163296fa33f27a7d4e1e3bdcc3cee1edab3915487",
    ("netbeacon", 4, 8): "f5f87a546dc1f76be397225dd90c91b4c7e5a91d01fc6e6703b38d3c7ab6b777",
    ("netbeacon", 4, 12): "973917d62bbcddee3ebf8d393627aa55d536d0daccf9c765f016d9f4f8e3724b",
    ("netbeacon", 6, 4): "15a2fd82f5c6d19639cf1346d533d0484b3328204f7e373995793e2905164118",
    ("netbeacon", 6, 8): "5dfb0454324953b5b9afab92beed27dff9576633707338c1af0dd4cf51c296cf",
    ("netbeacon", 6, 12): "5dfb0454324953b5b9afab92beed27dff9576633707338c1af0dd4cf51c296cf",
    ("leo", 1, 3): "eb2107a14d42ec563e58782746948ac77e678b60a5934a976f08d4c15f45288f",
    ("leo", 1, 6): "353249463faecb303c3b4ba5bc2ae345e5bb1eeaf2d4850c2cfd918128b28a59",
    ("leo", 1, 11): "f32c099afd38c634879cfa5320a5b49dfcddc14c749de43efd22cba55f879b11",
    ("leo", 2, 3): "80607a883378170e7ca48f3dfa90b5dedb90470409d3dbdc1e8d2ff02cfd5e3d",
    ("leo", 2, 6): "b0578e96f8ea1a861beeb78797e71b6507021a1c6c61e553c96366db8f2c1318",
    ("leo", 2, 11): "ce75a104fd16c0c614bc01f4f55a3cd27cc7b6109176f94c08e05f32479f8e5c",
    ("leo", 4, 3): "8c221a07c515f19dc6e6d22b5c9f1828aecf77efa4cdcf91358116048187910a",
    ("leo", 4, 6): "d956aff66229e5788dc11e330efe6186f0d23f5714ea8e877a32698fc66b0d4a",
    ("leo", 4, 11): "973917d62bbcddee3ebf8d393627aa55d536d0daccf9c765f016d9f4f8e3724b",
    ("leo", 6, 3): "8c221a07c515f19dc6e6d22b5c9f1828aecf77efa4cdcf91358116048187910a",
    ("leo", 6, 6): "f841fd622b6e2295348f9b50871196c81b436330de498a3d128de1abbde25ec4",
    ("leo", 6, 11): "5dfb0454324953b5b9afab92beed27dff9576633707338c1af0dd4cf51c296cf",
    ("per_packet", 4, 6): "5dba0a1ee7f95c08ee881d27c59e74aa949fc25e0aa667287859ee84708da65b",
    ("per_packet", 4, 10): "42a02a1bdf5b55d944ced2443760ed17e44a00cd6f16470567ae30db714a257f",
}


def test_one_rule_compiler_keeps_every_baseline_rule_set(bench_windowed):
    windowed = bench_windowed("D3")
    trainer = TopKTrainer(windowed, split="train", random_state=0)
    digests = {}
    for name in SEARCHED:
        system, spec = get_system(name), ExperimentSpec(system=name)
        for k, depth in itertools.product(system.k_range, system.depth_range):
            config = TopKConfig(depth=depth, top_k=k, use_stateful=system.use_stateful)
            candidate = SimpleNamespace(model=trainer.fit(config, name=name))
            digests[name, k, depth] = _rules_digest(system.compile(candidate, windowed, spec))
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

    assert set(BaselineCandidate.__dataclass_fields__) == {
        "model", "report", "validation", "resources"
    }
