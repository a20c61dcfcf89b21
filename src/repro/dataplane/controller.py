"""Control-plane side of the deployment: rule installation and digests.

The controller compiles a trained model's :class:`RuleSet` into a switch
pipeline's tables (via the bfrt-style install API the paper mentions) and
collects the classification digests the data plane emits when a flow reaches
its final verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.range_marking import RuleSet
from repro.switch.pipeline import Pipeline
from repro.switch.tcam import TcamEntry, TcamTable, TernaryMatch, range_to_ternary


@dataclass(slots=True)
class Digest:
    """A classification digest sent from the data plane to the controller.

    ``slots=True``: the controller retains every digest for the replay's
    lifetime, and million-flow workloads make the per-instance dict the
    dominant cost of that retention.
    """

    flow_id: int
    label: int
    timestamp: float
    sid: int


@dataclass
class Controller:
    """Installs compiled rules into a pipeline and receives a program's digests.

    Example::

        >>> controller = Controller()
        >>> controller.install_rules(pipeline, rules, feature_table_stage=3, model_table_stage=5)
        >>> controller.labels_by_flow()  # doctest: +SKIP
        {0: 2, 1: 0}
    """

    digests: list[Digest] = field(default_factory=list)
    #: Retain received digests in :attr:`digests` (the default — artifact
    #: replay and parity checks read them back).  Million-flow scenario
    #: replays switch this off: nothing consumes the digests there, and one
    #: object per decided flow would dominate the process footprint.
    #: :attr:`n_digests` counts received digests either way.
    retain_digests: bool = True
    n_digests: int = 0

    @staticmethod
    def install_rules(
        pipeline: Pipeline, rules: RuleSet, *, feature_table_stage: int, model_table_stage: int
    ) -> dict[str, TcamTable]:
        """Install the compiled rules into ``pipeline``'s shared tables.

        SpliDT reuses the same ``k`` match-key generator tables and the same
        model table across all subtrees: every entry carries an exact match on
        the subtree id (SID), so only the active subtree's rules can fire.
        This mirrors Figure 4 — the table count stays constant no matter how
        many subtrees the partitioned model has.

        The mark tables receive real ternary entries (prefix-expanded value
        ranges); the model table's interval rules are evaluated through
        :meth:`RuleSet.classify` at runtime.

        Returns the created tables keyed by name, mainly for inspection in
        tests.
        """
        tables: dict[str, TcamTable] = {}
        n_slots = max(
            (len(sr.mark_tables) for sr in rules.subtree_rules.values()), default=0
        )
        slot_tables: list[TcamTable] = []
        for slot in range(n_slots):
            table = TcamTable(
                name=f"mark_slot_{slot}",
                key_fields={"sid": 8, "value": rules.bit_width},
            )
            pipeline.place_table(table, stage=feature_table_stage)
            slot_tables.append(table)
            tables[table.name] = table

        model_table = TcamTable(
            name="model",
            key_fields={"sid": 8, "marks": rules.max_match_key_bits},
        )
        pipeline.place_table(model_table, stage=model_table_stage)
        tables[model_table.name] = model_table

        for sid, subtree_rules in rules.subtree_rules.items():
            for slot, (feature, mark_table) in enumerate(sorted(subtree_rules.mark_tables.items())):
                for mark in range(mark_table.n_ranges):
                    low, high = mark_table.range_bounds(mark)
                    for ternary in range_to_ternary(low, high, mark_table.bit_width):
                        slot_tables[slot].add_entry(
                            TcamEntry(
                                fields={
                                    "sid": TernaryMatch(sid, 0xFF),
                                    "value": TernaryMatch(ternary.value, ternary.mask),
                                },
                                priority=mark_table.n_ranges - mark,
                                action="set_mark",
                                action_data={"mark": mark, "feature": feature, "sid": sid},
                            )
                        )
        return tables

    def receive_digest(self, digest: Digest) -> None:
        """Record a classification digest."""
        self.n_digests += 1
        if self.retain_digests:
            self.digests.append(digest)

    def receive_digests(
        self, flow_ids: list[int], labels: list[int], timestamps: list[float], sids
    ) -> None:
        """Record many digests at once, given as aligned columns.

        The batched finalisation path: ``sids`` is still an array, and a
        :class:`Digest` is built per row only when digests are retained.
        """
        self.n_digests += len(flow_ids)
        if self.retain_digests:
            self.digests.extend(map(Digest, flow_ids, labels, timestamps, sids.tolist()))

    def labels_by_flow(self) -> dict[int, int]:
        """Final label reported for each flow (last digest wins)."""
        return {digest.flow_id: digest.label for digest in self.digests}
