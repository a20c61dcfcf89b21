"""P4-style code generation for compiled SpliDT models.

The paper's artifact ships a hand-written P4 program (~1,600 lines) plus a
controller that installs the generated TCAM entries through ``bfrt_grpc``.
This module emits the equivalent artefacts from a compiled model:

* :func:`generate_p4_program` — a P4-16-style source listing of the SpliDT
  pipeline (parser, reserved/dependency/feature registers, operator-selection
  tables, ``k`` match-key generator tables, the model table, and the
  recirculation control block), parameterised by the model configuration.
* :func:`generate_table_entries` — the bfrt-style entry list (one dict per
  TCAM entry) that a controller would install.

The output is text: it is not compiled by BF-SDE here (no such toolchain is
available offline), but it gives the deployment artefact a downstream user
would inspect, and its structure is asserted in tests (table names, register
widths, and entry counts must match the compiled rule set).
"""

from __future__ import annotations

from repro.core.partitioned_tree import PartitionedDecisionTree
from repro.core.range_marking import RuleSet, SID_BITS
from repro.core.resources import (
    DEPENDENCY_REGISTER_BITS,
    PACKET_COUNTER_BITS,
    splidt_register_layout,
)
from repro.features.definitions import FEATURES
from repro.switch.tcam import range_to_ternary


def _header() -> str:
    return (
        "/* Auto-generated by repro.dataplane.codegen — SpliDT partitioned DT pipeline. */\n"
        "#include <core.p4>\n"
        "#include <tna.p4>\n"
    )


def _registers_block(model: PartitionedDecisionTree, flow_slots: int) -> str:
    """The per-flow registers, as :func:`splidt_register_layout` counts them."""
    layout = splidt_register_layout(model)
    k = model.config.features_per_subtree
    width = model.config.bit_width
    lines = [
        f"/* Reserved per-flow state ({flow_slots} flow slots). */",
        f"Register<bit<{SID_BITS}>, bit<32>>({flow_slots}) reg_sid;",
        f"Register<bit<{PACKET_COUNTER_BITS}>, bit<32>>({flow_slots}) reg_pkt_count;",
    ]
    lines += [
        f"Register<bit<{DEPENDENCY_REGISTER_BITS}>, bit<32>>({flow_slots}) reg_dependency_{chain};"
        for chain in range(layout.dependency_bits // DEPENDENCY_REGISTER_BITS)
    ]
    lines += ["", f"/* k = {k} reusable feature slots ({width}-bit). */"]
    lines += [
        f"Register<bit<{width}>, bit<32>>({flow_slots}) reg_feature_slot_{slot};"
        for slot in range(k)
    ]
    return "\n".join(lines)


def _operator_selection_block(model: PartitionedDecisionTree) -> str:
    lines = ["/* Operator-selection MATs: one per feature slot, matching on the SID. */"]
    k = model.config.features_per_subtree
    for slot in range(k):
        lines += [
            f"table operator_select_{slot} {{",
            "    key = { meta.sid : exact; }",
            "    actions = { op_count; op_sum; op_max; op_min; op_mean; op_last; op_rate; NoAction; }",
            "    size = 256;",
            "}",
        ]
    return "\n".join(lines)


def _mark_tables_block(model: PartitionedDecisionTree, rules: RuleSet) -> str:
    k = model.config.features_per_subtree
    width = rules.bit_width
    lines = ["/* Match-key (range-mark) generator tables: one per feature slot. */"]
    total_entries = rules.n_feature_entries
    per_slot = max(total_entries // max(k, 1), 1)
    for slot in range(k):
        lines += [
            f"table mark_slot_{slot} {{",
            f"    key = {{ meta.sid : exact; meta.feature_slot_{slot} : ternary; }}",
            f"    actions = {{ set_mark_{slot}; }}",
            f"    size = {per_slot + 16};  /* prefix-expanded range entries */",
            "}",
        ]
    lines += [
        "",
        "/* Model table: SID + per-slot range marks -> next SID or class. */",
        "table splidt_model {",
        "    key = {",
        "        meta.sid : exact;",
    ]
    lines += [f"        meta.mark_{slot} : ternary;" for slot in range(k)]
    lines += [
        "    }",
        "    actions = { set_next_sid; set_class_and_digest; }",
        f"    size = {rules.n_model_entries + 16};",
        "}",
    ]
    lines[0] = lines[0] + f"  /* key width {width} bits per slot */"
    return "\n".join(lines)


def _control_block(model: PartitionedDecisionTree) -> str:
    return "\n".join(
        [
            "control SpliDTIngress(inout headers hdr, inout metadata meta) {",
            "    apply {",
            "        /* 1. Flow hashing and reserved state. */",
            "        meta.flow_index = crc32(hdr.ipv4.src_addr, hdr.ipv4.dst_addr,",
            "                                hdr.l4.src_port, hdr.l4.dst_port, hdr.ipv4.protocol);",
            "        meta.sid = reg_sid.read(meta.flow_index);",
            "        meta.pkt_count = reg_pkt_count.read(meta.flow_index) + 1;",
            "        reg_pkt_count.write(meta.flow_index, meta.pkt_count);",
            "",
            "        /* 2. Feature collection for the active subtree. */",
            *[
                f"        operator_select_{slot}.apply();"
                for slot in range(model.config.features_per_subtree)
            ],
            "",
            "        /* 3. Window boundary: match keys, model lookup, transition. */",
            "        if (meta.pkt_count == meta.window_boundary) {",
            *[
                f"            mark_slot_{slot}.apply();"
                for slot in range(model.config.features_per_subtree)
            ],
            "            splidt_model.apply();",
            "            if (meta.is_final_decision == 1) {",
            "                digest_classification();",
            "            } else {",
            "                /* In-band control channel: resubmit with the next SID. */",
            "                resubmit_with_next_sid();",
            "            }",
            "        }",
            "    }",
            "}",
        ]
    )


def generate_p4_program(
    model: PartitionedDecisionTree, rules: RuleSet, *, flow_slots: int = 65536
) -> str:
    """Emit a P4-16-style source listing of the compiled SpliDT pipeline.

    Example::

        >>> from repro.dataplane import generate_p4_program
        >>> source = generate_p4_program(model, rules, flow_slots=4096)
        >>> "register" in source and "#include <tna.p4>" in source
        True
    """
    sections = [
        _header(),
        _registers_block(model, flow_slots),
        "",
        _operator_selection_block(model),
        "",
        _mark_tables_block(model, rules),
        "",
        _control_block(model),
        "",
        f"/* Model summary: {model.n_subtrees} subtrees across {model.n_partitions} partitions, "
        f"{len(model.features_used())} distinct features, {rules.n_entries} TCAM entries. */",
    ]
    return "\n".join(sections) + "\n"


def generate_table_entries(model: PartitionedDecisionTree, rules: RuleSet) -> list[dict]:
    """Emit the bfrt-style entry list a controller would install.

    One dict per physical entry: mark-table entries carry the prefix-expanded
    (value, mask) pair; model-table entries carry the per-feature mark
    intervals and the action (next SID or final class).

    Example::

        >>> entries = generate_table_entries(model, rules)
        >>> len(entries) == rules.n_entries
        True
    """
    entries: list[dict] = []
    for sid, subtree_rules in rules.subtree_rules.items():
        for slot, (feature, mark_table) in enumerate(sorted(subtree_rules.mark_tables.items())):
            feature_name = FEATURES[feature].name
            for mark in range(mark_table.n_ranges):
                low, high = mark_table.range_bounds(mark)
                for ternary in range_to_ternary(low, high, mark_table.bit_width):
                    entries.append(
                        {
                            "table": f"mark_slot_{slot}",
                            "sid": sid,
                            "feature": feature_name,
                            "value": ternary.value,
                            "mask": ternary.mask,
                            "action": "set_mark",
                            "mark": mark,
                        }
                    )
        for rule in subtree_rules.model_rules:
            entries.append(
                {
                    "table": "splidt_model",
                    "sid": sid,
                    "mark_intervals": {
                        FEATURES[feature].name: bounds
                        for feature, bounds in rule.mark_intervals.items()
                    },
                    "action": "set_class_and_digest" if rule.outcome_kind == "exit" else "set_next_sid",
                    "value": rule.outcome_value,
                }
            )
    return entries
