"""Baselines the paper compares against: NetBeacon, Leo, IIsy/per-packet, pForest."""

from repro.baselines.iisy import per_packet_table_cost, train_per_packet_model
from repro.baselines.pforest import PForestModel, evaluate_pforest, train_pforest_model
from repro.baselines.leo import leo_table_cost, leo_tcam_bits, leo_tcam_entries
from repro.baselines.netbeacon import netbeacon_table_cost
from repro.baselines.topk import (
    BaselineCandidate,
    TopKModel,
    TopKTrainer,
    evaluate_grid,
    exit_tree,
    select_top_k_features,
    train_topk_model,
)

__all__ = [
    "BaselineCandidate",
    "PForestModel",
    "TopKModel",
    "TopKTrainer",
    "evaluate_grid",
    "evaluate_pforest",
    "exit_tree",
    "leo_table_cost",
    "leo_tcam_bits",
    "leo_tcam_entries",
    "netbeacon_table_cost",
    "per_packet_table_cost",
    "select_top_k_features",
    "train_per_packet_model",
    "train_pforest_model",
    "train_topk_model",
]
