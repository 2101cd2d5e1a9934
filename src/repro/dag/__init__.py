"""The circuit DAG of Sec. IV-A and the gate graph the partitioners read."""

from .analysis import (
    dag_stats,
    qubit_traces,
    working_set_by_inedges,
    working_set_direct,
)
from .build import build_dag
from .gategraph import GateGraph, gate_dependency_edges
from .graph import CircuitDAG, NodeKind

__all__ = [
    "CircuitDAG",
    "GateGraph",
    "NodeKind",
    "build_dag",
    "dag_stats",
    "gate_dependency_edges",
    "qubit_traces",
    "working_set_by_inedges",
    "working_set_direct",
]
