"""Circuit DAG construction and analysis."""

from .analysis import (
    dag_stats,
    qubit_traces,
    working_set_by_inedges,
    working_set_direct,
)
from .build import build_dag
from .graph import CircuitDAG, NodeKind

__all__ = [
    "CircuitDAG",
    "NodeKind",
    "build_dag",
    "dag_stats",
    "qubit_traces",
    "working_set_by_inedges",
    "working_set_direct",
]
