"""The circuit's gate-dependency graph (Sec. IV-A), the one graph every
partitioner, the merge phase and the cutter read."""

from .gategraph import GateGraph, gate_dependency_edges

# The perf harness's ``probe:dag`` imports this name (it reads
# ``.num_nodes`` and ``.succ``); delete it once the harness stops.
build_dag = GateGraph.from_circuit

__all__ = [
    "GateGraph",
    "build_dag",
    "gate_dependency_edges",
]
