"""Acyclic circuit partitioning: Nat, DFS, dagP, ILP and multilevel."""

from ..dag import gate_dependency_edges
from .base import Part, Partition, PartitionError, Partitioner
from .dagp import DagPPartitioner
from .dfs import DFSPartitioner
from .ilp import ILPPartitioner, ILPResult
from .merge import greedy_merge
from .multilevel import MultilevelPartition, multilevel_partition
from .natural import NaturalPartitioner
from .validate import ValidationReport, validate_partition

STRATEGIES = {
    "Nat": NaturalPartitioner,
    "DFS": DFSPartitioner,
    "dagP": DagPPartitioner,
}


def get_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a strategy by paper name (``Nat`` / ``DFS`` / ``dagP``).

    >>> get_partitioner("dagP").name
    'dagP'
    >>> get_partitioner("DFS", trials=2).trials
    2
    """
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}")
    return STRATEGIES[name](**kwargs)


__all__ = [
    "Part",
    "Partition",
    "PartitionError",
    "Partitioner",
    "gate_dependency_edges",
    "DagPPartitioner",
    "DFSPartitioner",
    "ILPPartitioner",
    "ILPResult",
    "NaturalPartitioner",
    "MultilevelPartition",
    "multilevel_partition",
    "greedy_merge",
    "validate_partition",
    "ValidationReport",
    "STRATEGIES",
    "get_partitioner",
]
