"""dagP: multilevel acyclic DAG partitioning (coarsen / bisect / refine / merge)."""

from .bisect import bisection_cost, initial_bisection
from .coarsen import coarsen, coarsen_once
from .driver import DagPPartitioner
from .refine import RefineState, refine_bisection

__all__ = [
    "DagPPartitioner",
    "bisection_cost",
    "coarsen",
    "coarsen_once",
    "initial_bisection",
    "refine_bisection",
    "RefineState",
]
