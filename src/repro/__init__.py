"""HiSVSIM reproduction: hierarchical state-vector quantum circuit
simulation via acyclic graph partitioning (Fang et al., CLUSTER 2022).

Public entry points::

    from repro import QuantumCircuit, generators
    from repro.partition import get_partitioner
    from repro.sv import StateVectorSimulator, HierarchicalExecutor
    from repro.dist import HiSVSimEngine, IQSEngine

Subpackages are importable lazily as attributes (``import repro;
repro.dist.HiSVSimEngine``) so that loading the package root stays cheap.
"""

import importlib

from .circuits import (
    GATE_DEFS,
    CircuitStats,
    Gate,
    QuantumCircuit,
    gate_matrix,
    generators,
    make_gate,
    qasm,
)

__version__ = "1.1.0"

_SUBPACKAGES = (
    "analysis",
    "bench",
    "cachesim",
    "circuits",
    "cut",
    "dag",
    "dist",
    "experiments",
    "hybrid",
    "partition",
    "runtime",
    "serve",
    "sv",
)


def __getattr__(name):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GATE_DEFS",
    "CircuitStats",
    "Gate",
    "QuantumCircuit",
    "gate_matrix",
    "generators",
    "make_gate",
    "qasm",
    "__version__",
    *_SUBPACKAGES,
]
