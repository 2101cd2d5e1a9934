"""QASMBench-equivalent benchmark circuit generators.

The paper evaluates 13 circuits from the QASMBench suite (Table I).  The
suite is not redistributable here, so each family is re-implemented from its
defining algorithm.  Generators are parameterised by width so the harness can
run laptop-scale versions of the paper's 30–37 qubit configurations.

``build(name, num_qubits)`` builds one circuit; :data:`PAPER_SUITE_SPEC`
lists the 13-entry suite with the paper's relative sizing (bv/cc/ising
appear at two scales, adder is the widest), which
``repro.experiments.common.suite_circuits`` builds at a chosen scale.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..circuit import QuantumCircuit
from .adder import adder
from .bv import bv
from .cat_state import cat_state
from .cc import cc
from .grover import grover
from .ising import ising
from .qaoa import qaoa
from .qft import qft
from .qnn import qnn
from .qpe import qpe
from .stabilizer_random import stabilizer_random
from .syndrome import syndrome

__all__ = [
    "adder",
    "bv",
    "cat_state",
    "cc",
    "grover",
    "ising",
    "qaoa",
    "qft",
    "qnn",
    "qpe",
    "stabilizer_random",
    "syndrome",
    "build",
    "GENERATORS",
    "PAPER_SUITE_SPEC",
]

GENERATORS: Dict[str, Callable[..., QuantumCircuit]] = {
    "cat_state": cat_state,
    "bv": bv,
    "qaoa": qaoa,
    "cc": cc,
    "ising": ising,
    "qft": qft,
    "qnn": qnn,
    "grover": grover,
    "qpe": qpe,
    "adder": adder,
    "stabilizer_random": stabilizer_random,
    "syndrome": syndrome,
}

# Paper Table I widths. ``scale`` shrinks widths while keeping the ordering
# (30,30,30,30,30,30,31,31,31,35,35,36,37) -> base + offsets.
PAPER_SUITE_SPEC: List[Dict] = [
    {"key": "cat_state", "gen": "cat_state", "offset": 0, "paper_qubits": 30},
    {"key": "bv", "gen": "bv", "offset": 0, "paper_qubits": 30},
    {"key": "qaoa", "gen": "qaoa", "offset": 0, "paper_qubits": 30},
    {"key": "cc", "gen": "cc", "offset": 0, "paper_qubits": 30},
    {"key": "ising", "gen": "ising", "offset": 0, "paper_qubits": 30},
    {"key": "qft", "gen": "qft", "offset": 0, "paper_qubits": 30},
    {"key": "qnn", "gen": "qnn", "offset": 1, "paper_qubits": 31},
    {"key": "grover", "gen": "grover", "offset": 1, "paper_qubits": 31},
    {"key": "qpe", "gen": "qpe", "offset": 1, "paper_qubits": 31},
    {"key": "bv35", "gen": "bv", "offset": 5, "paper_qubits": 35},
    {"key": "ising35", "gen": "ising", "offset": 5, "paper_qubits": 35},
    {"key": "cc36", "gen": "cc", "offset": 6, "paper_qubits": 36},
    {"key": "adder37", "gen": "adder", "offset": 7, "paper_qubits": 37},
]


def build(name: str, num_qubits: int, **kwargs) -> QuantumCircuit:
    """Build a benchmark circuit by family name at a given width."""
    if name not in GENERATORS:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(GENERATORS)}"
        )
    return GENERATORS[name](num_qubits, **kwargs)
