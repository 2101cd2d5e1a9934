"""Shared per-gate compute accounting for the distributed engines.

Both engines sweep each rank's ``2^l`` shard once per gate, so they share
one roofline charge; keeping it here guarantees HiSVSIM and IQS report
identical computation time for identical gate lists (the paper's Fig. 6
observation III compares exactly that).
"""

from __future__ import annotations

from ..circuits.gates import Gate
from ..runtime.machine import MachineModel
from ..runtime.metrics import ComputeStats
from ..sv.kernels import bytes_touched_for_gate, flops_for_gate

__all__ = ["charge_gate"]


def charge_gate(
    machine: MachineModel,
    compute: ComputeStats,
    gate: Gate,
    local_bits: int,
    working_set_bytes: int,
) -> float:
    """Model seconds for one gate sweep over a rank's shard.

    ``working_set_bytes`` is the resident set the sweep streams against —
    the full shard for flat execution, the (smaller) inner state vector
    under multi-level execution, which is where level 2 earns its cache-
    bandwidth win.
    """
    flops = flops_for_gate(gate.num_qubits, local_bits, gate.is_diagonal)
    bytes_swept = bytes_touched_for_gate(local_bits)
    compute.flops += flops
    compute.bytes_swept += bytes_swept
    compute.gates += 1
    return machine.compute_time(flops, bytes_swept, working_set_bytes)
