"""Distributed (multi-rank) state-vector simulation.

The layer the paper's Sec. III-D/V describes: the ``2^n`` state is split
over ``R = 2^p`` virtual ranks (see :class:`~repro.runtime.comm.SimComm`),
each holding a ``2^(n-p)`` shard.  A :class:`~repro.sv.layout.QubitLayout`
maps qubits to storage-bit positions; positions ``>= local_bits`` address
the rank, so moving a qubit across that boundary is communication.

Modules
-------
``state``
    :class:`LayoutOnlyState` — layout, residency queries and a ``remap``
    charged in closed form (dry runs at paper widths, no amplitudes) —
    and its subclass :class:`DistributedStateVector`, which adds the
    shards and executes ``remap`` as one ``SimComm.exchange`` of the bit
    permutation between the two layouts.
``exchange``
    Layout planning: minimal-motion working-set eviction with next-part
    lookahead (the HiSVSIM remap policy), and :func:`remap_schedule`,
    the per-part layouts both the engine and its oracle read.
``analytic``
    Closed-form exchange accounting — the dry-run traffic model every
    executed exchange is checked against.
``hisvsim``
    :class:`HiSVSimEngine` — partition-driven execution: one remap per
    part, then every gate of the part runs locally.
``iqs``
    :class:`IQSEngine` — the Intel-QS-style static-mapping baseline:
    per-gate exchanges, with control/diagonal communication fast paths.
``transport``
    :class:`SocketTransport` — the ``SimComm`` subclass that runs one OS
    process per rank over a TCP mesh (launched via ``repro
    dist-worker``), verified byte-for-byte against the closed-form
    model.  ``SimComm`` itself is the in-process implementation.  It is
    imported from its module (``repro.dist.transport``), so importing
    the package does not load the socket layer.
"""

from .analytic import (
    engine_exchange_layouts,
    exchange_rank_stats,
    exchange_step_stats,
    verify_exchange_records,
)
from .exchange import (
    plan_layout_for_part,
    remap_schedule,
    swap_qubit_positions,
)
from .hisvsim import HiSVSimEngine
from .iqs import IQSEngine
from .state import DistributedStateVector, LayoutOnlyState

__all__ = [
    "DistributedStateVector",
    "LayoutOnlyState",
    "exchange_step_stats",
    "exchange_rank_stats",
    "engine_exchange_layouts",
    "verify_exchange_records",
    "plan_layout_for_part",
    "remap_schedule",
    "swap_qubit_positions",
    "HiSVSimEngine",
    "IQSEngine",
]
