"""Distributed (multi-rank) state-vector simulation.

The layer the paper's Sec. III-D/V describes: the ``2^n`` state is split
over ``R = 2^p`` virtual ranks (see :class:`~repro.runtime.comm.SimComm`),
each holding a ``2^(n-p)`` shard.  A :class:`~repro.sv.layout.QubitLayout`
maps qubits to storage-bit positions; positions ``>= local_bits`` address
the rank, so moving a qubit across that boundary is communication.

Modules
-------
``state``
    :class:`DistributedStateVector` — real amplitudes, sharded, with
    layout-changing ``remap`` exchanges routed through ``SimComm``.
``exchange``
    Layout planning: minimal-motion working-set eviction with next-part
    lookahead (the HiSVSIM remap policy).
``analytic``
    :class:`LayoutOnlyState` and closed-form exchange accounting for
    dry runs at paper widths (no amplitudes materialised).
``hisvsim``
    :class:`HiSVSimEngine` — partition-driven execution: one remap per
    part, then every gate of the part runs locally.
``iqs``
    :class:`IQSEngine` — the Intel-QS-style static-mapping baseline:
    per-gate exchanges, with control/diagonal communication fast paths.
``transport``
    How exchanges move bytes: :class:`RecordingTransport` (all ranks
    in-process, the historical behaviour) and :class:`SocketTransport`
    (one OS process per rank over a TCP mesh, launched via
    ``repro dist-worker``), verified byte-for-byte against the
    closed-form model.
"""

from .analytic import (
    LayoutOnlyState,
    engine_exchange_layouts,
    exchange_rank_stats,
    exchange_step_stats,
    verify_exchange_records,
)
from .exchange import plan_layout_for_part, swap_qubit_positions
from .hisvsim import HiSVSimEngine
from .iqs import IQSEngine
from .state import DistributedStateVector
from .transport import (
    ExchangeRecord,
    RecordingTransport,
    SocketTransport,
    Transport,
    TransportError,
    run_spmd,
)

__all__ = [
    "DistributedStateVector",
    "LayoutOnlyState",
    "exchange_step_stats",
    "exchange_rank_stats",
    "engine_exchange_layouts",
    "verify_exchange_records",
    "plan_layout_for_part",
    "swap_qubit_positions",
    "HiSVSimEngine",
    "IQSEngine",
    "Transport",
    "TransportError",
    "RecordingTransport",
    "SocketTransport",
    "ExchangeRecord",
    "run_spmd",
]
