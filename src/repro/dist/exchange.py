"""Layout planning: which qubits to swap before executing a part.

HiSVSIM's remap policy (Sec. III-D): before a part runs, every qubit of
its working set must sit in a local (shard-offset) position.  The planner
moves **only** the missing qubits — each one swaps positions with an
evicted local resident, so a plan with ``k`` missing qubits perturbs
exactly ``2k`` qubits of the layout (minimal motion).  Eviction prefers
residents that the *next* part does not need (one-part lookahead), which
is what keeps consecutive parts from thrashing the same qubits.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..sv.layout import QubitLayout

__all__ = ["plan_layout_for_part", "remap_schedule", "swap_qubit_positions"]


def swap_qubit_positions(
    layout: QubitLayout, qubit_a: int, qubit_b: int
) -> QubitLayout:
    """Layout with the storage positions of two qubits exchanged.

    >>> layout = QubitLayout.identity(3)
    >>> swap_qubit_positions(layout, 0, 2).positions
    (2, 1, 0)
    """
    positions = list(layout.positions)
    positions[qubit_a], positions[qubit_b] = (
        positions[qubit_b],
        positions[qubit_a],
    )
    return QubitLayout(positions)


def plan_layout_for_part(
    layout: QubitLayout,
    part_qubits: Sequence[int],
    local_bits: int,
    next_part_qubits: Optional[Iterable[int]] = None,
) -> QubitLayout:
    """Minimal-motion layout that makes ``part_qubits`` all local.

    Parameters
    ----------
    layout:
        Current data layout.
    part_qubits:
        Working set of the part about to execute.
    local_bits:
        Number of shard-offset (local) bit positions.
    next_part_qubits:
        Working set of the following part, if known; residents it needs
        are evicted last.

    Returns ``layout`` itself when nothing needs to move.  Raises
    ``ValueError`` when the working set cannot fit ``local_bits``.

    >>> layout = QubitLayout.identity(4)          # qubits 0,1 local
    >>> new = plan_layout_for_part(layout, [3], local_bits=2)
    >>> new.position(3) < 2                       # qubit 3 now local
    True
    >>> plan_layout_for_part(layout, [0, 1], 2) is layout   # already local
    True
    """
    working = set(part_qubits)
    if len(working) > local_bits:
        raise ValueError(
            f"working set of {len(working)} qubits exceeds {local_bits} "
            f"local qubits"
        )
    positions = list(layout.positions)
    incoming = sorted(q for q in working if positions[q] >= local_bits)
    if not incoming:
        return layout
    lookahead = set(next_part_qubits or ())
    evictable = [
        q
        for q in range(layout.n)
        if positions[q] < local_bits and q not in working
    ]
    # Evict qubits the next part does not need first; within each class,
    # highest position first so the local window stays compact.
    evictable.sort(key=lambda q: (q in lookahead, -positions[q]))
    for qubit, evicted in zip(incoming, evictable):
        positions[qubit], positions[evicted] = (
            positions[evicted],
            positions[qubit],
        )
    return QubitLayout(positions)


def remap_schedule(
    partition, num_qubits: int, local_bits: int
) -> Iterator[QubitLayout]:
    """Yield, part by part, the layout each part of ``partition`` runs under.

    Starts from the identity layout; part ``i`` is planned with part
    ``i + 1``'s working set as lookahead.  Consecutive equal layouts mean
    that part needs no exchange.  The engine executes this schedule and
    its dry-run oracle (:func:`repro.dist.analytic.engine_exchange_layouts`)
    reads the same one, so the two cannot drift apart.

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> partition = get_partitioner("dagP").partition(qft(6), 4)
    >>> layouts = list(remap_schedule(partition, 6, local_bits=4))
    >>> all(layout.position(q) < 4
    ...     for part, layout in zip(partition.parts, layouts)
    ...     for q in part.qubits)
    True
    """
    layout = QubitLayout.identity(num_qubits)
    parts = partition.parts
    for i, part in enumerate(parts):
        following = parts[i + 1].qubits if i + 1 < len(parts) else None
        layout = plan_layout_for_part(
            layout, part.qubits, local_bits, following
        )
        yield layout
