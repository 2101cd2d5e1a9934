"""Wire cutting: simulate circuits wider than memory on one host.

The pipeline (see ``docs/cutting.md``):

1. :mod:`~repro.cut.cutter` — find low-weight wire cuts by reusing the
   acyclic partitioners at ``limit=max_width`` (a valid partition's
   qubit-timeline transitions *are* wire cuts);
2. :mod:`~repro.cut.fragments` — materialise each fragment's boundary
   variants (``u3`` preparations and basis rotations, the CutQC
   4-basis / 4-state decomposition);
3. :mod:`~repro.cut.evaluate` — run variants through the existing
   hierarchical executor as one batch on the caller's
   :class:`~repro.serve.runner.BatchRunner` (one partition and one
   compiled plan structure per fragment);
4. :mod:`~repro.cut.recombine` — contract fragment tensors back into
   the state, probabilities, seeded counts or Pauli expectations.

:func:`cut_run` strings the stages together; ``repro cut`` is its CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..partition.base import PartitionError
from ..serve.runner import BatchRunner, BatchStats
from ..sv.pauli import PauliTerm
from .cutter import (
    CutError,
    CutFragment,
    CutPlan,
    WireCut,
    check_max_width,
    find_cuts,
    plan_from_assignment,
    plan_from_partition,
)
from .evaluate import FragmentTensor, evaluate_fragments
from .fragments import (
    MEAS_BASES,
    PREP_STATES,
    amplitude_variants,
    enumerate_variants,
    quasi_variants,
    variant_circuit,
)
from .recombine import (
    bond_tensor,
    dense_recombine_width,
    quasi_probabilities,
    recombine_counts,
    recombine_expectations,
    recombine_probabilities,
    recombine_state,
)

__all__ = [
    "CutError",
    "CutFragment",
    "CutPlan",
    "CutResult",
    "FragmentTensor",
    "WireCut",
    "MEAS_BASES",
    "PREP_STATES",
    "amplitude_variants",
    "bond_tensor",
    "cut_run",
    "dense_recombine_width",
    "enumerate_variants",
    "evaluate_fragments",
    "find_cuts",
    "plan_from_assignment",
    "plan_from_partition",
    "quasi_probabilities",
    "quasi_variants",
    "recombine_counts",
    "recombine_expectations",
    "recombine_probabilities",
    "recombine_state",
    "variant_circuit",
]


@dataclass
class CutResult:
    """Everything one :func:`cut_run` produced.

    ``state`` / ``probabilities`` / ``counts`` / ``expectations`` are
    ``None`` unless requested; ``plan`` says what was cut and
    ``stats`` what running it cost: the variant batch's
    :class:`~repro.serve.runner.BatchStats` (``num_jobs`` = physical
    circuits run) plus, when :func:`cut_run` searched for the cuts, the
    search's own partition event.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> result = cut_run(qc, max_width=2, want_probabilities=True)
    >>> result.counts is None, [float(round(p, 3)) for p in result.probabilities]
    (True, [0.5, 0.0, 0.0, 0.5])
    """

    plan: CutPlan
    stats: BatchStats
    state: Optional[np.ndarray] = None
    probabilities: Optional[np.ndarray] = None
    counts: Optional[Dict[int, int]] = None
    expectations: Optional[List[float]] = None


def cut_run(
    circuit: QuantumCircuit,
    *,
    runner: Optional[BatchRunner] = None,
    max_width: Optional[int] = None,
    max_cuts: Optional[int] = None,
    plan: Optional[CutPlan] = None,
    want_state: bool = False,
    want_probabilities: bool = False,
    shots: int = 0,
    seed: int = 0,
    observables: Sequence[PauliTerm] = (),
) -> CutResult:
    """Cut, evaluate and recombine one circuit end to end.

    Either pass a prebuilt ``plan`` or a ``max_width`` for
    :func:`find_cuts` (``max_cuts`` bounds the 16^k budget).
    Everything runs on ``runner`` (default: a fresh default
    :class:`~repro.serve.runner.BatchRunner`): its options name the
    partitioner that finds the cuts and configure fragment evaluation,
    its partition cache holds the cut search (at ``limit=max_width``)
    and every fragment, and its ``workers`` fans the variants out.

    >>> from repro.circuits.generators import qaoa
    >>> result = cut_run(qaoa(6, p=1), max_width=4, shots=32,
    ...                  observables=["ZZIIII"])
    >>> result.plan.num_cuts >= 1, sum(result.counts.values())
    (True, 32)
    >>> len(result.expectations)
    1
    """
    if runner is None:
        runner = BatchRunner()
    search_cached = None
    if plan is None:
        if max_width is None:
            raise CutError("cut_run needs a plan or a max_width")
        check_max_width(circuit, max_width)
        try:
            start, search_cached = runner.partition(circuit, limit=max_width)
        except PartitionError as exc:
            raise CutError(str(exc)) from exc
        plan = find_cuts(
            circuit, max_width, max_cuts=max_cuts, partition=start
        )
    elif plan.circuit is not circuit and plan.circuit != circuit:
        raise CutError("plan was built for a different circuit")
    tensors, stats = evaluate_fragments(plan, runner)
    # The search is part of what this cut cost the runner's caches.
    if search_cached:
        stats.partition_hits += 1
    elif search_cached is not None:
        stats.partitions_computed += 1
    state = recombine_state(plan, tensors) if want_state else None
    probabilities = (
        recombine_probabilities(plan, tensors) if want_probabilities else None
    )
    counts = (
        recombine_counts(plan, tensors, shots, seed) if shots else None
    )
    values = (
        recombine_expectations(plan, tensors, observables)
        if observables
        else None
    )
    return CutResult(
        plan=plan,
        stats=stats,
        state=state,
        probabilities=probabilities,
        counts=counts,
        expectations=values,
    )
