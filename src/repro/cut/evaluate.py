"""Fragment-variant evaluation through the hierarchical pipeline.

Variants are ordinary narrow circuits, so they run through the same
stack as everything else: one ordinary batch on the caller's
:class:`~repro.serve.runner.BatchRunner`, which partitions each
fragment once (variants share a structure — boundary ops are always
``u3``, so names/operands/order are identical), compiles one plan
structure per part via the plan cache's structural layer, and binds
only the fused matrices per variant.  Variants are embarrassingly
parallel; the runner's ``workers`` fans them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..serve.jobs import SimJob
from ..serve.runner import BatchRunner, BatchStats
from .cutter import CutError, CutFragment, CutPlan
from .fragments import amplitude_variants, quasi_variants, variant_circuit

__all__ = ["FragmentTensor", "evaluate_fragments"]

#: Variant key: (preparation labels, measurement-basis labels).
VariantKey = Tuple[Tuple[str, ...], Tuple[str, ...]]


@dataclass
class FragmentTensor:
    """All evaluated variant states of one fragment.

    ``states`` maps a :data:`VariantKey` to the fragment's final state
    vector (length ``2^width``).  The recombiner reorganises these into
    bond tensors; keeping the raw dict here keeps evaluation decoupled
    from the contraction layout.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> plan = plan_from_assignment(qc, [0, 0, 1], max_width=2)
    >>> tensors, _ = evaluate_fragments(plan)
    >>> tensors[1].num_variants, tensors[1].states[
    ...     (("zero",), ())].shape
    (2, (4,))
    """

    fragment: CutFragment
    states: Dict[VariantKey, np.ndarray]

    @property
    def num_variants(self) -> int:
        return len(self.states)


def _variant_keys(fragment: CutFragment, mode: str) -> List[VariantKey]:
    if mode == "amplitude":
        return list(amplitude_variants(fragment))
    if mode == "quasi":
        return list(quasi_variants(fragment))
    raise CutError(f"unknown evaluation mode {mode!r}")


def evaluate_fragments(
    plan: CutPlan,
    runner: Optional[BatchRunner] = None,
    *,
    mode: str = "amplitude",
) -> Tuple[List[FragmentTensor], BatchStats]:
    """Run every boundary variant of every fragment; collect the states.

    ``mode="amplitude"`` evaluates the ``2^incoming`` computational
    variants per fragment for exact contraction; ``mode="quasi"``
    evaluates the full ``4^in * 3^out`` physical CutQC set.  The
    variants are one ordinary batch on ``runner`` (default: a fresh
    default :class:`~repro.serve.runner.BatchRunner`), whose
    :class:`~repro.serve.runner.BatchStats` is returned: ``num_jobs``
    is the physical circuits run and, with structure sharing working,
    ``partitions_computed`` is at most the fragment count however many
    variants ran.

    Any failed variant aborts the evaluation: a missing term makes
    every recombined output wrong, so partial results are useless here
    (unlike ordinary serve batches).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> plan = plan_from_assignment(qc, [0, 0, 1], max_width=2)
    >>> tensors, stats = evaluate_fragments(plan)
    >>> [t.num_variants for t in tensors], stats.partitions_computed
    ([1, 2], 2)
    """
    if runner is None:
        runner = BatchRunner()
    jobs: List[SimJob] = []
    owners: List[Tuple[int, VariantKey]] = []
    for i, fragment in enumerate(plan.fragments):
        for preps, bases in _variant_keys(fragment, mode):
            jobs.append(
                SimJob(
                    job_id=f"f{i}[{','.join(preps)}|{','.join(bases)}]",
                    circuit=variant_circuit(plan, fragment, preps, bases),
                    want_state=True,
                )
            )
            owners.append((i, (preps, bases)))
    report = runner.run(jobs)
    states: List[Dict[VariantKey, np.ndarray]] = [
        {} for _ in plan.fragments
    ]
    for (i, key), result in zip(owners, report.results):
        if result.error is not None:
            raise CutError(
                f"variant {result.job_id} failed: {result.error}"
            )
        states[i][key] = result.state
    tensors = [
        FragmentTensor(fragment=f, states=states[i])
        for i, f in enumerate(plan.fragments)
    ]
    return tensors, report.stats
