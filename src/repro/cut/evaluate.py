"""Fragment-variant evaluation through the hierarchical pipeline.

Variants are ordinary narrow circuits, so they run through the same
stack as everything else: a :class:`~repro.serve.runner.BatchRunner`
partitions each fragment once (variants share a structure — boundary
ops are always ``u3``, so names/operands/order are identical), compiles
one plan structure per part via the plan cache's structural layer, and
binds only the fused matrices per variant.  Variants are embarrassingly
parallel; ``workers`` (default 1) fans them out on the runner's thread
pool.

:class:`CutTrace` is the cut-level counterpart of
:class:`~repro.sv.hier.ExecutionTrace`: the ``16^k`` logical cost, the
physical circuits actually run, per-fragment widths, and the cache
traffic the evaluation produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import RunOptions
from ..sv.fusion import PlanCache
from .cutter import CutError, CutFragment, CutPlan
from .fragments import amplitude_variants, quasi_variants, variant_circuit

__all__ = ["CutTrace", "FragmentTensor", "evaluate_fragments"]

#: Variant key: (preparation labels, measurement-basis labels).
VariantKey = Tuple[Tuple[str, ...], Tuple[str, ...]]


@dataclass
class CutTrace:
    """Accounting for one cut evaluation (ExecutionTrace, cut level).

    ``logical_variants`` is the CutQC cost model (``16^k``);
    ``variants_evaluated`` the physical circuits run (the exact
    amplitude mode needs only ``2^incoming`` per fragment).  Cache
    fields mirror :class:`~repro.serve.runner.BatchStats` — with
    structure sharing working, ``partitions_computed`` equals the
    fragment count however many variants run.

    >>> t = CutTrace(num_cuts=2, num_fragments=3, fragment_widths=[4, 3, 4],
    ...              logical_variants=256, variants_evaluated=8)
    >>> "2 cuts" in t.summary() and "16^2 = 256" in t.summary()
    True
    """

    num_cuts: int = 0
    num_fragments: int = 0
    fragment_widths: List[int] = field(default_factory=list)
    logical_variants: int = 0
    variants_evaluated: int = 0
    fragment_variants: List[int] = field(default_factory=list)
    partitions_computed: int = 0
    partition_hits: int = 0
    structures_compiled: int = 0
    structure_hits: int = 0
    plans_bound: int = 0
    mode: str = "amplitude"
    seconds: float = 0.0

    def summary(self) -> str:
        """One-line digest of cut cost and cache behaviour."""
        widths = "/".join(str(w) for w in self.fragment_widths)
        return (
            f"{self.num_cuts} cuts -> {self.num_fragments} fragments "
            f"(widths {widths}), 16^{self.num_cuts} = "
            f"{self.logical_variants} logical variants, "
            f"{self.variants_evaluated} circuits run [{self.mode}] in "
            f"{self.seconds:.3f}s: partitions {self.partitions_computed} "
            f"computed / {self.partition_hits} cached, structures "
            f"{self.structures_compiled} compiled / {self.structure_hits} "
            f"reused, {self.plans_bound} matrix binds"
        )


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
    *,
    mode: str = "amplitude",
    workers: Optional[int] = None,
    options: Optional[RunOptions] = None,
    plan_cache: Optional[PlanCache] = None,
) -> Tuple[List[FragmentTensor], CutTrace]:
    """Run every boundary variant of every fragment; collect the states.

    ``mode="amplitude"`` evaluates the ``2^incoming`` computational
    variants per fragment for exact contraction; ``mode="quasi"``
    evaluates the full ``4^in * 3^out`` physical CutQC set.
    ``options`` configures the shared :class:`BatchRunner` as-is
    (``workers=None`` runs variants one at a time); pass a
    ``plan_cache`` to share compiled structures with a host runner.

    Any failed variant aborts the evaluation: a missing term makes
    every recombined output wrong, so partial results are useless here
    (unlike ordinary serve batches).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.cut.cutter import plan_from_assignment
    >>> qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    >>> plan = plan_from_assignment(qc, [0, 0, 1], max_width=2)
    >>> tensors, trace = evaluate_fragments(plan)
    >>> [t.num_variants for t in tensors], trace.partitions_computed
    ([1, 2], 2)
    """
    # Imported here (not module top) to keep repro.cut importable from
    # repro.serve without a cycle.
    from ..serve.jobs import SimJob
    from ..serve.runner import BatchRunner

    t0 = time.perf_counter()
    runner = BatchRunner(
        options,
        schedule="grouped",
        workers=1 if workers is None else workers,
        plan_cache=plan_cache,
    )
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
    stats = report.stats
    trace = CutTrace(
        num_cuts=plan.num_cuts,
        num_fragments=plan.num_fragments,
        fragment_widths=list(plan.widths),
        logical_variants=plan.num_variants,
        variants_evaluated=len(jobs),
        fragment_variants=[t.num_variants for t in tensors],
        partitions_computed=stats.partitions_computed,
        partition_hits=stats.partition_hits,
        structures_compiled=stats.structures_compiled,
        structure_hits=stats.structure_hits,
        plans_bound=stats.plans_bound,
        mode=mode,
        seconds=time.perf_counter() - t0,
    )
    return tensors, trace
