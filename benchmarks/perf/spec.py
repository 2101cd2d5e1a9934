"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root carries the same names in the schema
the benchmark driver reads (``test_perf_harness.py`` keeps the two in
step).  The extra columns here — which counts must repeat exactly, and
which end-to-end metric on which workload a layer metric should move —
are what ``run.py compare`` and the README are generated against.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = [
    "DEFAULT_SEED",
    "RUN_SECONDS",
    "SELFCHECK_RUNS",
    "CANARY_REF_S",
    "THREAD_PINS",
    "WORKLOADS",
    "UNGATED",
    "END_TO_END",
    "PER_LAYER",
    "LayerMetric",
    "DOMINANT_SHARES",
]

#: The seed ``expected.json`` holds golden amplitudes for.
DEFAULT_SEED = 11

#: Measuring time of one run (``--seconds`` default, ``run_seconds``).  The
#: driver's 70 runs share 57 minutes, so a run -- five set-ups, the timed
#: passes, verification -- has ~48 s; this leaves a third of that spare for
#: a slow quarter of an hour on the host.
RUN_SECONDS = 30

#: Runs per set under ``run.py --selfcheck``.  A set's value for a metric
#: is the median of its runs, which is how the driver compares two commits.
SELFCHECK_RUNS = 3

#: What ``worker.Canary`` takes on the reference host: the 2-vCPU VM this
#: benchmark was sized on, at its median speed over 30 runs in 20 minutes
#: (single runs read 0.093-0.143 s).  It fixes the scale of ``cold_s`` and
#: ``warm_s``, nothing else.
CANARY_REF_S = 0.109

#: Pinned to "1" in every measuring process; recorded in the fingerprint.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS: Dict[str, str] = {
    "wide_qft21": (
        "One 21-qubit QFT (32 MiB state, 16x the per-core L2): kernel, "
        "gather/scatter and index-table time dominate; partition and "
        "cache changes must show no change here."
    ),
    "sweep_qaoa14": (
        "104-job QAOA angle sweeps on a cache-resident 14-qubit state via "
        "BatchRunner: every cache hits, so bind, fingerprint and dispatch "
        "dominate, not bytes. Timings spread ~0.09: unresolved at +10 %."
    ),
    "deep_cold12": (
        "17 distinct deep 10-16 qubit circuits from QASM text, each seen "
        "once: every cache misses, so parse, dagP partitioning and fusion "
        "compile dominate cold_s. Spread 0.09-0.14: unresolved at +10 %."
    ),
    "dist_qft20_r4": (
        "20-qubit QFT over 4 in-process ranks (HiSVSimEngine): one remap "
        "per part, so exchange time shows only here; shard sweeps reach the "
        "kernels by a third entry. Spread ~0.09: unresolved at +10 %."
    ),
}

#: Workloads ``run.py`` measures, traces and compares like the others but
#: ``BENCHMARK.json`` does not list, so the driver neither runs nor gates
#: them: their end-to-end timings do not repeat on this class of host.
UNGATED: Dict[str, str] = {
    "wide_qft21": (
        "warm_s spreads 0.22 (IQR / median over ten runs) even corrected "
        "for host speed, 0.23-0.33 on the wall clock: the run lives in the "
        "host's page-fault path and in a last-level cache shared with other "
        "tenants.  Read its per-layer numbers, not one run's seconds."
    ),
}

#: name -> (unit, better, bound).  Every timing is the median of the run's
#: samples; ``cold_s`` / ``warm_s`` are at the reference host's speed
#: (``worker.Canary``).  ``verified_frac`` is 1 - ``failed_frac`` (operations whose
#: output failed verification or raised / operations attempted): the
#: driver's schema wants metrics that are never 0, so the complement is
#: gated and ``failed_frac`` is printed beside it.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25),
    "cold_s": ("s", "lower", 0.25),
    "warm_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "verified_frac": ("ratio", "higher", 0.01),
}


class LayerMetric(NamedTuple):
    unit: str
    better: str
    exact: bool  # a count that must repeat bit-for-bit for one seed
    moves: str  # end-to-end metric @ workload this should move


def _t(moves: str) -> LayerMetric:
    return LayerMetric("s", "lower", False, moves)


def _n(moves: str = "-", better: str = "lower") -> LayerMetric:
    return LayerMetric("count", better, True, moves)


PER_LAYER: Dict[str, LayerMetric] = {
    # circuits
    "circuits.build_s": _t("setup_s @ all"),
    "circuits.qasm_parse_s": _t("cold_s @ deep_cold12"),
    "circuits.gates": _n(),
    "circuits.qasm_bytes": LayerMetric("B", "lower", True, "-"),
    # dag
    "dag.build_s": _t("cold_s @ deep_cold12 (inside partition.dagP.s)"),
    "dag.nodes": _n(),
    "dag.edges": _n(),
    # partition
    "partition.Nat.s": _t("-"),
    "partition.DFS.s": _t("-"),
    "partition.dagP.s": _t("cold_s @ deep_cold12"),
    "partition.Nat.parts": _n(),
    "partition.DFS.parts": _n(),
    "partition.dagP.parts": _n("warm_s @ wide_qft21, dist_qft20_r4"),
    "partition.dagP.max_working_set": _n(),
    # sv.fusion
    "fusion.compile_cold_s": _t("cold_s @ deep_cold12"),
    "fusion.compile_warm_s": _t("warm_s @ deep_cold12"),
    "fusion.bind_s": _t("warm_s @ sweep_qaoa14"),
    "fusion.source_gates": _n(),
    "fusion.ops": _n("warm_s @ wide_qft21"),
    "fusion.sweep_reduction": LayerMetric("ratio", "higher", True, "-"),
    "fusion.structure_hits": _n(better="higher"),
    "fusion.structure_misses": _n(),
    "fusion.plans_bound": _n(),
    # sv.layout
    "layout.gather_table_s": _t("cold_s, warm_s @ wide_qft21"),
    "layout.gather_table_cached_s": _t("warm_s @ sweep_qaoa14"),
    # sv.kernels
    "kernels.route_s": _t("warm_s @ sweep_qaoa14, deep_cold12"),
    "kernels.gather_s": _t("warm_s @ wide_qft21"),
    "kernels.apply_s": _t("warm_s @ wide_qft21, dist_qft20_r4"),
    "kernels.scatter_s": _t("warm_s @ wide_qft21"),
    "kernels.ops_dense": _n(),
    "kernels.ops_diagonal": _n(),
    "kernels.model_bytes": LayerMetric("B", "lower", True, "-"),
    "kernels.model_flops": LayerMetric("flop", "lower", True, "-"),
    "kernels.achieved_gbs": LayerMetric("GB/s", "higher", False, "-"),
    "kernels.bandwidth_frac": LayerMetric("ratio", "higher", False, "-"),
    "kernels.strided_1op_s": _t("-"),
    "kernels.gathered_1op_s": _t("-"),
    # host
    "host.copy_gbs": LayerMetric("GB/s", "higher", False, "-"),
    "host.l2_bytes": LayerMetric("B", "higher", True, "-"),
    "host.llc_bytes": LayerMetric("B", "higher", True, "-"),
    "host.nproc": _n(better="higher"),
    # sv.hier / sv.backend
    "hier.run_s.Nat": _t("-"),
    "hier.run_s.DFS": _t("-"),
    "hier.run_s.dagP": _t("warm_s @ wide_qft21"),
    "hier.part_s_sum": _t("warm_s @ wide_qft21"),
    "hier.part_s_max": _t("-"),
    "hier.overhead_s": _t("warm_s @ sweep_qaoa14"),
    "hier.parts_strided": _n(better="higher"),
    "hier.parts_gathered": _n(),
    "hier.parts_stabilizer": _n(better="higher"),
    "backend.threaded2.run_s": _t("-"),
    "backend.threaded2.speedup": LayerMetric("ratio", "higher", False, "-"),
    # sv.stabilizer / sv.engine
    "stabilizer.auto_run_s": _t("warm_s @ deep_cold12"),
    "stabilizer.forced_run_s": _t("-"),
    "stabilizer.to_dense_s": _t("-"),
    "stabilizer.boundary_conversions": _n(),
    # sv.simulator / sv.pauli
    "outputs.sample_counts_s": _t("warm_s @ sweep_qaoa14"),
    "outputs.expectations_s": _t("warm_s @ sweep_qaoa14"),
    # serve
    "serve.fingerprint_s": _t("warm_s @ sweep_qaoa14"),
    "serve.partitions_computed": _n(),
    "serve.partition_hits": _n(better="higher"),
    "serve.structures_compiled": _n(),
    "serve.plans_bound": _n(),
    "serve.job_p50_ms": LayerMetric("ms", "lower", False, "warm_s @ sweep_qaoa14"),
    "serve.job_p90_ms": LayerMetric("ms", "lower", False, "warm_s @ sweep_qaoa14"),
    "serve.job_max_ms": LayerMetric("ms", "lower", False, "-"),
    "serve.runner_overhead_s": _t("warm_s @ sweep_qaoa14"),
    "serve.workers2.batch_s": _t("-"),
    # dist / runtime
    "dist.remap_s": _t("cold_s, warm_s @ dist_qft20_r4"),
    "dist.execute_s": _t("cold_s, warm_s @ dist_qft20_r4"),
    "dist.to_full_s": _t("cold_s, warm_s @ dist_qft20_r4"),
    "dist.exchanges": _n(),
    "dist.bytes_total": LayerMetric("B", "lower", True, "-"),
    "dist.msgs_total": _n(),
    "dist.max_bytes_per_rank": LayerMetric("B", "lower", True, "-"),
    "dist.remap_gbs": LayerMetric("GB/s", "higher", False, "-"),
    "dist.model_comm_s": LayerMetric("s", "lower", True, "-"),
    "dist.model_comp_s": LayerMetric("s", "lower", True, "-"),
    "dist.iqs_bytes_total": LayerMetric("B", "lower", True, "-"),
    "dist.bytes_vs_iqs": LayerMetric("ratio", "lower", True, "-"),
    # harness
    "trace.staged_over_e2e": LayerMetric("ratio", "higher", False, "-"),
    # Grows with the number of staged iterations, which is time-based.
    "trace.spans": LayerMetric("count", "lower", False, "-"),
    "trace.probe_errors": _n(),
}

#: The layer each workload was built for: per-layer metrics whose sum must
#: be at least ``floor`` of the named end-to-end metric on that workload
#: (README "Findings" and ``run.py`` print the measured share).
DOMINANT_SHARES: Dict[str, tuple] = {
    "wide_qft21": (
        "warm_s",
        ("kernels.gather_s", "kernels.apply_s", "kernels.scatter_s"),
        0.70,
    ),
    "deep_cold12": (
        "cold_s",
        ("partition.dagP.s", "fusion.compile_cold_s", "circuits.qasm_parse_s"),
        0.70,
    ),
    "sweep_qaoa14": (
        "warm_s",
        ("fusion.bind_s", "serve.fingerprint_s", "serve.runner_overhead_s"),
        0.40,
    ),
    "dist_qft20_r4": ("warm_s", ("dist.remap_s",), 0.20),
}


def exact_names() -> List[str]:
    """Per-layer metrics that must be identical between same-seed runs."""
    return [name for name, m in PER_LAYER.items() if m.exact]
