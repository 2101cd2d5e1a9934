"""Command-line experiment driver.

Usage::

    repro list                       # experiments available
    repro table1 [--scale paper]     # one experiment
    repro all --scale paper          # everything, saved under results/
    repro circuit bv --qubits 16     # inspect a generated circuit
    repro simulate qft --qubits 16 --no-fuse   # partitioned execution
    repro simulate qft --qubits 20 --backend threaded --threads 4
    repro cut qaoa --qubits 30 --max-width 16 --shots 1024  # wire cutting
    repro batch jobs.json -o results.json      # batched serving runtime
    repro serve --port 8035 --workers 2        # resident serving daemon
    repro bench list                           # benchmark registry
    repro bench run --tag smoke --json BENCH_smoke.json
    repro bench compare BENCH_smoke.json benchmarks/baselines/smoke.json

Each experiment prints its paper-shaped table and (with ``--save``) writes
it under ``results/``.  ``simulate`` partitions a generated circuit, runs
it through the hierarchical executor (part-level gate fusion on by
default; disable with ``--no-fuse``; pick where sweeps run with
``--backend serial|threaded|array`` and ``--threads``) and reports the
compiled sweep counts, per-backend wall time and a cross-check against
the flat simulator.  ``batch`` feeds a JSON job manifest through the
:mod:`repro.serve` runtime (shared partition/plan caches across
structurally identical circuits) and writes a results manifest.
``serve`` keeps that runtime resident behind an asyncio HTTP/JSON API
(job submission with backpressure, TTL'd results, graceful drain on
SIGTERM; API schema in ``docs/serving.md``).
``bench`` drives the unified benchmark registry (:mod:`repro.bench`):
list/run registered benchmarks with standardized JSON output, and gate
a run against a committed baseline (see ``docs/benchmarks.md``).

Defaults and the ``REPRO_*`` environment variables are documented in
``docs/configuration.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from .analysis.tables import save_text
from .experiments import (
    SCALES,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    ilp_quality,
    table1,
    table2,
    table3,
    table4,
    thread_scaling,
)
from .experiments.common import RESULTS_DIR
from .sv.backend import BACKEND_NAMES

EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1.run,
    "table2": table2.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "table3": table3.run,
    "table4": table4.run,
    "ilp": ilp_quality.run,
    "threads": thread_scaling.run,
}


def _run_one(name: str, scale_name: str, save: bool) -> str:
    scale = SCALES[scale_name]
    t0 = time.perf_counter()
    result = EXPERIMENTS[name](scale=scale)
    text = result.table()
    text += f"\n[{name} @ scale={scale_name}: {time.perf_counter() - t0:.1f}s]\n"
    if save:
        save_text(os.path.join(RESULTS_DIR, f"{name}_{scale_name}.txt"), text)
    return text


def _simulate(args) -> int:
    """Partition, hierarchically execute and summarise one circuit."""
    import numpy as np

    from .circuits import generators
    from .partition import get_partitioner
    from .partition.metrics import evaluate_partition
    from .sv import ExecutionTrace, HierarchicalExecutor
    from .sv.simulator import StateVectorSimulator

    from .sv.stabilizer import StabilizerState

    qc = generators.build(args.name, args.qubits)
    limit = args.limit or max(3, args.qubits - 3)
    p = get_partitioner(args.strategy).partition(qc, limit)
    trace = ExecutionTrace()
    executor = HierarchicalExecutor(
        pad_to=args.pad_to,
        fuse=args.fuse,
        max_fused_qubits=args.max_fused_qubits,
        backend=args.backend,
        threads=args.threads,
        method=args.method,
    )
    state = executor.initial_state(qc)
    t0 = time.perf_counter()
    state = executor.run(qc, p, state, trace=trace)
    elapsed = time.perf_counter() - t0
    m = evaluate_partition(qc, p, max_fused_qubits=args.max_fused_qubits)
    print(
        f"{qc.name}: qubits={qc.num_qubits} gates={len(qc)} "
        f"strategy={args.strategy} limit={limit} parts={p.num_parts}"
    )
    print(
        f"fusion={'on' if args.fuse else 'off'} "
        f"(max_fused_qubits={args.max_fused_qubits}): "
        f"sweeps={trace.total_ops} of {trace.total_gates} gate sweeps "
        f"(saved {trace.sweeps_saved})"
    )
    parts_by_engine = ", ".join(
        f"{name}: {count}" for name, count in trace.engine_parts.items()
    )
    print(
        f"method={executor.method} (parts by engine: {parts_by_engine})"
        + (
            f" boundary conversions={trace.boundary_conversions}"
            if trace.boundary_conversions
            else ""
        )
    )
    parts_by_backend = ", ".join(
        f"{name}: {count}" for name, count in trace.backend_parts.items()
    )
    print(
        f"backend={executor.backend.describe()} "
        f"(parts by backend: {parts_by_backend}) "
        f"part wall time {trace.total_seconds:.3f}s"
    )
    if trace.strided_parts or trace.gathered_parts:
        module = (
            f" array module={trace.array_module}"
            if trace.array_module
            else ""
        )
        print(
            f"kernel paths: strided parts={trace.strided_parts} "
            f"(ops={trace.strided_ops}), gathered parts="
            f"{trace.gathered_parts} (ops={trace.gathered_ops})"
            + module
        )
    print(m.summary())
    print(f"executed in {elapsed:.3f}s")
    if isinstance(state, StabilizerState):
        print(
            f"final state: stabilizer tableau, support 2^"
            f"{state.support_rank} of 2^{qc.num_qubits} basis states, "
            f"|amp(0)|^2 = {abs(state.amplitude(0)) ** 2:.6f}"
        )
    if args.verify:
        target = state
        if isinstance(target, StabilizerState):
            if qc.num_qubits > 24:
                print(
                    "verify skipped: dense cross-check would materialise "
                    f"2^{qc.num_qubits} amplitudes"
                )
                return 0
            target = target.to_dense()
        sim = StateVectorSimulator(qc.num_qubits)
        sim.run(qc)
        err = float(np.max(np.abs(target - sim.state)))
        print(f"max |fused - flat| = {err:.3e}")
        if err > 1e-10:
            print("VERIFICATION FAILED")
            return 1
    return 0


def _cut(args) -> int:
    """Cut, evaluate and recombine one circuit wider than one host."""
    import json

    import numpy as np

    from .circuits import generators
    from .cut import CutError, cut_run

    qc = generators.build(args.name, args.qubits)
    max_width = args.max_width
    if max_width is None:
        env = os.environ.get("REPRO_CUT_MAX_WIDTH")
        if env is not None:
            max_width = int(env)
    if max_width is None:
        print("repro cut needs --max-width (or REPRO_CUT_MAX_WIDTH)")
        return 2
    want_state = args.state or (args.verify and qc.num_qubits <= 24)
    try:
        result = cut_run(
            qc,
            max_width=max_width,
            max_cuts=args.cuts,
            strategy=args.strategy,
            want_state=want_state,
            shots=args.shots,
            seed=args.seed,
            observables=args.observables or (),
            workers=args.workers,
            fuse=args.fuse,
            max_fused_qubits=args.max_fused_qubits,
            backend=args.backend,
            threads=args.threads,
            method=args.method,
        )
    except CutError as exc:
        print(f"cut failed: {exc}")
        return 2
    plan, trace = result.plan, result.trace
    print(
        f"{qc.name}: qubits={qc.num_qubits} gates={len(qc)} "
        f"strategy={args.strategy} max_width={max_width}"
    )
    print(plan.summary())
    print(trace.summary())
    if result.counts is not None:
        top = sorted(
            result.counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:8]
        shown = ", ".join(
            f"{idx:0{qc.num_qubits}b}: {n}" for idx, n in top
        )
        print(f"counts ({sum(result.counts.values())} shots): {shown}"
              + (" ..." if len(result.counts) > 8 else ""))
    if result.expectations is not None:
        for label, value in zip(args.observables, result.expectations):
            print(f"<{label}> = {value:+.6f}")
    if args.verify:
        if qc.num_qubits > 24:
            print(
                "verify skipped: dense cross-check would materialise "
                f"2^{qc.num_qubits} amplitudes"
            )
        else:
            from .sv.simulator import StateVectorSimulator

            sim = StateVectorSimulator(qc.num_qubits)
            sim.run(qc)
            err = float(np.max(np.abs(result.state - sim.state)))
            print(f"max |cut - uncut| = {err:.3e}")
            if err > 1e-10:
                print("VERIFICATION FAILED")
                return 1
    if args.output:
        payload = {
            "circuit": qc.name,
            "qubits": qc.num_qubits,
            "gates": len(qc),
            "strategy": args.strategy,
            "max_width": max_width,
            "cuts": plan.num_cuts,
            "fragments": plan.num_fragments,
            "fragment_widths": list(plan.widths),
            "logical_variants": plan.num_variants,
            "variants_evaluated": trace.variants_evaluated,
            "seconds": trace.seconds,
        }
        if result.counts is not None:
            payload["counts"] = {
                str(k): v for k, v in result.counts.items()
            }
        if result.expectations is not None:
            payload["expectations"] = {
                label: value
                for label, value in zip(
                    args.observables, result.expectations
                )
            }
        if args.state and result.state is not None:
            payload["state"] = [
                [float(a.real), float(a.imag)] for a in result.state
            ]
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"results written to {args.output}")
    return 0


def _batch(args) -> int:
    """Run a JSON job manifest through the serving runtime."""
    import json

    from .serve import BatchRunner, load_manifest, results_to_manifest

    jobs, options = load_manifest(args.manifest)
    # CLI flags override manifest options; manifest options override
    # the runner defaults.
    for key, value in (
        ("strategy", args.strategy),
        ("limit", args.limit),
        ("schedule", args.schedule),
        ("workers", args.workers),
        ("backend", args.backend),
        ("threads", args.threads),
        ("method", args.method),
    ):
        if value is not None:
            options[key] = value
    if args.fuse is not None:
        options["fuse"] = args.fuse
    runner = BatchRunner(**options)
    report = runner.run(jobs)
    print(report.stats.summary())
    for res in report.results:
        extras = []
        if res.counts is not None:
            extras.append(f"shots={sum(res.counts.values())}")
        if res.expectations is not None:
            extras.append(f"expectations={len(res.expectations)}")
        if res.state is not None:
            extras.append("state")
        print(
            f"  {res.job_id}: qubits={res.num_qubits} gates={res.num_gates} "
            f"parts={res.num_parts} "
            f"partition={'cached' if res.partition_cached else 'computed'} "
            f"{res.seconds:.3f}s"
            + (f" [{', '.join(extras)}]" if extras else "")
        )
    if args.output:
        manifest = results_to_manifest(
            report.results, stats=vars(report.stats)
        )
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        print(f"results written to {args.output}")
    return 0


def _serve(args) -> int:
    """Run the resident serving daemon until drained."""
    from .serve import ServeConfig, ServeDaemon

    config = ServeConfig.from_env(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        workers=args.workers,
        max_batch=args.max_batch,
        ttl=args.ttl,
        drain_grace=args.drain_grace,
        strategy=args.strategy,
        limit=args.limit,
        backend=args.backend,
        threads=args.threads,
        fuse=args.fuse,
        method=args.method,
    )
    ServeDaemon(config).run()
    print("repro serve drained cleanly")
    return 0


def _dist_worker(args) -> int:
    """One rank of a distributed socket run (SPMD worker).

    Every worker builds the same circuit and (seeded, deterministic)
    partition, connects the TCP mesh through the rank-0 rendezvous, and
    runs the HiSVSIM engine; ``remap`` then moves amplitude blocks
    between the worker processes.  Before exiting, each rank verifies
    its observed per-exchange traffic against the closed-form dry-run
    model — any byte of disagreement is a non-zero exit.
    """
    import json

    import numpy as np

    from .circuits import generators
    from .dist import (
        HiSVSimEngine,
        engine_exchange_layouts,
        exchange_rank_stats,
    )
    from .dist.transport import SocketTransport, dist_env_defaults
    from .partition import get_partitioner
    from .runtime.comm import SimComm

    env = dist_env_defaults()
    transport_kind = args.transport or env["transport"]
    if not 0 <= args.rank < args.ranks:
        print(f"rank {args.rank} out of range for {args.ranks} ranks")
        return 2
    qc = generators.build(args.circuit, args.qubits)
    limit = args.limit or max(3, args.qubits - 3)
    partition = get_partitioner(args.strategy).partition(qc, limit)

    transport = None
    if transport_kind == "socket":
        if args.rendezvous:
            host, _, port = args.rendezvous.rpartition(":")
            rendezvous = (host or str(env["host"]), int(port))
        else:
            rendezvous = (str(env["host"]), int(env["port"]))
        transport = SocketTransport.connect(
            args.rank, args.ranks, rendezvous
        )
        comm = SimComm(args.ranks, transport=transport)
    else:
        comm = SimComm(args.ranks)
    try:
        engine = HiSVSimEngine(num_ranks=args.ranks)
        state, report = engine.run(qc, partition, comm=comm)
        full = state.to_full()  # collective: every rank participates

        verified = True
        problems = []
        if transport is not None and args.verify:
            local_bits = state.local_bits
            expected = engine_exchange_layouts(
                partition, args.qubits, args.ranks
            )
            records = transport.records
            if len(records) != len(expected):
                verified = False
                problems.append(
                    f"{len(records)} exchanges executed, model expects "
                    f"{len(expected)}"
                )
            for i, (rec, (old, new)) in enumerate(
                zip(records, expected)
            ):
                model = exchange_rank_stats(old, new, local_bits, args.rank)
                observed = (rec.sent_bytes, rec.sent_msgs,
                            rec.recv_bytes, rec.recv_msgs)
                if observed != model:
                    verified = False
                    problems.append(
                        f"exchange {i}: observed {observed} != model {model}"
                    )
        if args.out and (transport is None or args.rank == 0):
            np.save(args.out, full)
        print(json.dumps({
            "rank": args.rank,
            "ranks": args.ranks,
            "circuit": qc.name,
            "transport": transport_kind,
            "parts": partition.num_parts,
            "exchanges": report.comm.steps,
            "bytes": report.comm.total_bytes,
            "verified": verified,
            "problems": problems,
        }))
        return 0 if verified else 2
    finally:
        if transport is not None:
            transport.close()


def _working_set_limit(text: str) -> int:
    """argparse type for ``--limit``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"limit must be >= 1 (got {value}); omit the flag to derive "
            f"the per-circuit default"
        )
    return value


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # ``repro bench`` owns its own argparse tree (list/run/compare);
    # dispatch before the experiment parser so its flags stay isolated.
    if argv[:1] == ["bench"]:
        from .bench.cli import main as bench_main

        return bench_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HiSVSIM reproduction experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments")

    # Help-only stub: real parsing happens in repro.bench.cli (dispatched
    # above before parse_args ever sees "bench").
    sub.add_parser(
        "bench",
        help="benchmark registry: list, run, compare (perf gate)",
    )

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run experiment {name}")
        p.add_argument("--scale", default=os.environ.get("REPRO_SCALE", "small"),
                       choices=sorted(SCALES))
        p.add_argument("--save", action="store_true")

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--scale", default=os.environ.get("REPRO_SCALE", "small"),
                       choices=sorted(SCALES))
    p_all.add_argument("--save", action="store_true", default=True)

    p_circ = sub.add_parser("circuit", help="inspect a generated circuit")
    p_circ.add_argument("name")
    p_circ.add_argument("--qubits", type=int, default=16)
    p_circ.add_argument("--qasm", action="store_true", help="print OpenQASM")

    p_sim = sub.add_parser(
        "simulate", help="partition + hierarchically execute a circuit"
    )
    p_sim.add_argument("name")
    p_sim.add_argument("--qubits", type=int, default=16)
    p_sim.add_argument("--limit", type=int, default=0,
                       help="working-set limit (default: qubits - 3)")
    p_sim.add_argument("--strategy", default="dagP",
                       choices=["Nat", "DFS", "dagP"])
    p_sim.add_argument("--fuse", dest="fuse", action="store_true",
                       default=True,
                       help="fuse part gates into <= max-fused-qubits "
                            "unitaries (default: on)")
    p_sim.add_argument("--no-fuse", dest="fuse", action="store_false",
                       help="one kernel sweep per gate")
    p_sim.add_argument("--max-fused-qubits", type=int, default=5,
                       help="arity cap for fused dense unitaries "
                            "(default: 5)")
    p_sim.add_argument("--backend", default=None,
                       choices=BACKEND_NAMES,
                       help="execution backend (default: REPRO_BACKEND, "
                            "else serial; see docs/configuration.md)")
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker count for the threaded backend "
                            "(default: REPRO_THREADS, else core count)")
    p_sim.add_argument("--pad-to", type=int, default=0,
                       help="pad part working sets to this many qubits "
                            "(default: 0 = no padding)")
    p_sim.add_argument("--method", default=None,
                       choices=["auto", "dense", "stabilizer"],
                       help="simulation method: auto routes all-Clifford "
                            "circuits to the stabilizer tableau engine "
                            "(default: REPRO_METHOD, else auto)")
    p_sim.add_argument("--verify", action="store_true",
                       help="cross-check against the flat simulator")

    p_cut = sub.add_parser(
        "cut",
        help="wire-cut a wide circuit into narrow fragments and recombine",
        description="Wire cutting (repro.cut): partition a circuit wider "
                    "than one host's memory into fragments of at most "
                    "--max-width qubits, evaluate the CutQC boundary "
                    "variants through the hierarchical executor with "
                    "shared plan structures, and contract the fragment "
                    "tensors back into counts, Pauli expectations or the "
                    "full state. Cost scales as 16^cuts logical terms; "
                    "--cuts bounds the budget. Model and schema: "
                    "docs/cutting.md.",
    )
    p_cut.add_argument("name", help="generator name (see `repro circuit`)")
    p_cut.add_argument("--qubits", type=int, default=16)
    p_cut.add_argument("--max-width", type=int, default=None,
                       help="max fragment width in qubits (default: "
                            "REPRO_CUT_MAX_WIDTH; required if unset)")
    p_cut.add_argument("--cuts", type=int, default=None,
                       help="reject plans needing more than this many "
                            "wire cuts (default: no budget)")
    p_cut.add_argument("--strategy", default="dagP",
                       choices=["Nat", "DFS", "dagP"],
                       help="partitioner used to find the cuts "
                            "(default: dagP)")
    p_cut.add_argument("--shots", type=int, default=0,
                       help="sample this many measurement shots "
                            "(default: 0 = none)")
    p_cut.add_argument("--seed", type=int, default=0,
                       help="RNG seed for sampling (default: 0)")
    p_cut.add_argument("--observables", nargs="*", default=None,
                       metavar="PAULI",
                       help="Pauli strings to take expectations of, "
                            "e.g. ZZII XIXI")
    p_cut.add_argument("--state", action="store_true",
                       help="recombine (and with --output, save) the "
                            "full dense state")
    p_cut.add_argument("-o", "--output", default=None,
                       help="write a JSON results file here")
    p_cut.add_argument("--workers", type=int, default=None,
                       help="concurrent fragment variants (default: "
                            "REPRO_CUT_WORKERS, else 1)")
    p_cut.add_argument("--fuse", dest="fuse", action="store_true",
                       default=True,
                       help="fuse fragment gates (default: on)")
    p_cut.add_argument("--no-fuse", dest="fuse", action="store_false",
                       help="one kernel sweep per gate")
    p_cut.add_argument("--max-fused-qubits", type=int, default=5,
                       help="arity cap for fused dense unitaries "
                            "(default: 5)")
    p_cut.add_argument("--backend", default=None,
                       choices=BACKEND_NAMES,
                       help="execution backend (default: REPRO_BACKEND, "
                            "else serial)")
    p_cut.add_argument("--threads", type=int, default=None,
                       help="backend worker count (default: REPRO_THREADS)")
    p_cut.add_argument("--method", default=None,
                       choices=["auto", "dense", "stabilizer"],
                       help="simulation method for fragments (default: "
                            "REPRO_METHOD, else auto)")
    p_cut.add_argument("--verify", action="store_true",
                       help="cross-check the recombined state against "
                            "the uncut flat simulator (<= 24 qubits)")

    p_batch = sub.add_parser(
        "batch",
        help="run a JSON job manifest through the batched serving runtime",
        description="Batched multi-circuit execution (repro.serve): jobs "
                    "from a JSON manifest share partition and compiled-plan "
                    "caches across structurally identical circuits. "
                    "Manifest schema: docs/serving.md.",
    )
    p_batch.add_argument("manifest", help="path to the JSON job manifest")
    p_batch.add_argument("-o", "--output", default=None,
                         help="write a JSON results manifest here")
    p_batch.add_argument("--schedule", default=None,
                         choices=["fifo", "grouped"],
                         help="dispatch order (default: grouped — cluster "
                              "structurally identical jobs)")
    p_batch.add_argument("--strategy", default=None,
                         choices=["Nat", "DFS", "dagP"],
                         help="partitioner (default: dagP)")
    p_batch.add_argument("--limit", type=_working_set_limit, default=None,
                         help="working-set limit, >= 1 (default: "
                              "qubits - 3 per circuit)")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="concurrent jobs (default: 1)")
    p_batch.add_argument("--backend", default=None,
                         choices=BACKEND_NAMES,
                         help="execution backend (default: REPRO_BACKEND, "
                              "else serial)")
    p_batch.add_argument("--threads", type=int, default=None,
                         help="backend worker count (default: REPRO_THREADS)")
    p_batch.add_argument("--method", default=None,
                         choices=["auto", "dense", "stabilizer"],
                         help="simulation method (default: REPRO_METHOD, "
                              "else auto)")
    p_batch.add_argument("--fuse", dest="fuse", action="store_true",
                         default=None, help="force fusion on")
    p_batch.add_argument("--no-fuse", dest="fuse", action="store_false",
                         help="force fusion off")

    p_serve = sub.add_parser(
        "serve",
        help="run the resident serving daemon (asyncio HTTP/JSON API)",
        description="Long-running serving daemon over repro.serve: "
                    "POST /jobs (single job or manifest batch), "
                    "GET /jobs/{handle}, GET /batches/{id}, /healthz, "
                    "/metrics. Bounded admission with 429 backpressure, "
                    "TTL'd results, graceful drain on SIGTERM. Defaults "
                    "come from REPRO_SERVE_* (docs/configuration.md); "
                    "flags override.",
    )
    p_serve.add_argument("--host", default=None,
                         help="bind address (default: REPRO_SERVE_HOST "
                              "or 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port, 0 = ephemeral (default: "
                              "REPRO_SERVE_PORT or 8035)")
    p_serve.add_argument("--queue-limit", type=int, default=None,
                         help="max queued jobs before 429 (default: "
                              "REPRO_SERVE_QUEUE_LIMIT or 256)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="executor worker threads (default: "
                              "REPRO_SERVE_WORKERS or 2)")
    p_serve.add_argument("--max-batch", type=int, default=None,
                         help="max jobs dispatched to a worker at once "
                              "(default: REPRO_SERVE_MAX_BATCH or 16)")
    p_serve.add_argument("--ttl", type=float, default=None,
                         help="seconds finished results stay retrievable "
                              "(default: REPRO_SERVE_TTL or 600)")
    p_serve.add_argument("--drain-grace", type=float, default=None,
                         help="seconds to wait for workers on drain "
                              "(default: REPRO_SERVE_DRAIN_GRACE or 30)")
    p_serve.add_argument("--strategy", default=None,
                         choices=["Nat", "DFS", "dagP"],
                         help="partitioner (default: dagP)")
    p_serve.add_argument("--limit", type=_working_set_limit, default=None,
                         help="working-set limit, >= 1 (default: "
                              "qubits - 3 per circuit)")
    p_serve.add_argument("--backend", default=None,
                         choices=BACKEND_NAMES,
                         help="execution backend (default: REPRO_BACKEND, "
                              "else serial)")
    p_serve.add_argument("--threads", type=int, default=None,
                         help="backend worker count (default: "
                              "REPRO_THREADS)")
    p_serve.add_argument("--method", default=None,
                         choices=["auto", "dense", "stabilizer"],
                         help="simulation method (default: REPRO_METHOD, "
                              "else auto)")
    p_serve.add_argument("--fuse", dest="fuse", action="store_true",
                         default=None, help="force fusion on")
    p_serve.add_argument("--no-fuse", dest="fuse", action="store_false",
                         help="force fusion off")

    p_dw = sub.add_parser(
        "dist-worker",
        help="run one rank of a distributed socket simulation",
        description="One SPMD rank of a multi-process run (repro.dist): "
                    "builds the circuit and partition deterministically, "
                    "joins the TCP mesh through the rank-0 rendezvous, "
                    "executes with HiSVSimEngine, and verifies observed "
                    "per-exchange traffic against the closed-form dry-run "
                    "model (non-zero exit on any mismatch). Defaults come "
                    "from REPRO_DIST_* (docs/configuration.md).",
    )
    p_dw.add_argument("--rank", type=int, required=True,
                      help="this worker's rank in [0, ranks)")
    p_dw.add_argument("--ranks", type=int, required=True,
                      help="total rank count (power of two)")
    p_dw.add_argument("--rendezvous", default=None,
                      help="HOST:PORT of rank 0's rendezvous listener "
                           "(default: REPRO_DIST_HOST:REPRO_DIST_PORT)")
    p_dw.add_argument("--circuit", required=True,
                      help="generator name (see `repro circuit`)")
    p_dw.add_argument("--qubits", type=int, default=10)
    p_dw.add_argument("--strategy", default="dagP",
                      choices=["Nat", "DFS", "dagP"])
    p_dw.add_argument("--limit", type=int, default=0,
                      help="working-set limit (default: qubits - 3)")
    p_dw.add_argument("--transport", default=None,
                      choices=["socket", "recording"],
                      help="amplitude transport (default: "
                           "REPRO_DIST_TRANSPORT, else socket)")
    p_dw.add_argument("--out", default=None,
                      help="write the gathered full state here as .npy "
                           "(rank 0 only under the socket transport)")
    p_dw.add_argument("--verify", dest="verify", action="store_true",
                      default=True,
                      help="check records against the traffic model "
                           "(default: on)")
    p_dw.add_argument("--no-verify", dest="verify", action="store_false",
                      help="skip the traffic-model check")

    args = parser.parse_args(argv)

    if args.command == "dist-worker":
        return _dist_worker(args)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "circuit":
        from .circuits import generators, qasm

        qc = generators.build(args.name, args.qubits)
        if args.qasm:
            print(qasm.dumps(qc), end="")
        else:
            st = qc.stats()
            print(
                f"{qc.name}: qubits={st.num_qubits} gates={st.num_gates} "
                f"(1q={st.num_1q}, 2q={st.num_2q}, multi={st.num_multi}) "
                f"depth={st.depth} state={st.memory_human()}"
            )
        return 0
    if args.command == "simulate":
        return _simulate(args)
    if args.command == "cut":
        return _cut(args)
    if args.command == "batch":
        return _batch(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "all":
        for name in EXPERIMENTS:
            print(f"=== {name} ===")
            print(_run_one(name, args.scale, save=True))
        print(f"saved under {RESULTS_DIR}/")
        return 0
    print(_run_one(args.command, args.scale, args.save))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
