"""Command-line driver.

Usage::

    repro circuit bv --qubits 16     # inspect a generated circuit
    repro simulate qft --qubits 16 --no-fuse   # partitioned execution
    repro simulate qft --qubits 20 --backend threaded --threads 4
    repro cut qaoa --qubits 30 --max-width 16 --shots 1024  # wire cutting
    repro batch jobs.json -o results.json      # batched serving runtime
    repro serve --port 8035 --workers 2        # resident serving daemon
    repro bench list                           # the paper's artefacts
    repro bench run table1 --set scale=paper   # one table or figure
    repro bench run --tag paper --json BENCH_paper.json
    repro bench compare BENCH_paper.json benchmarks/baselines/paper.json

``simulate`` partitions a generated circuit, runs it through the
hierarchical executor (part-level gate fusion on by default; disable
with ``--no-fuse``; pick where sweeps run with ``--backend
serial|threaded`` and ``--threads``) and reports the compiled sweep
counts, per-backend wall time and a cross-check against the flat
simulator.  ``batch`` feeds a JSON job manifest through the
:mod:`repro.serve` runtime (shared partition/plan caches across
structurally identical circuits) and writes a results manifest.
``serve`` keeps that runtime resident behind an asyncio HTTP/JSON API
(job submission with backpressure, TTL'd results, graceful drain on
SIGTERM; API schema in ``docs/serving.md``).
``bench`` drives the benchmark registry (:mod:`repro.bench`), the one way
to regenerate a table or figure of the paper: a run prints each
artefact's paper-shaped table (``--save`` writes it under ``results/``),
emits standardized JSON, and gates its exact model metrics against a
committed baseline (see ``docs/benchmarks.md``).

Defaults and the ``REPRO_*`` environment variables are documented in
``docs/configuration.md``.
"""

from __future__ import annotations

import argparse
import sys
import time

from .circuits import generators
from .config import ENV, RUN_OPTION_FIELDS, RunOptions, env
from .partition import STRATEGIES
from .sv.backend import BACKEND_NAMES
from .sv.engine import METHOD_NAMES


def _merged(args, keys, manifest=None) -> dict:
    """Flag > manifest option, first non-``None`` wins; keys nobody set
    are left out so the consumer (``RunOptions``, ``BatchRunner``)
    supplies the default.  Environment fallback happens later, where
    ``backend`` / ``threads`` / ``method`` are resolved.
    """
    merged = {}
    for key in keys:
        for value in (getattr(args, key, None), (manifest or {}).get(key)):
            if value is not None:
                merged.setdefault(key, value)
    return merged


def _run_options(args, manifest=None) -> RunOptions:
    return RunOptions(**_merged(args, RUN_OPTION_FIELDS, manifest))


def _cross_check(qc, state, label: str) -> int:
    """``--verify``: compare ``state`` with the flat simulator at 1e-10.

    Returns the exit code.  Above 24 qubits the check is skipped — it
    would materialise (another) ``2^n`` amplitudes.
    """
    import numpy as np

    from .sv.simulator import StateVectorSimulator
    from .sv.stabilizer import StabilizerState

    if qc.num_qubits > 24:
        print(
            "verify skipped: dense cross-check would materialise "
            f"2^{qc.num_qubits} amplitudes"
        )
        return 0
    if isinstance(state, StabilizerState):
        state = state.to_dense()
    sim = StateVectorSimulator(qc.num_qubits)
    sim.run(qc)
    err = float(np.max(np.abs(state - sim.state)))
    print(f"max |{label}| = {err:.3e}")
    if err > 1e-10:
        print("VERIFICATION FAILED")
        return 1
    return 0


def _circuit(args) -> int:
    """Print a generated circuit's statistics or its OpenQASM."""
    from .circuits import qasm

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


def _simulate(args) -> int:
    """Partition, hierarchically execute and summarise one circuit."""
    from .partition.metrics import evaluate_partition
    from .serve import BatchRunner
    from .sv import ExecutionTrace
    from .sv.stabilizer import StabilizerState

    options = _run_options(args)
    qc = generators.build(args.name, args.qubits)
    runner = BatchRunner(options)
    trace = ExecutionTrace()
    t0 = time.perf_counter()
    state, p, _ = runner.execute(qc, trace)
    elapsed = time.perf_counter() - t0
    m = evaluate_partition(qc, p, max_fused_qubits=options.max_fused_qubits)
    print(
        f"{qc.name}: qubits={qc.num_qubits} gates={len(qc)} "
        f"strategy={options.strategy} limit={p.limit} parts={p.num_parts}"
    )
    print(
        f"fusion={'on' if options.fuse else 'off'} "
        f"(max_fused_qubits={options.max_fused_qubits}): "
        f"sweeps={trace.total_ops} of {trace.total_gates} gate sweeps "
        f"(saved {trace.sweeps_saved})"
    )
    parts_by_engine = ", ".join(
        f"{name}: {count}" for name, count in trace.engine_parts.items()
    )
    print(
        f"method={runner.method} (parts by engine: {parts_by_engine})"
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
        f"backend={runner.backend.describe()} "
        f"(parts by backend: {parts_by_backend}) "
        f"part wall time {trace.total_seconds:.3f}s"
    )
    if trace.strided_parts or trace.gathered_parts:
        print(
            f"kernel paths: strided parts={trace.strided_parts} "
            f"(ops={trace.strided_ops}), gathered parts="
            f"{trace.gathered_parts} (ops={trace.gathered_ops}); "
            f"diagonal ops={trace.diagonal_ops} of "
            f"{trace.strided_ops + trace.gathered_ops} (copy-free)"
        )
    print(m.summary())
    print(f"executed in {elapsed:.3f}s")
    if isinstance(state, StabilizerState):
        print(
            f"final state: stabilizer tableau, support 2^"
            f"{state.support_rank} of 2^{qc.num_qubits} basis states, "
            f"|amp(0)|^2 = {abs(state.amplitude(0)) ** 2:.6f}"
        )
    return _cross_check(qc, state, "fused - flat") if args.verify else 0


def _cut(args) -> int:
    """Cut, evaluate and recombine one circuit wider than one host."""
    import json

    from .cut import cut_run
    from .serve import BatchRunner

    options = _run_options(args)
    qc = generators.build(args.name, args.qubits)
    want_state = args.state or (args.verify and qc.num_qubits <= 24)
    result = cut_run(
        qc,
        runner=BatchRunner(options),
        max_width=args.max_width,
        max_cuts=args.cuts,
        want_state=want_state,
        shots=args.shots,
        seed=args.seed,
        observables=args.observables or (),
    )
    plan, stats = result.plan, result.stats
    print(
        f"{qc.name}: qubits={qc.num_qubits} gates={len(qc)} "
        f"strategy={options.strategy} max_width={args.max_width}"
    )
    print(plan.summary())
    print(stats.summary())
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
    if args.verify and _cross_check(qc, result.state, "cut - uncut"):
        return 1
    if args.output:
        payload = {
            "circuit": qc.name,
            "qubits": qc.num_qubits,
            "gates": len(qc),
            "strategy": options.strategy,
            "max_width": args.max_width,
            "cuts": plan.num_cuts,
            "fragments": plan.num_fragments,
            "fragment_widths": list(plan.widths),
            "logical_variants": plan.num_variants,
            "variants_evaluated": stats.num_jobs,
            "seconds": stats.seconds,
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

    try:
        jobs, options = load_manifest(args.manifest)
    except OSError as exc:
        # A manifest (or a ``qasm_file`` it names) that is missing, a
        # directory or unreadable is a refused request, not a crash.
        raise ValueError(f"cannot read manifest: {exc}") from None
    runner = BatchRunner(
        _run_options(args, options),
        **_merged(args, ("workers",), options),
    )
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


#: ``ServeConfig`` fields settable by flag (``--queue-limit`` style).
_SERVER_FLAGS = (
    "host", "port", "queue_limit", "workers", "max_batch", "ttl",
    "drain_grace",
)


def _serve(args) -> int:
    """Run the resident serving daemon until drained."""
    from .serve import ServeConfig, ServeDaemon

    config = ServeConfig.from_env(
        run=_run_options(args), **_merged(args, _SERVER_FLAGS)
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
    import socket

    import numpy as np

    from .dist import HiSVSimEngine, verify_exchange_records
    from .dist.transport import SocketTransport
    from .partition import get_partitioner
    from .runtime.comm import SimComm
    from .serve.runner import default_limit

    if not 0 <= args.rank < args.ranks:
        print(f"rank {args.rank} out of range for {args.ranks} ranks")
        return 2
    spmd = args.transport == "socket"
    host, port = args.rendezvous
    if spmd and port == 0 and args.rank != 0:
        print(f"rank {args.rank} needs rank 0's rendezvous port, not 0")
        return 2
    options = _run_options(args)
    qc = generators.build(args.circuit, args.qubits)
    # Before any peer is contacted: a bad rank count cannot mesh.
    comm = SimComm(args.ranks)
    local_bits = comm.local_bits(qc.num_qubits)
    arity = max((gate.num_qubits for gate in qc), default=0)
    if local_bits < arity:
        print(f"{args.ranks} ranks leave {local_bits} local qubits of "
              f"{qc.num_qubits}, but the widest gate acts on {arity}")
        return 2
    limit = options.limit or default_limit(qc.num_qubits, cap=local_bits)
    partition = get_partitioner(options.strategy).partition(qc, limit)

    if spmd:
        listener = None
        if port == 0:  # rank 0 binds an ephemeral port and says which
            listener = socket.create_server((host, 0), backlog=args.ranks)
            port = listener.getsockname()[1]
            print(json.dumps({"rendezvous": f"{host}:{port}"}), flush=True)
        comm = SocketTransport.connect(
            args.rank, args.ranks, args.rendezvous,
            rendezvous_listener=listener,
        )
    try:
        engine = HiSVSimEngine(args.ranks, options=options)
        state, report = engine.run(qc, partition, comm=comm)
        full = state.to_full()  # collective: every rank participates

        problems = []
        if spmd and args.verify:
            problems = verify_exchange_records(
                comm.records, partition, args.qubits, args.ranks, args.rank
            )
        if args.out and (not spmd or args.rank == 0):
            np.save(args.out, full)
        print(json.dumps({
            "rank": args.rank,
            "ranks": args.ranks,
            "circuit": qc.name,
            "transport": args.transport,
            "parts": partition.num_parts,
            "exchanges": report.comm.steps,
            "bytes": report.comm.total_bytes,
            "verified": not problems,
            "problems": problems,
        }))
        return 2 if problems else 0
    finally:
        comm.close()


def _checked(name: str):
    """argparse type for ``--<name>``: an integer ``RunOptions`` accepts
    for that field (its check, not a second one)."""

    def parse(text: str) -> int:
        value = int(text)
        try:
            RunOptions(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = name  # argparse: "invalid <name> value: 'abc'"
    return parse


def _rendezvous(text: str):
    """argparse type for ``--rendezvous``: ``HOST:PORT``; an empty half
    falls back to ``REPRO_DIST_HOST`` / ``REPRO_DIST_PORT``."""
    host, _, port = text.rpartition(":")
    try:
        return (host or env("REPRO_DIST_HOST"),
                int(port) if port else env("REPRO_DIST_PORT"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with an integer port ({exc})"
        ) from None


#: ``add_argument`` keywords of the execution-option flags, keyed by
#: :class:`~repro.config.RunOptions` field.  Every flag defaults to
#: ``None`` = "not given", so :func:`_merged` can tell a flag from a default.
_RUN_FLAGS = {
    "strategy": dict(choices=sorted(STRATEGIES),
                     help=f"partitioner (default: {RunOptions.strategy})"),
    "limit": dict(type=_checked("limit"),
                  help="working-set limit, >= 1 (default: qubits - 3, min 3)"),
    "max_fused_qubits": dict(type=_checked("max_fused_qubits"),
                             help="arity cap for fused dense unitaries, >= 1 "
                                  f"(default: {RunOptions.max_fused_qubits})"),
    "backend": dict(choices=BACKEND_NAMES,
                    help="execution backend (default: REPRO_BACKEND, else "
                         "serial; see docs/configuration.md)"),
    "threads": dict(type=_checked("threads"),
                    help="backend worker count, >= 1 (default: "
                         "REPRO_THREADS, else core count)"),
    "method": dict(choices=METHOD_NAMES,
                   help="simulation method; auto runs leading Clifford-only "
                        "parts on the tableau engine, the rest dense "
                        "(default: REPRO_METHOD)"),
}

#: The options every executing subcommand takes.
_COMMON_RUN_FLAGS = ("strategy", "fuse", "backend", "threads", "method")


def _add_run_options(parser, names) -> None:
    """Add the flags for the named :class:`RunOptions` fields."""
    for name in names:
        if name != "fuse":
            parser.add_argument("--" + name.replace("_", "-"), default=None,
                                **_RUN_FLAGS[name])
            continue
        parser.add_argument("--fuse", dest="fuse", action="store_true",
                            default=None, help="fuse part gates into <= "
                            "max-fused-qubits unitaries (default: on)")
        parser.add_argument("--no-fuse", dest="fuse", action="store_false",
                            help="one kernel sweep per gate")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (everything except ``bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HiSVSIM reproduction driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Help-only stub: real parsing happens in repro.bench.cli (main()
    # dispatches to it before parse_args ever sees "bench").
    sub.add_parser(
        "bench",
        help="the paper's tables and figures, and the model-metric gate: "
             "list, run, compare",
    )

    p_circ = sub.add_parser("circuit", help="inspect a generated circuit")
    p_circ.add_argument("name")
    p_circ.add_argument("--qubits", type=int, default=16)
    p_circ.add_argument("--qasm", action="store_true", help="print OpenQASM")

    p_sim = sub.add_parser(
        "simulate", help="partition + hierarchically execute a circuit"
    )
    p_sim.add_argument("name")
    p_sim.add_argument("--qubits", type=int, default=16)
    _add_run_options(p_sim, _COMMON_RUN_FLAGS + ("limit", "max_fused_qubits"))
    p_sim.add_argument("--verify", action="store_true",
                       help="cross-check against the flat simulator "
                            "(<= 24 qubits)")

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
    p_cut.add_argument("--max-width", type=int, required=True,
                       help="max fragment width in qubits (the memory "
                            "budget; there is no safe universal default)")
    p_cut.add_argument("--cuts", type=int, default=None,
                       help="reject plans needing more than this many "
                            "wire cuts (default: no budget)")
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
    _add_run_options(p_cut, _COMMON_RUN_FLAGS + ("max_fused_qubits",))
    p_cut.add_argument("--verify", action="store_true",
                       help="cross-check the recombined state against "
                            "the uncut flat simulator (<= 24 qubits)")

    p_batch = sub.add_parser(
        "batch",
        help="run a JSON job manifest through the batched serving runtime",
        description="Batched multi-circuit execution (repro.serve): jobs "
                    "from a JSON manifest share partition and compiled-plan "
                    "caches across structurally identical circuits. Flags "
                    "override same-named manifest options. Manifest "
                    "schema: docs/serving.md.",
    )
    p_batch.add_argument("manifest", help="path to the JSON job manifest")
    p_batch.add_argument("-o", "--output", default=None,
                         help="write a JSON results manifest here")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="concurrent jobs (default: 1)")
    _add_run_options(p_batch, _COMMON_RUN_FLAGS + ("limit",))

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
    for name in _SERVER_FLAGS:
        var = f"REPRO_SERVE_{name.upper()}"
        p_serve.add_argument(
            "--" + name.replace("_", "-"), type=ENV[var].cast, default=None,
            help=f"{ENV[var].effect} (default: {var} or {ENV[var].default})")
    _add_run_options(p_serve, _COMMON_RUN_FLAGS + ("limit",))

    p_dw = sub.add_parser(
        "dist-worker",
        help="run one rank of a distributed socket simulation",
        description="One SPMD rank of a multi-process run (repro.dist): "
                    "builds the circuit and partition deterministically, "
                    "joins the TCP mesh through the rank-0 rendezvous, "
                    "executes with HiSVSimEngine, and verifies observed "
                    "per-exchange traffic against the closed-form dry-run "
                    "model (non-zero exit on any mismatch). Without --limit "
                    "the per-width default is capped at the shard width. "
                    "Defaults come "
                    "from REPRO_DIST_* (docs/configuration.md).",
    )
    p_dw.add_argument("--rank", type=int, required=True,
                      help="this worker's rank in [0, ranks)")
    p_dw.add_argument("--ranks", type=int, required=True,
                      help="total rank count (power of two)")
    p_dw.add_argument("--rendezvous", type=_rendezvous, default=":",
                      help="HOST:PORT of rank 0's rendezvous listener "
                           "(default: REPRO_DIST_HOST:REPRO_DIST_PORT); "
                           "port 0 makes rank 0 bind a free port and print "
                           "it first, as {\"rendezvous\": \"HOST:PORT\"}")
    p_dw.add_argument("--circuit", required=True,
                      help="generator name (see `repro circuit`)")
    p_dw.add_argument("--qubits", type=int, default=10)
    _add_run_options(p_dw, ("strategy", "limit"))
    p_dw.add_argument("--transport", default="socket",
                      choices=["socket", "recording"],
                      help="amplitude transport (default: socket)")
    p_dw.add_argument("--out", default=None,
                      help="write the gathered full state here as .npy "
                           "(rank 0 only under the socket transport)")
    p_dw.add_argument("--verify", dest="verify", action="store_true",
                      default=True,
                      help="check records against the traffic model "
                           "(default: on)")
    p_dw.add_argument("--no-verify", dest="verify", action="store_false",
                      help="skip the traffic-model check")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # ``repro bench`` owns its own argparse tree (list/run/compare);
    # dispatch before this parser so its flags stay isolated.
    if argv[:1] == ["bench"]:
        from .bench.cli import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)

    handlers = {"circuit": _circuit, "simulate": _simulate, "cut": _cut,
                "batch": _batch, "serve": _serve, "dist-worker": _dist_worker}
    try:
        return handlers[args.command](args)
    except (ValueError, MemoryError) as exc:
        # The typed refusal of a request: an unknown generator, strategy,
        # backend (a manifest bypasses argparse), a circuit
        # the partitioner (``PartitionError``) or the cutter (``CutError``)
        # cannot place, an option out of range, a rank count that cannot
        # mesh, a manifest that cannot be read, a state that cannot be
        # allocated.  One line, exit code 2 -- never a traceback.
        print(exc if str(exc) else type(exc).__name__)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
