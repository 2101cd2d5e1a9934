"""The measuring child: one workload, one fresh process.

``run.py`` starts this script with every ``REPRO_*`` variable removed and
the BLAS/OpenMP pools pinned to one thread, and reads one JSON object
from the last line of its standard output.  Modes:

``setup``  import, generate inputs, load golden references, run the
           tiny warm-up pass, report how long that took, exit;
``run``    set up, then time cold/warm pass pairs for ``--seconds``
           (at least ``MIN_PAIRS`` of them), verify every output;
``trace``  set up, then the staged pass and probes of ``staged.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

import spec  # noqa: E402
from stats import host_info, median  # noqa: E402
from workloads import Verifier, make_workload  # noqa: E402

MIN_PAIRS = 5


def fingerprint() -> dict:
    """Where and under what this process measured."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    load = os.getloadavg()[0]
    host = host_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": host["nproc"],
        "l2_bytes": host["l2_bytes"],
        "llc_bytes": host["llc_bytes"],
        "thread_pins": {k: os.environ.get(k) for k in spec.THREAD_PINS},
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "loadavg_1m": load,
        # Something else wanted every core when this run started: its
        # numbers are printed with the flag, never silently averaged in.
        "noisy": load > (host["nproc"] or 1),
    }


def load_expected(path: str, workload: str, seed: int, smoke: bool) -> dict:
    """Golden amplitudes for this workload, when they are for this seed
    and these (full) widths."""
    with open(path, encoding="utf-8") as fh:  # a missing file is an error
        doc = json.load(fh)
    if smoke or doc.get("seed") != seed:
        return {}
    return doc.get("workloads", {}).get(workload, {})


class Canary:
    """A fixed loop of interpreter, GEMM and gather/scatter work (a third of
    the time each) that reads the host's speed of the moment.

    This class of VM runs the same instructions 20-30 % faster or slower
    for minutes at a time -- a pure-Python loop included, and with no steal
    time reported -- so raw pass times of one code spread 0.06-0.31 over
    ten runs (README, "How well the timings repeat").  ``measure`` runs
    the canary before every pass and divides the run's pass times by
    ``median canary / spec.CANARY_REF_S``: seconds at the reference host's
    speed, which halves that spread.  The raw wall-clock medians are
    reported beside them.
    """

    SIZE = 1 << 17  # 2 MiB of amplitudes: the per-core L2, so it spills

    def __init__(self) -> None:
        # Allocated once, filled in place and never freed: a large block
        # handed back to malloc would raise its mmap threshold and change
        # how the program's own temporaries are allocated.
        self.matrix = np.full((32, 32), 0.03 + 0.01j)
        self.block = np.full((32, 1024), 1.0 + 1.0j)
        self.product = np.empty((32, 1024), dtype=complex)
        self.state = np.full(self.SIZE, 1.0 + 1.0j)
        self.inner = np.empty(self.SIZE, dtype=complex)
        self.index = np.empty(self.SIZE, dtype=np.int32)
        for lo in range(0, self.SIZE, 4096):  # an odd multiplier permutes
            self.index[lo:lo + 4096] = (
                np.arange(lo, lo + 4096) * 40503 % self.SIZE
            )

    def __call__(self) -> float:
        t0 = time.perf_counter()
        table = {}
        for i in range(300_000):
            table[i & 1023] = (i * 7) ^ (i >> 3)
        for _ in range(200):
            np.matmul(self.matrix, self.block, out=self.product)
        for _ in range(16):
            np.take(self.state, self.index, out=self.inner)
            self.inner *= 1.0000001
            self.state[self.index] = self.inner
        return time.perf_counter() - t0


def measure(workload, seconds: float, verifier: Verifier) -> dict:
    """Closed loop, one client: cold pass, warm pass, repeat until the next
    pair would no longer fit in ``seconds``."""
    cold, warm, speed = [], [], []
    canary = Canary()
    canary()  # its own first touch
    ops = workload.ops_per_pass()
    start = time.perf_counter()
    k = 0
    while k < MIN_PAIRS or (
        (time.perf_counter() - start) * (k + 1) / k < seconds
    ):
        workload.prepare(k)
        gc.collect()
        try:
            speed.append(canary())
            t0 = time.perf_counter()
            ctx, outputs = workload.cold(k)
            cold.append(time.perf_counter() - t0)
            verifier.add_pass(outputs, k, False)
            del outputs
            gc.collect()
            speed.append(canary())
            t0 = time.perf_counter()
            outputs = workload.warm(ctx, k)
            warm.append(time.perf_counter() - t0)
            verifier.add_pass(outputs, k, True)
            del outputs, ctx
        except Exception as exc:  # counted as failed operations below
            verifier.add_error(ops, f"pass {k} raised {type(exc).__name__}: {exc}")
        k += 1
    # > 1: the host ran slower than the reference while this run measured.
    slowdown = median(speed) / spec.CANARY_REF_S
    return {
        "cold": [t / slowdown for t in cold],
        "warm": [t / slowdown for t in warm],
        "host_slowdown": slowdown,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() just before the parent spawned us")
    args = parser.parse_args(argv)
    spawned = args.spawned_at if args.spawned_at is not None else time.time()
    env = fingerprint()

    t0 = time.perf_counter()
    workload = make_workload(args.workload, args.seed, args.smoke)
    workload.prepare(0)
    build_s = time.perf_counter() - t0
    expected = load_expected(
        args.expected, args.workload, args.seed, args.smoke
    )
    # Warm the interpreter, BLAS and every code path on the small twin so
    # that cold_s measures cold caches, not a cold process.
    twin = workload if args.smoke else make_workload(
        args.workload, args.seed, smoke=True
    )
    twin.prepare(0)
    twin.warm(twin.cold(0)[0], 0)
    setup_s = time.time() - spawned

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "smoke": args.smoke,
        "setup_s": setup_s,
        "env": env,
    }
    if args.mode != "setup":
        verifier = Verifier(workload, expected)
        if args.mode == "run":
            out.update(measure(workload, args.seconds, verifier))
        else:
            from staged import run_traced

            out.update(
                run_traced(
                    workload,
                    args.seconds,
                    verifier,
                    build_s,
                    str(HERE / "out" / f"trace_{args.workload}.json"),
                )
            )
        # Read before the oracles run: their reference states are the
        # harness's memory, not the program's.
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        verifier.finish()
        out.update(
            attempted=verifier.attempted,
            failed=verifier.failed,
            failures=verifier.failures,
            oracles=sorted(verifier.oracles),
            source_gates=workload.source_gates(),
            gate_amps=workload.gate_amps(),
            ops_per_pass=workload.ops_per_pass(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
