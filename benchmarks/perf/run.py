"""The repo's performance benchmark: one command, every metric by name.

    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, one mode; the last line of stdout is the result
        object the benchmark driver reads.
    python benchmarks/perf/run.py [--seed N] [--trace] [--json OUT]
        every workload (untraced, then traced with ``--trace``), printed
        as tables and written to OUT for ``compare``.
    python benchmarks/perf/run.py --selfcheck [--trace]
        two interleaved sets of runs of the same code and seed, judged
        against each metric's own bound.
    python benchmarks/perf/run.py compare A.json B.json
        diff two result files layer by layer.

Measures from outside: each workload runs in a fresh subprocess
(``worker.py``) with ``REPRO_*`` scrubbed and BLAS/OpenMP pinned to one
thread, and only public functions of ``repro`` are called.  Exits
non-zero when any output fails verification.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from compare import compare_files, median_ratio_ok  # noqa: E402
from stats import summary  # noqa: E402

#: Fresh processes whose set-up time is measured per untraced run (the
#: measuring process is the last of them).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """The parent's environment minus every program knob, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: "1" for name in spec.THREAD_PINS})
    env.pop("PYTHONPATH", None)  # worker.py finds src/ next to benchmarks/
    return env


def run_child(args: argparse.Namespace, workload: str, mode: str) -> dict:
    """One ``worker.py`` process, waited for; returns its result object."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--spawned-at", repr(time.time()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.expected:
        cmd += ["--expected", args.expected]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker for {workload} ({mode}) exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(args: argparse.Namespace, workload: str, traced: bool) -> dict:
    """One workload in one mode: the numbers plus the verification verdict."""
    if traced:
        child = run_child(args, workload, "trace")
        result = {
            "per_layer": child["metrics"],
            "probe_errors": child["probe_errors"],
            "staged_passes": child["staged_passes"],
            "latency_samples": child["latency_samples"],
        }
    else:
        setups = [
            run_child(args, workload, "setup")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        child = run_child(args, workload, "run")
        setups.append(child["setup_s"])
        samples = {
            "setup_s": setups,
            "cold_s": child["cold"],
            "warm_s": child["warm"],
            "peak_rss_mb": [child["peak_rss_mb"]],
            "verified_frac": [1.0 - child["failed"] / child["attempted"]],
        }
        e2e = {
            name: summary(samples[name], unit)
            for name, (unit, _, _) in spec.END_TO_END.items()
        }
        warm = e2e["warm_s"]["value"]
        result = {
            "end_to_end": e2e,
            "samples": samples,
            "info": {
                # The same measurement as warm_s, as rates; not gated.
                "gate_amps_per_s": child["gate_amps"] / warm,
                "jobs_per_s": child["ops_per_pass"] / warm,
                "source_gates": child["source_gates"],
                # Wall-clock medians: the reported ones times how much
                # slower than the reference the host's canary loop ran.
                "host_slowdown": child["host_slowdown"],
                "cold_wall_s": e2e["cold_s"]["value"] * child["host_slowdown"],
                "warm_wall_s": warm * child["host_slowdown"],
            },
        }
    failed = child["failed"]
    result.update(
        workload=workload,
        seed=args.seed,
        traced=traced,
        attempted=child["attempted"],
        failed=failed,
        failed_frac=failed / max(1, child["attempted"]),
        correct=failed == 0 and child["attempted"] > 0,
        failures=child["failures"],
        oracles=child["oracles"],
        env=child["env"],
    )
    return result


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_result(result: dict) -> None:
    name = result["workload"]
    env = result["env"]
    flag = "  ** noisy: load average above nproc **" if env["noisy"] else ""
    print(
        f"[{name}] seed={result['seed']} "
        f"oracle={'+'.join(result['oracles']) or 'none'} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"failed_frac={result['failed_frac']:.6g} "
        f"load={env['loadavg_1m']:.2f}{flag}"
    )
    for why in result["failures"]:
        print(f"[{name}]   FAILED {why}")
    for metric, s in result.get("end_to_end", {}).items():
        print(
            f"[{name}] {metric:<12} {s['value']:.6g} {s['unit']}  "
            f"(median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        )
    for key, value in result.get("info", {}).items():
        print(f"[{name}]   info {key} = {_fmt(value)}")
    for metric, value in result.get("per_layer", {}).items():
        unit = spec.PER_LAYER[metric].unit
        tag = " (exact)" if spec.PER_LAYER[metric].exact else ""
        print(f"[{name}] {metric:<34} {_fmt(value)} {unit}{tag}")
    for err in result.get("probe_errors", []):
        print(f"[{name}]   PROBE ERROR {err}")


def driver_line(result: dict) -> str:
    """The one-line result object of the benchmark contract."""
    if result["traced"]:
        metrics = {
            name: {"value": value, "unit": spec.PER_LAYER[name].unit}
            for name, value in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": s["value"], "unit": s["unit"]}
            for name, s in result["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def shares(untraced: dict, traced: dict) -> Dict[str, object]:
    """How much of the workload's headline metric its own layer covers."""
    metric, layers, floor = spec.DOMINANT_SHARES[untraced["workload"]]
    values = [traced["per_layer"].get(name) for name in layers]
    if any(v is None for v in values):
        return {"of": metric, "layers": list(layers), "share": None, "floor": floor}
    # Layer times are wall clock, so the base is the wall-clock median too.
    base = untraced["info"][metric.replace("_s", "_wall_s")]
    return {
        "of": metric,
        "layers": list(layers),
        "share": sum(values) / base,
        "floor": floor,
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, untraced then (with ``--trace``) traced."""
    doc = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_commit": git_commit(),
        "workloads": {},
    }
    for name in spec.WORKLOADS:
        untraced = run_workload(args, name, traced=False)
        print_result(untraced)
        entry = {"untraced": untraced}
        if args.trace:
            traced = run_workload(args, name, traced=True)
            print_result(traced)
            entry["traced"] = traced
            entry["dominant_share"] = shares(untraced, traced)
            s = entry["dominant_share"]
            print(
                f"[{name}] {' + '.join(s['layers'])} = "
                f"{_fmt(s['share'])} of {s['of']} (built for >= {s['floor']})"
            )
        doc["workloads"][name] = entry
    return doc


def all_correct(doc: dict) -> bool:
    return all(
        run["correct"]
        for entry in doc["workloads"].values()
        for key, run in entry.items()
        if key in ("untraced", "traced")
    )


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code and seed: do they agree?

    A set is ``spec.SELFCHECK_RUNS`` untraced runs per gated workload, the
    two sets interleaved so a slow few minutes on the host falls on both;
    a metric's value for a set is the median of its runs' values, which is
    how the benchmark driver compares two commits (with 10).
    With ``--trace`` each set also makes one traced run and every exact
    count must be identical between them.
    """
    sets = ({}, {})
    ok = True
    gated = [name for name in spec.WORKLOADS if name not in spec.UNGATED]
    for _ in range(spec.SELFCHECK_RUNS):
        for runs in sets:
            for name in gated:
                result = run_workload(args, name, traced=False)
                print_result(result)
                ok = ok and result["correct"]
                runs.setdefault(name, []).append(result["end_to_end"])
    print(f"\nselfcheck: set A vs set B (same code, same seed, "
          f"{spec.SELFCHECK_RUNS} runs per set)")
    for name in gated:
        for metric, (unit, _, bound) in spec.END_TO_END.items():
            a, b = (
                summary([run[metric]["value"] for run in runs[name]], unit)
                for runs in sets
            )
            verdict = "PASS" if median_ratio_ok(a, b, bound) else "UNRESOLVED"
            ok = ok and verdict == "PASS"
            print(
                f"  {name:<14} {metric:<12} A={a['value']:.6g} "
                f"B={b['value']:.6g} ratio={b['value'] / a['value']:.4f} "
                f"bound={bound:.2f} {verdict}"
            )
    if args.trace:
        for name in spec.WORKLOADS:  # counts repeat on the ungated ones too
            a, b = (run_workload(args, name, traced=True) for _ in sets)
            ok = ok and a["correct"] and b["correct"]
            for metric in spec.exact_names():
                va, vb = a["per_layer"][metric], b["per_layer"][metric]
                if va != vb:
                    ok = False
                    print(f"  {name:<14} {metric} exact count differs: {va} vs {vb}")
            print(f"  {name:<14} {len(spec.exact_names())} exact counts compared")
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare_files(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0)
    parser.add_argument("--json", metavar="OUT",
                        help="write the full result document here")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every width by 8 qubits (self-tests)")
    parser.add_argument("--expected", metavar="PATH",
                        help="golden amplitudes (default: expected.json)")
    args = parser.parse_args(argv)

    try:
        return dispatch(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        # A worker died or hung: no result line, non-zero exit.
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


def dispatch(args: argparse.Namespace) -> int:
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        result = run_workload(args, args.workload, traced=bool(args.trace))
        print_result(result)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
        print(driver_line(result))
        return 0 if result["correct"] else 1
    doc = run_all(args)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if all_correct(doc) else 1


if __name__ == "__main__":
    sys.exit(main())
