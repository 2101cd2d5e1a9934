"""``repro bench`` — list, run and gate registered benchmarks.

Usage::

    repro bench list [--tag smoke]
    repro bench run [NAME ...] [--tag smoke] [--json BENCH_smoke.json]
                    [--set KEY=VALUE] [--save]
    repro bench compare run.json baseline.json

``run`` with no names and no tag executes every registered benchmark,
prints the paper-shaped table of each result that carries one, and
exits 2 when a benchmark's own claims (``ok``) do not hold.
``--tag smoke`` additionally applies each benchmark's registered
smoke-size parameters, which is what CI runs and what
``benchmarks/baselines/smoke.json`` was recorded with.  ``compare``
exits 1 when a model metric, a parameter or the coverage differs from
the baseline; it compares no timings.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .compare import compare_suites
from .registry import BenchError, load_benchmarks, select
from .runner import _parse_set, render_suite, run_suite, save_per_benchmark
from .schema import BenchSuite, SchemaError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Unified benchmark registry: list, run, compare.",
    )
    sub = parser.add_subparsers(dest="bench_command", required=True)

    p_list = sub.add_parser("list", help="list registered benchmarks")
    p_list.add_argument("--tag", default=None, help="filter by tag")

    p_run = sub.add_parser("run", help="run benchmarks by name or tag")
    p_run.add_argument("names", nargs="*", help="benchmark names (default: "
                       "all, or the --tag selection)")
    p_run.add_argument("--tag", default=None,
                       help="run every benchmark carrying this tag "
                            "(tag 'smoke' also applies smoke-size params)")
    p_run.add_argument("--json", default=None, metavar="PATH",
                       help="write the suite JSON here (BENCH_<suite>.json)")
    p_run.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides",
                       help="override a parameter on every selected "
                            "benchmark that declares it (repeatable)")
    p_run.add_argument("--smoke", action="store_true", default=None,
                       help="force smoke-size parameters regardless of tag")
    p_run.add_argument("--save", action="store_true",
                       help="also write per-benchmark JSON entries (and "
                            "tables) under results/bench/")

    p_cmp = sub.add_parser("compare",
                           help="gate a run against a baseline suite")
    p_cmp.add_argument("run", help="suite JSON produced by 'repro bench run'")
    p_cmp.add_argument("baseline", help="baseline suite JSON "
                       "(e.g. benchmarks/baselines/smoke.json)")
    return parser


def _cmd_list(args) -> int:
    registry = load_benchmarks()
    benches = select(tag=args.tag, registry=registry)
    width = max(len(b.name) for b in benches)
    for bench in benches:
        tags = ",".join(bench.tags) or "-"
        print(f"{bench.name:<{width}}  [{tags}]  {bench.description}")
    print(f"{len(benches)} benchmarks")
    return 0


def _cmd_run(args) -> int:
    load_benchmarks()
    suite = run_suite(
        names=args.names or None,
        tag=args.tag,
        overrides=_parse_set(args.overrides),
        smoke=args.smoke,
        progress=lambda name: print(f"[bench] running {name} …", flush=True),
    )
    for result in suite.results:
        if "table" in result.info:
            print(result.info["table"])
    print(render_suite(suite))
    if args.json:
        suite.write(args.json)
        print(f"[bench] suite written to {args.json}")
    if args.save:
        out_dir = save_per_benchmark(suite)
        print(f"[bench] per-benchmark entries under {out_dir}/")
    return 0


def _cmd_compare(args) -> int:
    run = BenchSuite.load(args.run)
    baseline = BenchSuite.load(args.baseline)
    report = compare_suites(run, baseline)
    print(report.render())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.bench_command == "list":
            return _cmd_list(args)
        if args.bench_command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (BenchError, SchemaError, OSError) as exc:
        print(f"repro bench: {exc}")
        return 2
