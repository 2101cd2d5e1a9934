"""Alternating parent/change pairs of the repository's benchmark command.

Runs the ``BENCHMARK.json`` command once per workload, pair and side::

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T \\
        --trace 0 --json OUT

on the *change* (this checkout) and on the *parent*, a checkout given as
``--parent-dir`` — made with ``git clone`` or ``git archive REV | tar -x
-C DIR``, so the script never touches this repository's git state and
one parent copy serves every invocation.  Pair ``i`` (1-based) runs
at seed ``--seed + i - 1``; odd pairs run the parent first.  It then
prints, per workload, the Markdown table ``docs/benchmarks.md`` uses --
for each end-to-end metric the parent and change median with [q1–q3],
the change in the median and the pairs in which the change read lower
-- followed by every run, pair by pair.  A metric is "unresolved" when
the parent's own quartile spread exceeds the metric's bound, and "over
bound" when the change's median is worse than the parent's by more than
it.  ``--claim WORKLOAD.METRIC`` ends the output with one verdict line,
"met" or "not met": the change must be better, in the metric's
``better`` direction, in at least nine tenths of the pairs (ties count
for neither side), and its median must differ from the parent's by more
than the parent's quartile spread (q3 - q1).

Usage::

    python scripts/bench_pairs.py --parent-dir DIR [--pairs 10] [--seed 1]
        [--seconds 30] [--workload W ...] [--claim WORKLOAD.METRIC]

Nothing under ``benchmarks/perf`` is touched.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Decimals per metric unit in the table.
DECIMALS = {"s": 3, "MiB": 2, "ratio": 3}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` by linear interpolation between order
    statistics.

    >>> quartiles([4, 1, 3, 2, 5])
    (2.0, 3.0, 4.0)
    """
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(fraction: float) -> float:
        pos = fraction * last
        lo = int(pos)
        hi = min(lo + 1, last)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_table(
    workload: str,
    parent: Sequence[dict],
    change: Sequence[dict],
    metrics: Sequence[dict],
) -> List[str]:
    """The Markdown rows of one workload's pairs: ``parent[i]`` and
    ``change[i]`` are pair ``i``'s result documents (``run.py --json``),
    ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json``."""
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        digits = DECIMALS.get(metric["unit"], 3)
        a = [run["end_to_end"][name]["value"] for run in parent]
        b = [run["end_to_end"][name]["value"] for run in change]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(a), quartiles(b)
        delta = (cm - pm) / pm if pm else 0.0
        worse = -delta if metric["better"] == "higher" else delta
        notes = []
        if pm and (pq3 - pq1) / pm > bound:
            notes.append("unresolved")
        if worse > bound:
            notes.append("**over bound**")
        lower = sum(y < x for x, y in zip(a, b))
        rows.append(
            f"| {f'`{workload}`' if not rows else ''} | `{name}` "
            f"| {pm:.{digits}f} [{pq1:.{digits}f}–{pq3:.{digits}f}] "
            f"| {cm:.{digits}f} [{cq1:.{digits}f}–{cq3:.{digits}f}] "
            f"| {delta:+.1%}{''.join(f' ({n})' for n in notes)} "
            f"| {lower}/{len(a)} |"
        )
    return rows


def every_run(
    parent: Sequence[dict], change: Sequence[dict], metrics: Sequence[dict]
) -> List[str]:
    """One line per metric: each pair's parent/change value, and the
    operations that failed on each side."""
    lines = []
    for metric in metrics:
        name, digits = metric["name"], DECIMALS.get(metric["unit"], 3)
        pairs = " ".join(
            f"{p['end_to_end'][name]['value']:.{digits}f}/"
            f"{c['end_to_end'][name]['value']:.{digits}f}"
            for p, c in zip(parent, change)
        )
        lines.append(f"`{name}` (parent/change): {pairs}")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        lines.append(f"{side}: {failed} failed of {attempted} operations")
    return lines


def claim_verdict(
    parent: Sequence[dict], change: Sequence[dict], metric: dict
) -> Tuple[bool, str]:
    """Whether the change's gain on ``metric`` (an ``end_to_end`` entry
    of ``BENCHMARK.json``) is claimable from these pairs, and the
    verdict line that says so.

    >>> lower = {"name": "t", "unit": "s", "better": "lower"}
    >>> runs = lambda *v: [{"end_to_end": {"t": {"value": x}}} for x in v]
    >>> claim_verdict(runs(2, 2, 3), runs(1, 1, 1), lower)[0]
    True
    >>> print(claim_verdict(runs(2, 2, 3), runs(1, 2, 1), lower)[1])
    not met (better in 2/3 pairs; median 2.000 -> 1.000, gain 1.000 against
    the parent's q3 - q1 of 0.500)
    """
    name = metric["name"]
    a = [run["end_to_end"][name]["value"] for run in parent]
    b = [run["end_to_end"][name]["value"] for run in change]
    sign = 1 if metric["better"] == "higher" else -1
    better = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    (pq1, pm, pq3), (_, cm, _) = quartiles(a), quartiles(b)
    gain = sign * (cm - pm)
    met = 10 * better >= 9 * len(a) and gain > pq3 - pq1
    digits = DECIMALS.get(metric["unit"], 3)
    return met, (
        f"{'met' if met else 'not met'} (better in {better}/{len(a)} pairs; "
        f"median {pm:.{digits}f} -> {cm:.{digits}f}, "
        f"{'gain' if gain > 0 else 'loss'} {abs(gain):.{digits}f} against "
        f"the parent's q3 - q1 of {pq3 - pq1:.{digits}f})"
    )


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its ``--json`` result document."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "result.json")
        subprocess.run(
            [sys.executable, "benchmarks/perf/run.py", "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0", "--json", out],
            cwd=checkout, stdout=subprocess.DEVNULL, check=True,
        )
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--workload", action="append",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--parent-dir", required=True,
                        help="a checkout of the parent revision")
    parser.add_argument("--claim", metavar="WORKLOAD.METRIC",
                        help="print whether a gain on it is claimable")
    args = parser.parse_args(argv)

    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    claim = None
    if args.claim is not None:
        workload, _, name = args.claim.partition(".")
        by_name = {m["name"]: m for m in metrics}
        if workload not in workloads or name not in by_name:
            parser.error(
                f"--claim {args.claim!r}: need WORKLOAD.METRIC with a "
                f"workload of {workloads} and a metric of {sorted(by_name)}"
            )
        claim = workload, by_name[name]
    runs: Dict[str, Dict[str, List[dict]]] = {
        w: {"parent": [], "change": []} for w in workloads
    }
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for workload in workloads:
            for name in order:
                checkout = args.parent_dir if name == "parent" else REPO
                runs[workload][name].append(run_once(
                    checkout, workload, args.seed + i - 1, seconds
                ))
            print(f"pair {i}/{args.pairs}: {workload} done", file=sys.stderr)

    print("| workload | metric | parent | change | Δ median | lower |")
    print("| --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        for row in pair_table(workload, runs[workload]["parent"],
                              runs[workload]["change"], metrics):
            print(row)
    for workload in workloads:
        print(f"\n{workload}:")
        for line in every_run(runs[workload]["parent"],
                              runs[workload]["change"], metrics):
            print(f"  {line}")
    if claim is not None:
        workload, metric = claim
        _, line = claim_verdict(runs[workload]["parent"],
                                runs[workload]["change"], metric)
        print(f"\nclaim {workload}.{metric['name']}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
