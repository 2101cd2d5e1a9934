#!/usr/bin/env python3
"""Golden digests and phase timing for the dagP partitioner.

A change under ``partition/dagp/`` or ``dag/gategraph.py`` that is meant
to be faster and nothing else must leave every gate in its part.  This
script pins that: one digest (``bench_partitioners.partition_digest``)
per case of a fixed list -- the 17 ``deep_cold12``-shaped deep circuits,
every generator at three widths and two limits, the paper suite at three
scales and three limits, and four non-default configurations.

    PYTHONPATH=src python scripts/partition_digests.py --write   # parent tree
    PYTHONPATH=src python scripts/partition_digests.py --check   # exit 1 on a diff
    PYTHONPATH=src python scripts/partition_digests.py --time [--cases deep/] \
        [--repeat N]

``--write`` belongs to the commit *before* a partitioner change;
``tests/test_dagp_golden.py`` is ``--check`` in tier 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import statistics
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dag import GateGraph
from repro.partition import Partition
from repro.partition.dagp import DagPPartitioner, driver
from repro.serve import default_limit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST_FILE = os.path.join(REPO, "tests", "data", "dagp_digests.json")


def _partition_digest() -> Callable[[Partition], str]:
    # Under load_benchmarks' module name, so discovery stays idempotent.
    name = "repro_benchmarks.bench_partitioners"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(REPO, "benchmarks", "bench_partitioners.py")
        )
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].partition_digest


partition_digest = _partition_digest()

# (family, width, depth): the shapes of benchmarks/perf's deep_cold12,
# rebuilt here so tier 1 does not import the perf harness.  Only the
# structure matters to a partitioner, so angles are the generators' own.
DEEP_SPECS: Tuple[Tuple[str, int, int], ...] = (
    ("qaoa", 12, 30), ("qaoa", 12, 35), ("qaoa", 12, 40), ("qaoa", 11, 30),
    ("qaoa", 10, 40), ("ising", 11, 50), ("ising", 12, 40), ("ising", 13, 50),
    ("ising", 14, 60), ("qpe", 12, 0), ("qpe", 13, 0), ("qft", 14, 0),
    ("grover", 11, 0), ("qnn", 12, 6), ("qnn", 13, 2), ("mix", 16, 10),
    ("mix", 16, 10),
)  # fmt: skip


def deep_circuit(family: str, n: int, depth: int, index: int) -> QuantumCircuit:
    rng = random.Random(f"deep:{index}")
    if family == "qaoa":
        return generators.qaoa(n, p=depth)
    if family == "ising":
        return generators.ising(n, steps=depth)
    if family == "qft":
        qc = QuantumCircuit(n)
        for q in sorted(rng.sample(range(n), n // 2)):
            qc.x(q)
        return qc.compose(generators.qft(n))
    if family == "qnn":
        return generators.qnn(n, layers=depth, seed=rng.randrange(1 << 30))
    if family == "mix":  # Clifford prefix -> T layer -> non-Clifford suffix
        qc = QuantumCircuit(n)
        qc.compose(generators.stabilizer_random(n, seed=rng.randrange(1 << 30)))
        for q in range(n):
            qc.t(q)
        return qc.compose(generators.ising(n, steps=depth))
    return generators.build(family, n)


def cases() -> Iterator[Tuple[str, QuantumCircuit, int, Dict]]:
    """``(key, circuit, limit, DagPPartitioner kwargs)`` per pinned case."""
    deep = []
    for i, (family, n, depth) in enumerate(DEEP_SPECS):
        deep.append(deep_circuit(family, n, depth, i))
        yield f"deep/{i:02d}_{family}{n}", deep[-1], default_limit(n), {}
    for name in generators.GENERATORS:
        for n in (9, 13, 17):
            qc = generators.build(name, n)
            for limit in (n - 3, (n + 1) // 2):
                yield f"gen/{name}{n}/L{limit}", qc, limit, {}
    for base in (12, 16, 20):
        for spec in generators.PAPER_SUITE_SPEC:
            n = base + spec["offset"]
            qc = generators.build(spec["gen"], n)
            for limit in (n - 3, (2 * n) // 3, (n + 1) // 2):
                yield f"suite{base}/{spec['key']}/L{limit}", qc, limit, {}
    configs = (
        {"use_ggg": False},
        {"do_merge": False},
        {"seed": 11},
        {"refine_passes": 1},
    )
    for kwargs in configs:
        tag = ",".join(f"{k}={v}" for k, v in kwargs.items())
        for i in (3, 7, 13):  # qaoa11, ising13, qnn12
            family, n, _ = DEEP_SPECS[i]
            yield f"config/{tag}/{family}{n}", deep[i], default_limit(n), kwargs


def compute_digests() -> Dict[str, str]:
    return {
        key: partition_digest(DagPPartitioner(**kwargs).partition(qc, limit))
        for key, qc, limit, kwargs in cases()
    }


def diff_digests(want: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """One line per case whose digest differs or that only one side has."""
    return [
        f"{key}: expected {want.get(key)}, got {got.get(key)}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]


def check(path: str = DIGEST_FILE) -> List[str]:
    with open(path, encoding="utf-8") as fh:
        return diff_digests(json.load(fh)["digests"], compute_digests())


# -- phase timing -----------------------------------------------------------

# (label, owner, attribute) of each call one dagP partition() is made of;
# nested phases (contract inside coarsen) are listed indented.
PHASES = (
    ("GateGraph.from_circuit", GateGraph, "from_circuit"),
    ("coarsen", driver, "coarsen"),
    ("  GateGraph.contract", GateGraph, "contract"),
    ("initial_bisection", driver, "initial_bisection"),
    ("refine_bisection", driver, "refine_bisection"),
    ("GateGraph.induce", GateGraph, "induce"),
    ("greedy_grow_assignment", driver, "greedy_grow_assignment"),
    ("merge_assignment", driver, "merge_assignment"),
    ("Partition.from_assignment", Partition, "from_assignment"),
)


def time_phases(
    prefix: str = "", repeat: int = 1
) -> Tuple[float, int, List[Tuple[str, int, float]]]:
    """``repeat`` sweeps over the :func:`cases` whose key starts with
    ``prefix``, every phase wrap-timed in CPU seconds of this process.

    Returns ``(total seconds, cases, [(label, calls, seconds) ...])``,
    each a median over the sweeps (calls are per sweep); the wrappers
    cost ~0.2 us a call, so the total reads a few percent above an
    untimed sweep.
    """
    sweeps = []
    saved = []
    stats: Dict[str, List] = {}

    def wrap(label: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = stats[label]
                cell[0] += 1
                cell[1] += time.process_time() - t0

        return timed

    for label, owner, attr in PHASES:
        raw = owner.__dict__[attr]
        saved.append((owner, attr, raw))
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(wrap(label, raw.__func__))
        else:
            wrapped = wrap(label, raw)
        setattr(owner, attr, wrapped)
    try:
        todo = [case for case in cases() if case[0].startswith(prefix)]
        for _ in range(repeat):
            stats.update({label: [0, 0.0] for label, _, _ in PHASES})
            t0 = time.process_time()
            for _, qc, limit, kwargs in todo:
                DagPPartitioner(**kwargs).partition(qc, limit)
            sweeps.append((time.process_time() - t0, dict(stats)))
    finally:
        for owner, attr, raw in saved:
            setattr(owner, attr, raw)
    rows = [
        (label, sweeps[0][1][label][0],
         statistics.median(sweep[label][1] for _, sweep in sweeps))
        for label, _, _ in PHASES
    ]
    return statistics.median(t for t, _ in sweeps), len(todo), rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--time", action="store_true")
    parser.add_argument("--file", default=DIGEST_FILE, help="digest JSON")
    parser.add_argument(
        "--commit", default="", help="with --write: the commit digested"
    )
    parser.add_argument(
        "--cases", default="", help="with --time: only keys with this prefix"
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="with --time: sweeps, each phase's median reported",
    )
    args = parser.parse_args(argv)
    if args.time:
        if args.repeat < 1:
            parser.error("--repeat must be >= 1")
        total, count, rows = time_phases(args.cases, args.repeat)
        print(
            f"dagP over {count} cases: {total:.3f} s CPU "
            f"(median of {args.repeat} sweeps)"
        )
        for label, calls, seconds in rows:
            print(f"  {label:<28}{calls:>7} calls {seconds:>8.3f} s")
        return 0
    if args.write:
        digests = compute_digests()
        with open(args.file, "w", encoding="utf-8") as fh:
            json.dump(
                {"commit": args.commit, "digests": digests}, fh, indent=1
            )
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {args.file}")
        return 0
    problems = check(args.file)
    for line in problems:
        print(line)
    print(f"{len(problems)} dagP partitions differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
