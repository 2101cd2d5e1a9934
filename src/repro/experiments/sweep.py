"""The shared (circuit x ranks x algorithm) sweep behind Figs. 5-9.

One sweep produces every RunReport the multi-node figures need: the three
HiSVSIM strategies plus the IQS baseline, for every circuit of the suite
and every rank count of its group.  Results are cached per scale.  The
five figures are readings of it: a report field is read where it is
used, and the values computed from several reports, with each figure's
table, are the :class:`SweepResult` methods below.

Figs. 7-9 report ``RunReport.comm_seconds`` as the paper's "average
per-rank" communication time.  It is the alpha-beta time of the
*busiest* rank's bytes and messages, and here that is also the average:
both engines only ever swap a local bit position with a rank position,
so every rank moves the same traffic — ``max_bytes_per_rank * ranks ==
total_bytes``, and the same for messages, in every report of a sweep
(``tests/test_experiments.py`` asserts it over the tiny one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.perfprofile import ProfileCurve, performance_profile
from ..analysis.tables import geomean, render_table
from ..dist.hisvsim import HiSVSimEngine
from ..dist.iqs import IQSEngine
from ..runtime.metrics import RunReport
from .common import (
    SCALES,
    STRATEGY_ORDER,
    Scale,
    partition_cached,
    ranks_for,
    suite_circuits,
)

__all__ = ["SweepResult", "run_sweep", "ALGORITHMS"]

ALGORITHMS = STRATEGY_ORDER + ("Intel",)

#: Fig. 5's headline: dagP's geometric-mean factor over IQS across rank
#: configurations (per instance it ranges 1.15x, qpe, to 3.87x,
#: adder37, and averages 3.0x, 2.5-3.9x, on the >=35-qubit circuits).
PAPER_GEOMEAN_DAGP = 1.7

#: Fig. 9's thetas, up to the paper's "within 1.3x of best everywhere".
PROFILE_THETAS = (1.0, 1.1, 1.2, 1.3, 1.5, 2.0)


@dataclass
class SweepResult:
    """All reports of one sweep, indexed by (circuit, ranks, algorithm)."""

    scale: Scale
    reports: Dict[Tuple[str, int, str], RunReport]

    def circuits(self) -> List[str]:
        return sorted({k[0] for k in self.reports})

    def ranks(self, circuit: str) -> List[int]:
        return sorted({k[1] for k in self.reports if k[0] == circuit})

    def instances(self) -> List[Tuple[str, int]]:
        """Every (circuit, ranks) the sweep ran, in table order."""
        return [(c, r) for c in self.circuits() for r in self.ranks(c)]

    def get(self, circuit: str, ranks: int, algorithm: str) -> RunReport:
        return self.reports[(circuit, ranks, algorithm)]

    # -- Fig. 5: improvement factor over Intel IQS -------------------------

    def improvement_factor(self, circuit: str, ranks: int, strategy: str) -> float:
        """Paper Fig. 5 metric: IQS total / strategy total."""
        iqs = self.get(circuit, ranks, "Intel").total_seconds
        ours = self.get(circuit, ranks, strategy).total_seconds
        return iqs / ours if ours > 0 else float("inf")

    def factors(self, strategy: str) -> List[float]:
        """``strategy``'s improvement factor on every instance."""
        return [
            self.improvement_factor(c, r, strategy) for c, r in self.instances()
        ]

    def geomean_at_max_ranks(self, strategy: str) -> float:
        """Paper's summary: factor at each circuit's largest rank count."""
        return geomean(
            [
                self.improvement_factor(c, self.ranks(c)[-1], strategy)
                for c in self.circuits()
            ]
        )

    def fig5_table(self) -> str:
        return render_table(
            ["circuit", "ranks", "Nat", "DFS", "dagP"],
            [
                (c, r)
                + tuple(
                    round(self.improvement_factor(c, r, s), 2)
                    for s in STRATEGY_ORDER
                )
                for c, r in self.instances()
            ],
            title=(
                "Fig 5: improvement factor over IQS "
                f"(dagP geomean={geomean(self.factors('dagP')):.2f}, "
                f"paper {PAPER_GEOMEAN_DAGP})"
            ),
        )

    # -- Fig. 6: strong scaling --------------------------------------------
    # Paper observations: (I) close-to-linear speedup for every strategy;
    # (II) compute and communication shares scale together; (III)
    # HiSVSIM's computation share beats IQS's everywhere.

    def speedup(self, circuit: str, algorithm: str) -> float:
        """Total-time speedup from the smallest to the largest rank count."""
        ranks = self.ranks(circuit)
        first = self.get(circuit, ranks[0], algorithm).total_seconds
        last = self.get(circuit, ranks[-1], algorithm).total_seconds
        return first / last if len(ranks) > 1 and last != 0 else 1.0

    def fig6_table(self) -> str:
        rows = []
        for c, r in self.instances():
            for a in ALGORITHMS:
                rep = self.get(c, r, a)
                rows.append((
                    c, r, a,
                    round(rep.total_seconds, 4),
                    round(rep.comp_seconds, 4),
                    round(rep.comm_seconds, 4),
                ))
        return render_table(
            ["circuit", "ranks", "algorithm", "total (s)", "comp (s)", "comm (s)"],
            rows,
            title="Fig 6: strong-scaling runtimes",
        )

    # -- Fig. 7: average per-rank communication time -----------------------
    # Expected shape: dagP lowest everywhere; IQS highest, increasingly
    # so for the wider circuits.

    def fig7_table(self) -> str:
        rows = []
        for c, r in self.instances():
            for a in ALGORITHMS:
                rep = self.get(c, r, a)
                rows.append(
                    (c, r, a, round(rep.comm_seconds, 5), rep.comm.total_bytes)
                )
        return render_table(
            ["circuit", "ranks", "algorithm", "avg comm (s)", "bytes"],
            rows,
            title="Fig 7: average communication time",
        )

    # -- Fig. 8: geometric mean of the average communication ratio --------

    def comm_ratios(self) -> Dict[Tuple[str, int], float]:
        """(algorithm, ranks) -> geometric mean over circuits of
        ``comm / (comp + comm)`` (0..1).  Paper shape: dagP lowest at
        every rank count with the flattest growth; IQS highest (30-45%).
        """
        buckets: Dict[Tuple[str, int], List[float]] = {}
        for (_, ranks, algo), rep in self.reports.items():
            comm = rep.comm_seconds
            total = rep.comp_seconds + comm
            if total <= 0:
                continue
            ratio = comm / total
            if ratio <= 0:
                ratio = 1e-6  # keep geometric mean defined for comm-free runs
            buckets.setdefault((algo, ranks), []).append(ratio)
        return {key: geomean(vals) for key, vals in buckets.items()}

    def fig8_table(self) -> str:
        ratios = self.comm_ratios()
        ranks_all = sorted({ranks for (_, ranks) in ratios})
        return render_table(
            ["algorithm"] + [str(r) for r in ranks_all],
            [
                [algo]
                + [
                    round(100 * ratios.get((algo, r), float("nan")), 1)
                    for r in ranks_all
                ]
                for algo in ALGORITHMS
            ],
            title="Fig 8: geomean communication ratio % by rank count",
        )

    # -- Fig. 9: Dolan-Moré performance profiles ---------------------------

    def profiles(
        self,
    ) -> Tuple[Dict[str, ProfileCurve], Dict[str, ProfileCurve]]:
        """``(runtime, comm)`` profiles by algorithm.

        9a: total runtime across all (circuit, ranks) instances for
        Nat/DFS/dagP and IQS.  9b: communication time for the three
        HiSVSIM variants.  Paper reference points: dagP best on ~65% of
        instances for total runtime and within 1.3x of best everywhere;
        best comm time on ~75% of instances.
        """
        runtime: Dict[str, Dict[str, float]] = {a: {} for a in ALGORITHMS}
        comm: Dict[str, Dict[str, float]] = {s: {} for s in STRATEGY_ORDER}
        for (circuit, ranks, algo), rep in self.reports.items():
            inst = f"{circuit}@{ranks}"
            runtime[algo][inst] = max(rep.total_seconds, 1e-12)
            if algo in comm:
                comm[algo][inst] = max(rep.comm_seconds, 1e-12)
        return performance_profile(runtime), performance_profile(comm)

    def fig9_table(self) -> str:
        rows = []
        for kind, profs in zip(("runtime", "comm"), self.profiles()):
            for name, prof in sorted(profs.items()):
                rows.append(
                    [f"{kind}/{name}"]
                    + [round(prof.rho_at(t), 2) for t in PROFILE_THETAS]
                )
        return render_table(
            ["profile"] + [f"θ={t}" for t in PROFILE_THETAS],
            rows,
            title="Fig 9: performance profiles (rho at selected θ)",
        )


_SWEEP_CACHE: Dict[str, SweepResult] = {}


def run_sweep(scale: Optional[Scale] = None) -> SweepResult:
    """Run (or fetch) the full multi-node sweep for ``scale``."""
    scale = scale or SCALES["small"]
    if scale.name in _SWEEP_CACHE:
        return _SWEEP_CACHE[scale.name]
    circuits = suite_circuits(scale.base_qubits)
    reports: Dict[Tuple[str, int, str], RunReport] = {}
    for key, circuit in circuits.items():
        for ranks in ranks_for(key, scale):
            p_bits = ranks.bit_length() - 1
            local = circuit.num_qubits - p_bits
            max_arity = max(g.num_qubits for g in circuit)
            if local < max(2, max_arity):
                continue  # rank count infeasible at this width
            for strategy in STRATEGY_ORDER:
                partition = partition_cached(circuit, strategy, local)
                engine = HiSVSimEngine(  # gate for gate, as IQS runs
                    ranks, scale.machine, scale.dry_run, fuse=False
                )
                _, rep = engine.run(circuit, partition)
                reports[(key, ranks, strategy)] = rep
            iqs = IQSEngine(ranks, machine=scale.machine, dry_run=scale.dry_run)
            _, rep = iqs.run(circuit)
            reports[(key, ranks, "Intel")] = rep
    result = SweepResult(scale=scale, reports=reports)
    _SWEEP_CACHE[scale.name] = result
    return result
