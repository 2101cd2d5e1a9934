"""The four workloads: seeded inputs, cold/warm pipelines, and oracles.

Each workload makes its inputs from the seed alone (same seed, same
bytes), drives the program through public entry points only, and passes
every knob that matters (``backend``, ``method``, ``strategy``,
``limit``) explicitly so no ``REPRO_*`` default can leak in.  The seed
changes gate *parameters* and basis-state prefixes, never circuit sizes:
two seeds are two samples of one cost distribution, which is what lets
the driver compare medians across seeds.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.circuits import generators, qasm
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.generators.qaoa import random_regular_edges
from repro.dist import HiSVSimEngine
from repro.partition import get_partitioner
from repro.serve import BatchRunner, SimJob
from repro.sv.fusion import PlanCache
from repro.sv.hier import HierarchicalExecutor
from repro.sv.simulator import StateVectorSimulator

__all__ = [
    "Item",
    "Observation",
    "Workload",
    "WideQft",
    "SweepQaoa",
    "DeepCold",
    "DistQft",
    "WORKLOAD_CLASSES",
    "make_workload",
    "Verifier",
]

STRATEGY = "dagP"
#: Widths up to this are checked against the flat simulator directly.
FLAT_MAX_QUBITS = 16
AMP_TOL = 1e-10
NORM_TOL = 1e-9
NUM_PROBE_AMPS = 64
#: Jobs per batch: the fewest with ten latency samples beyond the p90.
BATCH_JOBS = 104


class Item(NamedTuple):
    """One circuit with the working-set limit it is partitioned at."""

    label: str
    circuit: QuantumCircuit
    limit: int


class Observation(NamedTuple):
    """What one operation produced: ``ok`` covers the checks that need no
    reference (no error, counts sum to shots); ``state`` is the final
    amplitudes when the operation returns them."""

    op_id: str
    circuit: QuantumCircuit
    state: Optional[np.ndarray]
    ok: bool


def _rng(name: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(map(str, (name, seed) + salt)))


def _basis_prefixed(name: str, rng: random.Random, body: QuantumCircuit):
    """``body`` applied to a seed-chosen computational basis state (half
    the qubits flipped, so every seed adds the same number of gates)."""
    n = body.num_qubits
    qc = QuantumCircuit(n, name=name)
    for q in sorted(rng.sample(range(n), n // 2)):
        qc.x(q)
    return qc.compose(body)


def hier_executor(method: str) -> HierarchicalExecutor:
    """A fresh single-node executor with every knob passed explicitly."""
    return HierarchicalExecutor(
        mode="batched",
        fuse=True,
        backend="serial",
        method=method,
        plan_cache=PlanCache(),
    )


def batch_runner(
    limit: int, workers: int = 1, plan_cache: Optional[PlanCache] = None
) -> BatchRunner:
    """A fresh batch runner with every knob passed explicitly."""
    return BatchRunner(
        strategy=STRATEGY,
        limit=limit,
        schedule="grouped",
        workers=workers,
        fuse=True,
        backend="serial",
        method="auto",
        plan_cache=plan_cache if plan_cache is not None else PlanCache(),
    )


class Workload:
    """Inputs plus the two passes the harness times.

    ``cold(k)`` builds every program object fresh and runs the pipeline
    from the generated inputs to outputs; ``warm(ctx, k)`` reruns on the
    objects ``cold`` left behind.  ``prepare(k)`` does any input
    generation pass ``k`` needs and is never timed.
    """

    name = ""
    #: which of the program's three pipelines the passes drive:
    #: ``"hier"`` (single node), ``"serve"`` (batch runner) or ``"dist"``
    pipeline = "hier"
    #: engine-routing policy handed to the single-node executor
    METHOD = "auto"
    #: OpenQASM sources when the workload starts from text, else ``None``
    texts: Optional[List[str]] = None
    #: shrink applied by ``--smoke`` (and to build the small twin)
    SMOKE_SHRINK = 8

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)

    def prepare(self, k: int) -> None:
        """Generate what pass ``k`` consumes (untimed)."""

    def cold(self, k: int):
        raise NotImplementedError

    def warm(self, ctx, k: int):
        raise NotImplementedError

    def observe(self, outputs, k: int, warm: bool) -> List[Observation]:
        raise NotImplementedError

    def probe_items(self) -> List[Item]:
        """The distinct circuits of the workload, at full size."""
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        """Operations (circuit runs or jobs) in one pass."""
        return len(self.probe_items())

    def golden_ops(self) -> List[Tuple[str, QuantumCircuit]]:
        """The operations ``make_expected.py`` stores amplitudes for."""
        return [(item.label, item.circuit) for item in self.probe_items()]

    def source_gates(self) -> int:
        """Source gates one pass executes (for ``gate_amps_per_s``)."""
        return sum(len(item.circuit) for item in self.probe_items())

    def gate_amps(self) -> int:
        return sum(
            len(item.circuit) << item.circuit.num_qubits
            for item in self.probe_items()
        )


# ---------------------------------------------------------------------------
# wide_qft21 -- one wide circuit, single node
# ---------------------------------------------------------------------------


class WideQft(Workload):
    name = "wide_qft21"
    WIDTH = 21
    METHOD = "dense"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.n = self.WIDTH - (self.SMOKE_SHRINK if smoke else 0)
        self.limit = self.n - 3
        self.circuit = _basis_prefixed(
            f"qft{self.n}",
            _rng(self.name, seed),
            generators.build("qft", self.n),
        )

    def cold(self, k: int):
        partition = get_partitioner(STRATEGY).partition(
            self.circuit, self.limit
        )
        executor = hier_executor(self.METHOD)
        ctx = (partition, executor)
        return ctx, self.warm(ctx, k)

    def warm(self, ctx, k: int):
        partition, executor = ctx
        state = executor.initial_state(self.circuit)
        return [executor.run(self.circuit, partition, state)]

    def observe(self, outputs, k, warm):
        return [Observation("qft", self.circuit, outputs[0], True)]

    def probe_items(self):
        return [Item("qft", self.circuit, self.limit)]


# ---------------------------------------------------------------------------
# dist_qft20_r4 -- the same family over four in-process ranks
# ---------------------------------------------------------------------------


class DistQft(WideQft):
    name = "dist_qft20_r4"
    pipeline = "dist"
    WIDTH = 20
    RANKS = 4

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # Two process qubits: a part may use every local qubit.
        self.limit = self.n - 2

    def cold(self, k: int):
        partition = get_partitioner(STRATEGY).partition(
            self.circuit, self.limit
        )
        engine = HiSVSimEngine(
            self.RANKS, fuse=True, backend="serial", plan_cache=PlanCache()
        )
        ctx = (partition, engine)
        return ctx, self.warm(ctx, k)

    def warm(self, ctx, k: int):
        partition, engine = ctx
        state, report = engine.run(self.circuit, partition)
        return [state.to_full(), report]


# ---------------------------------------------------------------------------
# sweep_qaoa14 -- many tiny jobs, every cache hits
# ---------------------------------------------------------------------------


class SweepQaoa(Workload):
    name = "sweep_qaoa14"
    pipeline = "serve"
    WIDTH = 14
    ROUNDS = 3
    SHOTS = 1024
    #: jobs per batch that return their state for the amplitude oracle
    SAMPLED = 4

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.n = self.WIDTH - (self.SMOKE_SHRINK if smoke else 0)
        self.limit = self.n - 3
        self.jobs_per_batch = 8 if smoke else BATCH_JOBS
        # One fixed graph: only the angles depend on the seed.
        self.edges = random_regular_edges(self.n, 3, seed=7)
        a, b = self.edges[0]
        zz = ["I"] * self.n
        zz[a] = zz[b] = "Z"
        self.observables = ["".join(zz), "X" + "I" * (self.n - 1)]
        self._batches: Dict[int, List[SimJob]] = {}
        self._probe: Optional[Item] = None

    def batch(self, index: int) -> List[SimJob]:
        """Batch ``index`` of the sweep: fresh angles, same structure."""
        if index not in self._batches:
            rng = _rng(self.name, self.seed, index)
            stride = max(1, self.jobs_per_batch // self.SAMPLED)
            jobs = []
            for j in range(self.jobs_per_batch):
                qc = generators.qaoa(
                    self.n,
                    p=self.ROUNDS,
                    edges=self.edges,
                    gammas=[rng.uniform(0.0, 3.0) for _ in range(self.ROUNDS)],
                    betas=[rng.uniform(0.0, 1.5) for _ in range(self.ROUNDS)],
                )
                jobs.append(
                    SimJob(
                        f"b{index}j{j}",
                        qc,
                        want_state=self.smoke or j % stride == 0,
                        shots=self.SHOTS,
                        seed=j,
                        observables=self.observables,
                    )
                )
            self._batches[index] = jobs
        return self._batches[index]

    def prepare(self, k: int) -> None:
        self.batch(2 * k)
        self.batch(2 * k + 1)
        # Batches of earlier pairs are never run again.
        for old in [i for i in self._batches if i < 2 * k]:
            del self._batches[old]

    def cold(self, k: int):
        runner = batch_runner(self.limit)
        return runner, runner.run(self.batch(2 * k))

    def warm(self, ctx, k: int):
        return ctx.run(self.batch(2 * k + 1))

    def observe(self, outputs, k, warm):
        jobs = self.batch(2 * k + (1 if warm else 0))
        out = []
        for job, res in zip(jobs, outputs.results):
            ok = (
                res.error is None
                and res.counts is not None
                and sum(res.counts.values()) == self.SHOTS
                and res.expectations is not None
                and len(res.expectations) == len(self.observables)
                and all(abs(v) <= 1.0 + NORM_TOL for v in res.expectations)
            )
            out.append(Observation(job.job_id, job.circuit, res.state, ok))
        return out

    def probe_items(self):
        if self._probe is None:
            self._probe = Item("qaoa", self.batch(0)[0].circuit, self.limit)
        return [self._probe]

    def ops_per_pass(self) -> int:
        return self.jobs_per_batch

    def golden_ops(self):
        # The sampled jobs of the first cold and the first warm batch.
        return [
            (job.job_id, job.circuit)
            for index in (0, 1)
            for job in self.batch(index)
            if job.want_state
        ]

    def source_gates(self) -> int:
        return self.jobs_per_batch * len(self.probe_items()[0].circuit)

    def gate_amps(self) -> int:
        return self.source_gates() << self.n


# ---------------------------------------------------------------------------
# deep_cold12 -- many distinct deep-narrow circuits, every cache misses
# ---------------------------------------------------------------------------

# (family, width, depth parameter); the depth parameter is p for qaoa,
# steps for ising, layers for qnn, the ising suffix's steps for mix.
_DEEP_SPECS: Tuple[Tuple[str, int, int], ...] = (
    ("qaoa", 12, 30),
    ("qaoa", 12, 35),
    ("qaoa", 12, 40),
    ("qaoa", 11, 30),
    ("qaoa", 10, 40),
    ("ising", 11, 50),
    ("ising", 12, 40),
    ("ising", 13, 50),
    ("ising", 14, 60),
    ("qpe", 12, 0),
    ("qpe", 13, 0),
    ("qft", 14, 0),
    ("grover", 11, 0),
    ("qnn", 12, 6),
    ("qnn", 13, 2),
    ("mix", 16, 10),
    ("mix", 16, 10),
)


def _deep_circuit(
    family: str, n: int, depth: int, rng: random.Random
) -> QuantumCircuit:
    if family == "qaoa":
        return generators.qaoa(
            n,
            p=depth,
            gammas=[rng.uniform(0.0, 3.0) for _ in range(depth)],
            betas=[rng.uniform(0.0, 1.5) for _ in range(depth)],
        )
    if family == "ising":
        return generators.ising(
            n,
            steps=depth,
            j_coupling=rng.uniform(0.5, 1.5),
            h_field=rng.uniform(1.0, 3.0),
            dt=rng.uniform(0.05, 0.2),
        )
    if family == "qpe":
        return generators.qpe(n, phase=rng.random())
    if family == "qft":
        return _basis_prefixed(f"qft{n}", rng, generators.qft(n))
    if family == "grover":
        # A fixed number of ones, seed-chosen places: same gate count.
        data = (n + 1) // 2
        marked = [1] * (data // 2) + [0] * (data - data // 2)
        rng.shuffle(marked)
        return generators.grover(n, marked=marked)
    if family == "qnn":
        return generators.qnn(n, layers=depth, seed=rng.randrange(1 << 30))
    if family == "mix":
        # Clifford prefix -> T layer -> non-Clifford suffix.
        qc = QuantumCircuit(n, name=f"mix{n}")
        qc.compose(
            generators.stabilizer_random(n, seed=rng.randrange(1 << 30))
        )
        for q in range(n):
            qc.t(q)
        return qc.compose(
            generators.ising(n, steps=depth, dt=rng.uniform(0.05, 0.2))
        )
    raise KeyError(family)


class DeepCold(Workload):
    name = "deep_cold12"
    SMOKE_SHRINK = 6

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.labels: List[str] = []
        self.limits: List[int] = []
        self.texts: List[str] = []
        for i, (family, n, depth) in enumerate(_DEEP_SPECS):
            if smoke:
                n = max(5, n - self.SMOKE_SHRINK)
                depth = max(1, depth // 8)
            qc = _deep_circuit(family, n, depth, _rng(self.name, seed, i))
            self.labels.append(f"{i:02d}_{family}{n}")
            self.limits.append(max(3, n - 3))
            self.texts.append(qasm.dumps(qc))
        self._parsed: Optional[List[QuantumCircuit]] = None

    def cold(self, k: int):
        ctx = []
        outputs = []
        for label, text, limit in zip(self.labels, self.texts, self.limits):
            qc = qasm.loads(text, name=label)
            partition = get_partitioner(STRATEGY).partition(qc, limit)
            executor = hier_executor(self.METHOD)
            ctx.append((qc, partition, executor))
            outputs.append(
                executor.run(qc, partition, executor.initial_state(qc))
            )
        return ctx, outputs

    def warm(self, ctx, k: int):
        return [
            executor.run(qc, partition, executor.initial_state(qc))
            for qc, partition, executor in ctx
        ]

    def circuits(self) -> List[QuantumCircuit]:
        if self._parsed is None:
            self._parsed = [
                qasm.loads(t, name=l) for t, l in zip(self.texts, self.labels)
            ]
        return self._parsed

    def observe(self, outputs, k, warm):
        return [
            Observation(label, qc, state, True)
            for label, qc, state in zip(self.labels, self.circuits(), outputs)
        ]

    def probe_items(self):
        return [
            Item(label, qc, limit)
            for label, qc, limit in zip(
                self.labels, self.circuits(), self.limits
            )
        ]


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (WideQft, SweepQaoa, DeepCold, DistQft)
}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    if name not in WORKLOAD_CLASSES:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOAD_CLASSES)}"
        )
    return WORKLOAD_CLASSES[name](seed, smoke)


# ---------------------------------------------------------------------------
# Correctness oracles
# ---------------------------------------------------------------------------


def probe_indices(op_id: str, seed: int, size: int) -> List[int]:
    """The seed-chosen amplitude indices an operation is checked at."""
    rng = _rng("amps", seed, op_id)
    return [rng.randrange(size) for _ in range(NUM_PROBE_AMPS)]


def flat_state(circuit: QuantumCircuit) -> np.ndarray:
    """Reference amplitudes from the independent flat simulator."""
    sim = StateVectorSimulator(circuit.num_qubits, backend="serial")
    return sim.run(circuit)


def nat_route_state(circuit: QuantumCircuit, limit: int) -> np.ndarray:
    """The same circuit down a different route: ``Nat`` parts, dense."""
    partition = get_partitioner("Nat").partition(circuit, limit)
    executor = hier_executor("dense")
    return executor.run(circuit, partition, executor.initial_state(circuit))


class Verifier:
    """Checks every operation of every pass and counts the misses.

    Of each state an operation returns only a digest is kept --
    ``NUM_PROBE_AMPS`` seed-chosen amplitudes and the norm -- so the
    harness holds no state while the program is measured (``peak_rss_mb``
    is the program's).  ``finish`` compares every digest with reference
    amplitudes (``AMP_TOL``) and the norm (``NORM_TOL``).  Oracles,
    strongest available first:

    * ``golden`` — amplitudes ``make_expected.py`` stored for the default
      seed (flat simulator, computed once);
    * ``flat`` — the flat simulator, run now, for widths up to
      ``FLAT_MAX_QUBITS``;
    * ``cross-route`` — for wider states: the same circuit down the
      ``Nat``/dense route, and the same pipeline at the smoke width
      against the flat simulator.
    """

    def __init__(self, workload: Workload, expected: Optional[dict]) -> None:
        self.workload = workload
        self.expected = expected or {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.oracles: set = set()
        self._circuits: Dict[str, QuantumCircuit] = {}
        self._indices: Dict[str, List[int]] = {}
        self._digests: Dict[str, List[Tuple[np.ndarray, float]]] = {}

    def _fail(self, op_id: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op_id}: {why}")

    def add_pass(self, outputs, k: int, warm: bool) -> None:
        """Record one pass's operations (cheap; oracles run in ``finish``)."""
        for obs in self.workload.observe(outputs, k, warm):
            self.attempted += 1
            if not obs.ok:
                self._fail(obs.op_id, "output failed its structural check")
                continue
            if obs.state is None:
                continue
            if obs.op_id not in self._digests:
                golden = self.expected.get(obs.op_id)
                self._circuits[obs.op_id] = obs.circuit
                self._indices[obs.op_id] = (
                    list(golden["indices"])
                    if golden is not None
                    else probe_indices(
                        obs.op_id, self.workload.seed, obs.state.size
                    )
                )
                self._digests[obs.op_id] = []
            self._digests[obs.op_id].append(
                (
                    obs.state[self._indices[obs.op_id]],
                    float(np.linalg.norm(obs.state)),
                )
            )

    def add_error(self, ops: int, why: str) -> None:
        """A pass that raised: all of its operations count as failed."""
        self.attempted += ops
        self.failed += ops
        self.failures.append(why)

    def finish(self) -> None:
        """Run the oracles and compare every digest with them."""
        limits = {i.label: i.limit for i in self.workload.probe_items()}
        for op_id, circuit in self._circuits.items():
            reference = self._reference(op_id, circuit, limits)
            unit = self.expected.get(op_id, {}).get("norm", 1.0)
            for amps, norm in self._digests[op_id]:
                if abs(norm - unit) > NORM_TOL:
                    self._fail(op_id, f"norm {norm!r}")
                elif not np.allclose(amps, reference, rtol=0.0, atol=AMP_TOL):
                    worst = float(np.max(np.abs(amps - reference)))
                    self._fail(op_id, f"amplitudes off by {worst:.3e}")
        if "cross-route" in self.oracles:
            self._check_twin()

    def _reference(self, op_id, circuit, limits) -> np.ndarray:
        """Reference amplitudes at the operation's probe indices."""
        idx = self._indices[op_id]
        golden = self.expected.get(op_id)
        if golden is not None:
            self.oracles.add("golden")
            return np.array(golden["re"]) + 1j * np.array(golden["im"])
        if circuit.num_qubits <= FLAT_MAX_QUBITS:
            self.oracles.add("flat")
            return flat_state(circuit)[idx]
        self.oracles.add("cross-route")
        limit = limits.get(op_id, circuit.num_qubits - 3)
        return nat_route_state(circuit, min(limit, circuit.num_qubits - 3))[idx]

    def _check_twin(self) -> None:
        """The same pipeline at the smoke width against the flat simulator."""
        twin = type(self.workload)(self.workload.seed, smoke=True)
        twin.prepare(0)
        _, outputs = twin.cold(0)
        for obs in twin.observe(outputs, 0, False):
            if obs.state is None:
                continue
            worst = float(np.max(np.abs(flat_state(obs.circuit) - obs.state)))
            if not obs.ok or worst > AMP_TOL:
                self.failed += 1
                self.failures.append(
                    f"twin {obs.op_id}: off by {worst:.3e} from the flat simulator"
                )
