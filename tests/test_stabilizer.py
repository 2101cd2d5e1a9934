"""Per-part engine routing and the stabilizer tableau fast path.

Differential coverage: seeded random Clifford circuits must match the
dense path to 1e-10 through every backend/fusion combination;
``method=auto`` must change nothing (byte-identical states, all-dense
routing) for circuits whose first part is not Clifford-only, and must
keep a Clifford+T circuit's leading Clifford parts on the tableau;
hybrid runs must convert at the Clifford/non-Clifford part boundary
exactly once; ``to_dense`` must equal the test-side Gray-code walk bit
for bit; and the serving stack must validate, route and account the
``method`` option like any other runner knob.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_DEFS
from repro.circuits.generators import (
    build,
    ising,
    qaoa,
    qft,
    stabilizer_random,
    syndrome,
)
from repro.partition import get_partitioner
from repro.partition.base import Partition
from repro.serve import BatchRunner, SimJob, load_manifest
from repro.sv import (
    ExecutionTrace,
    HierarchicalExecutor,
    StabilizerState,
    is_clifford_circuit,
    resolve_method,
    zero_state,
)
from repro.sv.simulator import StateVectorSimulator

from conftest import to_dense_reference
from strategies import circuits

CLIFFORD_NAMES = {
    "id", "x", "y", "z", "h", "s", "sdg", "sx",
    "cx", "cy", "cz", "swap", "iswap",
}


# ---------------------------------------------------------------------------
# Gate metadata (satellite: GateDef.clifford as single source of truth)
# ---------------------------------------------------------------------------


class TestCliffordFlag:
    def test_exactly_the_clifford_gates_are_flagged(self):
        flagged = {n for n, d in GATE_DEFS.items() if d.clifford}
        assert flagged == CLIFFORD_NAMES

    def test_parameterised_gates_are_never_clifford(self):
        for name, gdef in GATE_DEFS.items():
            if gdef.num_params:
                assert not gdef.clifford, name

    def test_gate_property_follows_the_definition(self):
        qc = QuantumCircuit(2).h(0).t(0).cx(0, 1).rz(0.3, 1)
        assert [g.is_clifford for g in qc.gates] == [
            True, False, True, False
        ]

    def test_is_clifford_circuit(self):
        assert is_clifford_circuit(build("cat_state", 5).gates)
        assert not is_clifford_circuit(qft(4).gates)


# ---------------------------------------------------------------------------
# StabilizerState unit behaviour
# ---------------------------------------------------------------------------


class TestStabilizerState:
    def test_bell_state_amplitudes(self):
        st = StabilizerState(2)
        st.apply_all(QuantumCircuit(2).h(0).cx(0, 1).gates)
        s = 1 / np.sqrt(2)
        assert abs(st.amplitude(0) - s) < 1e-14
        assert abs(st.amplitude(3) - s) < 1e-14
        assert st.amplitude(1) == 0 and st.amplitude(2) == 0
        assert st.support_rank == 1

    def test_to_dense_matches_amplitudes(self):
        qc = stabilizer_random(5, depth=20, seed=3)
        st = StabilizerState(5)
        st.apply_all(qc.gates)
        dense = st.to_dense()
        for i in range(32):
            assert abs(dense[i] - st.amplitude(i)) < 1e-14

    def test_to_dense_refuses_wide_registers(self):
        with pytest.raises(ValueError, match="refusing to materialise"):
            StabilizerState(31).to_dense()

    def test_non_clifford_gate_rejected(self):
        st = StabilizerState(1)
        gate = QuantumCircuit(1).t(0)[0]
        with pytest.raises(ValueError):
            st.apply_gate(gate)

    def test_copy_is_independent(self):
        st = StabilizerState(2)
        st.apply_named("h", (0,))
        clone = st.copy()
        clone.apply_named("x", (1,))
        assert abs(st.amplitude(2)) < 1e-14  # original untouched
        assert abs(clone.amplitude(2)) > 0.5

    def test_global_phase_is_exact(self):
        # S|+> then H: amplitudes carry a complex phase the tableau must
        # reproduce exactly, not just up to a global factor.
        qc = QuantumCircuit(1).h(0).s(0).h(0)
        sim = StateVectorSimulator(1)
        sim.run(qc)
        st = StabilizerState(1)
        st.apply_all(qc.gates)
        assert abs(st.amplitude(0) - sim.state[0]) < 1e-14
        assert abs(st.amplitude(1) - sim.state[1]) < 1e-14


# ---------------------------------------------------------------------------
# Operand refusals: a bad operand never reaches the tableau
# ---------------------------------------------------------------------------


def _snapshot(state):
    return (
        list(state.xs), list(state.zs), list(state.rs),
        state.ref_index, state.ref_amp,
    )


@pytest.mark.parametrize(
    "name, qubits, match",
    [
        ("h", (5,), r"operands \(5,\) of \(5,\) are outside 0\.\.1"),
        ("x", (-1,), r"outside 0\.\.1"),
        ("swap", (0, 2), r"outside 0\.\.1"),
        ("cx", (1, 1), r"duplicate operands in \(1, 1\)"),
        ("h", (0, 1), r"gate 'h' takes 1 qubit\(s\), got \(0, 1\)"),
        ("cz", (0,), r"gate 'cz' takes 2 qubit\(s\)"),
        ("t", (0,), "unsupported stabilizer gate 't'"),
    ],
)
def test_bad_operands_are_refused_and_leave_the_state(name, qubits, match):
    st = StabilizerState(2)
    st.apply_named("h", (0,))
    st.apply_named("s", (0,))
    before = _snapshot(st)
    with pytest.raises(ValueError, match=match):
        st.apply_named(name, qubits)
    assert _snapshot(st) == before
    assert abs(np.linalg.norm(st.to_dense()) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# to_dense against the Gray-code walk (conftest.to_dense_reference)
# ---------------------------------------------------------------------------

#: Clifford gates that map each basis state to one basis state (times a
#: phase): after an ``h`` on every qubit they keep all ``2^n`` in support.
MONOMIAL_NAMES = (
    "x", "y", "z", "s", "sdg", "cx", "cy", "cz", "swap", "iswap",
)


@hst.composite
def clifford_tableaus(draw):
    """``(tableau, full)``: a random Clifford circuit of 1-14 qubits
    applied to ``|0...0>``.  With ``full``, an ``h`` on every qubit comes
    first and only monomial gates follow, so the support is complete."""
    full = draw(hst.booleans())
    body = draw(
        circuits(
            min_qubits=1,
            max_qubits=14,
            min_gates=0,
            max_gates=40,
            pool=MONOMIAL_NAMES if full else sorted(CLIFFORD_NAMES),
        )
    )
    n = body.num_qubits
    qc = QuantumCircuit(n)
    if full:
        for q in range(n):
            qc.h(q)
    tableau = StabilizerState(n)
    tableau.apply_all(qc.compose(body).gates)
    return tableau, full


@settings(max_examples=80, deadline=None)
@given(clifford_tableaus())
def test_to_dense_is_the_reference_walk_bit_for_bit(case):
    tableau, full = case
    if full:
        assert tableau.support_rank == tableau.num_qubits
    got = tableau.to_dense()
    assert got.tobytes() == to_dense_reference(tableau).tobytes()


@pytest.mark.parametrize("n", [2, 7, 14])
def test_to_dense_full_support_off_a_zero_reference(n):
    qc = QuantumCircuit(n)
    for q in range(n):
        qc.h(q)
    qc.x(n - 1).s(0).y(0).cz(0, n - 1).iswap(0, n - 1)
    tableau = StabilizerState(n)
    tableau.apply_all(qc.gates)
    assert tableau.support_rank == n and tableau.ref_index != 0
    got = tableau.to_dense()
    assert got.tobytes() == to_dense_reference(tableau).tobytes()
    sim = StateVectorSimulator(n)
    sim.run(qc)
    assert np.abs(got - sim.state).max() < 1e-12


def test_to_dense_allocates_through_zero_state(monkeypatch):
    from repro.sv import simulator

    def refuse(num_qubits):
        raise MemoryError(f"Unable to allocate 2^{num_qubits}")

    monkeypatch.setattr(simulator, "zero_state", refuse)
    with pytest.raises(MemoryError):
        StabilizerState(3).to_dense()


# ---------------------------------------------------------------------------
# Differential: stabilizer vs dense on >= 100 seeded circuits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_random_clifford_matches_flat_simulator(seed):
    n = 2 + seed % 5
    qc = stabilizer_random(n, depth=12 + seed % 9, seed=seed)
    sim = StateVectorSimulator(n)
    sim.run(qc)
    st = StabilizerState(n)
    st.apply_all(qc.gates)
    assert np.abs(st.to_dense() - sim.state).max() < 1e-10


@pytest.mark.parametrize("backend", ["serial", "threaded"])
@pytest.mark.parametrize("fuse", [True, False])
@pytest.mark.parametrize("seed", range(13))
def test_routed_execution_matches_dense_path(backend, fuse, seed):
    """52 executor-level cases x the 60 direct cases above >= 100 total."""
    n = 4 + seed % 3
    qc = stabilizer_random(n, depth=14, seed=100 + seed)
    partition = get_partitioner("dagP").partition(qc, max(3, n - 2))
    dense_ex = HierarchicalExecutor(
        method="dense", backend=backend, threads=2, fuse=fuse
    )
    ref = dense_ex.run(qc, partition, zero_state(n))
    stab_ex = HierarchicalExecutor(
        method="stabilizer", backend=backend, threads=2, fuse=fuse
    )
    trace = ExecutionTrace()
    out = stab_ex.run(qc, partition, stab_ex.initial_state(qc), trace)
    assert isinstance(out, StabilizerState)
    assert trace.engine_parts == {"stabilizer": partition.num_parts}
    assert trace.boundary_conversions == 0
    assert np.abs(out.to_dense() - ref).max() < 1e-10


def test_syndrome_circuit_routes_and_matches():
    qc = syndrome(9, rounds=3)
    partition = get_partitioner("dagP").partition(qc, 6)
    ex = HierarchicalExecutor(method="auto")
    out = ex.run(qc, partition, ex.initial_state(qc))
    assert isinstance(out, StabilizerState)
    sim = StateVectorSimulator(9)
    sim.run(qc)
    assert np.abs(out.to_dense() - sim.state).max() < 1e-10


# ---------------------------------------------------------------------------
# method=auto regression: non-Clifford circuits are untouched
# ---------------------------------------------------------------------------


def test_auto_on_non_clifford_is_byte_identical_and_all_dense():
    qc = qft(8)
    partition = get_partitioner("dagP").partition(qc, 5)
    auto_ex = HierarchicalExecutor(method="auto")
    state = auto_ex.initial_state(qc)
    trace = ExecutionTrace()
    out = auto_ex.run(qc, partition, state, trace)
    ref = HierarchicalExecutor(method="dense").run(
        qc, partition, zero_state(8)
    )
    assert np.array_equal(out, ref)  # byte-identical, not just close
    assert set(trace.part_engines) == {"dense"}
    assert trace.engine_parts == {"dense": partition.num_parts}
    assert trace.boundary_conversions == 0


def test_auto_default_and_env_resolution(monkeypatch):
    assert HierarchicalExecutor().method == "auto"
    monkeypatch.setenv("REPRO_METHOD", "stabilizer")
    assert HierarchicalExecutor().method == "stabilizer"
    assert resolve_method() == "stabilizer"
    monkeypatch.setenv("REPRO_METHOD", "bogus")
    with pytest.raises(ValueError, match="unknown method"):
        HierarchicalExecutor()


def test_dense_array_input_never_reroutes():
    # Passing an ndarray always takes the dense path, whatever the
    # method — existing callers see zero behaviour change.
    qc = build("cat_state", 6)
    partition = get_partitioner("dagP").partition(qc, 4)
    ex = HierarchicalExecutor(method="stabilizer")
    trace = ExecutionTrace()
    out = ex.run(qc, partition, zero_state(6), trace)
    assert isinstance(out, np.ndarray)
    assert set(trace.part_engines) == {"dense"}


# ---------------------------------------------------------------------------
# Routing matrix: method x circuit kind
# ---------------------------------------------------------------------------


def _mix(n, seed=3):
    """Clifford prefix -> T layer -> Ising suffix, like the perf
    harness's ``mix`` family."""
    qc = QuantumCircuit(n, name=f"mix{n}")
    qc.compose(stabilizer_random(n, seed=seed))
    for q in range(n):
        qc.t(q)
    return qc.compose(ising(n, steps=2))


ROUTING_CIRCUITS = {
    "clifford": lambda: stabilizer_random(8, depth=12, seed=5),
    "mix": lambda: _mix(10),
    "qft": lambda: qft(8),
    "qaoa": lambda: qaoa(8, p=2),
}


def _routed(kind, method):
    qc = ROUTING_CIRCUITS[kind]()
    partition = get_partitioner("dagP").partition(qc, qc.num_qubits - 3)
    ex = HierarchicalExecutor(method=method)
    trace = ExecutionTrace()
    out = ex.run(qc, partition, ex.initial_state(qc), trace)
    return partition, out, trace


def _leading_clifford_parts(kind):
    qc = ROUTING_CIRCUITS[kind]()
    partition = get_partitioner("dagP").partition(qc, qc.num_qubits - 3)
    lead = 0
    for part in partition.parts:
        if not is_clifford_circuit(qc[g] for g in part.gate_indices):
            break
        lead += 1
    return lead


class TestRoutingMatrix:
    @pytest.mark.parametrize("method", ["auto", "stabilizer"])
    @pytest.mark.parametrize("kind", sorted(ROUTING_CIRCUITS))
    def test_amplitudes_agree_with_dense(self, kind, method):
        _, out, _ = _routed(kind, method)
        _, ref, _ = _routed(kind, "dense")
        if isinstance(out, StabilizerState):
            out = out.to_dense()
        assert np.abs(out - ref).max() < 1e-10

    @pytest.mark.parametrize("kind", ["qft", "qaoa"])
    def test_non_clifford_first_under_auto_is_a_dense_start(self, kind):
        assert _leading_clifford_parts(kind) == 0
        partition, out, trace = _routed(kind, "auto")
        _, ref, _ = _routed(kind, "dense")
        assert out.tobytes() == ref.tobytes()
        assert trace.engine_parts == {"dense": partition.num_parts}
        assert trace.boundary_conversions == 0

    def test_mix_runs_its_clifford_prefix_on_the_tableau(self):
        lead = _leading_clifford_parts("mix")
        assert lead >= 1
        partition, out, trace = _routed("mix", "auto")
        assert isinstance(out, np.ndarray)
        assert trace.part_engines == (
            ["stabilizer"] * lead + ["dense"] * (partition.num_parts - lead)
        )
        assert trace.boundary_conversions == 1
        # Below the cap, auto and forced tableau routing are one route.
        _, _, forced = _routed("mix", "stabilizer")
        assert forced.part_engines == trace.part_engines

    def test_all_clifford_stays_on_the_tableau(self):
        partition, out, trace = _routed("clifford", "auto")
        assert isinstance(out, StabilizerState)
        assert trace.engine_parts == {"stabilizer": partition.num_parts}
        assert trace.boundary_conversions == 0

    def test_above_the_cap_non_clifford_starts_dense(self, monkeypatch):
        from repro.sv import simulator
        from repro.sv.stabilizer import MAX_DENSE_QUBITS

        allocated = []

        def fake_zero_state(num_qubits):
            allocated.append(num_qubits)
            return "dense"

        monkeypatch.setattr(simulator, "zero_state", fake_zero_state)
        ex = HierarchicalExecutor(method="auto")
        wide = MAX_DENSE_QUBITS + 1
        assert ex.initial_state(QuantumCircuit(wide).h(0).t(0)) == "dense"
        assert allocated == [wide]
        clifford = QuantumCircuit(wide).h(0).cx(0, 1)
        assert isinstance(ex.initial_state(clifford), StabilizerState)
        at_cap = QuantumCircuit(MAX_DENSE_QUBITS).h(0).t(0)
        assert isinstance(ex.initial_state(at_cap), StabilizerState)
        assert allocated == [wide]


# ---------------------------------------------------------------------------
# Hybrid: Clifford prefix in tableau, boundary conversion, dense suffix
# ---------------------------------------------------------------------------


def _prefix_circuit(n=6):
    """Clifford prefix (part 0) then a non-Clifford tail (part 1)."""
    qc = QuantumCircuit(n).h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    qc.t(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


def _two_part_partition(qc, split):
    assignment = [0 if i < split else 1 for i in range(len(qc))]
    return Partition.from_assignment(
        qc, assignment, limit=qc.num_qubits, strategy="Nat"
    )


def test_hybrid_converts_exactly_once_at_the_boundary():
    qc = _prefix_circuit(6)
    partition = _two_part_partition(qc, split=6)  # part 0 is Clifford
    ex = HierarchicalExecutor(method="stabilizer")
    trace = ExecutionTrace()
    out = ex.run(qc, partition, ex.initial_state(qc), trace)
    assert isinstance(out, np.ndarray)
    assert trace.part_engines == ["stabilizer", "dense"]
    assert trace.boundary_conversions == 1
    sim = StateVectorSimulator(6)
    sim.run(qc)
    assert np.abs(out - sim.state).max() < 1e-10


def test_hybrid_with_clifford_tail_stays_dense_after_conversion():
    # Once materialised, later Clifford parts run dense (no dense ->
    # tableau conversion exists): engines must read s, d, d.
    qc = _prefix_circuit(5)
    for i in range(4):
        qc.cx(i, i + 1)
    partition = Partition.from_assignment(
        qc, [0] * 5 + [1] * 5 + [2] * 4, limit=qc.num_qubits, strategy="Nat"
    )
    ex = HierarchicalExecutor(method="stabilizer")
    trace = ExecutionTrace()
    out = ex.run(qc, partition, ex.initial_state(qc), trace)
    assert trace.part_engines == ["stabilizer", "dense", "dense"]
    assert trace.boundary_conversions == 1
    sim = StateVectorSimulator(5)
    sim.run(qc)
    assert np.abs(out - sim.state).max() < 1e-10


# ---------------------------------------------------------------------------
# Serving stack: runner stats, manifest option, daemon wiring
# ---------------------------------------------------------------------------


class TestServing:
    def test_runner_routes_and_counts(self):
        jobs = [
            SimJob("c", stabilizer_random(5, depth=10, seed=1),
                   want_state=True),
            SimJob("q", qft(5), want_state=True),
        ]
        report = BatchRunner(method="auto").run(jobs)
        assert report.stats.parts_routed_stabilizer > 0
        assert report.stats.parts_routed_dense > 0
        # One bind per dense part; tableau parts make none.
        assert report.stats.plans_bound == report.stats.parts_routed_dense
        assert report.results[0].error is None
        # Tableau results materialise for outputs and match dense.
        sim = StateVectorSimulator(5)
        sim.run(jobs[0].circuit)
        assert np.abs(report.results[0].state - sim.state).max() < 1e-10

    def test_runner_routes_a_mix_batch_prefix_to_the_tableau(self):
        jobs = [
            SimJob(f"m{seed}", _mix(8, seed=seed), shots=16)
            for seed in range(3)
        ]
        report = BatchRunner(method="auto").run(jobs)
        assert [r.error for r in report.results] == [None] * 3
        assert report.stats.parts_routed_stabilizer > 0
        assert report.stats.parts_routed_dense > 0

    def test_runner_method_dense_routes_everything_dense(self):
        jobs = [SimJob("c", stabilizer_random(4, depth=8, seed=2),
                       shots=16)]
        report = BatchRunner(method="dense").run(jobs)
        assert report.stats.parts_routed_stabilizer == 0
        assert report.stats.parts_routed_dense > 0

    def test_wide_clifford_job_without_outputs_succeeds(self):
        # No amplitude-level outputs requested: the tableau is never
        # materialised, so widths far beyond dense memory succeed.
        job = SimJob("wide", build("cat_state", 40), want_state=False)
        report = BatchRunner(method="auto").run([job])
        assert report.results[0].error is None
        assert report.stats.parts_routed_stabilizer > 0

    def test_manifest_accepts_method(self):
        jobs, options = load_manifest({
            "method": "stabilizer",
            "jobs": [{"id": "j",
                      "circuit": {"generator": "cat_state", "qubits": 4}}],
        })
        assert options == {"method": "stabilizer"}
        assert BatchRunner(**options).method == "stabilizer"

    def test_runner_rejects_bad_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            BatchRunner(method="tensor")

    def test_daemon_healthz_and_metrics_report_method(self):
        from repro.serve.daemon import ServeConfig, ServeDaemon

        daemon = ServeDaemon(ServeConfig(port=0, workers=0))
        assert daemon._healthz()["method"] == "auto"
        metrics = daemon.metrics()["runner"]
        assert metrics["method"] == "auto"
        assert metrics["parts_routed_dense"] == 0
        assert metrics["parts_routed_stabilizer"] == 0

    def test_daemon_rejects_conflicting_method(self):
        from repro.config import RunOptions
        from repro.serve.daemon import ServeConfig, ServeDaemon

        daemon = ServeDaemon(
            ServeConfig(port=0, workers=0, run=RunOptions(method="dense"))
        )
        conflict = daemon._check_options({"method": "stabilizer"})
        assert conflict is not None and "method" in conflict
        assert daemon._check_options({"method": "dense"}) is None


# ---------------------------------------------------------------------------
# Generator registry (satellite)
# ---------------------------------------------------------------------------


class TestGenerators:
    def test_registered_and_clifford_only(self):
        for name in ("stabilizer_random", "syndrome"):
            qc = build(name, 7)
            assert is_clifford_circuit(qc.gates), name

    def test_stabilizer_random_is_seed_deterministic(self):
        a = stabilizer_random(6, depth=9, seed=42)
        b = stabilizer_random(6, depth=9, seed=42)
        assert [(g.name, g.qubits) for g in a.gates] == [
            (g.name, g.qubits) for g in b.gates
        ]
        c = stabilizer_random(6, depth=9, seed=43)
        assert [(g.name, g.qubits) for g in a.gates] != [
            (g.name, g.qubits) for g in c.gates
        ]

    def test_syndrome_validation(self):
        with pytest.raises(ValueError):
            syndrome(2)
        with pytest.raises(ValueError):
            stabilizer_random(1)


# ---------------------------------------------------------------------------
# CLI end to end (acceptance: 60-qubit GHZ via `repro simulate`)
# ---------------------------------------------------------------------------


class TestCli:
    def test_sixty_qubit_ghz_simulates_via_auto(self, capsys):
        from repro.cli import main

        rc = main(["simulate", "cat_state", "--qubits", "60",
                   "--method", "auto"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stabilizer" in out
        assert "2^60" in out

    def test_method_dense_still_verifies(self, capsys):
        from repro.cli import main

        rc = main(["simulate", "qft", "--qubits", "8",
                   "--method", "dense", "--verify"])
        assert rc == 0
        assert "max |fused - flat|" in capsys.readouterr().out

    def test_stabilizer_method_verifies_against_flat(self, capsys):
        from repro.cli import main

        rc = main(["simulate", "stabilizer_random", "--qubits", "6",
                   "--method", "stabilizer", "--verify"])
        assert rc == 0
        assert "max |fused - flat|" in capsys.readouterr().out
