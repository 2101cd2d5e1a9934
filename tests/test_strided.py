"""Edge-case tests for the gather-free strided kernel path.

The strided path skips the gather matrix entirely for small fused
groups, applying each op through a bit-strided view of the flat state.
Its contract is strict: bit-identical results to the gather path (both
reduce to the same-shape GEMM), on every backend, for every operand
layout — non-adjacent targets, targets above the threaded row-block
split, control extraction, and diagonal/controlled combinations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.dist import HiSVSimEngine
from repro.partition import get_partitioner
from repro.sv import (
    ExecutionTrace,
    HierarchicalExecutor,
    SerialBackend,
    ThreadedBackend,
    apply_gate_reference,
    apply_matrix,
    apply_matrix_strided,
    bytes_touched_gather_part,
    bytes_touched_strided,
    compile_partition,
    flops_for_gate,
    split_controls,
    zero_state,
)
from repro.sv.fusion import compile_part

from conftest import random_circuit
from strategies import circuits

#: Controlled gates and what commutes with their controls: fused groups
#: of these keep control structure.
CONTROLLED_POOL = (
    "cx", "cz", "ccx", "ccz", "cswap", "cu1", "crz", "ch", "x", "rz", "t",
)


def _random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(
        1 << num_qubits
    )
    state /= np.linalg.norm(state)
    return state.astype(np.complex128)


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    return np.ascontiguousarray(q)


# ---------------------------------------------------------------------------
# split_controls
# ---------------------------------------------------------------------------


class TestSplitControls:
    def test_cx_peels_one_control(self):
        g = make_gate("cx", [0, 1])
        controls, targets, sub = split_controls(g.matrix(), g.qubits)
        assert controls == (0,)
        assert targets == (1,)
        np.testing.assert_array_equal(
            sub, np.array([[0, 1], [1, 0]], dtype=np.complex128)
        )

    def test_ccx_peels_two_controls(self):
        g = make_gate("ccx", [2, 0, 1])
        controls, targets, sub = split_controls(g.matrix(), g.qubits)
        assert set(controls) == {2, 0}
        assert targets == (1,)
        assert sub.shape == (2, 2)

    def test_dense_unitary_has_no_controls(self):
        m = _random_unitary(4, seed=1)
        controls, targets, sub = split_controls(m, (3, 5))
        assert controls == ()
        assert targets == (3, 5)
        assert sub is m or np.array_equal(sub, m)

    @settings(max_examples=80, deadline=None)
    @given(
        qc=st.one_of(
            circuits(max_qubits=5, max_gates=12, three_qubit=True),
            circuits(
                max_qubits=5, max_gates=12, three_qubit=True,
                pool=CONTROLLED_POOL,
            ),
        ),
        cap=st.integers(1, 5),
    )
    def test_property_controls_follow_the_mask_rule(self, qc, cap):
        # Every fused matrix gets the controls the rule as first written
        # (bit masks and np.ix_ blocks) finds, and the same reduced
        # matrix.
        plan = compile_part(
            qc, range(len(qc)), range(qc.num_qubits), max_fused_qubits=cap
        )
        for op in plan.ops:
            m = op.matrix()
            controls, targets, sub = split_controls(m, op.qubits)
            found = _controls_reference(m, len(op.qubits))
            assert controls == tuple(op.qubits[c] for c in found)
            keep = [
                i for i in range(len(m)) if all((i >> c) & 1 for c in found)
            ]
            assert np.array_equal(sub, m[np.ix_(keep, keep)])
            assert len(targets) + len(controls) == len(op.qubits)

    def test_near_identity_block_is_not_a_control(self):
        # The bit=0 block must be *exactly* identity — a 1e-16 smudge
        # disqualifies the operand, keeping extraction exact.
        g = make_gate("cx", [0, 1])
        m = np.array(g.matrix(), copy=True)
        m[0, 0] = 1.0 + 1e-16j
        controls, targets, _ = split_controls(m, (0, 1))
        assert controls == ()
        assert targets == (0, 1)


def _controls_reference(matrix: np.ndarray, k: int) -> list:
    """Operand positions that are controls, by the rule as first
    written: block diagonal in the bit, the bit=0 block exactly I."""
    dim = 1 << k
    idx = np.arange(dim)
    found = []
    for c in range(k):
        bits = (idx >> c) & 1
        if matrix[bits[:, None] != bits[None, :]].any():
            continue
        zero = idx[bits == 0]
        if np.array_equal(matrix[np.ix_(zero, zero)], np.eye(dim >> 1)):
            found.append(c)
    return found


# ---------------------------------------------------------------------------
# apply_matrix_strided vs the gather-path kernels
# ---------------------------------------------------------------------------


class TestStridedKernel:
    N = 7

    def _check(self, matrix, qubits, diagonal=False, seed=0):
        state = _random_state(self.N, seed)
        via_gather = state.copy()
        apply_matrix(via_gather, matrix, qubits, self.N, diagonal=diagonal)
        via_strided = state.copy()
        apply_matrix_strided(
            via_strided, matrix, qubits, self.N, diagonal=diagonal
        )
        assert np.array_equal(via_gather, via_strided), (qubits, diagonal)

    def test_non_adjacent_targets(self):
        for qubits in ((0, 4), (1, 6), (6, 0), (2, 5)):
            self._check(_random_unitary(4, seed=11), qubits, seed=3)

    def test_top_and_bottom_qubit(self):
        self._check(_random_unitary(2, seed=5), (self.N - 1,))
        self._check(_random_unitary(2, seed=6), (0,))

    def test_three_qubit_dense(self):
        self._check(_random_unitary(8, seed=7), (0, 3, 6), seed=4)

    def test_controlled_dense(self):
        for order in ([0, 5], [5, 0], [3, 1]):
            g = make_gate("cx", order)
            self._check(g.matrix(), g.qubits, seed=5)
        g = make_gate("ccx", [6, 2, 4])
        self._check(g.matrix(), g.qubits, seed=6)

    def test_diagonal_and_controlled_diagonal(self):
        for gate in (
            make_gate("rz", [3], [0.7]),
            make_gate("cz", [1, 5]),
            make_gate("crz", [4, 0], [1.1]),
            make_gate("rzz", [2, 6], [0.4]),
            make_gate("ccz", [0, 3, 6]),
        ):
            self._check(gate.matrix(), gate.qubits, diagonal=True, seed=8)
            # Diagonal gates are also valid dense ops; both lanes agree.
            self._check(gate.matrix(), gate.qubits, diagonal=False, seed=8)

    def test_fully_controlled_phase_dense_lane(self):
        # cu1 is diagonal but the fusion planner may hand it to the
        # dense lane; every operand is then a control (1x1 active
        # block) and one control demotes back to a target so the work
        # stays a GEMM.
        g = make_gate("cu1", [5, 2], [0.9])
        self._check(g.matrix(), g.qubits, diagonal=False, seed=9)

    def test_matches_reference_kernels(self):
        state = zero_state(self.N)
        strided = zero_state(self.N)
        for gate in random_circuit(self.N, 24, seed=17):
            apply_gate_reference(state, gate, self.N)
            apply_matrix_strided(
                strided, gate.matrix(), gate.qubits, self.N,
                diagonal=gate.is_diagonal,
            )
        assert float(np.max(np.abs(state - strided))) < 1e-10


# ---------------------------------------------------------------------------
# Strided vs gather through the executor, across backends
# ---------------------------------------------------------------------------


def _run(qc, p, backend, **kwargs) -> np.ndarray:
    state = zero_state(qc.num_qubits)
    HierarchicalExecutor(backend=backend, **kwargs).run(qc, p, state)
    return state


class TestStridedVsGatherBackends:
    @pytest.mark.parametrize("seed", range(4))
    def test_serial_strided_bit_identical_to_gather(self, seed):
        qc = random_circuit(7, 18, seed=seed)
        p = get_partitioner("dagP").partition(qc, 5)
        gather = _run(qc, p, SerialBackend(strided_max=-1))
        strided = _run(qc, p, SerialBackend())
        assert np.array_equal(gather, strided)

    @pytest.mark.parametrize("seed", range(8))
    def test_threaded_strided_bit_identical_to_gather(
        self, seed, small_blocks
    ):
        # The pinned contract is strided-vs-gather *within* a backend.
        # Small blocks split the toy state so the threaded strided lane
        # runs row-blocked on the pool.
        qc = random_circuit(8, 20, seed=100 + seed)
        p = get_partitioner("dagP").partition(qc, 6)
        with ThreadedBackend(4, strided_max=-1) as b:
            gather = _run(qc, p, b)
        with ThreadedBackend(4) as b:
            strided = _run(qc, p, b)
        assert np.array_equal(gather, strided)

    def test_top_qubit_targets_span_row_blocks(self, small_blocks):
        # Every gate touches the top qubit: the threaded strided view
        # degenerates to a single row and must fall back to the serial
        # strided sweep without error (and without losing accuracy).
        qc = random_circuit(7, 12, seed=41)
        gates = [
            make_gate("cx", [q, 6]) if q != 6 else make_gate("h", [6])
            for q in range(7)
        ]
        for g in gates:
            qc.append(g)
        p = get_partitioner("Nat").partition(qc, 6)
        serial = _run(qc, p, SerialBackend())
        with ThreadedBackend(4) as b:
            threaded = _run(qc, p, b)
        assert float(np.max(np.abs(serial - threaded))) < 1e-12


# ---------------------------------------------------------------------------
# Hidden-diagonal parts: every route reads the one flag
# ---------------------------------------------------------------------------


def _phase_ladder(num_qubits: int, rounds: int = 3) -> QuantumCircuit:
    """``cx·rz·cx`` on every neighbouring pair: no gate but ``rz`` is
    called diagonal, every fused group is."""
    qc = QuantumCircuit(num_qubits, name="phase_ladder")
    for r in range(rounds):
        for q in range(num_qubits - 1):
            qc.cx(q, q + 1).rz(0.3 + 0.1 * q + r, q + 1).cx(q, q + 1)
    return qc


@pytest.mark.parametrize("build,all_diagonal", [
    (lambda: generators.build("qft", 10), False),
    (lambda: _phase_ladder(10), True),
], ids=["qft10", "cx-rz-cx-ladder"])
def test_hidden_diagonal_routes_agree(build, all_diagonal, small_blocks):
    qc = build()
    n, ranks = qc.num_qubits, 4
    p = get_partitioner("dagP").partition(qc, 7)
    plans = compile_partition(qc, p)
    ops = [op for plan in plans for op in plan.ops]
    hidden = [
        op
        for part, plan in zip(p.parts, plans)
        for op, group in zip(plan.ops, plan.structure.groups)
        if op.is_diagonal
        and not all(
            qc[part.gate_indices[m]].is_diagonal for m in group.members
        )
    ]
    assert hidden and all(op.is_diagonal for op in ops) == all_diagonal

    start = _random_state(n, seed=7)
    want = start.copy()
    for g in qc:
        apply_gate_reference(want, g, n)

    def run(backend):
        state, trace = start.copy(), ExecutionTrace()
        HierarchicalExecutor(backend=backend).run(qc, p, state, trace=trace)
        assert trace.diagonal_ops == sum(op.is_diagonal for op in ops)
        return state, trace

    gathered, trace = run(SerialBackend(strided_max=-1))
    assert trace.gathered_parts == p.num_parts
    strided, trace = run(SerialBackend(strided_max=5))
    assert trace.strided_parts == p.num_parts
    for state in (gathered, strided):
        assert float(np.max(np.abs(state - want))) < 1e-10
    with ThreadedBackend(2, strided_max=-1) as b:
        threaded, _ = run(b)
    if all_diagonal:
        # An elementwise multiply does not depend on block boundaries.
        assert np.array_equal(threaded, gathered)
    else:
        assert float(np.max(np.abs(threaded - want))) < 1e-10

    # The sharded route, and its model charges what was executed.
    shards, report = HiSVSimEngine(ranks, fuse=True).run(
        qc, p, initial_full=start
    )
    assert float(np.max(np.abs(shards.to_full() - want))) < 1e-10
    local = n - 2
    assert report.compute.gates == len(ops)
    assert report.compute.flops == sum(
        flops_for_gate(op.num_qubits, local, op.is_diagonal) for op in ops
    )
    assert report.compute.flops < sum(
        flops_for_gate(op.num_qubits, local) for op in ops
    )


# ---------------------------------------------------------------------------
# Configuration and traffic model
# ---------------------------------------------------------------------------


class TestStridedConfig:
    def test_traffic_model_favors_strided_for_small_groups(self):
        n = 20
        # One 2-qubit op: the gather part moves table + gather + op +
        # scatter traffic; the strided sweep only reads/writes the state.
        assert bytes_touched_strided(n) < bytes_touched_gather_part(n, 1)
        # Controls shrink the touched slice further.
        assert bytes_touched_strided(n, 2) == bytes_touched_strided(n) // 4
