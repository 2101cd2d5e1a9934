"""Part-level gate fusion and compiled execution plan tests."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_permutation, make_gate
from repro.partition import get_partitioner
from repro.partition.base import Partition
from repro.sv import SerialBackend, fusion
from repro.sv.fusion import (
    CacheCounters,
    CompiledPartPlan,
    FusedGate,
    FusionGroup,
    OnceCache,
    PlanCache,
    build_part_structure,
    compile_part,
    compile_partition,
    plan_fusion_groups,
)
from repro.sv.hier import ExecutionTrace, HierarchicalExecutor
from repro.sv.kernels import apply_gate_batched, apply_matrix
from repro.sv.simulator import StateVectorSimulator, zero_state

from conftest import SUITE_SMALL, literal_reference, part_contents, random_circuit
from strategies import _ANGLES, circuits


def flat_state(qc):
    sim = StateVectorSimulator(qc.num_qubits)
    sim.run(qc)
    return sim.state


class TestGroupPlanner:
    def test_respects_qubit_limit(self):
        qc = generators.build("qft", 8)
        groups = plan_fusion_groups(list(qc), 3, 3)
        assert all(len(g.qubits) <= 3 for g in groups)

    def test_covers_every_gate_exactly_once(self):
        qc = generators.build("qaoa", 8)
        groups = plan_fusion_groups(list(qc), 4)
        seen = sorted(m for g in groups for m in g.members)
        assert seen == list(range(len(qc)))

    def test_dependency_order_only_swaps_disjoint_gates(self):
        # Any pair whose relative order changed must act on disjoint qubits.
        qc = random_circuit(7, 40, seed=3)
        gates = list(qc)
        groups = plan_fusion_groups(gates, 4)
        emitted = [m for g in groups for m in g.members]
        for pos_a, a in enumerate(emitted):
            for b in emitted[pos_a + 1 :]:
                if b < a:  # b originally preceded a but now runs after
                    assert not (set(gates[a].qubits) & set(gates[b].qubits))

    def test_diagonal_groups_marked_and_wider(self):
        # Pure-diagonal chain: rzz ladder + rz sprinkle over 5 qubits.
        gates = [make_gate("rzz", [q, q + 1], [0.3 * (q + 1)]) for q in range(4)]
        gates += [make_gate("rz", [q], [0.1 * (q + 1)]) for q in range(5)]
        groups = plan_fusion_groups(gates, 2, 4)
        assert all(g.diagonal for g in groups)
        # The diagonal limit (4) admits wider groups than the dense cap (2).
        assert max(len(g.qubits) for g in groups) > 2
        assert all(len(g.qubits) <= 4 for g in groups)
        # A dense gate breaks the diagonal run and obeys the dense cap.
        mixed = gates[:4] + [make_gate("h", [0])]
        mgroups = plan_fusion_groups(mixed, 2, 4)
        dense = [g for g in mgroups if not g.diagonal]
        assert dense and all(len(g.qubits) <= 2 for g in dense)

    def test_single_qubit_chain_fuses_to_one_group(self):
        gates = [make_gate("h", [0]), make_gate("t", [0]), make_gate("h", [0])]
        groups = plan_fusion_groups(gates, 2)
        assert len(groups) == 1
        assert groups[0].members == (0, 1, 2)

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            plan_fusion_groups([], 0)
        with pytest.raises(ValueError):
            plan_fusion_groups([], 3, 2)


class TestFusedGate:
    def test_matrix_is_shared_read_only(self):
        plan = compile_part(
            generators.build("qft", 5), range(5), range(5), fuse=True
        )
        op = plan.ops[0]
        with pytest.raises(ValueError):
            op.matrix()[0, 0] = 0.0

    def test_remap_shares_matrix(self):
        g = FusedGate((2, 5), np.eye(4, dtype=np.complex128), False)
        r = g.remap({2: 0, 5: 1})
        assert r.qubits == (0, 1)
        assert r.matrix() is g.matrix()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FusedGate((0, 1), np.eye(2, dtype=np.complex128), False)


class TestCompiledPlanEquivalence:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_whole_circuit_plan_matches_flat(self, name, n):
        qc = generators.build(name, n)
        plan = compile_part(qc, range(len(qc)), range(n), fuse=True,
                            max_fused_qubits=5)
        state = zero_state(n)
        for op in plan.local_ops():
            apply_matrix(state, op.matrix(), op.qubits, n,
                         diagonal=op.is_diagonal)
        assert np.allclose(state, flat_state(qc), atol=1e-10)

    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    @pytest.mark.parametrize("strategy", ["Nat", "dagP"])
    def test_fused_hierarchical_matches_flat(self, name, n, strategy):
        qc = generators.build(name, n)
        p = get_partitioner(strategy).partition(qc, max(3, n - 3))
        state = zero_state(n)
        HierarchicalExecutor(fuse=True).run(qc, p, state)
        assert np.allclose(state, flat_state(qc), atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 9999), cap=st.integers(1, 6))
    def test_property_random_circuits_any_cap(self, seed, cap):
        qc = random_circuit(7, 30, seed=seed)
        p = get_partitioner("dagP").partition(qc, 5)
        state = zero_state(7)
        HierarchicalExecutor(fuse=True, max_fused_qubits=cap).run(qc, p, state)
        assert np.allclose(state, flat_state(qc), atol=1e-10)

    def test_unfused_plan_one_op_per_gate(self):
        qc = generators.build("qft", 6)
        plan = compile_part(qc, range(len(qc)), range(6), fuse=False)
        assert plan.num_ops == plan.num_source_gates == len(qc)

    def test_fusion_reduces_sweeps_at_least_2x_on_qft(self):
        # Small-scale version of the bench_fusion acceptance criterion.
        qc = generators.build("qft", 12)
        p = get_partitioner("dagP").partition(qc, 9)
        plans = compile_partition(qc, p, fuse=True, max_fused_qubits=5)
        for plan in plans:
            assert plan.num_ops * 2 <= plan.num_source_gates, (
                plan.num_ops,
                plan.num_source_gates,
            )


def sequential_product(gates, group):
    """The construction bind replaced, kept as the oracle: every member
    swept over an identity through the batched kernel, in source order."""
    k = len(group.qubits)
    pos = {q: i for i, q in enumerate(group.qubits)}
    cols = np.eye(1 << k, dtype=np.complex128)
    for m in group.members:
        apply_gate_batched(cols, gates[m].remap(pos), k)
    return cols.T


def circuit_of(n, *gates):
    qc = QuantumCircuit(n)
    for name, qubits, *params in gates:
        qc.append(make_gate(name, qubits, params))
    return qc


def whole_structure(qc, **kwargs):
    return build_part_structure(
        qc, range(len(qc)), range(qc.num_qubits), **kwargs
    )


def assert_bind_matches_oracle(qc, **kwargs):
    structure = whole_structure(qc, **kwargs)
    plan = structure.bind([qc.gates])[0]
    for op, group in zip(plan.ops, structure.groups):
        fused = op.matrix()
        assert op.is_diagonal == group.diagonal
        np.testing.assert_allclose(
            fused, sequential_product(qc.gates, group), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            fused @ fused.conj().T, np.eye(len(fused)), atol=1e-12, rtol=0
        )
    return structure, plan


def angle_variants(qc, count):
    """``count`` circuits with ``qc``'s structure and their own angles."""
    out = []
    for v in range(count):
        other = QuantumCircuit(qc.num_qubits)
        for i, g in enumerate(qc):
            params = [0.37 * (v + 1) + 0.11 * i + p for p in g.params]
            other.append(make_gate(g.name, g.qubits, params))
        out.append(other)
    return out


class TestBindProgram:
    @settings(max_examples=60, deadline=None)
    @given(
        qc=circuits(min_qubits=2, max_qubits=7, max_gates=40, three_qubit=True),
        cap=st.integers(1, 5),
        fuse=st.booleans(),
    )
    def test_property_bind_equals_sequential_product(self, qc, cap, fuse):
        assert_bind_matches_oracle(qc, fuse=fuse, max_fused_qubits=cap)

    def test_all_diagonal_group_at_bonus_width(self):
        # 7 diagonal-only qubits at cap 5: one group, two over the cap.
        qc = circuit_of(
            7,
            ("rz", (0,), 0.3), ("cz", (0, 1)), ("rzz", (1, 2), 0.7),
            ("ccz", (2, 3, 4)), ("crz", (4, 5), 1.1), ("cu1", (6, 5), 0.4),
            ("t", (6,)), ("rzz", (6, 0), 0.9), ("s", (3,)),
        )
        structure, plan = assert_bind_matches_oracle(qc, max_fused_qubits=5)
        assert [len(g.qubits) for g in structure.groups] == [7]
        assert plan.ops[0].is_diagonal

    def test_mixed_diagonal_dense_and_permutation_runs(self):
        # Diagonal runs before, between and after dense members, and
        # permutation members (cx, swap, x) with a diagonal run pending.
        qc = circuit_of(
            4,
            ("rz", (1,), 0.2), ("cz", (0, 1)), ("cx", (2, 0)),
            ("rzz", (0, 3), 0.5), ("h", (3,)), ("t", (3,)), ("swap", (3, 1)),
            ("x", (2,)), ("crz", (2, 1), 0.8), ("u3", (0,), 0.1, 0.2, 0.3),
            ("cy", (1, 3)), ("iswap", (0, 2)), ("rz", (2,), 1.3), ("s", (0,)),
        )
        structure, _ = assert_bind_matches_oracle(qc, max_fused_qubits=4)
        assert len(structure.groups) == 1 and not structure.groups[0].diagonal

    def test_three_qubit_members_inside_a_group(self):
        qc = circuit_of(
            5,
            ("h", (4,)), ("ccx", (3, 0, 4)), ("rz", (0,), 0.4),
            ("cswap", (1, 4, 2)), ("ccz", (2, 1, 0)), ("ry", (3,), 0.6),
            ("ccx", (4, 2, 1)),
        )
        structure, _ = assert_bind_matches_oracle(qc, max_fused_qubits=5)
        assert len(structure.groups) == 1

    @pytest.mark.parametrize("fuse", [True, False])
    def test_single_member_groups_are_the_gate_matrix(self, fuse):
        qc = circuit_of(
            4, ("cswap", (2, 0, 3)), ("rx", (1,), 0.3), ("cx", (3, 1))
        )
        _, plan = assert_bind_matches_oracle(
            qc, fuse=fuse, max_fused_qubits=1
        )
        assert plan.num_ops == len(qc)
        for op, g in zip(plan.ops, qc):
            assert op.qubits == g.qubits
            assert np.array_equal(op.matrix(), g.matrix())
            assert not op.matrix().flags.writeable

    def test_bind_rejects_a_mismatching_gate_list(self):
        qc = circuit_of(3, ("h", (0,)), ("cx", (0, 1)), ("rz", (2,), 0.3),
                        ("cx", (1, 2)))
        structure = whole_structure(qc)
        structure.bind([qc.gates])
        swapped = list(qc.gates)
        swapped[1] = make_gate("cx", (1, 0))
        with pytest.raises(ValueError, match="gate 1 "):
            structure.bind([swapped])
        renamed = list(qc.gates)
        renamed[2] = make_gate("u1", (2,), [0.3])
        with pytest.raises(ValueError, match="gate 2 "):
            structure.bind([renamed])
        with pytest.raises(ValueError, match="spans 4 gates"):
            structure.bind([qc.gates[:3]])
        # A structure never bound before rejects a foreign list too.
        foreign = list(qc.gates)
        foreign[3] = make_gate("cx", (1, 5))
        with pytest.raises(ValueError, match="gate 3 "):
            whole_structure(qc).bind([foreign])
        diagonal = circuit_of(2, ("rz", (0,), 0.1), ("cz", (0, 1)))
        dense = [diagonal[0], make_gate("cx", (0, 1))]
        with pytest.raises(ValueError, match="gate 1 "):
            whole_structure(diagonal).bind([dense])
        # A never-bound structure's kernel class came from the planned
        # names: a permutation swapped for another is refused, not run
        # as a diagonal it no longer is.
        ladder = circuit_of(2, ("cx", (0, 1)), ("rz", (1,), 0.3),
                            ("cx", (0, 1)))
        assert whole_structure(ladder).groups[0].diagonal
        with pytest.raises(ValueError, match="gate 2 is swap"):
            whole_structure(ladder).bind(
                [[*ladder.gates[:2], make_gate("swap", (0, 1))]]
            )

    def test_membership_check_of_a_diagonal_group(self):
        # Diagonal and permutation members both belong to a diagonal
        # group; the first dense or out-of-group member is named.
        gates = [make_gate("cx", (0, 1)), make_gate("rz", (1,), [0.3]),
                 make_gate("cx", (0, 1)), make_gate("h", (1,)),
                 make_gate("rx", (0,), [0.2])]
        group = FusionGroup((0, 1, 2), (0, 1), True)
        (steps,) = fusion._bind_program([group], gates)
        assert [kind for _, _, _, kind, _ in steps] == [
            gate_permutation("cx"), "diag", gate_permutation("cx")
        ]
        with pytest.raises(ValueError, match=r"gate 3 \(h on \(1,\)\)"):
            fusion._bind_program(
                [FusionGroup((0, 1, 2, 3, 4), (0, 1), True)], gates
            )
        with pytest.raises(ValueError, match=r"gate 2 \(cx on \(0, 1\)\)"):
            fusion._bind_program([FusionGroup((1, 2), (1,), True)], gates)

    def test_compile_part_and_get_or_bind_agree_bitwise(self):
        qc = generators.build("qaoa", 8)
        part = get_partitioner("dagP").partition(qc, 6).parts[0]
        direct = compile_part(qc, part.gate_indices, part.qubits)
        cache, seen = PlanCache(), CacheCounters()
        # Bind another angle set first: the cached structure's program
        # is then already compiled when ``qc`` arrives.  ``get_or_bind``
        # is the old name of the one lookup; the key it still accepts
        # is ignored, so even a lying one shares nothing wrong.
        cache.get_or_bind(
            angle_variants(qc, 1)[0], part.gate_indices, part.qubits,
            structural_key="k", counters=seen,
        )
        bound = cache.get_or_bind(
            qc, part.gate_indices, part.qubits, structural_key="other",
            counters=seen,
        )
        assert seen.structure_hits == 1
        assert [op.qubits for op in bound.ops] == [
            op.qubits for op in direct.ops
        ]
        for a, b in zip(bound.ops, direct.ops):
            assert np.array_equal(a.matrix(), b.matrix())

    def test_threads_binding_one_fresh_structure_equal_serial(self):
        base = generators.build("qaoa", 8)
        variants = angle_variants(base, 8)
        serial = whole_structure(base).bind([v.gates for v in variants])
        shared = whole_structure(base)  # no program yet
        plans = [None] * len(variants)
        start = threading.Barrier(len(variants))

        def work(i):
            start.wait(timeout=30)
            plans[i] = shared.bind([variants[i].gates])[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(len(variants))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(plans, serial):
            assert got is not None
            for a, b in zip(got.ops, want.ops):
                assert np.array_equal(a.matrix(), b.matrix())

    def test_index_tables_are_shared_by_key_not_per_gate(self):
        qc = random_circuit(6, 2000, seed=5)
        structure = whole_structure(qc, max_fused_qubits=5)
        structure.bind([qc.gates])
        tables, keys = set(), set()
        for group, steps in zip(structure.groups, structure._program):
            pos = {q: i for i, q in enumerate(group.qubits)}
            for _, _, qubits, kind, table in steps:
                if table is not None:
                    tables.add(id(table))
                    keys.add(
                        (len(pos), tuple(pos[q] for q in qubits), kind)
                    )
        assert sum(len(steps) for steps in structure._program) == 2000
        assert 0 < len(tables) <= len(keys) < 400


#: Diagonal gates, 0/1 permutation gates and two dense ones.
PRODUCT_POOL = ("x", "cx", "ccx", "swap", "cswap", "u1", "rz", "rzz", "cz",
                "cu1", "t", "s", "h", "rx")


def off_diagonal(matrix):
    return matrix[~np.eye(len(matrix), dtype=bool)]


def is_monomial(gates, group):
    """Every member a diagonal or a 0/1 permutation gate: the product
    has one non-zero entry per row, so its class is decidable."""
    return all(
        gates[m].is_diagonal or gate_permutation(gates[m].name) is not None
        for m in group.members
    )


def assert_flag_matches_product(structure, *gate_lists):
    """``diagonal`` ⇒ exactly-zero off-diagonal entries under every angle
    set; a monomial group left unflagged has a non-zero one."""
    for gates in gate_lists:
        plan = structure.bind([gates])[0]
        for op, group in zip(plan.ops, structure.groups):
            assert op.is_diagonal == group.diagonal
            off = off_diagonal(op.matrix())
            if group.diagonal:
                assert not off.any(), (group, op.matrix())
            elif is_monomial(gates, group):
                assert off.any(), (group, op.matrix())


class TestDiagonalByProduct:
    """A group is diagonal when its product is — for every angle — and
    that is decided from gate names, once per structure."""

    @settings(max_examples=150, deadline=None)
    @given(
        qc=circuits(min_qubits=2, max_qubits=5, max_gates=30,
                    three_qubit=True, pool=PRODUCT_POOL),
        cap=st.integers(1, 5),
        data=st.data(),
    )
    def test_property_flag_iff_product_is_diagonal(self, qc, cap, data):
        redrawn = [
            make_gate(g.name, g.qubits,
                      [data.draw(_ANGLES) for _ in g.params])
            for g in qc
        ]
        structure = whole_structure(qc, max_fused_qubits=cap)
        assert_flag_matches_product(structure, qc.gates, redrawn)

    @pytest.mark.parametrize("gates,diagonal", [
        # The qelib1 controlled phase and its relatives.
        ([("u1", (0,), 0.2), ("cx", (0, 1)), ("u1", (1,), -0.2),
          ("cx", (0, 1)), ("u1", (1,), 0.2)], True),
        ([("cx", (0, 1)), ("rz", (1,), 0.7), ("cx", (0, 1))], True),
        ([("swap", (0, 2)), ("rzz", (0, 1), 0.4), ("swap", (2, 0))], True),
        ([("ccx", (0, 1, 2)), ("t", (2,)), ("cz", (0, 2)),
          ("ccx", (1, 0, 2))], True),
        ([("cswap", (2, 0, 1)), ("cu1", (0, 2), 0.9),
          ("cswap", (2, 1, 0))], True),
        ([("x", (1,)), ("rz", (1,), 0.3), ("x", (1,))], True),
        ([("cx", (0, 1)), ("cx", (1, 2)), ("s", (2,)), ("cx", (1, 2)),
          ("cx", (0, 1))], True),
        ([("cx", (0, 1)), ("cx", (0, 1))], True),
        # Permutations that do not cancel, at any angle.
        ([("cx", (0, 1)), ("rz", (1,), 0.7), ("cx", (1, 0))], False),
        ([("x", (0,)), ("rz", (0,), 0.3)], False),
        ([("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 1)),
          ("cx", (1, 2))], False),
        ([("swap", (0, 1)), ("cz", (0, 1))], False),
        # One dense member decides it without a look, even when the
        # product happens to be diagonal at these angles.
        ([("cx", (0, 1)), ("rz", (1,), 0.7), ("cx", (0, 1)),
          ("rx", (0,), 0.0)], False),
        ([("h", (0,)), ("h", (0,))], False),
    ])
    def test_named_cases(self, gates, diagonal):
        qc = circuit_of(3, *gates)
        structure, plan = assert_bind_matches_oracle(qc, max_fused_qubits=3)
        assert [g.diagonal for g in structure.groups] == [diagonal]
        assert_flag_matches_product(
            structure, qc.gates, angle_variants(qc, 1)[0].gates
        )

    def test_permutation_members_do_not_earn_the_bonus_width(self):
        # The grouping rule is the old one: only all-diagonal-gate groups
        # grow past the dense cap, so group boundaries did not move.
        gates = [make_gate("cx", (0, 1)), make_gate("rz", (1,), [0.3]),
                 make_gate("cx", (0, 1)), make_gate("cz", (1, 2)),
                 make_gate("cz", (2, 3))]
        groups = plan_fusion_groups(gates, 2, 4)
        assert [g.members for g in groups] == [(0, 1, 2), (3, 4)]
        assert [g.diagonal for g in groups] == [True, True]
        assert [len(g.qubits) for g in groups] == [2, 3]

    def test_dense_groups_are_skipped_without_composing(self, monkeypatch):
        asked = []
        real = fusion._permutations_cancel
        monkeypatch.setattr(
            fusion, "_permutations_cancel",
            lambda gates, members, qubits:
                asked.append(tuple(members))
                or real(gates, members, qubits),
        )
        qc = circuit_of(
            6, ("h", (0,)), ("cx", (0, 1)), ("rz", (2,), 0.1),
            ("cz", (2, 3)), ("cx", (4, 5)), ("u1", (5,), 0.4),
            ("cx", (4, 5)),
        )
        structure = whole_structure(qc, max_fused_qubits=2)
        # h·cx is dense (not asked), rz·cz all-diagonal (not asked).
        assert asked == [(4, 5, 6)]
        assert [g.diagonal for g in structure.groups] == [False, True, True]

    def test_a_sweep_composes_each_structure_once(self, monkeypatch):
        calls = []
        real = fusion._permutations_cancel
        monkeypatch.setattr(
            fusion, "_permutations_cancel",
            lambda *args: calls.append(tuple(args[1])) or real(*args),
        )
        base = generators.build("qaoa", 10)
        partition = get_partitioner("dagP").partition(base, 7)
        cache, seen = PlanCache(), CacheCounters()
        flagged = 0
        for job, qc in enumerate([base] + angle_variants(base, 103)):
            for part in partition.parts:
                plan = cache.get_or_compile(
                    qc, part.gate_indices, part.qubits, counters=seen
                )
                flagged += sum(op.is_diagonal for op in plan.ops)
            if job == 0:
                first, per_job = list(calls), flagged
        # The cx·rz·cx ladders were found on the first job ...
        assert first and per_job > 0
        # ... and 103 more binds of the same structures asked nothing.
        assert calls == first
        assert flagged == 104 * per_job
        assert seen.structure_misses == len(part_contents(base, partition))

    @pytest.mark.parametrize("name", sorted(generators.GENERATORS))
    def test_every_generator_flag_agrees_with_its_matrices(self, name):
        qc = generators.build(name, 9)
        partition = get_partitioner("dagP").partition(qc, 6)
        for part in partition.parts:
            gates = [qc[g] for g in part.gate_indices]
            structure = build_part_structure(
                qc, part.gate_indices, part.qubits
            )
            assert_flag_matches_product(structure, gates)


class TestPlanCache:
    def test_hits_on_repeated_execution(self):
        qc = generators.build("ising", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        ex, seen = HierarchicalExecutor(fuse=True), CacheCounters()
        ex.run(qc, p, zero_state(8), cache_counters=seen)
        assert (seen.misses, seen.hits) == (p.num_parts, 0)
        ex.run(qc, p, zero_state(8), cache_counters=seen)
        assert (seen.misses, seen.hits) == (p.num_parts, p.num_parts)

    def test_shared_cache_across_executors(self):
        qc = generators.build("bv", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        cache, seen = PlanCache(), CacheCounters()
        HierarchicalExecutor(fuse=True, plan_cache=cache).run(
            qc, p, zero_state(8)
        )
        literal_reference(
            qc, p, zero_state(8), fuse=True, plan_cache=cache, counters=seen
        )
        # The second executor fully reused the first one's plans.
        assert (seen.misses, seen.hits) == (0, p.num_parts)

    def test_distinct_options_distinct_entries(self):
        qc = generators.build("bv", 6)
        cache, seen = PlanCache(), CacheCounters()
        a = cache.get_or_compile(
            qc, range(len(qc)), range(6), fuse=True, counters=seen
        )
        b = cache.get_or_compile(
            qc, range(len(qc)), range(6), fuse=False, counters=seen
        )
        assert a is not b and a.structure is not b.structure
        # Two plans and two structures: ``fuse`` is part of the key.
        assert (seen.misses, seen.structure_misses, len(cache)) == (2, 2, 4)

    def test_eviction_bound(self):
        qc = generators.build("bv", 6)
        cache = PlanCache(max_entries=2)
        for k in (2, 3, 4):
            cache.get_or_compile(
                qc, range(len(qc)), range(6), max_fused_qubits=k
            )
        assert len(cache) == 2

    def test_gather_table_cached_per_plan(self):
        qc = QuantumCircuit(6).h(0).cx(0, 2).h(4)
        plan = compile_part(qc, range(len(qc)), (0, 2, 4), fuse=True)
        t1 = plan.gather_table(6)
        assert t1 is plan.gather_table(6)
        assert plan.gather_table(6).shape == (1 << 3, 1 << 3)

    @pytest.mark.parametrize("n", [6, 19])  # memoised, too big to keep
    def test_gather_rows_are_row_blocks_of_the_table(self, n):
        qc = QuantumCircuit(n).h(0).cx(0, 2).h(4)
        plan = compile_part(qc, range(len(qc)), (4, 0, 2), fuse=True)
        table = plan.gather_table(n)
        rows = plan.gather_rows(n)
        for lo, hi in [(0, 1), (3, 7), (0, table.shape[0])]:
            assert np.array_equal(rows(lo, hi), table[lo:hi])


def op_bytes(plan):
    return [
        (op.qubits, op.diagonal, op.matrix().tobytes()) for op in plan.ops
    ]


def renamed(qc, positions):
    """``qc`` with the gates at ``positions`` swapped for another
    parameterless gate on the same operands: other part contents."""
    swap = {1: ("h", "x"), 2: ("cz", "cx"), 3: ("ccz", "ccx")}
    out = QuantumCircuit(qc.num_qubits)
    for i, g in enumerate(qc):
        if i in positions:
            a, b = swap[len(g.qubits)]
            g = make_gate(b if g.name == a else a, g.qubits, ())
        out.append(g)
    return out


class TestOneLookup:
    """``get_or_compile`` keys a part's structure by what it computes:
    every plan has the bits of ``compile_part`` of its circuit alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        qc=circuits(max_gates=30, three_qubit=True),
        strategy=st.sampled_from(["Nat", "DFS", "dagP"]),
        limit=st.integers(3, 6),
        fuse=st.booleans(),
    )
    def test_property_keyed_and_plain_lookups_agree(
        self, qc, strategy, limit, fuse
    ):
        n = qc.num_qubits
        partition = get_partitioner(strategy).partition(qc, min(limit, n))
        parts = partition.num_parts
        structures = len(part_contents(qc, partition))
        cache, seen = PlanCache(), CacheCounters()
        for part in partition.parts:
            args = (qc, part.gate_indices, part.qubits)
            a = cache.get_or_compile(*args, fuse=fuse, counters=seen)
            assert op_bytes(a) == op_bytes(compile_part(*args, fuse=fuse))
            # A repeat lookup of the same circuit hits.
            assert cache.get_or_compile(*args, fuse=fuse, counters=seen) is a
        assert (seen.misses, seen.hits) == (parts, parts)
        assert (seen.structure_misses, seen.structure_hits) == (
            structures, parts - structures,
        )

        # Plans compiled beforehand serve the run: only hits.
        cache, seen = PlanCache(), CacheCounters()
        compile_partition(qc, partition, fuse=fuse, cache=cache)
        HierarchicalExecutor(fuse=fuse, plan_cache=cache, method="dense").run(
            qc, partition, zero_state(n), cache_counters=seen
        )
        assert (seen.misses, seen.hits) == (0, parts)

    @settings(max_examples=40, deadline=None)
    @given(
        base=circuits(max_gates=16, three_qubit=True),
        repeat=st.integers(1, 3),
        strategy=st.sampled_from(["Nat", "DFS", "dagP"]),
        limit=st.integers(3, 6),
        jobs=st.integers(1, 4),
        data=st.data(),
    )
    def test_property_groups_share_structures_by_content(
        self, base, repeat, strategy, limit, jobs, data
    ):
        """Groups of ``jobs`` circuits — angle variants, some with gates
        renamed (mixed contents) — under both ``fuse`` values and both
        working-set orders, through one cache: each plan has its circuit's
        own bits, parts of equal content share one structure object, and
        one structure is built per distinct content."""
        qc = QuantumCircuit(base.num_qubits)
        for _ in range(repeat):  # repeated blocks: parts of equal content
            qc.extend(base)
        partition = get_partitioner(strategy).partition(
            qc, min(limit, qc.num_qubits)
        )
        group = angle_variants(qc, jobs)
        if data.draw(st.booleans(), label="mixed"):
            flips = data.draw(
                st.sets(st.integers(0, len(qc) - 1), max_size=4),
                label="renamed gates",
            )
            group = [
                renamed(v, flips) if data.draw(st.booleans()) else v
                for v in group
            ]
        cache, seen = PlanCache(), CacheCounters()
        shared, lookups = {}, 0
        for fuse in (True, False):
            for part in partition.parts:
                for inner in dict.fromkeys((part.qubits, part.qubits[::-1])):
                    lookups += jobs
                    plans = cache.get_or_compile_group(
                        group, part.gate_indices, inner, fuse=fuse,
                        counters=seen,
                    )
                    for v, plan in zip(group, plans):
                        alone = compile_part(
                            v, part.gate_indices, inner, fuse=fuse
                        )
                        assert op_bytes(plan) == op_bytes(alone)
                        content = (
                            tuple((v[g].name, v[g].qubits)
                                  for g in part.gate_indices),
                            tuple(inner), fuse,
                        )
                        assert shared.setdefault(
                            content, plan.structure
                        ) is plan.structure
        assert seen.structure_misses == len(shared)
        assert seen.structure_misses + seen.structure_hits == lookups
        assert (seen.misses, seen.hits) == (lookups, 0)


class TestWorkingSet:
    """A part's gates must lie inside its working set."""

    def test_structure_names_the_stray_gate(self):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        with pytest.raises(
            ValueError,
            match=r"gate 2 \(cx on \(1, 2\)\) lies outside the working "
                  r"set \(0, 1\)",
        ):
            build_part_structure(qc, [0, 1, 2], [0, 1])

    @pytest.mark.parametrize("strided_max", [None, -1],
                             ids=["strided", "gather"])
    def test_a_foreign_partition_is_refused_on_both_lanes(self, strided_max):
        qa = QuantumCircuit(2).h(0).h(1)
        pa = Partition.from_assignment(qa, [1, 0], limit=2, strategy="hand")
        qb = QuantumCircuit(2).h(0).s(0)
        executor = HierarchicalExecutor(
            method="dense", backend=SerialBackend(strided_max=strided_max)
        )
        with pytest.raises(
            ValueError,
            match=r"gate 1 \(s on \(0,\)\) lies outside the working "
                  r"set \(1,\)",
        ):
            executor.run(qb, pa, zero_state(2))


class TestOnceCache:
    """The one compute-once-and-bound mechanism behind the partition
    cache and both plan-cache layers."""

    def test_many_threads_one_key_one_compute(self):
        cache, calls = OnceCache(4), []
        barrier = threading.Barrier(8)
        results = []

        def compute():
            calls.append(threading.get_ident())
            return object()

        def ask():
            barrier.wait(10)
            results.append(cache.get("k", compute))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and len(results) == 8
        assert len({id(value) for value, _ in results}) == 1
        # The computing thread reports a miss, every follower a hit.
        assert sorted(cached for _, cached in results) == [False] + [True] * 7

    def test_raising_compute_leaves_no_entry_and_wakes_waiters(self):
        cache = OnceCache(4)
        entered, release = threading.Event(), threading.Event()

        def boom():
            entered.set()
            assert release.wait(10)
            raise RuntimeError("boom")

        failed = []

        def first():
            try:
                cache.get("k", boom)
            except RuntimeError as exc:
                failed.append(str(exc))

        got = []
        owner = threading.Thread(target=first)
        waiter = threading.Thread(
            target=lambda: got.append(cache.get("k", lambda: "second"))
        )
        owner.start()
        assert entered.wait(10)
        waiter.start()
        release.set()
        owner.join(10)
        waiter.join(10)
        assert not owner.is_alive() and not waiter.is_alive()
        assert failed == ["boom"]
        # The waiter was woken, found no entry, and computed itself.
        assert got == [("second", False)]
        assert cache.get("k", lambda: "third") == ("second", True)

    def test_evicts_least_recently_used_first(self):
        cache = OnceCache(2)
        for key in "abc":
            cache.get(key, key.upper)
        assert len(cache) == 2
        assert cache.get("b", str) == ("B", True)        # refreshed
        assert cache.get("d", lambda: "D") == ("D", False)  # evicts "c"
        assert cache.get("b", str) == ("B", True)
        assert cache.get("c", lambda: "again") == ("again", False)
        with pytest.raises(ValueError):
            OnceCache(0)

    def test_an_in_flight_key_is_never_evicted(self):
        cache, calls = OnceCache(1), []
        entered, release = threading.Event(), threading.Event()

        def slow():
            calls.append("slow")
            entered.set()
            assert release.wait(10)
            return "slow"

        got = []
        owner = threading.Thread(
            target=lambda: got.append(cache.get("k", slow))
        )
        owner.start()
        assert entered.wait(10)
        for other in range(3):  # overflow the cache while "k" computes
            cache.get(other, lambda: other)
        follower = threading.Thread(
            target=lambda: got.append(cache.get("k", slow))
        )
        follower.start()
        release.set()
        owner.join(10)
        follower.join(10)
        assert not owner.is_alive() and not follower.is_alive()
        assert calls == ["slow"]
        assert sorted(got) == [("slow", False), ("slow", True)]
        cache.clear()
        assert len(cache) == 0


class TestDistributedFusion:
    def test_hisvsim_fused_matches_flat(self):
        from repro.dist import HiSVSimEngine

        qc = generators.build("qft", 9)
        p = get_partitioner("dagP").partition(qc, 7)
        state, report = HiSVSimEngine(4, fuse=True).run(qc, p)
        assert np.allclose(state.to_full(), flat_state(qc), atol=1e-10)
        # Fewer shard sweeps than gates were charged.
        assert report.compute.gates < len(qc)

    def test_hisvsim_fused_dry_matches_real(self):
        from repro.dist import HiSVSimEngine

        qc = generators.build("ising", 9)
        p = get_partitioner("dagP").partition(qc, 7)
        _, real = HiSVSimEngine(4, fuse=True).run(qc, p)
        _, dry = HiSVSimEngine(4, fuse=True, dry_run=True).run(qc, p)
        assert real.comp_seconds == pytest.approx(dry.comp_seconds)
        assert real.comm.total_bytes == dry.comm.total_bytes

    def test_shared_plan_cache_between_engines(self):
        from repro.dist import HiSVSimEngine

        qc = generators.build("bv", 9)
        p = get_partitioner("dagP").partition(qc, 7)
        cache = PlanCache()
        HiSVSimEngine(4, fuse=True, plan_cache=cache).run(qc, p)
        plans = len(cache)
        assert plans > 0
        HiSVSimEngine(8, fuse=True, plan_cache=cache).run(qc, p)
        assert len(cache) == plans  # same parts, plans reused
