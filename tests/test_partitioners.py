"""Strategy tests: Nat, DFS, dagP end-to-end on the benchmark suite."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.partition import (
    DagPPartitioner,
    DFSPartitioner,
    ILPPartitioner,
    NaturalPartitioner,
    PartitionError,
    get_partitioner,
    validate_partition,
)
from repro.partition.dfs import random_dfs_topological_order
from repro.partition.natural import cutoff_assignment

from conftest import SUITE_SMALL, dfs_partition_reference, random_circuit
from strategies import circuits

STRATS = ["Nat", "DFS", "dagP"]


class TestRegistry:
    def test_get_partitioner(self):
        assert get_partitioner("Nat").name == "Nat"
        assert get_partitioner("DFS", trials=3).trials == 3
        with pytest.raises(ValueError, match="choose from"):
            get_partitioner("bogus")


class TestCutoff:
    def test_respects_limit(self):
        masks = [0b11, 0b110, 0b1100, 0b11000]
        a = cutoff_assignment(masks, range(4), limit=3)
        # Parts: {0,1} (qubits 0..2), then {2,3} (qubits 2..4).
        assert a == [0, 0, 1, 1]

    def test_single_wide_gate_rejected(self):
        with pytest.raises(PartitionError):
            cutoff_assignment([0b111], [0], limit=2)

    def test_one_part_when_everything_fits(self):
        masks = [0b1, 0b10, 0b11]
        assert cutoff_assignment(masks, range(3), limit=2) == [0, 0, 0]


class TestDFSOrder:
    def test_random_order_is_topological(self):
        import random

        qc = random_circuit(6, 40, seed=2)
        from repro.dag import GateGraph, gate_dependency_edges

        order = random_dfs_topological_order(
            GateGraph.from_circuit(qc), random.Random(0)
        )
        assert sorted(order) == list(range(len(qc)))
        pos = {g: i for i, g in enumerate(order)}
        for u, v in gate_dependency_edges(qc):
            assert pos[u] < pos[v]

    def test_seed_reproducibility(self):
        qc = generators.build("qaoa", 8)
        a = DFSPartitioner(trials=4, seed=9).partition(qc, 5)
        b = DFSPartitioner(trials=4, seed=9).partition(qc, 5)
        assert a.assignment() == b.assignment()

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            DFSPartitioner(trials=0)

    @settings(max_examples=60, deadline=None)
    @given(qc=circuits(max_qubits=8, max_gates=40), limit=st.integers(2, 6),
           trials=st.integers(1, 8), seed=st.integers(0, 50))
    def test_property_same_partition_as_first_written(
        self, qc, limit, trials, seed
    ):
        """Comparing trials by part count alone keeps the partition the
        loop that built every trial's ``Partition`` kept, first best
        winning ties."""
        partitioner = DFSPartitioner(trials=trials, seed=seed)
        got = partitioner.partition(qc, limit)
        assert got == dfs_partition_reference(partitioner, qc, limit)


@pytest.mark.parametrize("strategy", STRATS)
@pytest.mark.parametrize("name,n", SUITE_SMALL)
class TestSuiteValidity:
    def test_valid_partition(self, strategy, name, n):
        qc = generators.build(name, n)
        limit = max(3, n - 3)
        p = get_partitioner(strategy).partition(qc, limit)
        assert validate_partition(qc, p).ok
        assert p.strategy == strategy
        assert p.limit == limit
        assert p.max_working_set() <= limit


class TestQuality:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_dfs_not_worse_than_nat(self, name, n):
        # The paper's motivation for DFS: it remedies Nat's weakness.
        qc = generators.build(name, n)
        limit = max(3, n // 2 + 1)
        nat = NaturalPartitioner().partition(qc, limit)
        dfs = DFSPartitioner(trials=8).partition(qc, limit)
        assert dfs.num_parts <= nat.num_parts

    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_dagp_competitive_with_dfs(self, name, n):
        # Fig 9a: dagP is best ~65% of the time and within 1.3x always;
        # as a hard invariant we allow at most +2 parts vs DFS.
        qc = generators.build(name, n)
        limit = max(3, n // 2 + 1)
        dfs = DFSPartitioner(trials=8).partition(qc, limit)
        dagp = DagPPartitioner().partition(qc, limit)
        assert dagp.num_parts <= dfs.num_parts + 2

    def test_everything_fits_gives_single_part(self):
        qc = generators.build("bv", 8)
        for strategy in STRATS:
            p = get_partitioner(strategy).partition(qc, 8)
            assert p.num_parts == 1

    def test_gate_wider_than_limit_rejected(self):
        qc = QuantumCircuit(4)
        qc.ccx(0, 1, 2)
        for strategy in STRATS:
            with pytest.raises(PartitionError):
                get_partitioner(strategy).partition(qc, 2)


class TestEdgeCases:
    def test_empty_circuit(self):
        qc = QuantumCircuit(3)
        for strategy in STRATS:
            p = get_partitioner(strategy).partition(qc, 2)
            assert p.num_parts == 0

    def test_single_gate(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        for strategy in STRATS:
            p = get_partitioner(strategy).partition(qc, 2)
            assert p.num_parts == 1
            assert p.parts[0].qubits == (0, 2)

    def test_dagp_invalid_limit(self):
        with pytest.raises(ValueError):
            DagPPartitioner().partition(QuantumCircuit(2), 0)

    @pytest.mark.parametrize("make", [
        NaturalPartitioner, DFSPartitioner, DagPPartitioner, ILPPartitioner,
    ], ids=STRATS + ["ILP"])
    @pytest.mark.parametrize("limit, complaint", [
        (2.5, "an int (got 2.5)"),
        (True, "an int (got True)"),
        ("3", "an int (got '3')"),
        (None, "an int (got None)"),
        (0, ">= 1 (got 0)"),
        (-1, ">= 1 (got -1)"),
    ], ids=["float", "bool", "str", "None", "zero", "negative"])
    def test_limit_follows_the_option_rule(self, make, limit, complaint):
        """Every strategy refuses a bad ``limit`` before any work, with
        the message ``RunOptions`` gives (``config.check_count``)."""
        qc = QuantumCircuit(2).cx(0, 1)
        message = re.escape(f"limit must be {complaint}") + "$"
        with pytest.raises(ValueError, match=message):
            make().partition(qc, limit)

    def test_dagp_no_merge_option(self):
        qc = generators.build("ising", 8)
        with_merge = DagPPartitioner(do_merge=True).partition(qc, 5)
        without = DagPPartitioner(do_merge=False).partition(qc, 5)
        assert with_merge.num_parts <= without.num_parts
        assert validate_partition(qc, without).ok


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 9999), limit=st.integers(3, 6))
def test_property_all_strategies_produce_valid_partitions(seed, limit):
    qc = random_circuit(7, 30, seed=seed)
    for strategy in STRATS:
        p = get_partitioner(strategy).partition(qc, limit)
        validate_partition(qc, p, raise_on_error=True)


class TestPartitionerObjectsHoldConfigurationOnly:
    """``partition()`` keeps no per-call state on the instance."""

    ROUNDS = 40

    @pytest.mark.parametrize("make", [
        DagPPartitioner, lambda: DFSPartitioner(trials=8),
    ], ids=["dagP", "DFS"])
    def test_one_instance_shared_by_two_threads(self, make):
        import sys
        import threading

        shared = make()
        work = [(generators.build("qaoa", 8), 5), (generators.build("qft", 9), 6)]
        serial = [shared.partition(qc, limit).assignment() for qc, limit in work]
        results = [[] for _ in work]

        def drive(i):
            qc, limit = work[i]
            for _ in range(self.ROUNDS):
                try:
                    results[i].append(shared.partition(qc, limit).assignment())
                except Exception as exc:  # recorded, compared below
                    results[i].append(repr(exc))

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, expected in enumerate(serial):
            assert results[i] == [expected] * self.ROUNDS

    def test_partition_that_raises_leaves_seed_as_constructed(self, monkeypatch):
        from repro.partition.dagp import driver

        real = driver.initial_bisection

        def raise_on_second_seed(sub, seed, **kwargs):
            if seed == 8:
                raise RuntimeError("second seed")
            return real(sub, seed=seed, **kwargs)

        monkeypatch.setattr(driver, "initial_bisection", raise_on_second_seed)
        partitioner = DagPPartitioner(seed=7)
        before = dict(vars(partitioner))
        with pytest.raises(RuntimeError, match="second seed"):
            partitioner.partition(generators.build("qaoa", 8), 5)
        assert vars(partitioner) == before and partitioner.seed == 7

    @pytest.mark.parametrize("cls", [
        NaturalPartitioner, DFSPartitioner, DagPPartitioner,
    ])
    def test_no_assignment_to_self_outside_init(self, cls):
        import ast
        import inspect
        import textwrap

        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name != "__init__":
                stores = [
                    node.attr for node in ast.walk(func)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ]
                assert not stores, f"{cls.__name__}.{func.name} sets {stores}"


class TestOneDependencyPassPerCall:
    """A partitioner reads the circuit's dependencies once per call."""

    @staticmethod
    def _count_reads(monkeypatch):
        """Wrap the dependency pass wherever a module holds a reference."""
        import sys

        from repro.partition import gate_dependency_edges as real

        reads = []

        def counted(circuit):
            reads.append(1)
            return real(circuit)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and \
                    getattr(module, "gate_dependency_edges", None) is real:
                monkeypatch.setattr(module, "gate_dependency_edges", counted)
        return reads

    @pytest.mark.parametrize("make", [
        NaturalPartitioner, lambda: DFSPartitioner(trials=8), DagPPartitioner,
    ], ids=STRATS)
    def test_partition_reads_dependencies_once(self, make, monkeypatch):
        reads = self._count_reads(monkeypatch)
        qc = generators.build("qaoa", 8)
        partition = make().partition(qc, 5)
        assert len(reads) == 1
        assert partition.num_parts > 1

    def test_find_cuts_reads_once_more_for_its_merge(self, monkeypatch):
        from repro.cut import find_cuts

        reads = self._count_reads(monkeypatch)
        plan = find_cuts(generators.build("qaoa", 8), max_width=5)
        assert len(reads) == 2
        assert plan.num_cuts >= 1
