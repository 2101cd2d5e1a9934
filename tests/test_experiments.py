"""Experiment-harness tests: every table module, Fig. 10 and the sweep
Figs. 5-9 are read from run and exhibit the paper's qualitative shape."""

import pytest

from repro.analysis.tables import geomean
from repro.experiments import (
    SCALES,
    fig10,
    table1,
    table2,
    table3,
    table4,
    thread_scaling,
)
from repro.experiments.common import (
    Scale,
    partition_cached,
    ranks_for,
    suite_circuits,
)
from repro.experiments.sweep import run_sweep

TINY = SCALES["tiny"]
SMALL = SCALES["small"]


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sweep(TINY)


@pytest.fixture(scope="module")
def small_sweep():
    """Shape assertions need realistic compute/comm balance: the "small"
    scale runs dry (no amplitudes) and stays fast."""
    return run_sweep(SMALL)


class TestCommon:
    def test_scales_defined(self):
        assert set(SCALES) == {"tiny", "small", "paper"}
        assert SCALES["paper"].base_qubits == 30

    def test_suite_has_13_circuits(self):
        suite = suite_circuits(TINY.base_qubits)
        assert len(suite) == 13
        assert suite["adder37"].num_qubits == TINY.base_qubits + 7

    def test_ranks_for_groups(self):
        assert ranks_for("bv", TINY) == TINY.ranks_small
        assert ranks_for("bv35", TINY) == TINY.ranks_large

    def test_partition_cache_hits(self):
        suite = suite_circuits(TINY.base_qubits)
        a = partition_cached(suite["bv"], "Nat", 6)
        b = partition_cached(suite["bv"], "Nat", 6)
        assert a is b

    def test_partition_cache_keys_on_structure_not_on_name(self):
        # Two different circuits sharing a name and a width used to collide.
        suite = suite_circuits(TINY.base_qubits)
        bv, ising = suite["bv"], suite["ising"].copy()
        assert bv.num_qubits == ising.num_qubits
        ising.name = bv.name
        a = partition_cached(bv, "Nat", 6)
        b = partition_cached(ising, "Nat", 6)
        assert a is not b and b.num_gates == len(ising)


class TestSweep:
    def test_sweep_covers_all_algorithms(self, tiny_sweep):
        circuits = tiny_sweep.circuits()
        assert len(circuits) == 13
        for c in circuits:
            for r in tiny_sweep.ranks(c):
                for algo in ("Nat", "DFS", "dagP", "Intel"):
                    rep = tiny_sweep.get(c, r, algo)
                    assert rep.total_seconds > 0

    def test_sweep_cached(self):
        assert run_sweep(TINY) is run_sweep(TINY)


class TestTable1:
    def test_rows_and_render(self):
        res = table1.run(TINY)
        assert len(res.rows) == 13
        text = res.table()
        assert "cat_state" in text and "paper gates" in text

    def test_gate_counts_positive(self):
        for row in table1.run(TINY).rows:
            assert row.gates > 0
            assert row.qubits >= TINY.base_qubits


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(num_qubits=16, limit=10)

    def test_all_rows_present(self, result):
        assert len(result.rows) == 6

    def test_dagp_fewest_parts_and_fastest(self, result):
        for circuit in ("bv", "ising"):
            nat = result.by(circuit, "Nat")
            dagp = result.by(circuit, "dagP")
            assert dagp.parts <= nat.parts
            assert dagp.exec_seconds <= nat.exec_seconds
            assert dagp.dram_pct <= nat.dram_pct
            assert dagp.mem_bound_pct <= nat.mem_bound_pct

    def test_render(self, result):
        assert "DRAM %" in result.table()


class TestFig5:
    def test_improvement_factors_above_one_for_dagp(self, small_sweep):
        factors = small_sweep.factors("dagP")
        assert factors
        # dagP beats IQS on the overwhelming majority of instances.
        wins = sum(1 for f in factors if f > 1.0)
        assert wins / len(factors) > 0.8
        assert geomean(factors) > 1.0

    def test_factor_grows_with_scale_group(self, small_sweep):
        def factors(circuit):
            return [
                small_sweep.improvement_factor(circuit, r, "dagP")
                for r in small_sweep.ranks(circuit)
            ]

        small, large = factors("bv"), factors("bv35")
        assert max(large) >= max(small) * 0.8  # larger circuits at least comparable

    def test_render(self, small_sweep):
        assert "improvement factor" in small_sweep.fig5_table()


class TestFig6:
    def test_strong_scaling(self, small_sweep):
        # More ranks -> faster (close-to-linear): check every circuit/algo.
        for c in small_sweep.circuits():
            for algo in ("dagP", "Intel"):
                sp = small_sweep.speedup(c, algo)
                assert sp > 1.0, (c, algo)

    def test_hisvsim_compute_not_worse_than_iqs(self, small_sweep):
        for c, r in small_sweep.instances():
            dag = small_sweep.get(c, r, "dagP")
            iqs = small_sweep.get(c, r, "Intel")
            assert dag.comp_seconds <= iqs.comp_seconds * 1.01


class TestFig7:
    def test_dagp_lowest_comm(self, small_sweep):
        for c, r in small_sweep.instances():
            dagp = small_sweep.get(c, r, "dagP").comm_seconds
            intel = small_sweep.get(c, r, "Intel").comm_seconds
            assert dagp <= intel * 1.001, (c, r)

    def test_busiest_rank_time_is_the_per_rank_average(self, tiny_sweep):
        # Figs. 7-9 report RunReport.comm_seconds (the busiest rank's
        # alpha-beta time) as the paper's "average per-rank" time.  That
        # holds because both engines only swap a local position with a
        # rank position: every rank moves exactly the same traffic.
        for key, rep in tiny_sweep.reports.items():
            comm, ranks = rep.comm, rep.num_ranks
            assert comm.max_bytes_per_rank * ranks == comm.total_bytes, key
            assert comm.max_msgs_per_rank * ranks == comm.total_msgs, key


class TestFig8:
    def test_ordering(self, small_sweep):
        ratios = small_sweep.comm_ratios()
        for ranks in {k[1] for k in ratios}:
            dagp = ratios.get(("dagP", ranks))
            intel = ratios.get(("Intel", ranks))
            if dagp is not None and intel is not None:
                assert dagp < intel

    def test_render(self, small_sweep):
        assert "communication ratio" in small_sweep.fig8_table()


class TestFig9:
    def test_profiles(self, small_sweep):
        runtime, comm = small_sweep.profiles()
        # dagP should win the largest share of runtime instances (paper: 65%).
        best = {a: runtime[a].rho_at(1.0) for a in ("Nat", "DFS", "dagP", "Intel")}
        assert best["dagP"] == max(best.values())
        assert comm["dagP"].rho_at(1.0) >= 0.5
        assert "θ=1.3" in small_sweep.fig9_table()


class TestFig10:
    def test_multilevel_improves(self):
        res = fig10.run(TINY)
        assert len(res.rows) >= 4
        # Paper: wins on at least 4 of 5 circuits; average reduction > 0.
        wins = sum(1 for r in res.rows if r.reduction > 0)
        assert wins >= len(res.rows) - 1
        assert res.mean_reduction() > 0
        assert "multi-level" in res.table()


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(num_qubits=14, num_gpus=4)

    def test_gates_conserved(self, result):
        for est in result.estimates.values():
            assert sum(r.gates for r in est.rows) == result.total_gates

    def test_dagp_fewest_parts(self, result):
        assert (
            result.estimates["dagP"].num_parts
            <= result.estimates["Nat"].num_parts
        )

    def test_render(self, result):
        assert "partitioning breakdown" in result.table()


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4.run(num_qubits=14, num_gpus=4)

    def test_comm_ordering(self, result):
        est = result.estimates
        assert est["dagP"].comm_seconds <= est["DFS"].comm_seconds * 1.2
        assert est["dagP"].comm_seconds <= est["Nat"].comm_seconds

    def test_hybrid_beats_hyquas(self, result):
        assert (
            result.estimates["dagP"].total_seconds
            < result.estimates["HyQuas"].total_seconds
        )

    def test_render(self, result):
        assert "hybrid" in result.table()


class TestThreadScaling:
    def test_close_to_linear(self):
        res = thread_scaling.run(num_qubits=16, limit=10, threads=[1, 2, 4, 8])
        sp = {r.threads: r.speedup for r in res.rows}
        assert sp[2] > 1.5
        assert sp[4] > 2.5
        assert sp[8] > 4.0
        assert "thread scaling" in res.table()
