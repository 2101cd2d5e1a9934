"""GPU model / hybrid estimator / performance-profile / table tests."""

import math

import pytest

from repro.analysis.perfprofile import performance_profile
from repro.analysis.tables import fmt, geomean, render_table
from repro.circuits.generators import qaoa
from repro.hybrid import (
    GPUModel,
    HyQuasChunkPartitioner,
    V100,
    estimate_hybrid,
    estimate_hyquas_baseline,
)
from repro.partition import DagPPartitioner, NaturalPartitioner


class TestGPUModel:
    def test_empty_part_is_free(self):
        assert V100.part_time(20, []) == 0.0

    def test_time_scales_with_gates(self):
        qc = qaoa(12, p=2)
        gates = list(qc)
        t1 = V100.part_time(12, gates[:50])
        t2 = V100.part_time(12, gates)
        assert t2 > t1

    def test_time_scales_with_width(self):
        qc = qaoa(12, p=2)
        gates = list(qc)
        assert V100.part_time(20, gates) > V100.part_time(14, gates)

    def test_fusion_reduces_time(self):
        qc = qaoa(12, p=2)
        gates = list(qc)
        fast = GPUModel(fusion=16.0).part_time(22, gates)
        slow = GPUModel(fusion=1.0).part_time(22, gates)
        assert fast < slow

    def test_paper_ballpark(self):
        # Table III: ~900 gates on 26 local qubits take 100-400 ms.
        qc = qaoa(24, p=6)
        t = V100.part_time(26, list(qc)[:900])
        assert 0.03 < t < 1.0


class TestHybridEstimates:
    def _circuit(self):
        qc = qaoa(14, p=4)
        qc.name = "qaoa_14"
        return qc

    def test_gates_conserved(self):
        qc = self._circuit()
        p = DagPPartitioner().partition(qc, 12)
        est = estimate_hybrid(qc, p, num_gpus=4)
        assert sum(r.gates for r in est.rows) == len(qc)
        assert est.num_parts == p.num_parts
        assert est.total_seconds == pytest.approx(
            est.gpu_seconds + est.comm_seconds
        )

    def test_dagp_comm_below_nat(self):
        qc = self._circuit()
        dagp = estimate_hybrid(qc, DagPPartitioner().partition(qc, 12), 4)
        nat = estimate_hybrid(qc, NaturalPartitioner().partition(qc, 12), 4)
        assert dagp.comm_seconds <= nat.comm_seconds

    def test_hybrid_dagp_beats_hyquas(self):
        # Table IV headline.
        qc = self._circuit()
        dagp = estimate_hybrid(qc, DagPPartitioner().partition(qc, 12), 4)
        hyquas = estimate_hyquas_baseline(qc, 4)
        assert dagp.total_seconds < hyquas.total_seconds

    def test_chunker_is_natural_scan(self):
        qc = self._circuit()
        chunks = HyQuasChunkPartitioner().partition(qc, 12)
        nat = NaturalPartitioner().partition(qc, 12)
        assert chunks.num_parts == nat.num_parts
        assert chunks.strategy == "HyQuas-chunk"

    def test_power_of_two_gpus_required(self):
        qc = self._circuit()
        p = DagPPartitioner().partition(qc, 12)
        with pytest.raises(ValueError):
            estimate_hybrid(qc, p, num_gpus=3)
        with pytest.raises(ValueError):
            estimate_hyquas_baseline(qc, 5)


class TestPerformanceProfile:
    COSTS = {
        "A": {"i1": 1.0, "i2": 2.0, "i3": 4.0},
        "B": {"i1": 2.0, "i2": 1.0, "i3": 1.0},
    }

    def test_rho_at_one_counts_wins(self):
        curves = performance_profile(self.COSTS)
        assert curves["A"].rho_at(1.0) == pytest.approx(1 / 3)
        assert curves["B"].rho_at(1.0) == pytest.approx(2 / 3)

    def test_rho_monotone_and_saturates(self):
        curves = performance_profile(self.COSTS)
        for c in curves.values():
            assert list(c.rho) == sorted(c.rho)
            assert c.rho[-1] == pytest.approx(1.0)

    def test_rho_at_between_points(self):
        curves = performance_profile(self.COSTS, thetas=[1.0, 2.0, 4.0])
        assert curves["A"].rho_at(2.5) == curves["A"].rho_at(2.0)

    def test_missing_instance_never_within(self):
        costs = {"A": {"i1": 1.0, "i2": 1.0}, "B": {"i1": 1.0}}
        curves = performance_profile(costs, thetas=[1.0, 10.0])
        assert curves["B"].rho[-1] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_profile({"A": {}})
        with pytest.raises(ValueError):
            performance_profile({"A": {"i": -1.0}})


class TestTables:
    def test_render_plain(self):
        out = render_table(["a", "b"], [(1, 2.5), ("x", 3)], title="T")
        assert "T" in out and "a" in out
        lines = out.strip().split("\n")
        assert len(lines) == 5  # title, header, rule, 2 rows

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])

    def test_fmt(self):
        assert fmt(12345) == "12,345"
        assert fmt(0.5) == "0.5"
        assert fmt(1.23456e-9) == "1.235e-09"
        assert fmt(True) == "True"
        assert fmt("s") == "s"
        assert fmt(0.0) == "0"

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
