"""Seed-determinism regression: identical runs yield identical reports.

Every figure in the reproduction depends on model numbers being a pure
function of (circuit, partition, machine); host noise may only enter
``wall_seconds``.
"""

from dataclasses import asdict

import pytest

from repro.circuits import generators
from repro.dist import HiSVSimEngine, IQSEngine
from repro.partition import get_partitioner


def model_fields(report):
    """Everything in a RunReport except host wall time."""
    d = asdict(report)
    d.pop("wall_seconds")
    return d


class TestDeterministicReports:
    @pytest.mark.parametrize("name,n", [("qaoa", 10), ("qft", 9), ("adder", 10)])
    def test_hisvsim_dry_runs_are_byte_identical(self, name, n):
        qc = generators.build(name, n)
        p = get_partitioner("dagP").partition(qc, n - 2)
        _, first = HiSVSimEngine(4, dry_run=True).run(qc, p)
        _, second = HiSVSimEngine(4, dry_run=True).run(qc, p)
        assert model_fields(first) == model_fields(second)

    def test_partitioner_is_deterministic(self):
        qc = generators.build("qaoa", 10)
        a = get_partitioner("dagP").partition(qc, 8)
        b = get_partitioner("dagP").partition(qc, 8)
        assert a == b

    def test_iqs_dry_runs_are_byte_identical(self):
        qc = generators.build("qft", 9)
        _, first = IQSEngine(4, dry_run=True).run(qc)
        _, second = IQSEngine(4, dry_run=True).run(qc)
        assert model_fields(first) == model_fields(second)

    def test_real_and_dry_share_model_numbers(self):
        """The dry path must not drift from the executing path."""
        qc = generators.build("bv", 9)
        p = get_partitioner("dagP").partition(qc, 7)
        _, real = HiSVSimEngine(4).run(qc, p)
        _, dry = HiSVSimEngine(4, dry_run=True).run(qc, p)
        assert real.comp_seconds == dry.comp_seconds
        assert real.comm_seconds == dry.comm_seconds
        assert asdict(real.comm) == asdict(dry.comm)
