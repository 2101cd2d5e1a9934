"""The distributed engine runs its parts through ``run_part``, byte for byte.

``HiSVSimEngine`` used to loop every op of a part over the ``(R, 2^l)``
shard matrix through ``state.apply_gate_local``.  It now runs each part
(or each inner part of a multilevel partition) as one
``backend.run_plan`` over the rows it holds, with the plan renamed to
the positions the part's qubits hold after ``remap``.  Every run here is
held to ``conftest.shard_sweep_reference``, the shard loop as first
written: the final state must agree in bytes and the report's model
seconds, traffic and compute counts exactly.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sv.backend as backend_module
import repro.sv.kernels as kernels
from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dist import HiSVSimEngine
from repro.dist.transport import run_spmd
from repro.partition import get_partitioner
from repro.partition.multilevel import multilevel_partition
from repro.sv.backend import SerialBackend, ThreadedBackend
from repro.sv.fusion import DEFAULT_MAX_FUSED_QUBITS
from repro.sv.simulator import random_state

from conftest import shard_sweep_reference
from strategies import circuits


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


@pytest.fixture(scope="module")
def backends():
    made = {
        "serial": SerialBackend(),
        "threaded[2]": ThreadedBackend(2),
        "threaded[3]": ThreadedBackend(3),
    }
    yield made
    for backend in made.values():
        backend.close()


class Sweeps:
    """What ``run_part`` did during one engine run: per ``run_part``
    call, its lane and the row each in-place op ran on (the row's
    offset into the flat state, in the order the ops ran)."""

    def __init__(self, monkeypatch):
        self.parts = []
        real_part = backend_module.run_part
        real_rows = backend_module._apply_rows

        def run_part(plan, state, *args):
            self.parts.append([None, state.ctypes.data, []])
            self.parts[-1][0] = real_part(plan, state, *args)
            return self.parts[-1][0]

        def apply_rows(rows, *args):
            part = self.parts[-1]
            part[2].append((rows.ctypes.data - part[1]) // rows.itemsize)
            return real_rows(rows, *args)

        monkeypatch.setattr(backend_module, "run_part", run_part)
        monkeypatch.setattr(backend_module, "_apply_rows", apply_rows)

    @property
    def lanes(self):
        return [
            "in place" if rows else lane for lane, _, rows in self.parts
        ]

    def row_major(self):
        """Every in-place part finished each row before the next."""
        return all(rows == sorted(rows) for _, _, rows in self.parts)


def run_both(
    qc, partition, ranks, backend, *, fuse, multilevel=None, seed=0,
    bitwise=True,
):
    """Run the engine and the reference from one random state; both
    must agree (in bytes, or at 1e-12 when not ``bitwise``).  Returns
    the engine's :class:`Sweeps`."""
    start = random_state(qc.num_qubits, seed=seed)
    reference = HiSVSimEngine(ranks, fuse=fuse, backend=backend)
    reference._execute_part = functools.partial(
        shard_sweep_reference, reference
    )
    want, want_report = reference.run(
        qc, partition, multilevel, initial_full=start
    )
    engine = HiSVSimEngine(ranks, fuse=fuse, backend=backend)
    with pytest.MonkeyPatch.context() as mp:
        sweeps = Sweeps(mp)
        got, report = engine.run(qc, partition, multilevel, initial_full=start)
    assert got.layout == want.layout
    if bitwise:
        assert same_bytes(got.shards, want.shards), backend.describe()
    else:
        assert np.allclose(got.shards, want.shards, rtol=0, atol=1e-12)
    assert report.comp_seconds == want_report.comp_seconds
    assert report.comm == want_report.comm
    assert report.compute == want_report.compute
    assert sweeps.row_major()
    return sweeps


@settings(max_examples=150, deadline=None)
@given(
    wide=st.booleans(),
    strategy=st.sampled_from(["Nat", "DFS", "dagP"]),
    backend=st.sampled_from(["serial", "threaded[2]", "threaded[3]"]),
    data=st.data(),
)
def test_property_engine_matches_the_shard_loop(
    backends, wide, strategy, backend, data
):
    # Half the examples aim at the in-place lane: 16-amplitude blocks,
    # fused ops and parts of 6 or 7 qubits on a rank of 2^6 or 2^7, so
    # a part's rows number two or more.  The rest draw every axis.
    qc = data.draw(
        circuits(
            min_qubits=7 if wide else 2,
            max_qubits=8,
            max_gates=24,
            three_qubit=True,
        ),
        label="qc",
    )
    fuse = wide or data.draw(st.booleans(), label="fuse")
    small = wide or data.draw(st.booleans(), label="small")
    n = qc.num_qubits
    arity = max(len(g.qubits) for g in qc)
    ranks = data.draw(
        st.sampled_from(
            [2]
            if wide
            else [r for r in (1, 2, 4, 8) if r.bit_length() - 1 <= n - arity]
        ),
        label="ranks",
    )
    local_bits = n - (ranks.bit_length() - 1)
    limit = local_bits if wide else data.draw(
        st.integers(arity, local_bits), label="limit"
    )
    partitioner = get_partitioner(strategy)
    multilevel = None
    if data.draw(st.booleans(), label="multilevel"):
        limit2 = data.draw(st.integers(arity, limit), label="limit2")
        multilevel = multilevel_partition(qc, partitioner, limit, limit2)
        partition = multilevel.outer
    else:
        partition = partitioner.partition(qc, limit)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    # Bitwise needs every dense op's GEMM to keep MIN_GEMM_COLUMNS
    # columns, which a state two qubits wider than the op allows; a
    # 2-qubit op on a 2-qubit state has one column however it is run,
    # and BLAS's edge kernel moves its last bits.  An unfused diagonal
    # gate as wide as the state is alike: the strided lane multiplies
    # one amplitude per factor entry, which numpy runs on its scalar
    # loop, whose complex product can round apart from the vector loop
    # the shard kernel's whole-row multiply takes.
    widest = min(DEFAULT_MAX_FUSED_QUBITS, limit) if fuse else max(
        (len(g.qubits) for g in qc if not g.is_diagonal), default=0
    )
    full_diagonal = not fuse and any(
        g.is_diagonal and len(g.qubits) == n for g in qc
    )
    with pytest.MonkeyPatch.context() as mp:
        if small:
            mp.setattr(kernels, "BLOCK_ELEMENTS", 16)
        run_both(
            qc, partition, ranks, backends[backend],
            fuse=fuse, multilevel=multilevel, seed=seed,
            bitwise=n - widest >= 2 and not full_diagonal,
        )


# ---------------------------------------------------------------------------
# One case per body of run_part
# ---------------------------------------------------------------------------


def _one_part(qc, ranks=2):
    """``qc`` as a single part (its whole register must fit a rank)."""
    local_bits = qc.num_qubits - (ranks.bit_length() - 1)
    return get_partitioner("Nat").partition(qc, local_bits)


@pytest.mark.parametrize("name", ["serial", "threaded[2]"])
def test_a_wide_row_part_runs_in_place_row_by_row(backends, name):
    # 18 qubits on 2 ranks: a part on qubits 0..16 gathers 2^17-amplitude
    # rows, wider than the kept pair of 2 * BLOCK_ELEMENTS, and the flat
    # state splits into two such rows.  Fused, its ops are too wide for
    # the strided lane.
    qc = QuantumCircuit(18)
    for q in range(17):
        qc.h(q)
    qc.cx(0, 16).rz(0.3, 5).cx(16, 3).ry(0.8, 9).cx(2, 11)
    partition = _one_part(qc)
    assert partition.num_parts == 1 and len(partition.parts[0].qubits) == 17
    assert 1 << 17 > 2 * kernels.BLOCK_ELEMENTS
    sweeps = run_both(qc, partition, 2, backends[name], fuse=True)
    assert sweeps.lanes == ["in place"]
    ((_, _, rows),) = sweeps.parts
    assert rows[0] == 0 and rows[-1] == 1 << 17  # both rows, in order


def test_a_narrow_part_is_gathered(backends):
    qc = QuantumCircuit(8).h(0).cx(0, 5).ry(0.4, 5).crz(0.9, 5, 2).h(2)
    qc.cx(2, 6).rx(0.2, 6)
    sweeps = run_both(qc, _one_part(qc), 2, backends["serial"], fuse=True)
    assert sweeps.lanes == ["gather"]


def test_a_small_part_is_strided(backends):
    qc = QuantumCircuit(8).h(1).cx(1, 4).rz(0.7, 4).h(4)
    sweeps = run_both(qc, _one_part(qc), 2, backends["serial"], fuse=True)
    assert sweeps.lanes == ["strided"]


def test_a_strided_diagonal_split_over_threads_keeps_its_bits(
    backends, small_blocks
):
    # Three threads would split these four 4-amplitude rows 2/1/1; a
    # single row leaves the crz one amplitude per factor entry, which
    # numpy multiplies on its scalar loop (rounding apart from the shard
    # kernel's vector loop), so the rows group in fours.
    qc = QuantumCircuit(4).cx(0, 1).h(0).crz(1.0, 0, 2).h(1)
    sweeps = run_both(
        qc, get_partitioner("Nat").partition(qc, 2), 4,
        backends["threaded[3]"], fuse=False,
    )
    assert sweeps.lanes == ["strided"] * 3


@pytest.mark.parametrize("fuse", [False, True])
def test_inner_parts_run_in_their_order(backends, fuse):
    qc = generators.build("qft", 9)
    multilevel = multilevel_partition(qc, get_partitioner("dagP"), 7, 4)
    assert not multilevel.is_trivial
    sweeps = run_both(
        qc, multilevel.outer, 4, backends["serial"],
        fuse=fuse, multilevel=multilevel,
    )
    assert len(sweeps.parts) == multilevel.total_inner_parts()


def test_socket_ranks_match_in_process_bitwise(small_blocks):
    # 16-amplitude blocks: every lane is reached at 8 qubits, in process
    # (one flat 2^8 state) and on each socket rank (its own 2^7 row).
    qc = generators.build("qft", 8)
    partition = get_partitioner("dagP").partition(qc, 7)

    def worker(rank, transport):
        engine = HiSVSimEngine(2, fuse=True)
        return engine.run(qc, partition, comm=transport)[0].to_full()

    with pytest.MonkeyPatch.context() as mp:
        sweeps = Sweeps(mp)
        state, _ = HiSVSimEngine(2, fuse=True).run(qc, partition)
    assert "in place" in sweeps.lanes
    reference = state.to_full()
    for full in run_spmd(2, worker):
        assert same_bytes(full, reference)
