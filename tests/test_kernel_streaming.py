"""Streamed kernels are bit-identical to the one-pass formulation.

Diagonal ops multiply contiguous runs (``kernels._apply_diagonal``) and
dense ops over a row matrix run on the block rule's virtual rows
(``backend._row_blocks``).  Neither may move a bit: every entry point is
held byte for byte to the formulation the kernels had before, kept here
as the oracle — a broadcast ``(2,)*n`` factor for a diagonal op, one
GEMM over every row for a dense one.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.dist.hisvsim import HiSVSimEngine
from repro.dist.transport import run_spmd
from repro.partition import get_partitioner
from repro.sv.backend import SerialBackend, ThreadedBackend
from repro.sv.fusion import FusedGate
from repro.sv.kernels import BLOCK_ELEMENTS, apply_matrix, apply_matrix_batched


def one_pass(rows, matrix, positions, width, diagonal):
    """The formulation the streamed kernels must match (in place).

    A diagonal op broadcasts ``diag`` shaped to the ``(B,) + (2,)*width``
    view; a dense op is one transposed copy and one GEMM over every row.
    """
    view = rows.reshape((rows.shape[0],) + (2,) * width)
    axes = [width - q for q in reversed(list(positions))]
    k = len(axes)
    if diagonal:
        fac = np.ascontiguousarray(np.diag(matrix)).reshape((2,) * k)
        fac = fac.transpose(tuple(np.argsort(axes)))
        shape = [1] * view.ndim
        for ax in axes:
            shape[ax] = 2
        view *= fac.reshape(shape)
    else:
        moved = np.moveaxis(view, axes, range(k))
        res = matrix @ moved.reshape(1 << k, -1)
        moved[...] = res.reshape(moved.shape)
    return rows


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
    )


@st.composite
def ops(draw, max_width):
    """``(width, batch, positions, diagonal, seed)``: 0-5 distinct
    operands anywhere in a 1..``max_width``-bit row."""
    width = draw(st.integers(1, max_width))
    batch = draw(st.integers(1, 4))
    k = draw(st.integers(0, min(5, width)))
    order = draw(st.permutations(range(width)))
    return width, batch, tuple(order[:k]), draw(st.booleans()), draw(
        st.integers(0, 2**32 - 1)
    )


def _random_op(width, batch, positions, diagonal, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << len(positions)
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
        (dim, dim)
    )
    if diagonal:
        matrix = np.diag(np.diag(matrix))
    shape = (batch, 1 << width)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return matrix, rows


@pytest.fixture(scope="module")
def backends():
    made = [SerialBackend()] + [ThreadedBackend(t) for t in (2, 3, 4)]
    yield made
    for backend in made:
        backend.close()


def _check_every_entry_point(backends, case):
    width, batch, positions, diagonal, seed = case
    matrix, start = _random_op(width, batch, positions, diagonal, seed)
    want = one_pass(start.copy(), matrix, positions, width, diagonal)
    for backend in backends:
        got = start.copy()
        backend.apply_matrix_rows(
            got, matrix, positions, width, diagonal=diagonal
        )
        assert same_bytes(got, want), ("apply_matrix_rows", backend.describe())
    got = apply_matrix_batched(
        start.copy(), matrix, positions, width, diagonal=diagonal
    )
    assert same_bytes(got, want), "apply_matrix_batched"
    # The flat entry points see row 0 alone as a width-qubit state (one
    # GEMM over its columns only).
    flat_want = one_pass(start[:1].copy(), matrix, positions, width, diagonal)[0]
    got = apply_matrix(
        start[0].copy(), matrix, positions, width, diagonal=diagonal
    )
    assert same_bytes(got, flat_want), "apply_matrix"
    if positions:  # a gate has at least one qubit
        gate = FusedGate(positions, matrix, diagonal)
        for backend in backends:
            got = start[0].copy()
            backend.apply_gate_flat(got, gate, width)
            assert same_bytes(got, flat_want), (
                "apply_gate_flat", backend.describe()
            )


# A zero-operand diagonal is a scalar factor.
@settings(max_examples=60, deadline=None)
@given(case=ops(17))
@example(case=(16, 1, (), True, 0))
@example(case=(17, 4, (0, 5, 10, 15, 16), True, 1))
@example(case=(17, 1, (4, 5, 6, 7, 8), False, 2))
@example(case=(17, 4, (16,), False, 3))
def test_property_every_entry_point_matches_one_pass(backends, case):
    _check_every_entry_point(backends, case)


# With 16-amplitude blocks, toy rows split into many virtual rows and
# short ones group.  The widths stop at 12: a width-w row is then
# 2^(w-4) Python-level GEMMs per op.
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=ops(12))
@example(case=(4, 3, (), True, 0))
@example(case=(3, 3, (0, 1, 2), False, 1))
@example(case=(5, 3, (0, 1, 2, 3), False, 2))
@example(case=(12, 2, (0, 11), True, 3))
def test_property_every_entry_point_matches_one_pass_small_blocks(
    backends, small_blocks, case
):
    _check_every_entry_point(backends, case)


# ---------------------------------------------------------------------------
# A single row now splits
# ---------------------------------------------------------------------------


class _SpyBackend(ThreadedBackend):
    """Records the blocks every ``map_blocks`` call hands ``fn``."""

    def __init__(self, threads):
        super().__init__(threads)
        self.calls = []

    def map_blocks(self, fn, rows, elements):
        seen, lock = [], threading.Lock()

        def spy(lo, hi):
            with lock:
                seen.append((lo, hi))
            fn(lo, hi)

        super().map_blocks(spy, rows, elements)
        self.calls.append((rows, sorted(seen)))


def test_a_single_wide_row_splits_into_blocks():
    assert 1 << 16 > BLOCK_ELEMENTS  # the row is wider than a block
    matrix, start = _random_op(16, 1, (3, 9), False, 7)
    want = one_pass(start.copy(), matrix, (3, 9), 16, False)
    got = start.copy()
    with _SpyBackend(2) as spy:
        spy.apply_matrix_rows(got, matrix, (3, 9), 16)
    ((rows, blocks),) = spy.calls
    assert rows == 2 and len(blocks) >= 2  # two virtual rows, a block each
    assert same_bytes(got, want)


@pytest.mark.parametrize("batch", [1, 4])
def test_a_diagonal_op_is_one_in_place_pass_per_row_block(
    batch, monkeypatch
):
    import repro.sv.backend as backend_module

    passes = []
    real = backend_module.apply_matrix_batched

    def counting(states, *args, **kwargs):
        passes.append(states.shape[0])
        return real(states, *args, **kwargs)

    monkeypatch.setattr(backend_module, "apply_matrix_batched", counting)
    matrix, start = _random_op(16, batch, (0, 3), True, 8)
    want = one_pass(start.copy(), matrix, (0, 3), 16, True)
    got = start.copy()
    with _SpyBackend(2) as spy:
        spy.apply_matrix_rows(got, matrix, (0, 3), 16, diagonal=True)
    ((rows, blocks),) = spy.calls
    assert rows == batch  # real rows: a diagonal op never splits one
    assert len(passes) == len(blocks)
    assert sorted(passes) == sorted(hi - lo for lo, hi in blocks)
    assert same_bytes(got, want)


def test_socket_rank_rows_above_a_block_split_bitwise():
    # 17 qubits on 2 ranks: each rank holds one 2^16-amplitude row, so
    # every dense shard op splits into virtual rows on threaded[2].
    qc = generators.build("qft", 17)
    partition = get_partitioner("dagP").partition(qc, 14)

    def worker(rank, transport):
        engine = HiSVSimEngine(num_ranks=2, backend="threaded", threads=2)
        state, _ = engine.run(qc, partition, comm=transport)
        assert state.shards.shape == (1, 1 << 16)
        return state.to_full()

    state, _ = HiSVSimEngine(num_ranks=2, backend="serial").run(qc, partition)
    reference = state.to_full()
    for full in run_spmd(2, worker):
        assert same_bytes(full, reference)

