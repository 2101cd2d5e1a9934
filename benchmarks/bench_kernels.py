"""Micro-benchmarks for the state-vector kernels (host wall-clock).

Not a paper table; these back the Sec. III-A roofline discussion and
guard against kernel performance regressions (diagonal fast path, batched
application, gather tables, and the gather-free strided path for small
fused groups — see docs/backends.md).

Acceptance (``test_strided_vs_gather_agree``): the strided sweep of a
single 2-qubit part must stay bit-identical to the gather sweep and
touch fewer model bytes.  The wall-clock ratio of the two lanes is the
perf harness's ``kernels.strided_1op_s`` vs ``kernels.gathered_1op_s``.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.sv.backend import SerialBackend
from repro.sv.fusion import compile_part
from repro.sv.kernels import (
    apply_gate,
    apply_gate_batched,
    bytes_touched_gather_part,
    bytes_touched_strided,
)
from repro.sv.layout import gather_index_table
from repro.sv.simulator import random_state

N = 18  # 2^18 amplitudes = 4 MB


def _single_op_part(n: int):
    """A compiled one-op part (cx over non-adjacent qubits) plus state.

    The working set dedupes because the candidates collide at small
    widths (the bench CLI smoke test shrinks ``qubits`` to 8).
    """
    qc = QuantumCircuit(n).cx(2, n // 2)
    ws = sorted({2, n // 2, 4, n - 4, n - 2})
    plan = compile_part(qc, [0], ws)
    return plan, random_state(n, seed=0)


def compare_strided_vs_gather(n: int):
    """One part sweep on each kernel path: agreement and model bytes."""
    plan, state = _single_op_part(n)
    a, b = state.copy(), state.copy()
    assert SerialBackend(strided_max=2).run_plan(plan, a, n) == "strided"
    assert SerialBackend(strided_max=-1).run_plan(plan, b, n) == "gather"
    return {
        "qubits": n,
        "bit_identical": bool(np.array_equal(a, b)),
        "strided_bytes": bytes_touched_strided(n),
        "gather_bytes": bytes_touched_gather_part(n, plan.num_ops),
    }


@pytest.fixture(scope="module")
def state():
    return random_state(N, seed=0)


def bench_gate(benchmark, state, gate):
    work = state.copy()
    benchmark(lambda: apply_gate(work, gate, N))


def test_h_low_qubit(benchmark, state):
    bench_gate(benchmark, state, make_gate("h", [0]))


def test_h_high_qubit(benchmark, state):
    bench_gate(benchmark, state, make_gate("h", [N - 1]))


def test_cx(benchmark, state):
    bench_gate(benchmark, state, make_gate("cx", [2, N - 2]))


def test_ccx(benchmark, state):
    bench_gate(benchmark, state, make_gate("ccx", [0, N // 2, N - 1]))


def test_diagonal_fast_path(benchmark, state):
    bench_gate(benchmark, state, make_gate("rz", [N // 2], [0.3]))


def test_dense_1q_for_comparison(benchmark, state):
    bench_gate(benchmark, state, make_gate("rx", [N // 2], [0.3]))


def test_batched_inner_vectors(benchmark):
    # 2^10 inner vectors of 2^8 amplitudes: the hierarchical access shape.
    rng = np.random.default_rng(1)
    batch = (
        rng.standard_normal((1 << 10, 1 << 8))
        + 1j * rng.standard_normal((1 << 10, 1 << 8))
    ).astype(np.complex128)
    gate = make_gate("cx", [1, 6])
    benchmark(lambda: apply_gate_batched(batch, gate, 8))


def test_gather_table_construction(benchmark):
    benchmark(lambda: gather_index_table(N, [3, 7, 11, 15]))


def test_gather_scatter_roundtrip(benchmark, state):
    table = gather_index_table(N, [3, 7, 11, 15])
    work = state.copy()

    def roundtrip():
        inner = work[table]
        work[table] = inner

    benchmark(roundtrip)


def test_strided_part_sweep(benchmark):
    plan, state = _single_op_part(N)
    work = state.copy()
    backend = SerialBackend(strided_max=2)
    benchmark(lambda: backend.run_plan(plan, work, N))


def test_gather_part_sweep(benchmark):
    plan, state = _single_op_part(N)
    work = state.copy()
    backend = SerialBackend(strided_max=-1)
    benchmark(lambda: backend.run_plan(plan, work, N))


def test_strided_vs_gather_agree(save_result):
    """Acceptance: the gather-free path is the same sweep for fewer bytes.

    The traffic model says a single 2-qubit group moves ~3x fewer bytes
    without the gather matrix, and the bitwise check pins the paths to
    each other exactly.
    """
    res = compare_strided_vs_gather(N)
    save_result(
        "bench_kernels_strided",
        f"strided vs gather (1-op part, n={N}): "
        f"bytes {res['strided_bytes']} vs {res['gather_bytes']}",
    )
    assert res["bit_identical"], "strided state deviates from gather"
    assert res["strided_bytes"] < res["gather_bytes"]


# -- repro.bench registration ------------------------------------------------

from repro import bench


@bench.register(
    "kernels",
    tags=("smoke", "micro"),
    params={"qubits": 18},
    smoke={"qubits": 14},
)
def run_bench(params):
    """Kernel sweep micro-benchmark: the six reference gate applications
    plus gather-table construction, and strided-vs-gather part sweeps.

    The strided byte counts and bitwise agreement are deterministic and
    gated by the compare.
    """
    n = params["qubits"]
    work = random_state(n, seed=0).copy()
    gates = [
        make_gate("h", [0]),
        make_gate("h", [n - 1]),
        make_gate("cx", [2, n - 2]),
        make_gate("ccx", [0, n // 2, n - 1]),
        make_gate("rz", [n // 2], [0.3]),
        make_gate("rx", [n // 2], [0.3]),
    ]
    for gate in gates:
        apply_gate(work, gate, n)
    targets = sorted({3, 7, n // 2, n - 1})
    table = gather_index_table(n, targets)
    norm = float(np.vdot(work, work).real)
    norm_preserved = abs(norm - 1.0) < 1e-9
    strided = compare_strided_vs_gather(n)
    return bench.payload(
        metrics={
            "qubits": n,
            "gates_applied": len(gates),
            "gather_rows": int(table.shape[0]),
            "gather_cols": int(table.shape[1]),
            "norm_preserved": norm_preserved,
            "strided_bit_identical": strided["bit_identical"],
            "strided_bytes": strided["strided_bytes"],
            "gather_part_bytes": strided["gather_bytes"],
        },
        info={"norm": norm},
        ok=norm_preserved and strided["bit_identical"]
        and strided["strided_bytes"] < strided["gather_bytes"],
    )
