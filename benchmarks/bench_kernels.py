"""State-vector kernel agreement and traffic-model counts.

Not a paper table; these back the Sec. III-A roofline discussion: six
gates applied through the backend's flat entry preserve the norm, the gather-free strided
sweep of a single 2-qubit part stays bit-identical to the gather sweep
while touching fewer model bytes, and the streamed shard kernels — a
diagonal over contiguous runs, a dense op over sub-row blocks — stay
bit-identical to their one-pass formulations (see docs/backends.md).
What the kernels cost in seconds is the perf harness's
``kernels.apply_s``, ``kernels.strided_1op_s`` vs
``kernels.gathered_1op_s`` and ``layout.gather_table_s``; the per-op
table of the streamed kernels is in docs/benchmarks.md (a registered
entry's output holds no wall-clock numbers).
"""

import numpy as np

from repro import bench
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.sv.backend import SerialBackend
from repro.sv.fusion import compile_part
from repro.sv.kernels import (
    BLOCK_ELEMENTS,
    apply_matrix_batched,
    bytes_touched_gather_part,
    bytes_touched_strided,
)
from repro.sv.layout import gather_index_table
from repro.sv.simulator import random_state


def _one_pass_diagonal(rows, diag, positions, width):
    """The diagonal formulation the streamed kernel replaced: one
    ``(2,)*width``-shaped factor broadcast over every row (in place)."""
    view = rows.reshape((rows.shape[0],) + (2,) * width)
    shape = [1] * view.ndim
    for q in positions:
        shape[width - q] = 2
    # Factor axis j is operand k-1-j; order them by view axis.
    order = np.argsort([width - q for q in reversed(positions)])
    fac = diag.reshape((2,) * len(positions)).transpose(tuple(order))
    view *= fac.reshape(shape)


def compare_streamed_vs_one_pass(n: int):
    """One diagonal and one dense op over a ``(4, 2^(w))`` shard matrix
    through ``apply_matrix_rows``, each against its one-pass formulation.

    ``w = max(n, 18) - 2``, so every row is wider than a block at every
    registered width: the diagonal streams (an operand on qubit 0) and
    the dense op's rows split into virtual rows.
    """
    width = max(n, 18) - 2
    assert 1 << width > BLOCK_ELEMENTS
    rng = np.random.default_rng(0)
    start = random_state(width + 2, seed=1).reshape(4, 1 << width)
    diag_at = sorted({0, 5, width // 2, width - 1})
    diag = np.exp(1j * rng.standard_normal(1 << len(diag_at)))
    dense_at = [4, 5, 6, 7, 8]
    dim = 1 << len(dense_at)
    dense = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    streamed, reference = start.copy(), start.copy()
    SerialBackend().apply_matrix_rows(
        streamed, np.diag(diag), diag_at, width, diagonal=True
    )
    _one_pass_diagonal(reference, diag, diag_at, width)
    diagonal_ok = bool(np.array_equal(streamed, reference))
    streamed, reference = start.copy(), start.copy()
    SerialBackend().apply_matrix_rows(streamed, dense, dense_at, width)
    apply_matrix_batched(reference, dense, dense_at, width)  # one GEMM
    return diagonal_ok, bool(np.array_equal(streamed, reference))


def compare_strided_vs_gather(n: int):
    """One compiled one-op part (cx over non-adjacent qubits) swept on
    each kernel path: agreement and model bytes.

    The working set dedupes because the candidates collide at small
    widths (the bench CLI smoke test shrinks ``qubits`` to 8).
    """
    qc = QuantumCircuit(n).cx(2, n // 2)
    ws = sorted({2, n // 2, 4, n - 4, n - 2})
    plan = compile_part(qc, [0], ws)
    state = random_state(n, seed=0)
    a, b = state.copy(), state.copy()
    lanes = (
        SerialBackend(strided_max=2).run_plan(plan, a, n),
        SerialBackend(strided_max=-1).run_plan(plan, b, n),
    )
    return {
        "lanes": lanes,
        "bit_identical": bool(np.array_equal(a, b)),
        "strided_bytes": bytes_touched_strided(n),
        "gather_bytes": bytes_touched_gather_part(n, plan.num_ops),
    }


@bench.register(
    "kernels",
    tags=("smoke", "micro"),
    params={"qubits": 18},
    smoke={"qubits": 14},
)
def run_bench(params):
    """Kernel sweeps: norm, gather-table shape, strided == gather bitwise.

    Six gates through ``apply_gate_flat``, one gather table, and one 1-op part
    swept on both kernel paths (bitwise agreement, model bytes).
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
    backend = SerialBackend()
    for gate in gates:
        backend.apply_gate_flat(work, gate, n)
    targets = sorted({3, 7, n // 2, n - 1})
    table = gather_index_table(n, targets)
    norm = float(np.vdot(work, work).real)
    norm_preserved = abs(norm - 1.0) < 1e-9
    strided = compare_strided_vs_gather(n)
    diagonal_same, dense_same = compare_streamed_vs_one_pass(n)
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
        ok={
            "six gate applications preserve the norm": norm_preserved,
            "the two sweeps took the strided and the gather lane": (
                strided["lanes"] == ("strided", "gather")
            ),
            "strided sweep bit-identical to the gather sweep":
                strided["bit_identical"],
            "strided sweep touches fewer model bytes": (
                strided["strided_bytes"] < strided["gather_bytes"]
            ),
            "streamed diagonal bit-identical to the one-pass broadcast":
                diagonal_same,
            "sub-row dense bit-identical to one GEMM over every row":
                dense_same,
        },
    )
