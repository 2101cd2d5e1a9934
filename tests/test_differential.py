"""Randomized differential harness over the whole execution matrix.

Every combination of {partitioner} x {fuse on/off} x {serial, threaded
backend} x {batched executor, literal loop} must produce the same final
state as the literal per-gate reference kernels, on seeded random
circuits drawn from the full gate vocabulary.  The literal loop is the
paper's Algorithm 1 one inner vector at a time
(``conftest.literal_reference``), over the same plans and block mapper.  This is the repo's broadest property
test: any regression in partitioning, fusion, backends, gather tables or
kernels lands somewhere in this grid.

Case economy: circuits/reference states are cached per seed and
partitions per (seed, strategy), so the sweep's cost is dominated by the
executions themselves.  The full grid of 24 combinations is covered and
the total case count stays above 200 (see ``test_case_count_floor``).

A second axis (``test_entry_points``) drives the same circuits through
each backend's three entry points — ``run_plan``, ``apply_matrix_rows``,
``apply_gate_flat`` — which all sit on one part-sweep core and one block
mapper: each must match the reference at 1e-10 and the others bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.partition import get_partitioner
from repro.sv import (
    ExecutionTrace,
    HierarchicalExecutor,
    SerialBackend,
    ThreadedBackend,
    apply_gate_reference,
    compile_part,
)

from conftest import literal_reference, random_circuit

NUM_QUBITS = 6
NUM_GATES = 16
STRATEGIES = ("Nat", "DFS", "dagP")
MODES = ("batched", "literal")
FUSE = (True, False)

SEEDS = {
    "serial": tuple(range(11)),
    "threaded": tuple(range(11)),
}

# 2 strategies-independent axes first: cases = sum over backends of
# len(SEEDS[b]) * len(STRATEGIES) * len(FUSE) * len(MODES).
CASE_COUNT = sum(
    len(seeds) * len(STRATEGIES) * len(FUSE) * len(MODES)
    for seeds in SEEDS.values()
)


def _case_params():
    for backend, seeds in SEEDS.items():
        for seed in seeds:
            for strategy in STRATEGIES:
                for fuse in FUSE:
                    for mode in MODES:
                        yield pytest.param(
                            backend, seed, strategy, fuse, mode,
                            id=f"{backend}-s{seed}-{strategy}-"
                               f"{'fused' if fuse else 'raw'}-{mode}",
                        )


_circuits: dict = {}
_references: dict = {}
_partitions: dict = {}


def _circuit(seed: int) -> QuantumCircuit:
    qc = _circuits.get(seed)
    if qc is None:
        qc = random_circuit(NUM_QUBITS, NUM_GATES, seed=seed)
        _circuits[seed] = qc
    return qc


def _reference(seed: int) -> np.ndarray:
    ref = _references.get(seed)
    if ref is None:
        qc = _circuit(seed)
        state = np.zeros(1 << NUM_QUBITS, dtype=np.complex128)
        state[0] = 1.0
        for gate in qc:
            apply_gate_reference(state, gate, NUM_QUBITS)
        ref = state
        _references[seed] = ref
    return ref


def _partition(seed: int, strategy: str):
    key = (seed, strategy)
    part = _partitions.get(key)
    if part is None:
        part = get_partitioner(strategy).partition(
            _circuit(seed), max(3, NUM_QUBITS - 2)
        )
        _partitions[key] = part
    return part


@pytest.fixture(scope="module")
def backends():
    """One live instance per backend kind, shared across the sweep.

    The tests take ``small_blocks`` as well: without it a toy-width state
    is one block, and the whole grid would quietly run unblocked.
    """
    made = {
        "serial": SerialBackend(),
        "threaded": ThreadedBackend(3),
    }
    yield made
    made["threaded"].close()


@pytest.mark.parametrize("backend,seed,strategy,fuse,mode", _case_params())
def test_differential(
    backends, small_blocks, backend, seed, strategy, fuse, mode
):
    qc = _circuit(seed)
    partition = _partition(seed, strategy)
    trace = ExecutionTrace()
    state = np.zeros(1 << NUM_QUBITS, dtype=np.complex128)
    state[0] = 1.0
    if mode == "literal":
        literal_reference(qc, partition, state, fuse=fuse,
                          backend=backends[backend])
    else:
        HierarchicalExecutor(fuse=fuse, backend=backends[backend]).run(
            qc, partition, state, trace=trace
        )

    err = float(np.max(np.abs(state - _reference(seed))))
    assert err < 1e-10, (
        f"{backend}/{strategy}/fuse={fuse}/{mode} seed={seed}: "
        f"max deviation {err:.3e} from reference kernels"
    )
    if mode == "literal":
        return
    # Source-gate accounting must be exact regardless of fusion/backend.
    assert trace.total_gates == len(qc)
    assert trace.num_parts == partition.num_parts
    assert sum(trace.backend_parts.values()) == trace.num_parts


ENTRY_POINTS = ("run_plan", "apply_matrix_rows", "apply_gate_flat")
ROW_BITS = NUM_QUBITS - 2


def _apply_through(backend, entry: str, seed: int) -> np.ndarray:
    """The seed's circuit, gate by gate in its dagP parts' order (the one
    order all three entries can share), through one backend entry point."""
    qc = _circuit(seed)
    parts = _partition(seed, "dagP").parts
    state = np.zeros(1 << NUM_QUBITS, dtype=np.complex128)
    state[0] = 1.0
    if entry == "run_plan":
        # Unfused, so each op is one source gate — the same matrices the
        # other two entries apply.
        for part in parts:
            plan = compile_part(
                qc, part.gate_indices, part.qubits, fuse=False
            )
            backend.run_plan(plan, state, NUM_QUBITS)
        return state
    for gate in (qc[g] for part in parts for g in part.gate_indices):
        if entry == "apply_gate_flat":
            backend.apply_gate_flat(state, gate, NUM_QUBITS)
            continue
        # As the distributed engines call it: the low ROW_BITS qubits are
        # row-local; gates reaching above them see one full-width row.
        w = ROW_BITS if max(gate.qubits) < ROW_BITS else NUM_QUBITS
        backend.apply_matrix_rows(
            state.reshape(-1, 1 << w), gate.matrix(), gate.qubits, w,
            diagonal=gate.is_diagonal,
        )
    return state


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "backend,seed",
    [
        pytest.param(backend, seed, id=f"{backend}-s{seed}")
        for backend, seeds in SEEDS.items()
        for seed in seeds
    ],
)
def test_entry_points(backends, small_blocks, backend, seed, entry):
    state = _apply_through(backends[backend], entry, seed)
    err = float(np.max(np.abs(state - _reference(seed))))
    assert err < 1e-10, (
        f"{backend}.{entry} seed={seed}: max deviation {err:.3e} "
        f"from reference kernels"
    )
    if entry == "apply_gate_flat":
        return
    flat = _apply_through(backends[backend], "apply_gate_flat", seed)
    assert np.array_equal(state, flat), (
        f"{backend}.{entry} diverged bitwise from {backend}."
        f"apply_gate_flat, seed={seed}"
    )


def test_case_count_floor():
    """The harness must keep sweeping at least 200 generated cases."""
    assert CASE_COUNT >= 200, CASE_COUNT


def test_grid_is_complete():
    """All 24 backend/strategy/fuse/mode combinations are exercised."""
    combos = {
        (b, s, f, m)
        for b in SEEDS
        for s in STRATEGIES
        for f in FUSE
        for m in MODES
    }
    assert len(combos) == 24
    swept = {
        (p.values[0], p.values[2], p.values[3], p.values[4])
        for p in _case_params()
    }
    assert swept == combos
