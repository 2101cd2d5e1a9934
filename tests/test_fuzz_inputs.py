"""Hostile text and manifests fail typed, never with a stray exception.

Two fuzzers over mutated valid inputs, both with bounded sizes and a
deadline: ``qasm.loads`` either parses or raises ``QasmError``, and
``load_manifest`` either loads or raises ``ValueError`` (``QasmError``
is one), so ``POST /jobs`` can answer 400 and ``repro batch`` can print
one line instead of a traceback.
"""

from __future__ import annotations

import copy
import math
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.circuits import generators, qasm
from repro.circuits.circuit import QuantumCircuit
import repro.serve.jobs as jobs_module
from repro.serve.jobs import load_manifest

#: Valid QASM texts the text fuzzer starts from.
TEXTS = [
    qasm.dumps(generators.build("qft", 4)),
    qasm.dumps(generators.build("qaoa", 4, p=1)),
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[2];\nqreg b[1];\n"
    "creg c[3];\nu3(pi/2, -pi/4, 0.5) a[1];\nccx a[0], a[1], b[0];\n"
    "measure a[0] -> c[0];\nbarrier a;\n",
]

#: Fragments a mutation splices into QASM text: syntax, hostile
#: numbers and expressions, names that are not gates.
FRAGMENTS = [
    ";", ",", "(", ")", "[", "]", "->", "q", "qreg", "creg", "gate",
    "measure", "cx", "u3", "rz", "pi", "-", "*", "/", "**", "^",
    "1e400", "-1e400", "nan", "inf", "9**9**9", "1/0", "0", "-1",
    "99999999999999999999", "2000", "q[-1]", "q[2000]", "qreg q[0];",
    "\n", " ", "\x00", "é",
]


@st.composite
def mutated_texts(draw):
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        piece = "" if kind == "delete" else draw(st.sampled_from(FRAGMENTS))
        if kind == "insert":
            j = i
        text = text[:i] + piece + text[j:]
    return text


@settings(
    max_examples=300,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=mutated_texts())
def test_fuzzed_qasm_parses_or_raises_qasm_error(text):
    try:
        circuit = qasm.loads(text)
    except qasm.QasmError:
        return
    assert isinstance(circuit, QuantumCircuit)


#: A valid manifest using every job field the loader reads.
BASE = {
    "workers": 1,
    "jobs": [
        {
            "id": "gen",
            "circuit": {"generator": "qft", "qubits": 4},
            "shots": 8,
            "seed": 3,
        },
        {
            "id": "inline",
            "circuit": {"qasm": "qreg q[2]; h q[0]; cx q[0], q[1];"},
            "observables": ["ZZ", {"0": "X", "1": "Z"}],
        },
        {
            "id": "args",
            "circuit": {"generator": "qaoa", "qubits": 4, "args": {"p": 1}},
            "state": True,
        },
        {
            "id": "cut",
            "circuit": {"generator": "qnn", "qubits": 6},
            "cut": {"max_width": 4},
        },
    ],
}

#: Values a mutation writes: overflowing and non-finite floats, widths a
#: generator cannot take, wrong types.  No huge integer: a valid width of
#: 10^30 qubits would be a (slow) build, not a malformed manifest.
HOSTILE = [
    1e400, -1e400, math.nan, 2000, 0, -3, 2.5, True, None, "x", "1e400",
    "", [], [1, 2], {}, {"a": 1},
]


def _slots(node, path=()):
    """Every ``(path, key)`` in ``node``: a key of a dict or an index of
    a list, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


@st.composite
def mutated_manifests(draw):
    manifest = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(manifest))
        if not slots:  # every key deleted
            break
        path, key = draw(st.sampled_from(slots))
        node = manifest
        for step in path:
            node = node[step]
        kind = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
        if kind == "replace":
            node[key] = value
        elif kind == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(["qubits", "shots", "seed", "args",
                                       "cut", "observables", "zz"]))] = value
        else:
            node.append(value)
    return manifest


#: A generator spec of ~22M gates: more than any host should build at
#: admission.
HOSTILE_SPEC = {"generator": "qaoa", "qubits": 2000, "args": {"p": 2000}}


@settings(
    max_examples=400,
    deadline=5000,  # a valid 2000-qubit qaoa builds in ~0.5 s
    suppress_health_check=[HealthCheck.too_slow],
)
@given(manifest=mutated_manifests())
@example(manifest={"jobs": [{"id": "huge", "circuit": HOSTILE_SPEC}]})
def test_fuzzed_manifests_load_or_raise_value_error(manifest):
    try:
        jobs, _ = load_manifest(manifest)
    except ValueError:
        return
    assert all(isinstance(job.circuit, QuantumCircuit) for job in jobs)


def test_an_unbounded_generator_spec_is_refused_quickly():
    # The generator stops at the gate budget: the refusal names the job
    # and costs the budget's gates, not the spec's.
    start = time.process_time()
    with pytest.raises(ValueError, match="job 'huge'.*budget of 100000 gates"):
        load_manifest({"jobs": [{"id": "huge", "circuit": HOSTILE_SPEC}]})
    assert time.process_time() - start < 1.0
    # The widest spec the budget is sized for still loads.
    jobs, _ = load_manifest({"jobs": [{"id": "wide", "circuit": {
        "generator": "qaoa", "qubits": 2000, "args": {"p": 8}}}]})
    assert len(jobs[0].circuit) == 90_000


def test_a_huge_round_count_is_refused_at_the_budget(monkeypatch):
    # qaoa once built its angle lists, p long, before its first gate: at
    # p=2_000_000 the refusal came after 1.57 s and 211 MiB.  Now it
    # costs the budget's gates, whatever p is.
    def manifest(p):
        return {"jobs": [{"id": "rounds", "circuit": {
            "generator": "qaoa", "qubits": 4, "args": {"p": p}}}]}

    start = time.process_time()
    with pytest.raises(ValueError, match="job 'rounds'.*budget of 100000"):
        load_manifest(manifest(10**9))
    assert time.process_time() - start < 1.0
    # Under a budget of 1,000 gates what is left is the gates' ~0.2 MiB;
    # lists of 10^9 angles would hold 16 GB.
    monkeypatch.setattr(jobs_module, "MAX_GENERATOR_GATES", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget of 1000 gates"):
            load_manifest(manifest(10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
