"""Wire-cutting pipeline tests (repro.cut).

The load-bearing property: for any circuit, cutting + fragment
evaluation + recombination must reproduce the uncut dense simulation to
1e-10 — across partitioner strategies, cut counts 1-3, fusion on/off
and serial/threaded backends.  Up to ``REPRO_CUT_DENSE_WIDTH`` the
sampled counts must agree with the uncut path *exactly* (same seeded
draws).  The rest of the file pins the cutter's legality rules, the
16^k variant enumeration, a hand-computed contraction, the fingerprint
split that lets boundary variants share compiled plans, and the serve
manifest integration.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.generators import build
from repro.cut import (
    CutError,
    cut_run,
    enumerate_variants,
    find_cuts,
    plan_from_assignment,
    quasi_probabilities,
    recombine_counts,
    recombine_expectations,
    recombine_state,
)
from repro.cut.evaluate import evaluate_fragments
from repro.cut.fragments import amplitude_variants, variant_circuit
from repro.cut.recombine import _pauli_block, bond_tensor
from repro.serve import (
    BatchRunner,
    SimJob,
    circuit_fingerprint,
    load_manifest,
    structural_fingerprint,
)
from repro.sv.simulator import StateVectorSimulator, sample_counts

from strategies import chained_circuits

ATOL = 1e-10


def uncut_state(qc: QuantumCircuit) -> np.ndarray:
    sim = StateVectorSimulator(qc.num_qubits)
    sim.run(qc)
    return sim.state


def fixed_chain(k: int, window: int = 4) -> tuple:
    """Deterministic k-cut chained circuit (window overlap = 1 qubit)."""
    w = window
    n = (k + 1) * (w - 1) + 1
    qc = QuantumCircuit(n, name=f"fixed_chain_{k}")
    assignment = []
    for i in range(k + 1):
        lo = i * (w - 1)
        hi = lo + w - 1
        qc.h(lo).cx(lo, lo + 1).rx(0.3 + 0.2 * i, lo + 1)
        qc.cz(lo + 1, lo + 2).rz(1.1 * i + 0.4, lo + 2).cx(hi - 1, hi)
        assignment.extend([i] * 6)
    return qc, assignment


def chain_of_cx(num_windows: int) -> tuple:
    """A cx ladder with one gate per window: ``num_windows - 1`` cuts."""
    n = num_windows + 1
    qc = QuantumCircuit(n, name=f"ladder_{n}")
    qc.h(0)
    for i in range(num_windows):
        qc.cx(i, i + 1)
    # h(0) joins the first window.
    assignment = [0] + list(range(num_windows))
    return qc, assignment


class TestDifferential:
    """cut + recombine == uncut dense state, across the whole matrix."""

    @pytest.mark.parametrize(
        "strategy,fuse,backend,threads",
        [
            ("dagP", True, None, None),
            ("dagP", False, None, None),
            ("dagP", True, "threaded", 2),
            ("Nat", True, None, None),
            ("Nat", False, "threaded", 2),
            ("DFS", True, None, None),
            ("DFS", False, None, None),
        ],
    )
    @settings(max_examples=8, deadline=None)
    @given(drawn=chained_circuits(min_cuts=1, max_cuts=3))
    def test_state_matches_uncut(self, drawn, strategy, fuse, backend, threads):
        qc, assignment, k = drawn
        plan = plan_from_assignment(qc, assignment, max_width=4)
        assert plan.num_cuts == k
        result = cut_run(
            qc,
            plan=plan,
            want_state=True,
            runner=BatchRunner(
                strategy=strategy, fuse=fuse, backend=backend, threads=threads
            ),
        )
        err = float(np.max(np.abs(result.state - uncut_state(qc))))
        assert err < ATOL

    @pytest.mark.parametrize("strategy", ["DFS", "dagP"])
    @pytest.mark.parametrize("name", ["qnn", "cc", "bv"])
    def test_found_cuts_match_uncut(self, strategy, name):
        """find_cuts plans (not hand-built ones) recombine exactly too."""
        qc = build(name, 10)
        plan = find_cuts(qc, 7, strategy=strategy)
        assert plan.num_cuts >= 1
        assert max(plan.widths) <= 7
        result = cut_run(
            qc, plan=plan, want_state=True,
            runner=BatchRunner(strategy=strategy),
        )
        err = float(np.max(np.abs(result.state - uncut_state(qc))))
        assert err < ATOL

    @settings(max_examples=8, deadline=None)
    @given(drawn=chained_circuits(min_cuts=1, max_cuts=2))
    def test_dense_counts_exactly_match_uncut_sampling(self, drawn):
        """Same seed, same draws: the dense path calls the identical
        sample_counts the uncut pipeline uses."""
        qc, assignment, _ = drawn
        plan = plan_from_assignment(qc, assignment, max_width=4)
        result = cut_run(qc, plan=plan, shots=96, seed=11)
        expected = sample_counts(uncut_state(qc), 96, seed=11)
        assert result.counts == expected

    def test_expectations_match_dense(self):
        qc, assignment = chain_of_cx(4)
        plan = plan_from_assignment(qc, assignment, max_width=2)
        state = uncut_state(qc)
        labels = ["Z" * qc.num_qubits, "X" * qc.num_qubits,
                  "ZI" * 2 + "I" * (qc.num_qubits - 4)]
        tensors, _ = evaluate_fragments(plan)
        got = recombine_expectations(plan, tensors, labels)
        from repro.sv.pauli import pauli_expectation

        for label, value in zip(labels, got):
            assert value == pytest.approx(
                pauli_expectation(state, label, qc.num_qubits), abs=ATOL
            )

    def test_quasi_probabilities_match_amplitude_path(self):
        qc, assignment = fixed_chain(1)
        plan = plan_from_assignment(qc, assignment, max_width=4)
        tensors, _ = evaluate_fragments(plan, mode="quasi")
        quasi = quasi_probabilities(plan, tensors)
        dense = np.abs(uncut_state(qc)) ** 2
        assert np.max(np.abs(quasi - dense)) < 1e-8

    def test_worker_fanout_matches_serial(self):
        qc, assignment = chain_of_cx(3)
        plan = plan_from_assignment(qc, assignment, max_width=2)
        serial = cut_run(qc, plan=plan, want_state=True)
        fanned = cut_run(
            qc, plan=plan, want_state=True, runner=BatchRunner(workers=3)
        )
        assert np.allclose(serial.state, fanned.state, atol=1e-12)


def pauli_block_reference(mat, ops):
    """``_pauli_block`` as first written, kept as the oracle: its own
    sign mask and X-mask, the row matrix indexed with ``idx ^ xmask``."""
    size = mat.shape[1]
    idx = np.arange(size, dtype=np.int64)
    xmask = 0
    phase = np.ones(size, dtype=np.complex128)
    for pos, c in ops.items():
        bit = (idx >> pos) & 1
        if c == "Z":
            phase *= 1.0 - 2.0 * bit
        elif c == "X":
            xmask |= 1 << pos
        else:  # Y
            xmask |= 1 << pos
            phase *= -1j * (1.0 - 2.0 * bit)
    applied = mat[:, idx ^ xmask] * phase[None, :]
    return mat.conj() @ applied.T


@st.composite
def pauli_blocks(draw):
    """A random ``(2^bonds, 2^width)`` row matrix and a Pauli map over
    some of its ``width`` positions, in a random order."""
    width = draw(st.integers(0, 7))
    rows = 1 << draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    positions = draw(st.permutations(range(width)))
    ops = {
        pos: draw(st.sampled_from("XYZ"))
        for pos in positions[: draw(st.integers(0, width))]
    }
    rng = np.random.default_rng(seed)
    shape = (rows, 1 << width)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return mat, ops


@settings(max_examples=150, deadline=None)
@given(case=pauli_blocks())
def test_property_pauli_block_matches_its_first_form_bitwise(case):
    mat, ops = case
    got, want = _pauli_block(mat, ops), pauli_block_reference(mat, ops)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), ops


class TestStreaming:
    """The wide-circuit sampler: exact, seeded, no 2^n object."""

    def _plan(self):
        qc, assignment = fixed_chain(2)
        plan = plan_from_assignment(qc, assignment, max_width=4)
        tensors, _ = evaluate_fragments(plan)
        return qc, plan, tensors

    def test_deterministic_and_complete(self):
        qc, plan, tensors = self._plan()
        a = recombine_counts(plan, tensors, 200, seed=5, dense_width=0)
        b = recombine_counts(plan, tensors, 200, seed=5, dense_width=0)
        assert a == b
        assert sum(a.values()) == 200

    def test_outcomes_lie_in_the_true_support(self):
        qc, plan, tensors = self._plan()
        probs = np.abs(uncut_state(qc)) ** 2
        counts = recombine_counts(plan, tensors, 300, seed=9, dense_width=0)
        for index in counts:
            assert probs[index] > 1e-18

    def test_distribution_tracks_dense_probabilities(self):
        qc, plan, tensors = self._plan()
        probs = np.abs(uncut_state(qc)) ** 2
        shots = 4000
        counts = recombine_counts(
            plan, tensors, shots, seed=3, dense_width=0
        )
        empirical = np.zeros_like(probs)
        for index, c in counts.items():
            empirical[index] = c / shots
        assert 0.5 * np.abs(empirical - probs).sum() < 0.08

    def test_too_many_cuts_rejected(self):
        qc, assignment = chain_of_cx(14)  # 13 cuts
        plan = plan_from_assignment(qc, assignment, max_width=2)
        tensors, _ = evaluate_fragments(plan)
        with pytest.raises(CutError, match="streaming sampler"):
            recombine_counts(plan, tensors, 10, seed=0, dense_width=0)

    def test_dense_width_env_refusal(self, monkeypatch):
        qc, assignment = chain_of_cx(3)
        plan = plan_from_assignment(qc, assignment, max_width=2)
        tensors, _ = evaluate_fragments(plan)
        monkeypatch.setenv("REPRO_CUT_DENSE_WIDTH", "2")
        with pytest.raises(CutError, match="dense recombine width"):
            recombine_state(plan, tensors)

    def test_dense_width_is_inclusive(self, monkeypatch):
        qc, plan, tensors = self._plan()
        n = qc.num_qubits
        # n == width: the state materialises and the counts are the
        # uncut run's seeded draws.
        monkeypatch.setenv("REPRO_CUT_DENSE_WIDTH", str(n))
        state = recombine_state(plan, tensors)
        assert np.max(np.abs(state - uncut_state(qc))) < ATOL
        assert recombine_counts(plan, tensors, 128, seed=4) == (
            sample_counts(uncut_state(qc), 128, seed=4)
        )
        # n == width + 1: no dense state, so counts stream.
        monkeypatch.setenv("REPRO_CUT_DENSE_WIDTH", str(n - 1))
        with pytest.raises(CutError, match="dense recombine width"):
            recombine_state(plan, tensors)
        assert recombine_counts(plan, tensors, 128, seed=4) == (
            recombine_counts(plan, tensors, 128, seed=4, dense_width=0)
        )


class TestCutter:
    """Plan legality, cost accounting and the variant enumeration."""

    def test_noncontiguous_timeline_rejected(self):
        # Gate assignment A-B-A on qubit 1's timeline: quotient cycle.
        qc = QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        with pytest.raises(CutError):
            plan_from_assignment(qc, [0, 1, 0], max_width=2)

    def test_width_overflow_rejected(self):
        import dataclasses

        qc = QuantumCircuit(3).cx(0, 1).cx(1, 2)
        plan = plan_from_assignment(qc, [0, 1], max_width=2)
        shrunk = dataclasses.replace(plan, max_width=1)
        with pytest.raises(CutError, match="exceeds"):
            shrunk.validate()

    def test_max_width_below_gate_arity_rejected(self):
        qc = QuantumCircuit(3).ccx(0, 1, 2)
        with pytest.raises(CutError, match="widest gate"):
            find_cuts(qc, 2)

    def test_cut_budget_rejected(self):
        qc = build("qaoa", 12)
        with pytest.raises(CutError, match="budget"):
            find_cuts(qc, 8, max_cuts=3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_variant_enumeration_is_16_to_the_k(self, k):
        qc, assignment = chain_of_cx(k + 1)
        plan = plan_from_assignment(qc, assignment, max_width=2)
        assert plan.num_cuts == k
        assert plan.num_variants == 16 ** k
        assert len(list(enumerate_variants(plan))) == 16 ** k

    def test_amplitude_variant_count_is_2_to_incoming(self):
        qc, assignment = chain_of_cx(3)
        plan = plan_from_assignment(qc, assignment, max_width=2)
        for frag in plan.fragments:
            variants = list(amplitude_variants(frag))
            assert len(variants) == 2 ** len(frag.in_cuts)

    def test_hand_computed_bell_contraction(self):
        """2-qubit Bell pair, one cut: contract the bond by hand."""
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        plan = plan_from_assignment(qc, [0, 1], max_width=2)
        tensors, _ = evaluate_fragments(plan)
        a0 = bond_tensor(plan, tensors[0])  # upstream: H on the cut wire
        a1 = bond_tensor(plan, tensors[1])  # downstream: CX off the prep
        r = 1 / np.sqrt(2)
        assert a0.shape == (2, 1)
        assert np.allclose(a0[:, 0], [r, r], atol=1e-12)
        # cx|00> = |00>, cx|10> = |11> (qubit 0 is the control).
        assert a1.shape == (2, 4)
        assert np.allclose(a1[0], [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(a1[1], [0, 0, 0, 1], atol=1e-12)
        state = a0[0, 0] * a1[0] + a0[1, 0] * a1[1]
        assert np.allclose(state, [r, 0, 0, r], atol=1e-12)
        assert np.allclose(
            recombine_state(plan, tensors), state, atol=1e-12
        )

    def test_three_qubit_hand_contraction(self):
        """GHZ via two fragments: psi = sum_b A0(x01; b) A1(x2; b)."""
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        plan = plan_from_assignment(qc, [0, 0, 1], max_width=2)
        tensors, _ = evaluate_fragments(plan)
        a0 = bond_tensor(plan, tensors[0])
        a1 = bond_tensor(plan, tensors[1])
        r = 1 / np.sqrt(2)
        # Upstream owns terminal qubit 0; downstream owns qubits 1 and 2
        # (the cut wire's final value lives downstream).
        assert a0.shape == (2, 2) and a1.shape == (2, 4)
        by_hand = np.zeros(8, dtype=complex)
        for b in range(2):
            for x0 in range(2):
                for x12 in range(4):
                    by_hand[x0 | (x12 << 1)] += a0[b, x0] * a1[b, x12]
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = r
        assert np.allclose(by_hand, ghz, atol=1e-12)
        assert np.allclose(recombine_state(plan, tensors), ghz, atol=1e-12)

    def test_cut_run_needs_plan_or_width(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        with pytest.raises(CutError, match="max_width"):
            cut_run(qc)

    def test_plan_for_other_circuit_rejected(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        other = QuantumCircuit(2).h(0).cx(0, 1).x(1)
        plan = plan_from_assignment(qc, [0, 1], max_width=2)
        with pytest.raises(CutError, match="different circuit"):
            cut_run(other, plan=plan)


class TestGuards:
    """Error paths: every misuse fails loudly with a CutError."""

    def _plan(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        return qc, plan_from_assignment(qc, [0, 1], max_width=2)

    def test_validate_rejects_duplicate_and_missing_gates(self):
        import dataclasses

        _, plan = self._plan()
        dup = dataclasses.replace(
            plan,
            fragments=(plan.fragments[0],) * 2 + plan.fragments[1:],
        )
        with pytest.raises(CutError, match="fragments"):
            dup.validate()
        short = dataclasses.replace(plan, fragments=plan.fragments[:1])
        with pytest.raises(CutError, match="missing"):
            short.validate()

    def test_validate_rejects_backward_cut(self):
        import dataclasses

        _, plan = self._plan()
        flipped = dataclasses.replace(
            plan.cuts[0], from_fragment=1, to_fragment=0
        )
        bad = dataclasses.replace(plan, cuts=(flipped,))
        with pytest.raises(CutError, match="backward"):
            bad.validate()

    def test_variant_circuit_arity_checked(self):
        _, plan = self._plan()
        with pytest.raises(CutError, match="preparations"):
            variant_circuit(plan, plan.fragments[1], (), ())
        with pytest.raises(CutError, match="bases"):
            variant_circuit(plan, plan.fragments[0], (), ())

    def test_unknown_boundary_labels_rejected(self):
        from repro.cut.fragments import meas_angles, prep_angles

        with pytest.raises(CutError):
            prep_angles("minus")
        with pytest.raises(CutError):
            meas_angles("W")

    def test_unknown_evaluation_mode_rejected(self):
        _, plan = self._plan()
        with pytest.raises(CutError, match="mode"):
            evaluate_fragments(plan, mode="nope")

    def test_bond_tensor_needs_amplitude_mode(self):
        _, plan = self._plan()
        tensors, _ = evaluate_fragments(plan, mode="quasi")
        # The upstream fragment's amplitude variant measures in "I";
        # quasi mode only ran the physical Z/X/Y rotations.
        with pytest.raises(CutError, match="amplitude variant"):
            bond_tensor(plan, tensors[0])

    def test_tensor_count_mismatch_rejected(self):
        _, plan = self._plan()
        tensors, _ = evaluate_fragments(plan)
        with pytest.raises(CutError, match="tensors for"):
            recombine_state(plan, tensors[:1])
        with pytest.raises(CutError, match="tensors for"):
            quasi_probabilities(plan, tensors[:1])

    def test_contraction_cut_ceiling(self):
        qc, assignment = chain_of_cx(22)  # 21 cuts, 2q fragments
        plan = plan_from_assignment(qc, assignment, max_width=2)
        tensors, _ = evaluate_fragments(plan)
        with pytest.raises(CutError, match="bond assignments"):
            recombine_state(plan, tensors)

    def test_stream_counts_needs_a_shot(self):
        _, plan = self._plan()
        tensors, _ = evaluate_fragments(plan)
        with pytest.raises(ValueError, match="shots"):
            recombine_counts(plan, tensors, 0, dense_width=0)

    def test_quasi_refuses_beyond_dense_width(self, monkeypatch):
        _, plan = self._plan()
        tensors, _ = evaluate_fragments(plan, mode="quasi")
        monkeypatch.setenv("REPRO_CUT_DENSE_WIDTH", "1")
        with pytest.raises(CutError, match="quasiprobability"):
            quasi_probabilities(plan, tensors)

    def test_idle_qubits_in_observables(self):
        """A qubit no gate touches is |0>: Z gives +1, X/Y kill the term."""
        qc = QuantumCircuit(3).h(0).cx(0, 1)  # qubit 2 idle
        plan = plan_from_assignment(qc, [0, 1], max_width=2)
        tensors, _ = evaluate_fragments(plan)
        zz_z, zz_x = recombine_expectations(
            plan, tensors, ["ZZZ", "ZZX"]
        )
        assert zz_z == pytest.approx(1.0, abs=ATOL)
        assert zz_x == 0.0

    def test_amplitude_variant_helper(self):
        from repro.cut.fragments import num_amplitude_variants

        _, plan = self._plan()
        assert num_amplitude_variants(plan.fragments[0]) == 1
        assert num_amplitude_variants(plan.fragments[1]) == 2


class TestFingerprints:
    """Boundary variants: distinct identity, shared structure."""

    def _variants(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        plan = plan_from_assignment(qc, [0, 1], max_width=2)
        frag = plan.fragments[1]
        zero = variant_circuit(plan, frag, ("zero",), ())
        one = variant_circuit(plan, frag, ("one",), ())
        return zero, one

    def test_identity_differs_structure_shared(self):
        zero, one = self._variants()
        assert circuit_fingerprint(zero) != circuit_fingerprint(one)
        assert structural_fingerprint(zero) == structural_fingerprint(one)

    def test_untagged_circuits_keep_old_fingerprint(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        assert circuit_fingerprint(qc) == structural_fingerprint(qc)

    def test_variants_share_partition_and_structure(self):
        """One fragment's whole variant set pays partitioning once."""
        qc, assignment = chain_of_cx(2)
        plan = plan_from_assignment(qc, assignment, max_width=2)
        _, stats = evaluate_fragments(plan)
        assert stats.num_jobs > plan.num_fragments
        assert stats.partitions_computed == plan.num_fragments
        assert stats.partition_hits == stats.num_jobs - plan.num_fragments
        assert stats.plans_bound == stats.num_jobs


class TestServeIntegration:
    """Cut jobs ride the ordinary batch manifest."""

    def test_manifest_cut_job_runs(self):
        jobs, options = load_manifest({
            "jobs": [{
                "id": "wide",
                "circuit": {"generator": "qnn", "qubits": 10},
                "shots": 32,
                "observables": ["ZZIIIIIIII"],
                "cut": {"max_width": 7},
            }],
        })
        report = BatchRunner(**options).run(jobs)
        res = report.results[0]
        assert res.error is None
        assert sum(res.counts.values()) == 32
        assert res.num_parts >= 2  # fragments, not parts
        state = uncut_state(build("qnn", 10))
        from repro.sv.pauli import pauli_expectation

        assert res.expectations[0] == pytest.approx(
            pauli_expectation(state, "ZZIIIIIIII", 10), abs=ATOL
        )

    def test_manifest_cut_counts_match_uncut_job(self):
        """Below the dense width a cut job's counts equal an uncut job's."""
        base = {
            "id": "j",
            "circuit": {"generator": "cc", "qubits": 10},
            "shots": 64,
            "seed": 13,
        }
        jobs, _ = load_manifest({
            "jobs": [base, {**base, "id": "cutj", "cut": {"max_width": 7}}],
        })
        report = BatchRunner().run(jobs)
        uncut, cut = report.results
        assert uncut.error is None and cut.error is None
        assert cut.counts == uncut.counts

    def test_bad_cut_spec_rejected(self):
        with pytest.raises(ValueError, match="max_width"):
            load_manifest({
                "jobs": [{
                    "id": "bad",
                    "circuit": {"generator": "bv", "qubits": 6},
                    "cut": {"max_width": 1},
                }],
            })


def _count_calls(monkeypatch, cls, name):
    """Monkeypatch ``cls.name`` to count its calls; returns the tally."""
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


class TestOnePipeline:
    """A cut is evaluated on the runner it is given: one partition
    cache, one plan cache, one set of counters — no runner builds one."""

    def _cut_jobs(self, count, **job):
        return [
            SimJob(f"c{k}", build("qnn", 14), cut={"max_width": 9}, **job)
            for k in range(count)
        ]

    def test_identical_cut_jobs_partition_once(self, monkeypatch):
        from repro.partition.dagp import DagPPartitioner

        partitions = _count_calls(monkeypatch, DagPPartitioner, "partition")
        runners = _count_calls(monkeypatch, BatchRunner, "__init__")
        runner = BatchRunner()
        report = runner.run(self._cut_jobs(8, want_state=True))
        assert [r.error for r in report.results] == [None] * 8
        fragments = report.results[0].num_parts
        assert len(partitions) == 1 + fragments  # the search + each fragment
        assert len(runners) == 1
        stats = report.stats
        assert stats.partitions_computed == 1 + fragments
        assert stats.partition_hits > 0 and stats.plans_bound > 0
        assert [r.partition_cached for r in report.results] == (
            [False] + [True] * 7
        )
        plain = runner.run([SimJob("p", build("qnn", 14), want_state=True)])
        assert np.allclose(
            plain.results[0].state, report.results[-1].state, atol=ATOL
        )
        # A cut job's variant batches count once, into the enclosing
        # run: one bind per dense part, cut or plain.
        for batch in (stats, plain.stats):
            assert batch.plans_bound == batch.parts_routed_dense > 0

    def test_runner_limit_applies_to_fragments(self, monkeypatch):
        from repro.partition.dagp import DagPPartitioner

        partitions = _count_calls(monkeypatch, DagPPartitioner, "partition")
        jobs = self._cut_jobs(1, want_state=True)
        report = BatchRunner(limit=3).run(jobs)
        assert report.results[0].error is None
        # (circuit, limit) per call: the search at max_width, then every
        # fragment at the run's explicit limit.
        assert [args[1] for args in partitions] == [9] + [3] * (
            len(partitions) - 1
        )
        assert np.allclose(
            report.results[0].state, uncut_state(jobs[0].circuit), atol=ATOL
        )

    def test_cut_jobs_inside_a_worker_pool(self):
        """The variant batch nests inside a pool thread of the same
        runner: it completes, with the serial run's exact bits."""
        jobs = self._cut_jobs(2, shots=32, seed=5, want_state=True)
        jobs.append(SimJob("plain", build("qft", 8), want_state=True))
        serial = BatchRunner(workers=1).run(jobs)
        pooled = BatchRunner(workers=2).run(jobs)
        for a, b in zip(serial.results, pooled.results):
            assert a.error is None and b.error is None
            assert np.array_equal(a.state, b.state)
            assert a.counts == b.counts
        for name in (
            "partitions_computed", "partition_hits", "parts_routed_dense",
            "parts_routed_stabilizer", "plans_bound",
        ):
            assert getattr(serial.stats, name) == getattr(pooled.stats, name)

    @pytest.mark.parametrize("key,value", [("workers", 2), ("strategy", "DFS")])
    def test_per_request_run_options_are_not_cut_spec_keys(self, key, value):
        with pytest.raises(ValueError, match="unknown cut spec keys"):
            SimJob("c", build("qnn", 8), cut={"max_width": 6, key: value})

    def test_cutter_constructs_no_runner_when_handed_one(self, monkeypatch):
        qc = build("qnn", 10)
        runner = BatchRunner()
        runners = _count_calls(monkeypatch, BatchRunner, "__init__")
        result = cut_run(qc, runner=runner, max_width=7, want_state=True)
        evaluate_fragments(result.plan, runner)
        assert runners == []
        assert np.allclose(result.state, uncut_state(qc), atol=ATOL)
        # Searched and evaluated in the runner's caches: a second cut
        # of the same structure computes no partition at all.
        again = cut_run(qc, runner=runner, max_width=7)
        assert again.stats.partitions_computed == 0
        assert again.stats.partition_hits == 1 + again.stats.num_jobs
        for gone in ("options", "plan_cache", "workers"):
            assert gone not in inspect.signature(cut_run).parameters
            assert gone not in inspect.signature(evaluate_fragments).parameters

    def test_failed_search_is_a_cut_error_on_the_runner_too(self):
        qc = QuantumCircuit(3).ccx(0, 1, 2)
        with pytest.raises(CutError, match="widest gate"):
            cut_run(qc, runner=BatchRunner(), max_width=2)


class TestWideCircuits:
    """The regime cutting exists for: wider than the dense budget."""

    def test_30q_counts_and_expectations(self):
        qc = build("qnn", 30)
        plan = find_cuts(qc, 16)
        assert max(plan.widths) <= 16
        label = "ZZ" + "I" * 28
        result = cut_run(qc, plan=plan, shots=64, seed=2,
                         observables=[label])
        assert sum(result.counts.values()) == 64
        assert all(0 <= i < 2 ** 30 for i in result.counts)
        assert -1.0 <= result.expectations[0] <= 1.0

    def test_30q_two_plans_agree(self):
        """Independent cut plans are self-consistent at 1e-10."""
        qc = build("qnn", 30)
        labels = ["ZZ" + "I" * 28, "I" * 28 + "XX", "Z" + "I" * 29]
        a = cut_run(qc, max_width=16, observables=labels)
        b = cut_run(qc, max_width=20, observables=labels)
        assert a.plan.widths != b.plan.widths
        for va, vb in zip(a.expectations, b.expectations):
            assert va == pytest.approx(vb, abs=ATOL)
