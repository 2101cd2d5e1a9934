"""Tests for the batched serving runtime (repro.serve).

Covers: structural fingerprints, scheduling policies, the structural
plan-cache layer (structure reused, matrices rebound), cache-hit
accounting on identical-structure batches, per-job correctness against
the flat simulator, seeded shot-sampling distributions against exact
probabilities, expectation values against a dense-matrix reference, and
the manifest / CLI surface.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.generators import qaoa, qft
from repro.partition import get_partitioner
from repro.serve import (
    BatchRunner,
    BatchStats,
    SimJob,
    circuit_fingerprint,
    default_limit,
    load_manifest,
    order_jobs,
    results_to_manifest,
    structural_fingerprint,
)
from repro.serve.jobs import fingerprints
from repro.sv import (
    CacheCounters,
    HierarchicalExecutor,
    PlanCache,
    StateVectorSimulator,
    pauli_expectation,
    sample_counts,
    zero_state,
)

from conftest import (
    BAD_MANIFEST_VALUES,
    bad_manifest,
    full_unitary,
    manifest_refusal,
    random_circuit,
)


def sweep_circuits(n=8, jobs=4, rounds=1):
    """Structurally identical QAOA circuits with per-job angles."""
    return [
        qaoa(
            n,
            p=rounds,
            gammas=[0.2 + 0.05 * k + 0.1 * r for r in range(rounds)],
            betas=[0.9 - 0.04 * k - 0.06 * r for r in range(rounds)],
        )
        for k in range(jobs)
    ]


def flat_state(circuit):
    sim = StateVectorSimulator(circuit.num_qubits)
    sim.run(circuit)
    return sim.state


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_parameters_do_not_change_fingerprint(self):
        a, b = sweep_circuits(jobs=2)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_structure_changes_fingerprint(self):
        base = QuantumCircuit(3).h(0).cx(0, 1)
        other_gate = QuantumCircuit(3).h(0).cx(0, 2)      # different operand
        other_name = QuantumCircuit(3).h(0).cz(0, 1)      # different gate
        longer = QuantumCircuit(3).h(0).cx(0, 1).h(2)     # extra gate
        wider = QuantumCircuit(4).h(0).cx(0, 1)           # extra qubit
        fps = {
            circuit_fingerprint(c)
            for c in (base, other_gate, other_name, longer, wider)
        }
        assert len(fps) == 5

    def test_gate_order_matters(self):
        ab = QuantumCircuit(2).h(0).h(1)
        ba = QuantumCircuit(2).h(1).h(0)
        assert circuit_fingerprint(ab) != circuit_fingerprint(ba)

    def test_deterministic_across_copies(self):
        qc = random_circuit(5, 30, seed=3)
        assert circuit_fingerprint(qc) == circuit_fingerprint(qc.copy())

    def test_digests_are_pinned_byte_for_byte(self):
        """Both fingerprints stay the SHA-256 of the documented line
        format (re-derived here), for plain and boundary-tagged
        circuits, whichever function computes them."""

        def reference(qc, with_boundary):
            boundary = getattr(qc, "cut_boundary", ())
            h = hashlib.sha256()
            h.update(f"n={qc.num_qubits}\n".encode())
            for g in qc:
                h.update(f"{g.name}:{','.join(map(str, g.qubits))}\n".encode())
            if with_boundary:
                for kind, qubit, label in boundary:
                    h.update(f"cut:{kind}:{qubit}:{label}\n".encode())
            return h.hexdigest()

        plain = random_circuit(6, 40, seed=9)
        tagged = plain.copy()
        tagged.cut_boundary = (("prep", 0, "plus"), ("meas", 11, "Z"))
        for qc in (plain, tagged, QuantumCircuit(3)):
            identity, structural = fingerprints(qc)
            assert structural == structural_fingerprint(qc)
            assert structural == reference(qc, False)
            assert identity == circuit_fingerprint(qc)
            assert identity == reference(qc, True)
        assert circuit_fingerprint(tagged) != structural_fingerprint(tagged)
        assert structural_fingerprint(QuantumCircuit(2).h(0).cx(0, 1)) == (
            "0f6ac9bb0236b16984522c88be652fb1cbb51622f112244c2f446d000732634c"
        )

    def test_runner_hashes_each_job_once(self, monkeypatch):
        from repro.serve import runner as runner_module

        calls = []

        def counting(circuit):
            calls.append(circuit)
            return fingerprints(circuit)

        monkeypatch.setattr(runner_module, "fingerprints", counting)
        circuits = sweep_circuits(n=6, jobs=3)
        tagged = circuits[0].copy()
        tagged.cut_boundary = (("prep", 0, "plus"),)
        jobs = [
            SimJob(f"j{i}", qc) for i, qc in enumerate(circuits + [tagged])
        ]
        report = BatchRunner().run(jobs)
        assert calls == [j.circuit for j in jobs]
        assert [r.fingerprint for r in report.results] == [
            circuit_fingerprint(j.circuit) for j in jobs
        ]
        assert report.stats.unique_structures == 1


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_grouped_clusters_by_first_seen(self):
        assert order_jobs(["a", "b", "a", "c", "b", "a"]) == [
            0, 2, 5, 1, 4, 3,
        ]

    def test_grouped_is_a_permutation(self):
        fps = [f"s{k % 3}" for k in range(10)]
        assert sorted(order_jobs(fps)) == list(range(10))

    def test_unknown_schedule_rejected(self):
        # Grouped dispatch is the only order; the keyword is kept for
        # callers that pass it.
        assert BatchRunner(schedule="grouped").workers == 1
        for schedule in ("fifo", "shortest-job-first"):
            with pytest.raises(ValueError, match="schedule must be 'grouped'"):
                BatchRunner(schedule=schedule)


# ---------------------------------------------------------------------------
# Structural plan-cache layer
# ---------------------------------------------------------------------------


class TestStructuralPlanCache:
    def test_structure_reused_matrices_rebound(self):
        a, b = sweep_circuits(n=6, jobs=2)
        limit = default_limit(6)
        partition = get_partitioner("dagP").partition(a, limit)
        cache, seen = PlanCache(), CacheCounters()
        part = partition.parts[0]
        plan_a = cache.get_or_compile(
            a, part.gate_indices, part.qubits, counters=seen
        )
        plan_b = cache.get_or_compile(
            b, part.gate_indices, part.qubits, counters=seen
        )
        # One structure, shared; distinct matrices (angles differ).
        assert plan_a.structure is plan_b.structure
        assert seen.structure_misses == 1 and seen.structure_hits == 1
        assert plan_a.qubits == plan_b.qubits
        assert any(
            not np.array_equal(oa.matrix(), ob.matrix())
            for oa, ob in zip(plan_a.ops, plan_b.ops)
        )

    def test_same_circuit_hits_bound_layer(self):
        (a,) = sweep_circuits(n=6, jobs=1)
        partition = get_partitioner("dagP").partition(a, default_limit(6))
        cache, seen = PlanCache(), CacheCounters()
        part = partition.parts[0]
        args = (a, part.gate_indices, part.qubits)
        plan1 = cache.get_or_compile(*args, counters=seen)
        plan2 = cache.get_or_compile(*args, counters=seen)
        assert plan1 is plan2
        assert seen.hits == 1 and seen.misses == 1

    def test_structural_key_execution_is_correct_per_job(self):
        """The stale-matrix trap: one structure key (the parts' content),
        different angles must yield each job's own state, not the first
        job's."""
        circuits = sweep_circuits(n=7, jobs=3)
        partition = get_partitioner("dagP").partition(
            circuits[0], default_limit(7)
        )
        executor = HierarchicalExecutor()
        for qc in circuits:
            state = zero_state(7)
            executor.run(qc, partition, state)
            np.testing.assert_allclose(
                state, flat_state(qc), atol=1e-10, rtol=0
            )

    def test_gather_tables_shared_across_binds(self):
        a, b = sweep_circuits(n=6, jobs=2)
        partition = get_partitioner("dagP").partition(a, default_limit(6))
        cache = PlanCache()
        part = partition.parts[0]
        plan_a = cache.get_or_compile(a, part.gate_indices, part.qubits)
        plan_b = cache.get_or_compile(b, part.gate_indices, part.qubits)
        assert plan_a.gather_table(6) is plan_b.gather_table(6)


# ---------------------------------------------------------------------------
# BatchRunner
# ---------------------------------------------------------------------------


class TestBatchRunner:
    def test_thirty_two_identical_jobs_compile_one_plan(self):
        """Acceptance satellite: a 32-job identical-structure batch
        partitions once and compiles each part's structure exactly once."""
        jobs = [
            SimJob(f"j{k}", qc, want_state=True)
            for k, qc in enumerate(sweep_circuits(n=8, jobs=32))
        ]
        runner = BatchRunner()
        report = runner.run(jobs)
        s = report.stats
        parts = report.results[0].num_parts
        assert s.num_jobs == 32 and s.unique_structures == 1
        assert s.partitions_computed == 1 and s.partition_hits == 31
        assert s.structures_compiled == parts
        assert s.structure_hits == 31 * parts
        assert s.plans_bound == 32 * parts

    @pytest.mark.parametrize("schedule", ["grouped"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_states_match_flat_simulator(self, schedule, workers):
        circuits = sweep_circuits(n=7, jobs=3) + [qft(6), qft(6)]
        jobs = [
            SimJob(f"j{k}", qc, want_state=True)
            for k, qc in enumerate(circuits)
        ]
        report = BatchRunner(schedule=schedule, workers=workers).run(jobs)
        assert [r.job_id for r in report.results] == [j.job_id for j in jobs]
        for job, res in zip(jobs, report.results):
            np.testing.assert_allclose(
                res.state, flat_state(job.circuit), atol=1e-10, rtol=0
            )

    def test_results_deterministic_across_schedules_and_workers(self):
        # Submission order moves each job's place in dispatch (and in
        # its stack); neither it nor the worker count moves a result.
        circuits = sweep_circuits(n=6, jobs=4) + [qft(6)]
        jobs = [
            SimJob(f"j{k}", qc, shots=64, seed=5, observables=("ZZIIII",))
            for k, qc in enumerate(circuits)
        ]
        reports = [
            BatchRunner(workers=workers).run(order)
            for order in (jobs, [jobs[4], *jobs[2:4], *jobs[:2]])
            for workers in (1, 2)
        ]
        ref = {r.job_id: r for r in reports[0].results}
        for rep in reports[1:]:
            for b in rep.results:
                assert ref[b.job_id].counts == b.counts
                assert ref[b.job_id].expectations == b.expectations

    def test_outputs_only_when_requested(self):
        qc = qft(5)
        jobs = [
            SimJob("state", qc, want_state=True),
            SimJob("shots", qc, shots=10),
            SimJob("obs", qc, observables=("ZIIII",)),
        ]
        results = BatchRunner().run(jobs).results
        assert results[0].state is not None and results[0].counts is None
        assert results[1].counts is not None and results[1].state is None
        assert results[2].expectations is not None and results[2].state is None

    def test_mixed_structures_partition_per_structure(self):
        jobs = [
            SimJob("a0", qaoa(6, p=1)),
            SimJob("b0", qft(6)),
            SimJob("a1", qaoa(6, p=1, gammas=[1.0], betas=[0.1])),
        ]
        report = BatchRunner().run(jobs)
        assert report.stats.partitions_computed == 2
        assert report.stats.partition_hits == 1
        assert report.results[2].partition_cached is True

    def test_explicit_limit_respected(self):
        jobs = [SimJob("j", qft(6), want_state=True)]
        report = BatchRunner(limit=4, strategy="DFS").run(jobs)
        np.testing.assert_allclose(
            report.results[0].state, flat_state(qft(6)), atol=1e-10, rtol=0
        )

    def test_bad_configuration_rejected(self):
        with pytest.raises(ValueError, match="schedule must be 'grouped'"):
            BatchRunner(schedule="lifo")
        with pytest.raises(ValueError):
            BatchRunner(workers=0)
        # The partitioner is resolved once, at construction.
        with pytest.raises(ValueError, match="unknown strategy 'KL'"):
            BatchRunner(strategy="KL")
        with pytest.raises(ValueError, match="threads must be >= 1"):
            BatchRunner(threads=0)


# ---------------------------------------------------------------------------
# Regression: explicit limit handling (limit=0 used to mean "unset")
# ---------------------------------------------------------------------------


class TestLimitHandling:
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_non_positive_limit_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            BatchRunner(limit=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_max_fused_qubits_rejected(self, bad):
        # Same typed error from the constructor and from a manifest,
        # which RunOptions checks as it loads; it used to be clamped to
        # 1 at compile time.
        with pytest.raises(ValueError, match="max_fused_qubits must be >= 1"):
            BatchRunner(max_fused_qubits=bad)
        with pytest.raises(ValueError, match="max_fused_qubits must be >= 1"):
            load_manifest({"max_fused_qubits": bad, "jobs": []})

    def test_none_limit_derives_default(self):
        report = BatchRunner(limit=None).run(
            [SimJob("j", qft(6), want_state=True)]
        )
        np.testing.assert_allclose(
            report.results[0].state, flat_state(qft(6)), atol=1e-10, rtol=0
        )

    def test_explicit_small_limit_is_honoured(self):
        """A small explicit limit is a real setting, not "unset": it
        must produce a different (finer) partition than the default."""
        job = SimJob("j", qft(6), want_state=True)
        tight = BatchRunner(limit=2, strategy="DFS").run([job])
        loose = BatchRunner(strategy="DFS").run([SimJob("j", qft(6),
                                                        want_state=True)])
        assert tight.results[0].error is None
        assert tight.results[0].num_parts > loose.results[0].num_parts
        np.testing.assert_allclose(
            tight.results[0].state, flat_state(qft(6)), atol=1e-10, rtol=0
        )

    def test_manifest_limit_zero_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            load_manifest({"limit": 0, "jobs": []})
        with pytest.raises(ValueError, match="limit"):
            load_manifest({"limit": -3, "jobs": []})
        with pytest.raises(ValueError, match="limit"):
            load_manifest({"limit": "4", "jobs": []})

    @pytest.mark.parametrize("scope,key,value", BAD_MANIFEST_VALUES)
    def test_a_mistyped_manifest_value_is_refused(self, scope, key, value):
        with pytest.raises(ValueError) as excinfo:
            jobs, options = load_manifest(bad_manifest(scope, key, value))
            BatchRunner(**options).run(jobs)
        assert str(excinfo.value).startswith(
            manifest_refusal(scope, key, value)
        )

    def test_manifest_limit_null_and_valid(self):
        _, options = load_manifest({"limit": None, "jobs": []})
        assert "limit" not in options
        _, options = load_manifest({"limit": 4, "jobs": []})
        assert options == {"limit": 4}

    def test_cli_limit_zero_rejected(self, tmp_path):
        from repro.cli import main

        manifest_path = tmp_path / "jobs.json"
        manifest_path.write_text(json.dumps(MANIFEST))
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(manifest_path), "--limit", "0"])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# Regression: per-job error isolation (one bad job used to discard all)
# ---------------------------------------------------------------------------


class TestErrorIsolation:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_failing_job_returns_partial_batch(self, workers):
        circuits = sweep_circuits(n=6, jobs=3)
        jobs = [
            SimJob(f"g{k}", qc, want_state=True)
            for k, qc in enumerate(circuits)
        ]
        # Observable length mismatches the register: raises at run time.
        jobs.insert(1, SimJob("bad", qft(6), observables=("ZZZ",)))
        report = BatchRunner(workers=workers).run(jobs)
        assert [r.job_id for r in report.results] == [
            "g0", "bad", "g1", "g2",
        ]
        bad = report.results[1]
        assert bad.error is not None and "ValueError" in bad.error
        assert bad.state is None and bad.counts is None
        assert report.stats.errored == 1
        for job, res in zip(jobs, report.results):
            if res.error is None:
                np.testing.assert_allclose(
                    res.state, flat_state(job.circuit), atol=1e-10, rtol=0
                )

    def test_unallocatable_state_is_a_per_job_error(self, monkeypatch):
        from repro.sv import simulator

        real = simulator.zero_state

        def refuse_wide(num_qubits):
            if num_qubits > 5:
                raise MemoryError(f"Unable to allocate 2^{num_qubits}")
            return real(num_qubits)

        monkeypatch.setattr(simulator, "zero_state", refuse_wide)
        jobs = [SimJob("ok", qft(5), shots=8), SimJob("wide", qft(6), shots=8)]
        report = BatchRunner().run(jobs)
        ok, wide = report.results
        assert ok.error is None and sum(ok.counts.values()) == 8
        assert wide.error.startswith("MemoryError") and wide.counts is None
        assert report.stats.errored == 1

    def test_error_rendered_in_results_manifest(self):
        jobs = [
            SimJob("ok", qft(5), shots=8),
            SimJob("bad", qft(5), observables=("ZZ",)),  # wrong length
        ]
        report = BatchRunner().run(jobs)
        manifest = results_to_manifest(
            report.results, stats=vars(report.stats)
        )
        entries = manifest["jobs"]
        assert "error" not in entries[0] and "counts" in entries[0]
        assert entries[1]["error"].startswith("ValueError")
        assert "counts" not in entries[1] and "state" not in entries[1]
        assert manifest["stats"]["errored"] == 1
        json.dumps(manifest)  # still serialisable

    def test_keyboard_interrupt_still_propagates(self, monkeypatch):
        runner = BatchRunner()
        monkeypatch.setattr(
            runner, "_run_one",
            lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run([SimJob("j", qft(4))])


# ---------------------------------------------------------------------------
# Regression: per-run stats under concurrent run() calls on one runner
# ---------------------------------------------------------------------------


class TestConcurrentRunStats:
    def test_concurrent_runs_each_report_exact_stats(self):
        """Two threads sharing one runner (the daemon's normal mode)
        must each see their own cache accounting, not an interleaved
        snapshot delta."""
        import threading

        runner = BatchRunner()
        jobs_a = [
            SimJob(f"a{k}", qc, want_state=True)
            for k, qc in enumerate(sweep_circuits(n=6, jobs=6))
        ]
        # Distinct objects per job so every job exercises the bind layer.
        jobs_b = [
            SimJob(f"b{k}", qft(6).copy(), want_state=True)
            for k in range(6)
        ]
        barrier = threading.Barrier(2)
        reports = {}

        def go(name, jobs):
            barrier.wait()
            reports[name] = runner.run(jobs)

        threads = [
            threading.Thread(target=go, args=("a", jobs_a)),
            threading.Thread(target=go, args=("b", jobs_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name, jobs in (("a", jobs_a), ("b", jobs_b)):
            stats = reports[name].stats
            parts = reports[name].results[0].num_parts
            assert stats.num_jobs == 6
            assert stats.unique_structures == 1
            assert stats.partitions_computed == 1, name
            assert stats.partition_hits == 5, name
            assert stats.structures_compiled == parts, name
            assert stats.structure_hits == 5 * parts, name
            assert stats.plans_bound == 6 * parts, name
            for job, res in zip(jobs, reports[name].results):
                np.testing.assert_allclose(
                    res.state, flat_state(job.circuit), atol=1e-10, rtol=0
                )

    def test_partition_cache_is_lru_bounded_like_the_plan_cache(self):
        from repro.sv import PlanCache

        runner = BatchRunner(plan_cache=PlanCache(max_entries=3))
        widths = (4, 5, 6, 7)  # max_entries + 1 distinct structures
        report = runner.run(
            [SimJob(f"w{n}", qft(n), want_state=True) for n in widths]
        )
        assert report.stats.partitions_computed == 4
        assert report.stats.partition_hits == 0
        # The oldest structure was evicted: it is partitioned, and
        # counted, again; the most recent one is still a hit.
        again = runner.run([
            SimJob("old", qft(4), want_state=True),
            SimJob("new", qft(7), want_state=True),
        ])
        assert again.stats.partitions_computed == 1
        assert again.stats.partition_hits == 1
        # ... which evicted the next oldest and nothing else.
        third = runner.run([SimJob(f"w{n}", qft(n)) for n in (6, 5)])
        assert third.stats.partition_hits == 1
        assert third.stats.partitions_computed == 1
        np.testing.assert_allclose(
            again.results[0].state, flat_state(qft(4)), atol=1e-10, rtol=0
        )

    def test_an_in_flight_partition_is_never_evicted(self, monkeypatch):
        import threading
        import time

        from repro.serve import runner as runner_module
        from repro.sv import PlanCache

        started, release = threading.Event(), threading.Event()
        slow_calls = []
        real = runner_module.get_partitioner

        class SlowAtSixQubits:
            def __init__(self, inner):
                self.inner = inner

            def partition(self, circuit, limit):
                if circuit.num_qubits == 6:
                    slow_calls.append(limit)
                    started.set()
                    assert release.wait(10)
                return self.inner.partition(circuit, limit)

        monkeypatch.setattr(
            runner_module, "get_partitioner",
            lambda name: SlowAtSixQubits(real(name)),
        )
        runner = BatchRunner(plan_cache=PlanCache(max_entries=1))
        reports = {}

        def submit(name):
            reports[name] = runner.run([SimJob(name, qft(6))])

        first = threading.Thread(target=submit, args=("first",))
        first.start()
        assert started.wait(10)
        # Two more structures overflow the one-entry cache while qft(6)
        # is still being partitioned ...
        busy = runner.run([SimJob(f"w{n}", qft(n)) for n in (4, 5)])
        assert busy.stats.partitions_computed == 2
        # ... and its key survives: a second asker waits for the one
        # computing thread instead of partitioning again.
        follower = threading.Thread(target=submit, args=("follower",))
        follower.start()
        time.sleep(0.1)  # let it reach the in-flight key
        release.set()
        first.join(10)
        follower.join(10)
        assert not first.is_alive() and not follower.is_alive()
        assert len(slow_calls) == 1
        assert reports["first"].stats.partitions_computed == 1
        assert reports["follower"].stats.partition_hits == 1

    def test_lifetime_totals_still_accumulate(self):
        # The runner keeps no totals; a long-lived reader sums its
        # batches' stats, as the serve daemon does for /metrics.
        runner, total = BatchRunner(), BatchStats()
        for name, qc in (("x", qft(5)), ("y", qft(5).copy())):
            total.absorb(runner.run([SimJob(name, qc, want_state=True)]).stats)
        assert total.partitions_computed == 1
        assert total.partition_hits == 1
        assert total.structure_hits == total.structures_compiled > 0
        assert total.plans_bound == 2 * total.structures_compiled
        assert total.plans_bound == total.parts_routed_dense


# ---------------------------------------------------------------------------
# Regression: unknown manifest keys are rejected, with a suggestion
# ---------------------------------------------------------------------------


class TestManifestUnknownKeys:
    @pytest.mark.parametrize(
        "typo, suggestion",
        [
            ("methd", "method"),
            ("stragety", "strategy"),
            ("worker", "workers"),
            ("bakend", "backend"),
        ],
    )
    def test_typo_names_nearest_option(self, typo, suggestion):
        with pytest.raises(ValueError) as excinfo:
            load_manifest({typo: "x", "jobs": []})
        message = str(excinfo.value)
        assert typo in message and suggestion in message

    def test_unrelated_key_lists_valid_options(self):
        with pytest.raises(ValueError) as excinfo:
            load_manifest({"zzzqqq": 1, "jobs": []})
        assert "valid keys" in str(excinfo.value)

    def test_known_keys_still_accepted(self):
        _, options = load_manifest(
            {"strategy": "DFS", "workers": 2, "jobs": []}
        )
        assert options == {"strategy": "DFS", "workers": 2}


# ---------------------------------------------------------------------------
# Sampling and expectation outputs
# ---------------------------------------------------------------------------


class TestSamplingOutputs:
    def test_sampled_distribution_close_to_exact(self):
        """Total-variation distance between the seeded empirical shot
        distribution and |amplitude|^2 stays within the N^(1/2) envelope."""
        qc = random_circuit(6, 40, seed=11)
        state = flat_state(qc)
        exact = np.abs(state) ** 2
        shots = 20000
        counts = sample_counts(state, shots, seed=123)
        empirical = np.zeros_like(exact)
        for idx, c in counts.items():
            empirical[idx] = c / shots
        tvd = 0.5 * float(np.sum(np.abs(empirical - exact)))
        # E[TVD] <~ sqrt(K / (2 pi N)); allow 4x headroom for the seed.
        bound = 4.0 * math.sqrt(exact.size / (2 * math.pi * shots))
        assert tvd < bound

    def test_sampling_is_seeded_and_deterministic(self):
        state = flat_state(qft(5))
        assert sample_counts(state, 500, seed=7) == sample_counts(
            state, 500, seed=7
        )
        assert sample_counts(state, 500, seed=7) != sample_counts(
            state, 500, seed=8
        )

    def test_batch_sampling_matches_direct_sampling(self):
        qc = qaoa(6, p=1)
        job = SimJob("s", qc, shots=256, seed=42)
        report = BatchRunner().run([job])
        assert report.results[0].counts == sample_counts(
            flat_state(qc), 256, seed=42
        )

    def test_counts_sum_to_shots(self):
        report = BatchRunner().run([SimJob("s", qft(5), shots=999)])
        assert sum(report.results[0].counts.values()) == 999


PAULI_1Q = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def dense_pauli(term: str) -> np.ndarray:
    """Full-space matrix of a Pauli string (qubit 0 = leftmost char).

    Little-endian indices put qubit 0 on the *last* kron factor.
    """
    out = np.eye(1, dtype=np.complex128)
    for c in term:  # qubit 0 first -> innermost factor last via prepend
        out = np.kron(PAULI_1Q[c], out)
    return out


class TestExpectationOutputs:
    @pytest.mark.parametrize("term", ["ZZIII", "XIYIZ", "XXXXX", "IIIII"])
    def test_matches_dense_matrix_reference(self, term):
        qc = random_circuit(5, 30, seed=9)
        state = flat_state(qc)
        expected = float(
            np.real(np.conj(state) @ (dense_pauli(term) @ state))
        )
        assert pauli_expectation(state, term, 5) == pytest.approx(
            expected, abs=1e-10
        )

    def test_batch_expectations_match_reference(self):
        qc = random_circuit(4, 25, seed=17)
        terms = ("ZZII", "XYIZ", "IIII")
        report = BatchRunner().run([SimJob("e", qc, observables=terms)])
        state = flat_state(qc)
        for value, term in zip(report.results[0].expectations, terms):
            expected = float(
                np.real(np.conj(state) @ (dense_pauli(term) @ state))
            )
            assert value == pytest.approx(expected, abs=1e-10)

    def test_energy_of_computational_basis_state(self):
        # <00|ZI|00> = <00|IZ|00> = 1.
        report = BatchRunner().run(
            [SimJob("z", QuantumCircuit(2).id(0), observables=("ZI", "IZ"))]
        )
        assert report.results[0].expectations == pytest.approx([1.0, 1.0])


# ---------------------------------------------------------------------------
# Manifests and the CLI
# ---------------------------------------------------------------------------


MANIFEST = {
    "workers": 1,
    "jobs": [
        {
            "id": "gen",
            "circuit": {
                "generator": "qaoa",
                "qubits": 6,
                "args": {"p": 1, "gammas": [0.4], "betas": [0.6]},
            },
            "shots": 32,
            "seed": 3,
        },
        {
            "id": "inline",
            "circuit": {
                "qasm": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
            },
            "observables": ["ZZ", {"0": "X", "1": "X"}],
        },
        {"id": "defaulted", "circuit": {"generator": "qft", "qubits": 4}},
    ],
}


class TestManifests:
    def test_load_manifest_from_dict(self):
        jobs, options = load_manifest(MANIFEST)
        assert options == {"workers": 1}
        assert [j.job_id for j in jobs] == ["gen", "inline", "defaulted"]
        assert jobs[0].shots == 32 and jobs[0].seed == 3
        assert jobs[1].observables == ("ZZ", {0: "X", 1: "X"})
        # No outputs named -> defaults to the final state.
        assert jobs[2].want_state is True

    def test_load_manifest_qasm_file_relative_to_manifest(self, tmp_path):
        (tmp_path / "bell.qasm").write_text(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        manifest = {
            "jobs": [
                {"id": "f", "circuit": {"qasm_file": "bell.qasm"}},
            ]
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        jobs, _ = load_manifest(str(path))
        assert len(jobs[0].circuit) == 2
        from repro.cli import main

        assert main(["batch", str(path)]) == 0
        # Only a manifest *file* may name files: the same object handed
        # over already parsed (every POST /jobs body) is refused before
        # anything is opened.
        manifest["jobs"][0]["circuit"]["qasm_file"] = str(
            tmp_path / "bell.qasm"
        )
        with pytest.raises(ValueError, match="'qasm_file' is read relative"):
            load_manifest(manifest)

    @pytest.mark.parametrize(
        "bad",
        [
            {"jobs": [{"id": "x", "circuit": {}}]},
            {"jobs": [{"id": "x", "circuit": {"generator": "qft"}}]},
            {"jobs": [{"id": "x", "circuit": {"qasm": "x", "generator": "qft", "qubits": 4}}]},
            {"not_jobs": []},
        ],
    )
    def test_malformed_manifests_rejected(self, bad):
        with pytest.raises(ValueError):
            load_manifest(bad)

    @pytest.mark.parametrize(
        "job,field",
        [
            ({"circuit": {"generator": "qft", "qubits": 4}, "shots": 1e400},
             "'shots'"),
            ({"circuit": {"generator": "qft", "qubits": 4}, "seed": 1e400},
             "'seed'"),
            ({"circuit": {"generator": "qft", "qubits": 1e400}}, "'qubits'"),
            ({"circuit": {"generator": "qft", "qubits": 2000}}, "'qubits'"),
        ],
    )
    def test_overflowing_numbers_are_value_errors_naming_the_field(
        self, job, field
    ):
        # int(1e400) and a generator's float overflow are OverflowErrors:
        # the loader names the job and the field in a ValueError.
        with pytest.raises(ValueError, match="job 'big'") as err:
            load_manifest({"jobs": [{"id": "big", **job}]})
        assert field in str(err.value)

    def test_results_roundtrip_json(self):
        jobs, options = load_manifest(MANIFEST)
        report = BatchRunner(**options).run(jobs)
        manifest = results_to_manifest(
            report.results, stats=vars(report.stats)
        )
        text = json.dumps(manifest)  # must be JSON-serialisable
        back = json.loads(text)
        assert [j["id"] for j in back["jobs"]] == ["gen", "inline", "defaulted"]
        assert sum(back["jobs"][0]["counts"].values()) == 32
        assert back["jobs"][1]["expectations"] == pytest.approx([1.0, 1.0])
        state = np.array(
            [complex(re, im) for re, im in back["jobs"][2]["state"]]
        )
        np.testing.assert_allclose(
            state, flat_state(qft(4)), atol=1e-10, rtol=0
        )
        assert back["stats"]["num_jobs"] == 3


class TestBatchCLI:
    def test_batch_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        manifest_path = tmp_path / "jobs.json"
        manifest_path.write_text(json.dumps(MANIFEST))
        out_path = tmp_path / "results.json"
        rc = main(["batch", str(manifest_path), "-o", str(out_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "3 jobs" in printed and "partitions" in printed
        results = json.loads(out_path.read_text())
        assert len(results["jobs"]) == 3

    def test_batch_cli_flags_override_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.serve
        from repro.cli import main

        runners = []

        class Recorded(BatchRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

        monkeypatch.setattr(repro.serve, "BatchRunner", Recorded)
        manifest_path = tmp_path / "jobs.json"
        manifest_path.write_text(json.dumps(MANIFEST))
        rc = main(
            ["batch", str(manifest_path), "--strategy", "DFS",
             "--workers", "2"]
        )
        assert rc == 0
        assert "3 jobs" in capsys.readouterr().out
        (runner,) = runners
        assert (runner.options.strategy, runner.workers) == ("DFS", 2)
