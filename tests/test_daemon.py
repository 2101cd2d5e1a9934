"""Tests for the resident serving daemon (``repro serve``).

Covers the HTTP lifecycle end to end (submit → poll → fetch), admission
backpressure (429 + ``Retry-After`` on a full queue), TTL expiry of
results, graceful drain (in-process and via SIGTERM on a real
subprocess), protocol-error handling, and a differential check that
daemon results are bit-identical to ``repro batch`` on the same
manifest.  The queue and store get direct unit coverage too.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.generators import qaoa, qft
from repro.config import RunOptions
from repro.serve import (
    AdmissionQueue,
    BatchRunner,
    QueueClosed,
    QueuedJob,
    QueueFull,
    ResultStore,
    SimJob,
    circuit_fingerprint,
    load_manifest,
    results_to_manifest,
)
from repro.serve.daemon import ServeConfig, ServeDaemon

from conftest import BAD_MANIFEST_VALUES, bad_manifest, manifest_refusal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# HTTP helpers
# ---------------------------------------------------------------------------


def request(port, method, path, payload=None, raw=None, timeout=30.0):
    """One HTTP exchange; returns ``(status, parsed_json, headers)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = raw
        if body is None and payload is not None:
            body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        try:
            parsed = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError):
            parsed = None
        return resp.status, parsed, dict(resp.getheaders())
    finally:
        conn.close()


def poll_batch(port, batch_id, timeout=60.0):
    """Poll ``GET /batches/{id}`` until the batch reports done."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload, _ = request(port, "GET", f"/batches/{batch_id}")
        assert status == 200, payload
        if payload["status"] == "done":
            return payload
        time.sleep(0.02)
    raise AssertionError(f"batch {batch_id} did not finish in {timeout}s")


def sweep_manifest(jobs=4, n=6, state=True):
    """A QAOA angle-sweep manifest: one structure, ``jobs`` circuits."""
    return {
        "jobs": [
            {
                "id": f"sweep-{k}",
                "circuit": {
                    "generator": "qaoa",
                    "qubits": n,
                    "args": {
                        "p": 1,
                        "gammas": [0.1 + 0.05 * k],
                        "betas": [0.7 - 0.02 * k],
                    },
                },
                **({"state": True} if state else {"shots": 32, "seed": k}),
            }
            for k in range(jobs)
        ]
    }


@pytest.fixture
def daemon():
    d = ServeDaemon(ServeConfig(port=0, workers=2, ttl=600.0)).start()
    yield d
    d.stop()


# ---------------------------------------------------------------------------
# AdmissionQueue unit tests
# ---------------------------------------------------------------------------


def _entry(handle, circuit):
    return QueuedJob(
        handle, SimJob(handle, circuit), circuit_fingerprint(circuit)
    )


class TestAdmissionQueue:
    def test_affinity_groups_one_fingerprint_per_batch(self):
        a = QuantumCircuit(2).h(0)
        b = QuantumCircuit(2).h(0).h(1)
        q = AdmissionQueue(capacity=16)
        q.submit([_entry("a0", a), _entry("b0", b), _entry("a1", a)])
        q.submit([_entry("b1", b), _entry("a2", a)])
        first = q.get_batch(8, timeout=0)
        assert [e.handle for e in first] == ["a0", "a1", "a2"]
        assert len({e.fingerprint for e in first}) == 1
        assert [e.handle for e in q.get_batch(8, timeout=0)] == ["b0", "b1"]
        assert q.depth == 0

    def test_affinity_prefers_last_dispatched_fingerprint(self):
        a = QuantumCircuit(2).h(0)
        b = QuantumCircuit(2).h(0).h(1)
        q = AdmissionQueue(capacity=16)
        q.submit([_entry("a0", a), _entry("b0", b), _entry("a1", a)])
        assert [e.handle for e in q.get_batch(1, timeout=0)] == ["a0"]
        # Bucket "a" still has a1 pending: affinity keeps draining it
        # even though bucket "b" is older than the refill below.
        q.submit([_entry("b1", b)])
        assert [e.handle for e in q.get_batch(1, timeout=0)] == ["a1"]
        assert [e.handle for e in q.get_batch(8, timeout=0)] == ["b0", "b1"]

    def test_full_submission_is_all_or_nothing(self):
        a = QuantumCircuit(2).h(0)
        q = AdmissionQueue(capacity=2, retry_after=3.0)
        q.submit([_entry("a0", a)])
        with pytest.raises(QueueFull) as excinfo:
            q.submit([_entry("a1", a), _entry("a2", a)])
        assert excinfo.value.retry_after == 3.0
        assert q.depth == 1  # the oversized batch admitted nothing
        q.submit([_entry("a1", a)])  # a fitting batch still works
        assert q.depth == 2

    def test_batch_larger_than_capacity_is_not_backpressure(self):
        a = QuantumCircuit(2).h(0)
        q = AdmissionQueue(capacity=2)
        with pytest.raises(ValueError, match="batch of 3 jobs exceeds"):
            q.submit([_entry(f"a{k}", a) for k in range(3)])
        assert q.depth == 0

    def test_close_semantics(self):
        a = QuantumCircuit(2).h(0)
        q = AdmissionQueue(capacity=4)
        q.submit([_entry("a0", a)])
        q.close()
        assert q.closed
        with pytest.raises(QueueClosed):
            q.submit([_entry("a1", a)])
        # Drain still hands out what was admitted, then signals exit.
        assert [e.handle for e in q.get_batch(4, timeout=0)] == ["a0"]
        assert q.get_batch(4, timeout=0) is None
        assert q.get_batch(4) is None  # even without a timeout

    def test_timeout_returns_empty_list_when_open(self):
        q = AdmissionQueue(capacity=4)
        assert q.get_batch(4, timeout=0.01) == []

    def test_blocked_worker_wakes_on_submit(self):
        a = QuantumCircuit(2).h(0)
        q = AdmissionQueue(capacity=4)
        got = []
        t = threading.Thread(target=lambda: got.append(q.get_batch(4)))
        t.start()
        time.sleep(0.05)
        q.submit([_entry("a0", a)])
        t.join(5.0)
        assert not t.is_alive()
        assert [e.handle for e in got[0]] == ["a0"]


# ---------------------------------------------------------------------------
# ResultStore unit tests (fake clock: no sleeping)
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_only_finished_records_expire(self):
        t = [0.0]
        store = ResultStore(ttl=10.0, clock=lambda: t[0])
        store.add("b1.q", batch="b1", client_id="q")
        store.add("b1.r", batch="b1", client_id="r")
        store.mark_running("b1.r")
        store.add("b1.d", batch="b1", client_id="d")
        store.finish("b1.d", result={"id": "d"})
        t[0] = 1000.0  # way past the TTL
        assert store.get("b1.q").status == "queued"
        assert store.get("b1.r").status == "running"
        assert store.get("b1.d") is None  # finished -> expired
        assert store.expired == 1

    def test_purge_counts_and_len(self):
        t = [0.0]
        store = ResultStore(ttl=5.0, clock=lambda: t[0])
        for k in range(3):
            store.add(f"b1.j{k}", batch="b1", client_id=f"j{k}")
            store.finish(f"b1.j{k}", result={})
        assert len(store) == 3
        t[0] = 4.9
        assert store.purge() == 0
        t[0] = 5.0
        assert store.purge() == 3
        assert len(store) == 0 and store.expired == 3

    def test_zero_ttl_disables_expiry(self):
        t = [0.0]
        store = ResultStore(ttl=0.0, clock=lambda: t[0])
        store.add("b1.j", batch="b1", client_id="j")
        store.finish("b1.j", error="ValueError: boom")
        t[0] = 1e9
        record = store.get("b1.j")
        assert record.status == "error"
        assert record.to_json()["error"] == "ValueError: boom"

    def test_discard_and_unknown_handles(self):
        store = ResultStore(ttl=10.0)
        store.add("b1.j", batch="b1", client_id="j")
        store.discard("b1.j")
        assert store.get("b1.j") is None
        store.mark_running("nope")  # no-ops, no raise
        store.finish("nope", result={})
        assert store.get_many(["x", "y"]) == [None, None]


# ---------------------------------------------------------------------------
# ServeConfig
# ---------------------------------------------------------------------------


class TestServeConfig:
    def test_env_defaults_and_override_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9100")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_LIMIT", "7")
        monkeypatch.setenv("REPRO_SERVE_TTL", "12.5")
        config = ServeConfig.from_env()
        assert (config.port, config.queue_limit, config.ttl) == (9100, 7, 12.5)
        # Explicit non-None overrides beat the environment.
        config = ServeConfig.from_env(port=0, workers=3)
        assert (config.port, config.queue_limit, config.workers) == (0, 7, 3)

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_SERVE_WORKERS"):
            ServeConfig.from_env()

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(workers=-1)
        with pytest.raises(ValueError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ValueError, match="limit must be >= 1"):
            ServeConfig(run=RunOptions(limit=0))
        assert ServeConfig(workers=0).workers == 0  # admission-only mode


# ---------------------------------------------------------------------------
# End-to-end HTTP lifecycle
# ---------------------------------------------------------------------------


class TestDaemonLifecycle:
    def test_submit_poll_fetch(self, daemon):
        status, health, _ = request(daemon.port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"

        status, accepted, _ = request(
            daemon.port, "POST", "/jobs", payload=sweep_manifest(jobs=4)
        )
        assert status == 202, accepted
        assert accepted["batch"] and len(accepted["jobs"]) == 4
        assert accepted["jobs"][0]["id"] == "sweep-0"

        batch = poll_batch(daemon.port, accepted["batch"])
        assert batch["total"] == 4 and batch["finished"] == 4
        assert batch["errors"] == 0
        entries = batch["results"]["jobs"]
        assert [e["id"] for e in entries] == [f"sweep-{k}" for k in range(4)]
        assert all(len(e["state"]) == 64 for e in entries)

        # Individual job fetch returns the same result entry.
        status, record, _ = request(
            daemon.port, "GET", accepted["jobs"][2]["url"]
        )
        assert status == 200 and record["status"] == "done"
        assert record["result"] == entries[2]

        status, metrics, _ = request(daemon.port, "GET", "/metrics")
        assert status == 200
        assert metrics["jobs"]["submitted"] == 4
        assert metrics["jobs"]["completed"] == 4
        assert metrics["jobs"]["errored"] == 0
        assert metrics["runner"]["partitions_computed"] == 1
        assert metrics["runner"]["partition_hits"] == 3

    def test_single_job_submission(self, daemon):
        status, accepted, _ = request(
            daemon.port, "POST", "/jobs",
            payload={
                "id": "solo",
                "circuit": {"generator": "qft", "qubits": 5},
                "shots": 16,
            },
        )
        assert status == 202 and len(accepted["jobs"]) == 1
        handle = accepted["jobs"][0]["handle"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status, record, _ = request(daemon.port, "GET", f"/jobs/{handle}")
            assert status == 200
            if record["status"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert record["status"] == "done"
        assert sum(record["result"]["counts"].values()) == 16

    def test_job_error_isolated_within_batch(self, daemon):
        manifest = sweep_manifest(jobs=2)
        manifest["jobs"].insert(1, {
            "id": "bad",
            "circuit": {"generator": "qft", "qubits": 6},
            "observables": ["ZZZ"],  # wrong length: fails at run time
        })
        status, accepted, _ = request(
            daemon.port, "POST", "/jobs", payload=manifest
        )
        assert status == 202
        batch = poll_batch(daemon.port, accepted["batch"])
        assert batch["errors"] == 1 and batch["finished"] == 3
        by_id = {e["id"]: e for e in batch["results"]["jobs"]}
        assert "ValueError" in by_id["bad"]["error"]
        assert "state" in by_id["sweep-0"] and "state" in by_id["sweep-1"]


# ---------------------------------------------------------------------------
# Protocol errors
# ---------------------------------------------------------------------------


class TestProtocolErrors:
    def test_not_found_and_method_not_allowed(self, daemon):
        assert request(daemon.port, "GET", "/nope")[0] == 404
        assert request(daemon.port, "GET", "/jobs/b9.zz")[0] == 404
        assert request(daemon.port, "GET", "/batches/b999")[0] == 404
        assert request(daemon.port, "DELETE", "/jobs")[0] == 405

    def test_bad_bodies(self, daemon):
        assert request(
            daemon.port, "POST", "/jobs", raw=b"{not json"
        )[0] == 400
        assert request(
            daemon.port, "POST", "/jobs", raw=b"[1, 2]"
        )[0] == 400
        assert request(
            daemon.port, "POST", "/jobs", payload={"jobs": []}
        )[0] == 400

    def test_hostile_circuit_specs_answer_400_at_once(self, daemon, tmp_path):
        # A client may not make the daemon open a path (an endless read,
        # or an existence / first-token oracle), nor evaluate a bigint
        # power or a division by zero in a QASM parameter.
        private = tmp_path / "private.qasm"
        private.write_text("TOPSECRET q[0];\n")
        hostile = [
            {"qasm_file": "/dev/zero"},
            {"qasm_file": str(private)},
            {"qasm": "qreg q[1]; rz(9**9**9) q[0];"},
            {"qasm": "qreg q[1]; rz(1/0) q[0];"},
        ]
        for circuit in hostile:
            t0 = time.monotonic()
            status, payload, _ = request(
                daemon.port, "POST", "/jobs",
                payload={"id": "x", "circuit": circuit}, timeout=10.0,
            )
            assert status == 400, (circuit, payload)
            assert time.monotonic() - t0 < 2.0, circuit
            assert "TOPSECRET" not in payload["error"]
        # The daemon is still serving.
        assert request(
            daemon.port, "POST", "/jobs", payload=sweep_manifest(jobs=1)
        )[0] == 202

    def test_overflowing_manifest_numbers_answer_400(self, daemon):
        # 1e400 parses as JSON infinity; int() of it overflows, as does
        # the qft generator at 2000 qubits.  Neither may escape as a 500.
        for job in (
            {"circuit": {"generator": "qft", "qubits": 4}, "shots": 1e400},
            {"circuit": {"generator": "qft", "qubits": 4}, "seed": 1e400},
            {"circuit": {"generator": "qft", "qubits": 1e400}},
            {"circuit": {"generator": "qft", "qubits": 2000}},
        ):
            body = json.dumps({"id": "big", **job}).encode()
            status, payload, _ = daemon._admit(body)
            assert status == 400, (job, payload)
            assert "job 'big'" in payload["error"]

    def test_unknown_manifest_key_rejected(self, daemon):
        manifest = sweep_manifest(jobs=1)
        manifest["strategi"] = "DFS"
        status, payload, _ = request(
            daemon.port, "POST", "/jobs", payload=manifest
        )
        assert status == 400 and "strategy" in payload["error"]

    def test_conflicting_runner_option_rejected(self, daemon):
        manifest = sweep_manifest(jobs=1)
        manifest["strategy"] = "DFS"  # daemon is configured for dagP
        status, payload, _ = request(
            daemon.port, "POST", "/jobs", payload=manifest
        )
        assert status == 400
        assert "conflicts with the daemon's configuration" in payload["error"]
        # Restating the configured value is fine.
        manifest["strategy"] = "dagP"
        assert request(
            daemon.port, "POST", "/jobs", payload=manifest
        )[0] == 202

    @pytest.mark.parametrize("key,value", [("workers", 2), ("strategy", "DFS")])
    def test_run_options_in_a_cut_spec_rejected(self, daemon, key, value):
        """A cut spec is not a side door for per-request run options."""
        job = {
            "id": "c",
            "circuit": {"generator": "qnn", "qubits": 8},
            "cut": {"max_width": 6, key: value},
        }
        status, payload, _ = request(daemon.port, "POST", "/jobs", payload=job)
        assert status == 400 and "unknown cut spec keys" in payload["error"]

    def test_zero_max_fused_qubits_is_a_400_not_a_clamp(self, daemon):
        manifest = sweep_manifest(jobs=1)
        manifest["max_fused_qubits"] = 0
        status, payload, _ = request(
            daemon.port, "POST", "/jobs", payload=manifest
        )
        assert status == 400 and "max_fused_qubits=0" in payload["error"]

    @pytest.mark.parametrize("scope,key,value", BAD_MANIFEST_VALUES)
    def test_a_mistyped_value_is_a_400_naming_its_key(
        self, daemon, scope, key, value
    ):
        status, payload, _ = request(
            daemon.port, "POST", "/jobs",
            payload=bad_manifest(scope, key, value),
        )
        assert status == 400
        assert payload["error"].startswith(
            manifest_refusal(scope, key, value)
        )

    def test_restating_resolved_options_accepted(self, daemon):
        """Options are compared against what the runner resolved, so a
        manifest naming the effective backend / method / strategy is
        admitted (backend and threads used to be compared against the
        unresolved ``None``)."""
        resolved = daemon._runner.resolved
        manifest = sweep_manifest(jobs=1)
        manifest.update(
            backend=resolved.backend, method=resolved.method,
            strategy=resolved.strategy,
        )
        status, payload, _ = request(
            daemon.port, "POST", "/jobs", payload=manifest
        )
        assert status == 202, payload

    def test_default_daemon_resolves_serial_auto(self, monkeypatch):
        for name in ("REPRO_BACKEND", "REPRO_THREADS", "REPRO_METHOD"):
            monkeypatch.delenv(name, raising=False)
        d = ServeDaemon(ServeConfig(port=0, workers=0))
        assert d._check_options(
            {"backend": "serial", "method": "auto", "strategy": "dagP"}
        ) is None
        conflict = d._check_options({"backend": "threaded"})
        assert conflict is not None and "backend='serial'" in conflict
        # An environment-selected backend is what manifests must restate.
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        monkeypatch.setenv("REPRO_THREADS", "2")
        d = ServeDaemon(ServeConfig(port=0, workers=0))
        assert d._check_options({"backend": "threaded", "threads": 2}) is None
        assert d._check_options({"backend": "serial"}) is not None

    def test_duplicate_job_ids_rejected(self, daemon):
        manifest = sweep_manifest(jobs=2)
        manifest["jobs"][1]["id"] = manifest["jobs"][0]["id"]
        status, payload, _ = request(
            daemon.port, "POST", "/jobs", payload=manifest
        )
        assert status == 400 and "unique" in payload["error"]

    def test_oversized_body_gets_413(self):
        d = ServeDaemon(
            ServeConfig(port=0, workers=0, max_body=256)
        ).start()
        try:
            manifest = sweep_manifest(jobs=8)
            assert len(json.dumps(manifest)) > 256
            status, payload, _ = request(
                d.port, "POST", "/jobs", payload=manifest
            )
            assert status == 413 and "exceeds" in payload["error"]
        finally:
            d.stop()


# ---------------------------------------------------------------------------
# Backpressure: full queue answers 429 + Retry-After
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self):
        # workers=0: nothing drains the queue, so capacity is exact.
        d = ServeDaemon(ServeConfig(
            port=0, workers=0, queue_limit=2, retry_after=2.0
        )).start()
        try:
            status, _, _ = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=2)
            )
            assert status == 202
            status, payload, headers = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=1)
            )
            assert status == 429
            assert headers["Retry-After"] == "2"
            assert payload["retry_after"] == 2.0
            assert "full" in payload["error"]
            # The rejected batch admitted nothing: no records, no handles.
            status, metrics, _ = request(d.port, "GET", "/metrics")
            assert metrics["queue"]["depth"] == 2
            assert metrics["jobs"]["submitted"] == 2
            assert metrics["jobs"]["rejected"] == 1
            assert metrics["store"]["records"] == 2
        finally:
            d.stop()

    def test_batch_larger_than_the_queue_answers_413(self):
        # No amount of draining makes 3 jobs fit a 2-job queue: a 429
        # here would have an obedient client retry forever.
        d = ServeDaemon(ServeConfig(
            port=0, workers=0, queue_limit=2
        )).start()
        try:
            status, payload, headers = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=3)
            )
            assert status == 413
            assert "Retry-After" not in headers
            assert "batch of 3 jobs" in payload["error"]
            assert "capacity of 2" in payload["error"]
            status, metrics, _ = request(d.port, "GET", "/metrics")
            assert metrics["queue"]["depth"] == 0
            assert metrics["store"]["records"] == 0
            assert metrics["jobs"]["submitted"] == 0
            assert metrics["jobs"]["rejected"] == 0
        finally:
            d.stop()

    def test_rejected_batch_is_retryable_after_drainage(self):
        d = ServeDaemon(ServeConfig(
            port=0, workers=1, queue_limit=2, max_batch=2
        )).start()
        try:
            manifest = sweep_manifest(jobs=2)
            status, accepted, _ = request(
                d.port, "POST", "/jobs", payload=manifest
            )
            assert status == 202
            poll_batch(d.port, accepted["batch"])
            # Queue drained: the same manifest now fits again.
            status, accepted, _ = request(
                d.port, "POST", "/jobs", payload=manifest
            )
            assert status == 202
            poll_batch(d.port, accepted["batch"])
        finally:
            d.stop()


# ---------------------------------------------------------------------------
# TTL expiry over HTTP
# ---------------------------------------------------------------------------


class TestTTLExpiry:
    def test_finished_results_expire_over_http(self):
        d = ServeDaemon(ServeConfig(port=0, workers=1, ttl=0.2)).start()
        try:
            status, accepted, _ = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=1)
            )
            assert status == 202
            handle = accepted["jobs"][0]["handle"]
            poll_batch(d.port, accepted["batch"])
            assert request(d.port, "GET", f"/jobs/{handle}")[0] == 200
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status, _, _ = request(d.port, "GET", f"/jobs/{handle}")
                if status == 404:
                    break
                time.sleep(0.05)
            assert status == 404
            # The whole batch eventually 404s too (expired, not unknown).
            status, payload, _ = request(
                d.port, "GET", f"/batches/{accepted['batch']}"
            )
            assert status == 404 and "expired" in payload["error"]
            status, metrics, _ = request(d.port, "GET", "/metrics")
            assert metrics["store"]["expired"] >= 1
            assert metrics["store"]["records"] == 0
        finally:
            d.stop()


    def test_purge_drops_only_fully_expired_batch_indexes(self, monkeypatch):
        # No server and no workers: admit two batches, finish their jobs
        # on the store's clock, then step the clock past the TTL.
        d = ServeDaemon(ServeConfig(port=0, workers=0, ttl=10.0))
        t = [0.0]
        monkeypatch.setattr(d._store, "_clock", lambda: t[0])
        gone, kept = (d._admit(json.dumps(sweep_manifest(jobs=2)).encode())
                      for _ in range(2))
        assert gone[0] == kept[0] == 202
        handles = [job["handle"] for job in gone[1]["jobs"] + kept[1]["jobs"]]
        for handle in handles[:3]:
            d._store.finish(handle, result={})
        t[0] = 5.0
        d._store.finish(handles[3], result={})
        t[0] = 12.0  # the first three are past the TTL, the fourth is not
        d._purge_batches()
        assert list(d._batches) == [kept[1]["batch"]]
        status, payload, _ = d._batch_status(kept[1]["batch"])
        assert status == 200
        assert [j["status"] for j in payload["jobs"]] == ["expired", "done"]
        status, payload, _ = d._batch_status(gone[1]["batch"])
        assert status == 404 and "unknown batch" in payload["error"]
        t[0] = 15.0
        d._purge_batches()
        assert d._batches == {}


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_stop_finishes_queued_work(self):
        d = ServeDaemon(ServeConfig(port=0, workers=1)).start()
        status, accepted, _ = request(
            d.port, "POST", "/jobs", payload=sweep_manifest(jobs=6)
        )
        assert status == 202
        d.stop()  # drain: everything admitted must still complete
        handles = [j["handle"] for j in accepted["jobs"]]
        records = d._store.get_many(handles)
        assert all(r is not None and r.status == "done" for r in records)

    def test_drain_abandons_unexecutable_jobs(self):
        # workers=0: queued jobs can never run, so drain errors them out.
        d = ServeDaemon(ServeConfig(
            port=0, workers=0, drain_grace=0.2
        )).start()
        status, accepted, _ = request(
            d.port, "POST", "/jobs", payload=sweep_manifest(jobs=2)
        )
        assert status == 202
        d.stop()
        records = d._store.get_many(
            [j["handle"] for j in accepted["jobs"]]
        )
        assert all(r is not None and r.status == "error" for r in records)
        assert all("drained" in r.error for r in records)
        assert d.metrics()["jobs"]["errored"] == 2

    def test_post_rejected_while_draining(self):
        d = ServeDaemon(ServeConfig(port=0, workers=1)).start()
        # Flip the drain flag directly (the loop is still serving), then
        # verify POST is refused while GETs keep answering.
        d._draining = True
        try:
            status, payload, _ = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=1)
            )
            assert status == 503 and "draining" in payload["error"]
            status, health, _ = request(d.port, "GET", "/healthz")
            assert status == 200 and health["status"] == "draining"
        finally:
            d._draining = False
            d.stop()


class TestSigterm:
    def test_sigterm_drains_cleanly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--workers", "1", "--ttl", "60"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro serve listening on http://127.0.0.1:" in line, line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            status, accepted, _ = request(
                port, "POST", "/jobs", payload=sweep_manifest(jobs=3)
            )
            assert status == 202
            poll_batch(port, accepted["batch"])
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained cleanly" in out


# ---------------------------------------------------------------------------
# Differential acceptance: daemon results == `repro batch` results
# ---------------------------------------------------------------------------


def _normalise(entries):
    """Strip fields that legitimately differ between executions."""
    out = []
    for entry in entries:
        entry = dict(entry)
        entry.pop("seconds", None)
        entry.pop("partition_cached", None)
        out.append(entry)
    return out


class TestDifferential:
    def test_daemon_matches_batch_runner_bit_for_bit(self):
        manifest = sweep_manifest(jobs=32, n=6)
        for k, job in enumerate(manifest["jobs"]):
            job["shots"] = 16
            job["seed"] = k

        # Reference: the one-shot batch path on an identical manifest.
        jobs, options = load_manifest(json.loads(json.dumps(manifest)))
        assert options == {}
        report = BatchRunner(strategy="dagP", schedule="grouped").run(jobs)
        reference = json.loads(
            json.dumps(results_to_manifest(report.results)["jobs"])
        )

        d = ServeDaemon(ServeConfig(
            port=0, workers=1, max_batch=16, ttl=600.0
        )).start()
        try:
            status, accepted, _ = request(
                d.port, "POST", "/jobs", payload=manifest
            )
            assert status == 202
            batch = poll_batch(d.port, accepted["batch"], timeout=120.0)
            assert batch["errors"] == 0 and batch["finished"] == 32
            served = batch["results"]["jobs"]
            assert _normalise(served) == _normalise(reference)

            # Exactly one partition and one plan structure per part,
            # however the 32 jobs were batched.
            parts = served[0]["parts"]
            status, metrics, _ = request(d.port, "GET", "/metrics")
            assert metrics["runner"]["partitions_computed"] == 1
            assert metrics["runner"]["partition_hits"] == 31
            assert metrics["runner"]["structures_compiled"] == parts
            assert metrics["runner"]["structure_hits"] == 31 * parts
        finally:
            d.stop()


class TestMetricsConsistency:
    """Regressions for the admission/metrics races.

    ``submitted`` is incremented under the admission lock *before* the
    queue accepts the batch (rolled back on rejection), so the job-count
    invariant ``submitted >= completed + errored + in_flight`` holds at
    every instant a concurrent ``/metrics`` read can observe; the runner
    block is the sum of finished batches' stats, folded in under the
    same lock as the job counts.
    """

    def test_submitted_never_lags_completion(self):
        d = ServeDaemon(ServeConfig(port=0, workers=2, max_batch=4)).start()
        stop = threading.Event()
        violations = []

        def watch():
            while not stop.is_set():
                jobs = d.metrics()["jobs"]
                accounted = (
                    jobs["completed"] + jobs["errored"] + jobs["in_flight"]
                )
                if jobs["submitted"] < accounted:
                    violations.append(jobs)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            batches = []
            for k in range(6):
                status, accepted, _ = request(
                    d.port, "POST", "/jobs",
                    payload=sweep_manifest(jobs=3, n=5),
                )
                assert status == 202
                batches.append(accepted["batch"])
            for batch_id in batches:
                poll_batch(d.port, batch_id, timeout=60.0)
        finally:
            stop.set()
            watcher.join(5.0)
            d.stop()
        assert not violations, violations
        jobs = d.metrics()["jobs"]
        assert jobs["submitted"] == 18
        assert jobs["completed"] + jobs["errored"] == 18
        assert jobs["in_flight"] == 0

    def test_rejected_submissions_roll_back(self):
        # workers=0 + tiny queue: admissions beyond capacity bounce with
        # 429 and must not inflate `submitted`.
        d = ServeDaemon(ServeConfig(
            port=0, workers=0, queue_limit=2, drain_grace=0.1
        )).start()
        try:
            status, _, _ = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=2, n=4)
            )
            assert status == 202
            status, _, _ = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=2, n=4)
            )
            assert status == 429
            jobs = d.metrics()["jobs"]
            assert jobs["submitted"] == 2
            assert jobs["rejected"] == 2
        finally:
            d.stop()

    def test_metrics_snapshot_is_consistent(self):
        """Every ``/metrics`` snapshot taken while error-free batches run
        on two workers pairs its counts: one bind per dense part (the
        runner memoises no plan), and no job accounted beyond those
        submitted."""
        d = ServeDaemon(ServeConfig(port=0, workers=2, max_batch=2)).start()
        stop = threading.Event()
        seen, violations = [0], []

        def watch():
            while not stop.is_set():
                metrics = d.metrics()
                runner, jobs = metrics["runner"], metrics["jobs"]
                seen[0] += 1
                if runner["plan_misses"] != runner["parts_routed_dense"]:
                    violations.append(runner)
                accounted = (
                    jobs["completed"] + jobs["errored"] + jobs["in_flight"]
                )
                if accounted > jobs["submitted"]:
                    violations.append(jobs)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            batches = []
            for n in (7, 8, 7, 8):
                status, accepted, _ = request(
                    d.port, "POST", "/jobs",
                    payload=sweep_manifest(jobs=4, n=n, state=False),
                )
                assert status == 202
                batches.append(accepted["batch"])
            for batch_id in batches:
                assert poll_batch(d.port, batch_id)["errors"] == 0
        finally:
            stop.set()
            watcher.join(5.0)
            d.stop()
        assert seen[0] > 0 and not violations, violations[:3]
        runner = d.metrics()["runner"]
        assert runner["partitions_computed"] + runner["partition_hits"] == 16
        assert "plan_hits" not in runner
        assert runner["plan_misses"] == runner["parts_routed_dense"] > 0
        assert runner["structures_compiled"] <= runner["plan_misses"]

    def test_metrics_routing_matches_runner_snapshot(self, daemon):
        # The runner block sums the finished batches' stats: the counts
        # one BatchRunner reports for the same manifest.
        manifest = sweep_manifest(jobs=4, n=5)
        status, accepted, _ = request(
            daemon.port, "POST", "/jobs", payload=manifest
        )
        assert status == 202
        poll_batch(daemon.port, accepted["batch"])
        metrics = daemon.metrics()["runner"]
        stats = BatchRunner().run(load_manifest(manifest)[0]).stats
        for key, name in (
            ("partitions_computed", "partitions_computed"),
            ("partition_hits", "partition_hits"),
            ("plan_misses", "plans_bound"),
            ("structures_compiled", "structures_compiled"),
            ("structure_hits", "structure_hits"),
            ("parts_routed_dense", "parts_routed_dense"),
            ("parts_routed_stabilizer", "parts_routed_stabilizer"),
        ):
            assert metrics[key] == getattr(stats, name), key

    def test_cut_job_shows_in_metrics(self, daemon):
        job = {
            "id": "c",
            "circuit": {"generator": "qnn", "qubits": 10},
            "shots": 8,
            "cut": {"max_width": 7},
        }
        status, accepted, _ = request(daemon.port, "POST", "/jobs", payload=job)
        assert status == 202
        assert poll_batch(daemon.port, accepted["batch"])["errors"] == 0
        runner = daemon.metrics()["runner"]
        for key in ("partitions_computed", "plan_misses", "parts_routed_dense"):
            assert runner[key] > 0, key


class TestDrainGraceBudget:
    def test_drain_grace_is_a_total_budget(self):
        # Two slow worker batches, one tiny grace: the drain must give
        # up after ~drain_grace in total, not drain_grace per thread.
        d = ServeDaemon(ServeConfig(
            port=0, workers=2, drain_grace=0.3, max_batch=1
        )).start()
        release = threading.Event()
        original = d._runner.run

        def slow_run(jobs):
            release.wait(10.0)
            return original(jobs)

        d._runner.run = slow_run
        try:
            status, _, _ = request(
                d.port, "POST", "/jobs", payload=sweep_manifest(jobs=2, n=4)
            )
            assert status == 202
            deadline = time.monotonic() + 5.0
            while d.metrics()["jobs"]["in_flight"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            t0 = time.monotonic()
            joiner = threading.Thread(target=d._join_workers, daemon=True)
            joiner.start()
            joiner.join(5.0)
            elapsed = time.monotonic() - t0
            assert not joiner.is_alive()
            # One total budget (0.3s) + scheduling slack, not 2 * 0.3s
            # per-thread waits plus the jobs' own 10s hold.
            assert elapsed < 2.0
        finally:
            release.set()
            d.stop()
