"""Self-tests of the perf harness (not part of tier-1).

    python -m pytest benchmarks/perf -q

Everything that simulates runs at ``--smoke`` widths, so the whole file
takes seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- statistics ---------------------------------------------------------------


def test_median_and_quartiles_match_the_contract_formula():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert stats.median(values) == 3.5
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.quartiles([7.0]) == (7.0, 7.0)
    s = stats.summary(values, "s")
    assert (s["value"], s["q1"], s["q3"], s["n"], s["unit"]) == (3.5, q1, q3, 6, "s")
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_needs_ten_samples_beyond_it():
    hundred = list(range(1, 101))
    assert stats.percentile(hundred, 90) == 90.0
    assert stats.percentile(hundred, 50) == 50.0
    assert stats.percentile(hundred, 99) is None  # one sample beyond
    assert stats.percentile(hundred[:99], 90) is None  # 9.9 beyond
    assert stats.percentile(list(range(20)), 50) == 9.0
    assert stats.percentile(list(range(19)), 50) is None
    with pytest.raises(ValueError):
        stats.percentile(hundred, 100)


def test_span_self_time_is_duration_minus_covered_children(tmp_path):
    tracer = stats.Tracer("w")
    with tracer.run("pass"):
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                with tracer.span("b.inner"):
                    pass
        with tracer.span("sibling"):
            pass
    outer, a, b, inner, sibling = tracer.spans
    for span, dt in ((outer, 10.0), (a, 2.0), (b, 5.0), (inner, 4.0), (sibling, 1.0)):
        span.dt = dt
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2, -1]
    # outer: 10 - (2 + 5); b: 5 - 4; grandchildren are b's, not outer's.
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracer.top_level_total("pass") == 11.0
    assert tracer.total("a", "pass") == 2.0
    assert tracer.total("a", "other") == 0.0  # never opened: no time spent
    out = tmp_path / "trace.json"
    tracer.write_chrome(str(out))
    events = json.loads(out.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "a", "b", "b.inner", "sibling"]
    assert events[3]["args"]["parent"] == 2 and events[0]["ph"] == "X"


# -- inputs ---------------------------------------------------------------------


def _input_bytes(name: str, seed: int) -> bytes:
    from repro.circuits import qasm

    w = workloads.make_workload(name, seed, smoke=True)
    w.prepare(0)
    if isinstance(w, workloads.SweepQaoa):
        jobs = w.batch(0) + w.batch(1)
        text = "".join(
            f"{j.job_id}:{j.seed}:{j.shots}:{j.observables}\n"
            + qasm.dumps(j.circuit)
            for j in jobs
        )
    else:
        text = "".join(qasm.dumps(i.circuit) for i in w.probe_items())
    return text.encode()


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    assert _input_bytes(name, 5) == _input_bytes(name, 5)
    assert _input_bytes(name, 5) != _input_bytes(name, 6)


def test_seed_never_changes_the_amount_of_work():
    for name in spec.WORKLOADS:
        a = workloads.make_workload(name, 1, smoke=True)
        b = workloads.make_workload(name, 2, smoke=True)
        assert a.source_gates() == b.source_gates()
        assert a.ops_per_pass() == b.ops_per_pass()


# -- oracles --------------------------------------------------------------------


def _golden(workload) -> dict:
    out = {}
    for op_id, circuit in workload.golden_ops():
        state = workloads.flat_state(circuit)
        idx = workloads.probe_indices(op_id, workload.seed, state.size)
        out[op_id] = {
            "indices": idx,
            "re": [float(x) for x in state[idx].real],
            "im": [float(x) for x in state[idx].imag],
            "norm": 1.0,
        }
    return out


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_verifier_passes_honest_outputs_and_counts_corrupted_ones(name):
    w = workloads.make_workload(name, 3, smoke=True)
    w.prepare(0)
    golden = _golden(w)
    for corrupt in (False, True):
        expected = json.loads(json.dumps(golden))
        if corrupt:
            first = next(iter(expected.values()))
            first["re"][0] += 1e-6
        verifier = workloads.Verifier(w, expected)
        ctx, outputs = w.cold(0)
        verifier.add_pass(outputs, 0, False)
        verifier.add_pass(w.warm(ctx, 0), 0, True)
        verifier.finish()
        assert verifier.attempted == 2 * w.ops_per_pass()
        assert "golden" in verifier.oracles
        assert (verifier.failed > 0) == corrupt


def test_verifier_catches_a_wrong_state_without_golden_values():
    w = workloads.make_workload("wide_qft21", 3, smoke=True)
    verifier = workloads.Verifier(w, None)
    _, outputs = w.cold(0)
    probed = workloads.probe_indices("qft", 3, outputs[0].size)
    outputs[0][probed[5]] += 1e-6
    verifier.add_pass(outputs, 0, False)
    verifier.finish()
    assert verifier.oracles == {"flat"} and verifier.failed == 1


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_obeys_the_contract_and_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/perf"]
    assert doc["command"][-1].startswith(doc["paths"][0] + "/")
    assert 1 <= doc["run_seconds"] <= 60 and doc["run_seconds"] == spec.RUN_SECONDS
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in doc[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: why for name, why in spec.WORKLOADS.items()
        if name not in spec.UNGATED
    }
    assert set(spec.UNGATED) < set(spec.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    } == spec.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert ("s", "lower") == spec.END_TO_END["setup_s"][:2]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (meta.unit, meta.better) for name, meta in spec.PER_LAYER.items()
    }
    assert set(spec.DOMINANT_SHARES) == set(spec.WORKLOADS)
    for _, layers, _ in spec.DOMINANT_SHARES.values():
        assert set(layers) <= set(spec.PER_LAYER)


# -- the command, end to end, at smoke widths -------------------------------


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        stdout=subprocess.PIPE, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_smoke_run_prints_every_metric_and_a_result_line(name, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threaded")  # must be scrubbed
    untraced = _run("--workload", name, "--smoke", "--seed", "4",
                    "--seconds", "0.5", "--trace", "0")
    assert untraced.returncode == 0, untraced.stdout
    line = json.loads(untraced.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 10
    assert set(line["metrics"]) == set(spec.END_TO_END)
    assert all(v["value"] > 0 for v in line["metrics"].values())
    for metric in spec.END_TO_END:
        assert re.search(rf"\] {metric}\s+\S+ \S+\s+\(median; q1", untraced.stdout)
    # The wall-clock medians are printed beside the speed-corrected ones.
    info = dict(re.findall(r"info (\w+) = (\S+)", untraced.stdout))
    assert float(info["cold_wall_s"]) == pytest.approx(
        line["metrics"]["cold_s"]["value"] * float(info["host_slowdown"]), rel=1e-4
    )

    traced = _run("--workload", name, "--smoke", "--seed", "4",
                  "--seconds", "0.5", "--trace", "1")
    assert traced.returncode == 0, traced.stdout
    line = json.loads(traced.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == set(spec.PER_LAYER)
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["trace.probe_errors"] == 0, traced.stdout
    # Only the latency percentiles may be null: a smoke batch has 8 jobs.
    missing = {k for k, v in values.items() if v is None}
    assert missing <= {"serve.job_p50_ms", "serve.job_p90_ms"}
    # A layer the workload's pipeline never enters reads 0, and only there.
    assert (values["dist.remap_s"] > 0) == (name == "dist_qft20_r4")
    assert (values["serve.plans_bound"] > 0) == (name == "sweep_qaoa14")
    assert (values["stabilizer.forced_run_s"] > 0) == (name == "deep_cold12")
    assert values["partition.dagP.s"] > 0 and values["hier.run_s.dagP"] > 0
    assert (HERE / "out" / f"trace_{name}.json").exists()


def test_exact_counts_repeat_between_runs_of_one_seed():
    runs = [
        json.loads(
            _run("--workload", "deep_cold12", "--smoke", "--seed", "9",
                 "--seconds", "0.2", "--trace", "1").stdout.splitlines()[-1]
        )["metrics"]
        for _ in range(2)
    ]
    for name in spec.exact_names():
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_a_missing_expected_file_is_an_error_not_a_fallback(tmp_path):
    run = _run("--workload", "dist_qft20_r4", "--smoke", "--seed", "4",
               "--seconds", "0.2", "--expected", str(tmp_path / "absent.json"))
    assert run.returncode != 0
    assert not run.stdout.strip().startswith("{")


# -- compare ------------------------------------------------------------------


def _summary(median, q1=None, q3=None):
    return {"value": median, "q1": q1 or median, "q3": q3 or median, "n": 5}


def test_judge_separates_worse_within_and_unresolved():
    base = _summary(1.0, 0.98, 1.02)
    assert compare.judge(base, _summary(1.03, 1.01, 1.05), "lower", 0.1) == "within bound"
    assert compare.judge(base, _summary(1.30, 1.25, 1.35), "lower", 0.1) == "worse"
    assert compare.judge(base, _summary(1.10, 1.00, 1.20), "lower", 0.1) == "unresolved"
    assert compare.judge(base, _summary(0.5), "lower", 0.1) == "within bound"
    assert compare.judge(base, _summary(0.5), "higher", 0.1) == "worse"
    assert compare.median_ratio_ok(_summary(1.0), _summary(1.09), 0.1)
    assert not compare.median_ratio_ok(_summary(1.12), _summary(1.0), 0.1)


def _doc(seed, cold, gates):
    e2e = {m: _summary(1.0) for m in spec.END_TO_END}
    e2e["cold_s"] = _summary(cold)
    layer = {name: 1.0 for name in spec.PER_LAYER}
    layer["circuits.gates"] = gates
    entry = {
        "untraced": {"end_to_end": e2e, "failed_frac": 0.0},
        "traced": {"per_layer": layer},
    }
    return {"seed": seed, "workloads": {n: entry for n in spec.WORKLOADS}}


def test_compare_flags_regressions_and_changed_exact_counts():
    lines, code = compare.compare_docs(_doc(1, 1.0, 10), _doc(1, 1.0, 10))
    assert code == 0
    lines, code = compare.compare_docs(_doc(1, 1.0, 10), _doc(1, 2.0, 10))
    assert code == 1 and any("worse" in line for line in lines)
    lines, code = compare.compare_docs(_doc(1, 1.0, 10), _doc(1, 1.0, 11))
    assert code == 2 and "ERROR" in lines[-1]
    # A different seed may legitimately change a count.
    _, code = compare.compare_docs(_doc(1, 1.0, 10), _doc(2, 1.0, 11))
    assert code == 0
