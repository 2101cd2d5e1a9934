"""The benchmark registry (repro.bench).

Covers schema JSON roundtrip, registry discovery of every benchmark
script, the model-metric comparator (exact metrics, params, coverage —
no timing), a ``repro bench run`` CLI smoke at tiny qubit widths, and
the registry as the one front door to the paper's artefacts: tables
printed and saved, claims (``ok``) that fail a run, both committed
baselines.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchError,
    BenchResult,
    BenchSuite,
    EnvironmentFingerprint,
    SchemaError,
    compare_suites,
    load_benchmarks,
    metrics_equal,
    payload,
    register,
    run_benchmark,
    run_suite,
    select,
)
from repro.bench.registry import Benchmark
from repro.cli import main as cli_main

ALL_BENCHMARKS = {
    "ablation",
    "batch",
    "cut",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fusion",
    "ilp",
    "kernels",
    "parallel",
    "partitioners",
    "stabilizer",
    "table1",
    "table2",
    "table3",
    "table4",
    "threads",
    "transport",
}

SMOKE_REQUIRED = {"fusion", "parallel", "batch", "stabilizer", "transport",
                  "cut"}


def make_result(name="demo", metrics=None, params=None, tags=("smoke",),
                info=None):
    return BenchResult(
        name=name,
        tags=tags,
        params=dict(params or {"qubits": 8}),
        metrics=dict(metrics if metrics is not None else {"parts": 4}),
        info=dict(info or {"max_err": 0.0}),
    )


def make_suite(results, suite="smoke"):
    return BenchSuite(
        suite=suite,
        created="2026-07-30T00:00:00+00:00",
        environment=EnvironmentFingerprint.capture(),
        results=list(results),
    )


class TestSchema:
    def test_result_roundtrip(self):
        result = make_result()
        assert BenchResult.from_dict(result.to_dict()) == result

    def test_suite_json_roundtrip(self, tmp_path):
        suite = make_suite([make_result("a"), make_result("b")])
        path = tmp_path / "BENCH_smoke.json"
        suite.write(str(path))
        loaded = BenchSuite.load(str(path))
        assert loaded.suite == "smoke"
        assert loaded.schema == SCHEMA_VERSION
        assert loaded.names() == ["a", "b"]
        assert loaded.result("a") == suite.result("a")
        assert loaded.environment == suite.environment

    def test_suite_json_is_machine_readable(self, tmp_path):
        suite = make_suite([make_result()])
        path = tmp_path / "out.json"
        suite.write(str(path))
        raw = json.loads(path.read_text())
        assert raw["schema"] == SCHEMA_VERSION == 2
        assert "timing" not in raw["results"][0]
        assert raw["environment"]["cpu_count"] >= 1

    def test_schema_version_gate(self):
        bad = make_suite([]).to_dict()
        bad["schema"] = 999
        with pytest.raises(SchemaError):
            BenchSuite.from_dict(bad)

    def test_missing_keys_rejected(self):
        with pytest.raises(SchemaError):
            BenchSuite.from_dict({"suite": "x"})
        with pytest.raises(SchemaError):
            BenchResult.from_dict({"name": "x"})

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(SchemaError):
            BenchSuite.load(str(path))


class TestRegistry:
    def test_discovers_all_benchmarks(self):
        registry = load_benchmarks()
        assert set(registry) >= ALL_BENCHMARKS
        assert len(ALL_BENCHMARKS) == 21

    def test_smoke_tag_covers_fusion_parallel_batch(self):
        registry = load_benchmarks()
        smoke = {b.name for b in select(tag="smoke", registry=registry)}
        assert SMOKE_REQUIRED <= smoke

    def test_every_benchmark_has_description_and_tags(self):
        for bench in load_benchmarks().values():
            assert bench.tags, bench.name
            assert bench.description, bench.name

    def test_select_unknown_name(self):
        with pytest.raises(BenchError, match="unknown benchmark"):
            select(names=["nope"], registry=load_benchmarks())

    def test_select_unknown_tag(self):
        with pytest.raises(BenchError, match="tag"):
            select(tag="no-such-tag", registry=load_benchmarks())

    def test_merged_params_smoke_and_overrides(self):
        bench = Benchmark(
            name="x",
            fn=lambda p: payload({}),
            tags=("smoke",),
            params={"qubits": 20, "threads": 4},
            smoke={"qubits": 12},
        )
        assert bench.merged_params() == {"qubits": 20, "threads": 4}
        assert bench.merged_params(smoke=True)["qubits"] == 12
        merged = bench.merged_params({"threads": 2, "unknown": 1}, smoke=True)
        assert merged == {"qubits": 12, "threads": 2}

    def test_merged_params_coerces_list_overrides(self):
        # --set circuits=qft,qaoa must stay a list, not become a string
        # the benchmark would iterate per character.
        bench = Benchmark(
            name="x",
            fn=lambda p: payload({}),
            tags=(),
            params={"circuits": ["qft", "qaoa", "grover"], "seeds": [1, 2]},
        )
        assert bench.merged_params({"circuits": "qft"}) == {
            "circuits": ["qft"],
            "seeds": [1, 2],
        }
        assert bench.merged_params({"circuits": "qft, qaoa"})["circuits"] == [
            "qft",
            "qaoa",
        ]
        assert bench.merged_params({"seeds": 7})["seeds"] == [7]


class TestRunner:
    def test_run_benchmark_packages_payload(self):
        bench = Benchmark(
            name="toy",
            fn=lambda p: payload({"n": p["n"] * 2}, {"note": "hi"}),
            tags=("unit",),
            params={"n": 4},
        )
        result = run_benchmark(bench)
        assert result.metrics == {"n": 8}
        assert result.info == {"note": "hi"}
        assert result.params == {"n": 4}

    def test_run_benchmark_rejects_bad_return(self):
        bench = Benchmark(
            name="bad", fn=lambda p: 42, tags=(), params={},
        )
        with pytest.raises(BenchError, match="payload"):
            run_benchmark(bench)

    def test_run_benchmark_fails_on_correctness_check(self):
        # ok=False (state divergence etc.) must not look like success:
        # the old standalone scripts exited non-zero on verification
        # failure and the registry path keeps that contract.
        bench = Benchmark(
            name="broken",
            fn=lambda p: payload({"states_match": False}, ok=False),
            tags=(),
            params={},
        )
        with pytest.raises(BenchError, match="correctness"):
            run_benchmark(bench)
        # Through the CLI the same failure is a non-zero exit, not a
        # success report.
        from repro.bench import REGISTRY

        register("broken-unit", tags=("unit-only",))(
            lambda p: payload({"states_match": False}, ok=False)
        )
        try:
            assert cli_main(["bench", "run", "broken-unit"]) == 2
        finally:
            REGISTRY.pop("broken-unit", None)

    def test_a_false_claim_fails_the_run_by_name(self):
        bench = Benchmark(
            name="claims",
            fn=lambda p: payload(
                {"dagp_parts": 3, "nat_parts": 2},
                info={"table": "a long table\n"},
                ok={"dagP <= Nat parts": 3 <= 2, "gates conserved": True},
            ),
            tags=(),
        )
        with pytest.raises(BenchError, match="correctness") as exc:
            run_benchmark(bench)
        assert "dagP <= Nat parts" in str(exc.value)
        assert "gates conserved" not in str(exc.value)
        assert "a long table" not in str(exc.value)
        held = payload({"n": 1}, ok={"a": True, "b": True})
        assert held["ok"] is True and held["failed"] == []

    def test_each_benchmark_runs_once(self):
        calls = []
        bench = Benchmark(
            name="once",
            fn=lambda p: calls.append(1) or payload({"n": 1}),
            tags=(),
        )
        run_benchmark(bench)
        assert calls == [1]

    def test_register_takes_no_timing_loop_arguments(self):
        with pytest.raises(TypeError):
            register("timed", tags=("unit-only",), repeats=1)

    def test_two_smoke_runs_serialise_identically(self):
        # The committed baseline is only diffable if a rerun reproduces
        # it byte for byte; ``created`` is the one field allowed to move.
        load_benchmarks()

        def dump():
            doc = run_suite(tag="smoke").to_dict()
            del doc["created"]
            return json.dumps(doc, indent=2)

        assert dump() == dump()


class TestComparator:
    def test_metrics_equal_semantics(self):
        assert metrics_equal(3, 3)
        assert not metrics_equal(3, 4)
        assert metrics_equal(1.0, 1.0 + 1e-12)
        assert not metrics_equal(1.0, 1.001)
        assert metrics_equal(True, True)
        assert not metrics_equal(True, 1.0000001)
        assert metrics_equal({"a": [1, 2.0]}, {"a": [1, 2.0]})
        assert not metrics_equal({"a": 1}, {"b": 1})

    def test_identical_suites_pass(self):
        suite = make_suite([make_result()])
        report = compare_suites(suite, suite)
        assert report.ok
        assert "timing" not in report.render()

    def test_metric_drift_fails(self):
        base = make_suite([make_result(metrics={"parts": 4})])
        run = make_suite([make_result(metrics={"parts": 5})])
        report = compare_suites(run, base)
        assert not report.ok
        assert any("parts" in n for n in report.rows[0].notes)

    def test_missing_and_extra_metric_keys_fail(self):
        base = make_suite([make_result(metrics={"parts": 4, "gates": 9})])
        run = make_suite([make_result(metrics={"parts": 4, "sweeps": 1})])
        report = compare_suites(run, base)
        assert not report.ok
        notes = " ".join(report.rows[0].notes)
        assert "gates" in notes and "sweeps" in notes

    def test_params_mismatch_fails(self):
        base = make_suite([make_result(params={"qubits": 20})])
        run = make_suite([make_result(params={"qubits": 12})])
        report = compare_suites(run, base)
        assert not report.ok
        assert "params differ" in report.rows[0].notes[0]

    def test_missing_benchmark_fails_extra_is_noted(self):
        base = make_suite([make_result("a")])
        run = make_suite([make_result("b")])
        report = compare_suites(run, base)
        assert not report.ok
        by_name = {r.name: r for r in report.rows}
        assert not by_name["a"].ok
        assert by_name["b"].ok

    def test_paper_table_drift_fails_naming_the_first_line(self):
        def paper(table):
            return make_result(tags=("paper",), info={"table": table})

        base = make_suite([paper("Fig 5\nbv  4  1.25\nbv  8  1.5")])
        assert compare_suites(make_suite([paper(
            "Fig 5\nbv  4  1.25\nbv  8  1.5"
        )]), base).ok
        report = compare_suites(
            make_suite([paper("Fig 5\nbv  4  1.26\nbv  8  1.6")]), base
        )
        assert not report.ok
        assert report.rows[0].notes == [
            "table line 2: run='bv  4  1.26' baseline='bv  4  1.25'"
        ]
        shorter = make_suite([paper("Fig 5\nbv  4  1.25")])
        assert compare_suites(shorter, base).rows[0].notes == [
            "table line 3: run=None baseline='bv  8  1.5'"
        ]
        untabled = make_suite([make_result(tags=("paper",))])
        assert compare_suites(untabled, base).rows[0].notes == [
            "table missing from the run"
        ]
        assert "FAIL" in report.render()

    def test_smoke_tables_are_not_compared(self):
        # A smoke entry's table may print timings.
        base = make_suite([make_result(info={"table": "took 1.0 s"})])
        run = make_suite([make_result(info={"table": "took 1.1 s"})])
        assert compare_suites(run, base).ok

    def test_retired_timing_variable_changes_nothing(self, monkeypatch):
        base = make_suite([make_result(metrics={"parts": 4})])
        drifted = make_suite([make_result(metrics={"parts": 5})])
        before = (compare_suites(base, base).render(),
                  compare_suites(drifted, base).render())
        monkeypatch.setenv("REPRO_BENCH_MAX_REGRESSION", "not-a-number")
        assert (compare_suites(base, base).render(),
                compare_suites(drifted, base).render()) == before

    def test_environment_drift_noted_not_failed(self):
        base = make_suite([make_result()])
        run = make_suite([make_result()])
        object.__setattr__(run.environment, "numpy", "0.0.0")
        report = compare_suites(run, base)
        assert report.ok
        assert any("numpy" in d for d in report.environment_drift)
        assert "environment drift" in report.render()


class TestCli:
    """``repro bench`` end-to-end at tiny widths (in-process)."""

    def test_bench_list(self, capsys):
        assert cli_main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fusion", "parallel", "batch"):
            assert name in out
        assert "22 benchmarks" in out

    def test_bench_run_smoke_tiny_and_compare(self, capsys, tmp_path):
        run_path = tmp_path / "BENCH_smoke.json"
        # The smoke tag at tiny widths: every smoke benchmark shrinks
        # further via --set so the gate exercises fusion, parallel,
        # batch and stabilizer in a few seconds.
        assert cli_main([
            "bench", "run", "--tag", "smoke",
            "--set", "qubits=8", "--set", "jobs=2", "--set", "threads=2",
            "--set", "limit=5", "--set", "rounds=1",
            "--json", str(run_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "suite=smoke" in out
        assert "median" not in out and "repeats" not in out

        suite = BenchSuite.load(str(run_path))
        names = set(suite.names())
        assert SMOKE_REQUIRED <= names
        fusion = suite.result("fusion")
        assert fusion.params["qubits"] == 8
        assert fusion.metrics["states_match"] is True
        assert fusion.metrics["unfused_sweeps"] > fusion.metrics["fused_sweeps"]
        parallel = suite.result("parallel")
        assert parallel.metrics["qft_bit_identical"] is True
        batch = suite.result("batch")
        assert batch.metrics["partitions_computed"] == 1
        assert batch.metrics["states_match"] is True
        stabilizer = suite.result("stabilizer")
        assert stabilizer.metrics["routed_all_stabilizer"] is True
        assert stabilizer.metrics["states_match"] is True

        # Self-compare is the canonical pass case of the gate.
        assert cli_main([
            "bench", "compare", str(run_path), str(run_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "model-metric gate PASS" in out
        assert "timing" not in out

    def test_bench_compare_fails_on_metric_drift(self, capsys, tmp_path):
        suite = make_suite([make_result(metrics={"parts": 4})])
        base_path = tmp_path / "base.json"
        suite.write(str(base_path))
        drifted = make_suite([make_result(metrics={"parts": 6})])
        run_path = tmp_path / "run.json"
        drifted.write(str(run_path))
        assert cli_main([
            "bench", "compare", str(run_path), str(base_path),
        ]) == 1
        assert "model-metric gate FAIL" in capsys.readouterr().out

    def test_bench_compare_refuses_a_schema_1_file(self, capsys, tmp_path):
        good = tmp_path / "run.json"
        make_suite([make_result()]).write(str(good))
        old = make_suite([make_result()]).to_dict()
        old["schema"] = 1
        old["results"][0]["timing"] = {"repeats": 1, "warmup": 0,
                                       "times_s": [0.1], "median_s": 0.1}
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old))
        assert cli_main(["bench", "compare", str(good), str(old_path)]) == 2
        assert "schema version 1" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["bench", "run", "partitioners", "--repeats", "2"],
        ["bench", "run", "partitioners", "--warmup", "1"],
        ["bench", "compare", "a.json", "b.json", "--skip-timing"],
        ["bench", "compare", "a.json", "b.json", "--max-regression", "25"],
    ])
    def test_retired_timing_flags_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bench_compare_missing_file(self, capsys, tmp_path):
        assert cli_main([
            "bench", "compare", str(tmp_path / "a.json"),
            str(tmp_path / "b.json"),
        ]) == 2

    def test_bench_run_unknown_name(self, capsys):
        assert cli_main(["bench", "run", "definitely-not-a-bench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().out

    def test_bench_run_single_with_save(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert cli_main([
            "bench", "run", "partitioners",
            "--set", "qubits=8", "--set", "limit=5", "--save",
        ]) == 0
        entry = tmp_path / "bench" / "partitioners.json"
        assert entry.exists()
        data = json.loads(entry.read_text())
        assert data["name"] == "partitioners"
        assert data["environment"]["cpu_count"] >= 1


class TestOneFrontDoor:
    """A paper artefact is one registry entry: ``repro bench run`` prints
    and saves its table, and its claims can fail the run."""

    def test_run_prints_the_table_the_experiment_renders(self, capsys):
        from repro.experiments import SCALES, table1

        assert cli_main(["bench", "run", "table1", "--set", "scale=tiny"]) == 0
        out = capsys.readouterr().out
        assert table1.run(SCALES["tiny"]).table() in out
        assert "Table I" in out and "adder37" in out

    def test_save_writes_the_table_next_to_the_json(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.experiments import table4

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert cli_main(["bench", "run", "table4", "--smoke", "--save"]) == 0
        saved = (tmp_path / "bench" / "table4.txt").read_text()
        assert saved == table4.run(num_qubits=16).table()
        entry = json.loads((tmp_path / "bench" / "table4.json").read_text())
        assert entry["info"]["table"] == saved

    def test_every_experiment_is_a_paper_entry_with_a_table(self):
        # Every module under repro.experiments that can ``run`` is called
        # by an entry tagged ``paper`` whose result carries the table, and
        # so is the sweep, by the five entries of Figs. 5-9.
        import inspect
        import pkgutil

        import repro.experiments as experiments

        runnable = {
            info.name
            for info in pkgutil.iter_modules(experiments.__path__)
            if hasattr(getattr(experiments, info.name, None), "run")
        }
        assert len(runnable) == 7
        committed = BenchSuite.load(TestCommittedPaperBaseline().baseline)
        reached, sweep_readers = set(), set()
        for bench in select(tag="paper", registry=load_benchmarks()):
            source = inspect.getsource(bench.fn)
            called = {m for m in runnable if f"{m}.run(" in source}
            if "run_sweep(" in source:
                sweep_readers.add(bench.name)
            if called or "run_sweep(" in source:
                table = committed.result(bench.name).info["table"]
                assert table.count("\n") > 3, bench.name
            reached |= called
        assert reached == runnable
        assert sweep_readers == {f"fig{k}" for k in range(5, 10)}
        tiny = run_suite(
            names=["table1", "fig5", "fig10"], overrides={"scale": "tiny"}
        )
        for result in tiny.results:
            assert result.info["table"].count("\n") > 3, result.name

    def test_smoke_and_paper_gate_every_registered_benchmark(self):
        registry = load_benchmarks()
        gated = {
            b.name
            for tag in ("smoke", "paper")
            for b in select(tag=tag, registry=registry)
        }
        assert gated == set(registry) and len(gated) == 22

    def test_a_false_paper_claim_exits_2(self, capsys, monkeypatch):
        # Table III claims dagP <= DFS <= Nat parts; a dagP that cuts
        # after every gate breaks the claim whatever the baseline says.
        from repro import partition
        from repro.partition import Partition

        class OnePartPerGate(partition.NaturalPartitioner):
            name = "dagP"

            def partition(self, circuit, limit):
                return Partition.from_assignment(
                    circuit, list(range(len(circuit))), limit, self.name
                )

        from repro.experiments import common

        monkeypatch.setitem(partition.STRATEGIES, "dagP", OnePartPerGate)
        # Table III partitions through the process-wide cache, keyed on
        # the strategy's name: start cold so the stand-in is reached.
        monkeypatch.setattr(common, "_PARTITION_CACHE", {})
        assert cli_main(["bench", "run", "table3", "--smoke"]) == 2
        out = capsys.readouterr().out
        assert "parts: dagP <= DFS <= Nat" in out
        assert "every strategy's parts cover all gates" not in out

    def test_an_ilp_time_out_fails_the_run_not_a_count(self, capsys):
        # At 0.05 s HiGHS proves fewer optima and the counts would read
        # 27 instances / 24 optimal instead of 30 / 25.
        assert cli_main(
            ["bench", "run", "ilp", "--set", "time_limit=0.05"]
        ) == 2
        out = capsys.readouterr().out
        assert "qft_n8 @ limit 3: ILP optimum proven within 0.05 s" in out
        assert "suite=" not in out


class TestCommittedBaseline:
    """The committed smoke baseline stays loadable and complete."""

    TAG = "smoke"

    @property
    def baseline(self):
        return os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "baselines", f"{self.TAG}.json",
        )

    def test_baseline_is_schema_valid(self):
        suite = BenchSuite.load(self.baseline)
        assert suite.suite == self.TAG
        if self.TAG == "smoke":
            assert SMOKE_REQUIRED <= set(suite.names())

    def test_baseline_names_match_registered_smoke_set(self):
        suite = BenchSuite.load(self.baseline)
        registry = load_benchmarks()
        tagged = {b.name for b in select(tag=self.TAG, registry=registry)}
        assert set(suite.names()) == tagged

    def test_baseline_params_match_registered_smoke_params(self):
        # CI compares a --tag <TAG> run against this file; params drift
        # would fail the gate for every future PR, so pin it here.
        suite = BenchSuite.load(self.baseline)
        registry = load_benchmarks()
        for result in suite.results:
            expected = registry[result.name].merged_params(
                smoke=self.TAG == "smoke"
            )
            assert result.params == expected, result.name


class TestCommittedPaperBaseline(TestCommittedBaseline):
    """The same three checks over ``paper.json`` (full-size parameters):
    the 14 paper artefacts CI gates next to the smoke suite."""

    TAG = "paper"
