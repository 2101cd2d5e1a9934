"""CLI driver tests (run in-process through main())."""

import os

import pytest

from repro.cli import main

from conftest import BAD_MANIFEST_VALUES, bad_manifest, manifest_refusal

PAPER_ARTEFACTS = ("table1", "table2", "table3", "table4", "fig5", "fig6",
                   "fig7", "fig8", "fig9", "fig10", "ilp", "threads")


class TestCli:
    def test_list(self, capsys):
        # The registry is the one list of the paper's artefacts.
        assert main(["bench", "list", "--tag", "paper"]) == 0
        out = capsys.readouterr().out
        for name in PAPER_ARTEFACTS:
            assert f"{name} " in out

    @pytest.mark.parametrize("argv", [
        ["list"], ["all"], ["table1"], ["fig5", "--scale", "tiny"],
    ])
    def test_experiment_subcommands_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_circuit_stats(self, capsys):
        assert main(["circuit", "bv", "--qubits", "8"]) == 0
        out = capsys.readouterr().out
        assert "qubits=8" in out
        assert "gates=" in out

    def test_circuit_qasm(self, capsys):
        assert main(["circuit", "cat_state", "--qubits", "5", "--qasm"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")
        assert "qreg q[5];" in out

    def test_experiment_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["bench", "run", "table1", "--set", "scale=tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert os.listdir(tmp_path) == []  # nothing saved without --save

    def test_experiment_save(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["bench", "run", "table4", "--smoke", "--save"]) == 0
        files = os.listdir(tmp_path / "bench")
        assert sorted(files) == ["table4.json", "table4.txt"]

    def test_simulate_fused(self, capsys):
        assert main(["simulate", "qft", "--qubits", "8", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "fusion=on" in out
        assert "saved" in out
        assert "max |fused - flat|" in out

    def test_simulate_reports_copy_free_sweeps(self, capsys):
        # qft's cx-conjugated phase ladders fuse to diagonal products.
        assert main(["simulate", "qft", "--qubits", "16"]) == 0
        out = capsys.readouterr().out
        assert "sweeps=35 of 624" in out
        assert "gathered parts=4 (ops=35); diagonal ops=20 of 35" in out

    def test_simulate_no_fuse(self, capsys):
        assert main(
            ["simulate", "bv", "--qubits", "8", "--no-fuse", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "fusion=off" in out
        assert "(saved 0)" in out

    def test_simulate_options(self, capsys):
        assert main([
            "simulate", "ising", "--qubits", "8", "--limit", "5",
            "--strategy", "Nat", "--max-fused-qubits", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy=Nat" in out
        assert "max_fused_qubits=3" in out
        # The removed padding option is an ordinary argparse error.
        with pytest.raises(SystemExit):
            main(["simulate", "ising", "--qubits", "8", "--pad-to", "4"])
        assert "unrecognized arguments: --pad-to 4" in capsys.readouterr().err

    def test_simulate_threaded_backend(self, capsys):
        assert main([
            "simulate", "qft", "--qubits", "8", "--backend", "threaded",
            "--threads", "2", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=threaded[2]" in out
        assert "parts by backend: threaded[2]:" in out
        assert "part wall time" in out
        assert "max |fused - flat|" in out

    def test_removed_process_backend_is_an_argparse_error(self, capsys):
        for name in ("process", "array"):
            with pytest.raises(SystemExit):
                main(["simulate", "bv", "--qubits", "8", "--backend", name])
            err = capsys.readouterr().err
            assert f"invalid choice: '{name}'" in err
            assert "(choose from 'serial', 'threaded')" in err

    def test_simulate_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["simulate", "qft", "--qubits", "6", "--backend", "gpu"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus-command"])

    def test_unknown_circuit_family(self, capsys):
        # Used to escape as a KeyError traceback.
        assert main(["circuit", "bogus"]) == 2
        assert "unknown benchmark 'bogus'" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# One definition of the execution-option flags; flag > manifest > default
# ---------------------------------------------------------------------------

SUBCOMMANDS = {
    "simulate": ["simulate", "qft"],
    "cut": ["cut", "qft", "--max-width", "4"],
    "batch": ["batch", "jobs.json"],
    "serve": ["serve"],
}


class TestSharedRunFlags:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_same_flags_same_choices(self, command, capsys):
        from repro.cli import build_parser
        from repro.partition import STRATEGIES
        from repro.sv.backend import BACKEND_NAMES
        from repro.sv.engine import METHOD_NAMES

        parser, base = build_parser(), SUBCOMMANDS[command]
        args = parser.parse_args(base)
        assert (args.backend, args.threads, args.method, args.strategy,
                args.fuse) == (None,) * 5  # None = "flag not given"
        for flag, choices in (("--backend", BACKEND_NAMES),
                              ("--method", METHOD_NAMES),
                              ("--strategy", sorted(STRATEGIES))):
            for choice in choices:
                args = parser.parse_args(base + [flag, choice])
                assert getattr(args, flag[2:]) == choice
            with pytest.raises(SystemExit):
                parser.parse_args(base + [flag, "bogus"])
            assert "invalid choice: 'bogus'" in capsys.readouterr().err
        args = parser.parse_args(base + ["--threads", "3", "--no-fuse"])
        assert (args.threads, args.fuse) == (3, False)
        assert parser.parse_args(base + ["--fuse"]).fuse is True

    def test_batch_flag_beats_manifest_beats_default(self):
        from repro.cli import _merged, _run_options, build_parser
        from repro.config import RunOptions

        manifest = {"strategy": "Nat", "method": "dense", "fuse": False,
                    "workers": 3}
        args = build_parser().parse_args(
            ["batch", "jobs.json", "--strategy", "DFS", "--fuse",
             "--workers", "2"]
        )
        assert _run_options(args, manifest) == RunOptions(
            strategy="DFS",     # flag beats manifest
            fuse=True,          # --fuse beats manifest false
            method="dense",     # manifest beats default
        )                       # everything else: the dataclass default
        assert _merged(args, ("workers",), manifest) == {"workers": 2}


class TestLimitAndRendezvousFlags:
    @pytest.mark.parametrize("command", ["simulate", "dist-worker"])
    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_non_positive_limit_exits_2(self, command, bad, capsys):
        argv = {
            "simulate": ["simulate", "qft", "--qubits", "6"],
            "dist-worker": ["dist-worker", "--rank", "0", "--ranks", "2",
                            "--circuit", "qft", "--transport", "recording"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--limit", bad])
        assert excinfo.value.code == 2
        assert "limit must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_zero_threads_exits_2(self, command, capsys):
        # 0 used to mean "all cores"; only an omitted flag does.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                SUBCOMMANDS[command] + ["--threads", "0"]
            )
        assert excinfo.value.code == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_omitted_limit_derives_the_default(self, capsys):
        assert main(["simulate", "qft", "--qubits", "9"]) == 0
        assert "limit=6 " in capsys.readouterr().out

    def test_malformed_rendezvous_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dist-worker", "--rank", "0", "--ranks", "2",
                  "--circuit", "qft", "--rendezvous", "localhost:abc"])
        assert excinfo.value.code == 2
        assert "expected HOST:PORT" in capsys.readouterr().err


class TestRefusalsAreOneLine:
    """A request the pipeline refuses with a typed error ends in its
    one-line message and exit code 2, never a traceback."""

    COMMANDS = {
        "circuit": ["circuit"],
        "simulate": ["simulate"],
        "cut": ["cut", "--max-width", "4"],
        "dist-worker": ["dist-worker", "--rank", "0", "--ranks", "2",
                        "--transport", "recording", "--circuit"],
    }

    def _refused(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.out
        assert len(captured.out.strip().splitlines()) == 1
        assert captured.err == ""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unknown_circuit(self, command, capsys):
        argv = self.COMMANDS[command]
        argv = argv + ["ghz"] if command == "dist-worker" else (
            argv[:1] + ["ghz"] + argv[1:]
        )
        self._refused(argv, "unknown benchmark 'ghz'; choose from", capsys)

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "qft", "--qubits", "2", "--limit", "1"],
         "touches 2 qubits; cannot fit limit 1"),
        (["dist-worker", "--rank", "0", "--ranks", "1", "--circuit", "qft",
          "--qubits", "2", "--limit", "1", "--transport", "recording"],
         "touches 2 qubits; cannot fit limit 1"),
        (["cut", "qft", "--qubits", "6", "--max-width", "1"],
         "max_width"),
        # 8 ranks leave a 3-qubit register no local qubit; no limit was
        # set, so the refusal must not blame one.
        (["dist-worker", "--rank", "0", "--ranks", "8", "--circuit", "qft",
          "--qubits", "3", "--transport", "recording"],
         "8 ranks leave 0 local qubits of 3, but the widest gate acts on 2"),
    ], ids=["simulate", "dist-worker", "cut", "dist-worker-ranks"])
    def test_unplaceable_circuit(self, argv, message, capsys):
        self._refused(argv, message, capsys)

    @pytest.mark.parametrize("command", ["simulate", "cut"])
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_max_fused_qubits_exits_2(self, command, bad,
                                                   capsys):
        # Used to be accepted and silently run at 1.
        with pytest.raises(SystemExit) as excinfo:
            main(SUBCOMMANDS[command] + ["--max-fused-qubits", bad])
        assert excinfo.value.code == 2
        assert "max_fused_qubits must be >= 1" in capsys.readouterr().err

    def test_batch_manifest_with_zero_max_fused_qubits(self, tmp_path,
                                                       capsys):
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({
            "max_fused_qubits": 0,
            "jobs": [{"circuit": {"generator": "qft", "qubits": 4}}],
        }))
        self._refused(["batch", str(manifest)],
                      "max_fused_qubits must be >= 1 (got 0)", capsys)

    @pytest.mark.parametrize("option,message", [
        ({"schedule": "grouped"}, "unknown manifest key 'schedule'"),
        ({"backend": "gpu"}, "unknown backend 'gpu'; choose from"),
        ({"strategy": "KL"}, "unknown strategy 'KL'; choose from"),
        ({"threads": 0}, "threads must be >= 1 (got 0)"),
    ], ids=["schedule", "backend", "strategy", "threads"])
    def test_batch_manifest_with_a_bad_option(self, option, message,
                                              tmp_path, capsys):
        # Argparse never sees a manifest option: the name or range is
        # refused where it is resolved, before any job runs.
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({
            **option, "jobs": [{"circuit": {"generator": "qft", "qubits": 4}}],
        }))
        self._refused(["batch", str(manifest)], message, capsys)

    @pytest.mark.parametrize("scope,key,value", BAD_MANIFEST_VALUES)
    def test_batch_manifest_with_a_mistyped_value(self, scope, key, value,
                                                  tmp_path, capsys):
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps(bad_manifest(scope, key, value)))
        self._refused(["batch", str(manifest)],
                      manifest_refusal(scope, key, value), capsys)

    def test_unreadable_batch_manifest(self, tmp_path, capsys):
        # Used to escape as FileNotFoundError / IsADirectoryError.
        for path in (tmp_path / "missing.json", tmp_path):
            self._refused(["batch", str(path)], "cannot read manifest",
                          capsys)

    def test_state_that_cannot_be_allocated(self, monkeypatch, capsys):
        # The 2^n allocation is made to fail, so this neither depends on
        # the host's overcommit policy nor asks for 16 TiB.
        def refuse(num_qubits):
            raise MemoryError(f"Unable to allocate 2^{num_qubits} amplitudes")

        monkeypatch.setattr("repro.sv.simulator.zero_state", refuse)
        self._refused(["simulate", "qft", "--qubits", "40", "--strategy",
                       "Nat"], "Unable to allocate 2^40 amplitudes", capsys)


class TestDistWorkerRankCount:
    """`dist-worker` sizes its default limit to the shard and rejects
    rank counts the register cannot host before contacting any peer."""

    def test_default_limit_fits_the_shard(self, tmp_path, capsys):
        # default_limit(10) = 7, but 16 ranks leave 6 local qubits.
        import numpy as np

        from repro.circuits import generators
        from repro.sv.simulator import StateVectorSimulator

        out = tmp_path / "state.npy"
        assert main(["dist-worker", "--rank", "0", "--ranks", "16",
                     "--circuit", "qft", "--qubits", "10",
                     "--transport", "recording", "--out", str(out)]) == 0
        assert '"verified": true' in capsys.readouterr().out
        sim = StateVectorSimulator(10)
        sim.run(generators.build("qft", 10))
        assert np.allclose(np.load(out), sim.state, atol=1e-10)

    @pytest.mark.parametrize("extra,message", [
        (["--ranks", "3"], "power of two"),
        (["--ranks", "2048", "--qubits", "10"],
         "2048 ranks need 11 process qubits but the register only has 10"),
    ])
    def test_bad_rank_count_exits_2_with_one_line(self, extra, message,
                                                  capsys):
        # Socket transport (the default): must fail before the rendezvous.
        argv = ["dist-worker", "--rank", "0", "--circuit", "qft"] + extra
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.out
        assert len(captured.out.strip().splitlines()) == 1
        assert captured.err == ""
