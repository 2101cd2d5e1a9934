"""CLI driver tests (run in-process through main())."""

import os

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

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
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_experiment_save(self, capsys, monkeypatch, tmp_path):
        # RESULTS_DIR is read at import time; patch the module constant.
        import repro.cli as cli_mod

        monkeypatch.setattr(
            "repro.cli.RESULTS_DIR", str(tmp_path), raising=True
        )
        assert main(["table4", "--scale", "tiny", "--save"]) == 0
        files = os.listdir(tmp_path)
        assert any(f.startswith("table4") for f in files)

    def test_simulate_fused(self, capsys):
        assert main(["simulate", "qft", "--qubits", "8", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "fusion=on" in out
        assert "saved" in out
        assert "max |fused - flat|" in out

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
            "--strategy", "Nat", "--max-fused-qubits", "3", "--pad-to", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy=Nat" in out
        assert "max_fused_qubits=3" in out

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
        with pytest.raises(SystemExit):
            main(["simulate", "bv", "--qubits", "8", "--backend", "process"])
        err = capsys.readouterr().err
        assert "invalid choice: 'process'" in err
        assert "'serial', 'threaded', 'array'" in err

    def test_simulate_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["simulate", "qft", "--qubits", "6", "--backend", "gpu"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus-command"])

    def test_unknown_circuit_family(self):
        with pytest.raises(KeyError):
            main(["circuit", "bogus"])
