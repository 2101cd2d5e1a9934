"""``repro.config``: one environment reader, one options declaration.

The parametrised cases run over every :data:`repro.config.ENV` entry, so
a variable added to the registry is covered without touching this file;
the structural tests pin that nothing else under ``src/repro`` reads the
environment and that the manifest keys are derived from ``RunOptions``.
"""

from __future__ import annotations

import dataclasses
import os
import re

import pytest

from repro.config import ENV, RUN_OPTION_FIELDS, RunOptions, env

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMERIC = sorted(n for n, v in ENV.items() if v.cast in (int, float))


@pytest.mark.parametrize("name", sorted(ENV))
class TestEveryVariable:
    def test_unset_and_empty_yield_the_default(self, name, monkeypatch):
        monkeypatch.delenv(name, raising=False)
        assert env(name) == ENV[name].default
        monkeypatch.setenv(name, "")
        assert env(name) == ENV[name].default

    def test_read_live_not_cached(self, name, monkeypatch):
        monkeypatch.delenv(name, raising=False)
        before = env(name)
        monkeypatch.setenv(name, "1")
        assert env(name) == ENV[name].cast("1")
        monkeypatch.delenv(name)
        assert env(name) == before


@pytest.mark.parametrize("name", NUMERIC)
def test_malformed_number_names_the_variable(name, monkeypatch):
    monkeypatch.setenv(name, "abc")
    with pytest.raises(ValueError, match=f"bad {name}='abc'"):
        env(name)


class TestConsumersUseTheOneReader:
    """The user-visible disagreements the seven old readers had."""

    def test_empty_means_unset_everywhere(self, monkeypatch):
        from repro.cut import dense_recombine_width
        from repro.sv.backend import resolve_backend

        monkeypatch.setenv("REPRO_CUT_DENSE_WIDTH", "")
        assert dense_recombine_width() == 26
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert resolve_backend(None).name == "serial"

    def test_malformed_values_name_the_variable(self, monkeypatch):
        from repro.sv.backend import resolve_backend

        monkeypatch.setenv("REPRO_THREADS", "abc")
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            resolve_backend("threaded")
        monkeypatch.setenv("REPRO_DIST_PORT", "abc")
        with pytest.raises(ValueError, match="REPRO_DIST_PORT"):
            env("REPRO_DIST_PORT")


def test_removed_array_module_variable_is_not_registered():
    assert "REPRO_ARRAY_MODULE" not in ENV


def test_scale_is_a_benchmark_parameter_not_a_variable():
    # ``repro bench run --set scale=paper`` is the one way to pick it.
    assert len(ENV) == 21
    assert not any(name.endswith("_SCALE") for name in ENV)


def test_only_config_reads_the_environment():
    offenders = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "src", "repro")):
        for name in files:
            path = os.path.join(root, name)
            if not name.endswith(".py") or name == "config.py":
                continue
            with open(path, encoding="utf-8") as fh:
                if re.search(r"os\.environ|getenv", fh.read()):
                    offenders.append(os.path.relpath(path, REPO))
    assert not offenders, f"read the environment via repro.config: {offenders}"


class TestRunOptions:
    def test_fields_are_the_seven_execution_options(self):
        assert RUN_OPTION_FIELDS == (
            "strategy", "limit", "fuse", "max_fused_qubits",
            "backend", "threads", "method",
        )
        assert RUN_OPTION_FIELDS == tuple(
            f.name for f in dataclasses.fields(RunOptions)
        )

    def test_manifest_keys_derive_from_the_dataclass(self):
        from repro.serve import load_manifest

        accepted = set(RUN_OPTION_FIELDS) | {"schedule", "workers"}
        everything = {key: None for key in accepted}
        everything.update(strategy="DFS", schedule="fifo", workers=2,
                          fuse=False, max_fused_qubits=3,
                          backend="serial", threads=1, method="dense",
                          limit=5)
        _, options = load_manifest({"jobs": [], **everything})
        assert set(options) == accepted
        for removed in ("mode", "pad_to"):
            with pytest.raises(ValueError, match="unknown manifest key"):
                load_manifest({"jobs": [], removed: 4})

    def test_batch_runner_folds_keyword_overrides(self):
        from repro.serve import BatchRunner

        base = RunOptions(strategy="DFS", fuse=False)
        runner = BatchRunner(base, limit=4, method="dense")
        assert runner.options == RunOptions(
            strategy="DFS", fuse=False, limit=4, method="dense"
        )
        with pytest.raises(TypeError):
            BatchRunner(strategey="DFS")
        with pytest.raises(TypeError):  # no caller ever set it; removed
            BatchRunner(mode="literal")
