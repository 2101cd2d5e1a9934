"""The public surface has callers, and the options have users.

ROADMAP aim 2: every name and knob must show a benchmark, a paper
artefact or an example that needs it.  Two censuses over the syntax
trees keep that true:

* every name a module exports through ``__all__`` is read (a ``Name``
  load or an ``Attribute``) somewhere in ``src/``, ``benchmarks/`` or
  ``examples/`` — its own ``def`` / ``class`` / assignment and the
  re-exporting imports of a package ``__init__`` are not reads — or is
  listed in :data:`REFERENCES` next to the test module that uses it as
  an oracle;
* every :class:`~repro.config.RunOptions` field is set, as a keyword
  argument or a manifest key, by at least one benchmark or example — and
  so is every constructor parameter (``seed`` excepted) of the
  partitioners in ``partition.STRATEGIES``.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys

from repro.config import RUN_OPTION_FIELDS
from repro.partition import STRATEGIES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Exported names no program reads, kept because tests compare the
#: program against them: name -> a test module that does.
REFERENCES = {
    # Reference implementations the kernels, the cutter and the cache
    # model are checked against.
    "apply_gate_reference": "test_kernels.py",
    "is_unitary": "test_gates.py",
    "quasi_probabilities": "test_cut.py",
    "enumerate_variants": "test_cut.py",
    "num_amplitude_variants": "test_cut.py",
    "plan_from_assignment": "test_cut.py",
    "CacheHierarchy": "test_cachesim.py",
    "line_trace_flat": "test_cachesim.py",
    "line_trace_hierarchical": "test_cachesim.py",
    # The round-trip helpers of the property tests (and of the
    # roadmap's metamorphic oracle).
    "inverse_circuit": "test_cross_properties.py",
    "remap_circuit": "test_transforms.py",
}


def _python_files(*roots):
    for root in roots:
        for dirpath, _, names in os.walk(os.path.join(REPO, root)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _read(tree):
    """Every identifier a file reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree, is_package):
    """The module's ``__all__``; for a package ``__init__`` only the
    names it defines itself (what it re-exports is checked where it is
    defined)."""
    exported, defined = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = [e.value for e in node.value.elts]
    if is_package:
        return [name for name in exported if name in defined]
    return exported


def test_every_exported_name_has_a_caller_or_is_a_test_oracle():
    files = {
        path: _tree(path)
        for path in _python_files("src", "benchmarks", "examples")
    }
    read = set().union(*(_read(tree) for tree in files.values()))
    orphans, exported_anywhere = [], set()
    for path, tree in files.items():
        if not path.startswith(os.path.join(REPO, "src")):
            continue
        is_package = os.path.basename(path) == "__init__.py"
        for name in _exported(tree, is_package):
            exported_anywhere.add(name)
            if name in read:
                assert name not in REFERENCES, (
                    f"{name} has a caller now: drop it from REFERENCES"
                )
            elif name not in REFERENCES:
                orphans.append(f"{os.path.relpath(path, REPO)}: {name}")
    assert not orphans, (
        "exported but read nowhere in src/, benchmarks/ or examples/ "
        "(delete it, or list the test that uses it as an oracle in "
        f"REFERENCES): {orphans}"
    )
    for name, module in REFERENCES.items():
        assert name in exported_anywhere, f"{name} is no longer exported"
        tree = _tree(os.path.join(REPO, "tests", module))
        assert name in _read(tree), f"{module} does not use {name}"


def _options_set_by_benchmarks_and_examples():
    """Keyword-argument names and manifest keys under ``benchmarks/`` and
    ``examples/``."""
    used = set()
    for path in _python_files("benchmarks", "examples"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
    manifests = [
        os.path.join(REPO, "examples", name)
        for name in sorted(os.listdir(os.path.join(REPO, "examples")))
        if name.endswith(".json")
    ]
    for path in manifests:
        with open(path, encoding="utf-8") as fh:
            used.update(json.load(fh))
    return used


def test_every_run_option_is_set_by_a_benchmark_or_an_example():
    used = _options_set_by_benchmarks_and_examples()
    unset = [name for name in RUN_OPTION_FIELDS if name not in used]
    assert not unset, (
        f"RunOptions fields no benchmark or example sets: {unset}"
    )


def test_every_partitioner_option_is_set_by_a_benchmark_or_an_example():
    used = _options_set_by_benchmarks_and_examples()
    unset = [
        name
        for cls in STRATEGIES.values()
        for name in inspect.signature(cls).parameters
        if name != "seed" and name not in used
    ]
    assert not unset, (
        f"partitioner options no benchmark or example sets: {unset}"
    )


def test_every_subpackage_is_lazily_reachable():
    """``import repro; repro.<package>`` works for every package
    directory: ``repro._SUBPACKAGES`` lists exactly those."""
    import repro

    root = os.path.join(REPO, "src", "repro")
    packages = sorted(
        name for name in os.listdir(root)
        if os.path.isfile(os.path.join(root, name, "__init__.py"))
    )
    assert sorted(repro._SUBPACKAGES) == packages
    for name in packages:
        assert getattr(repro, name).__name__ == f"repro.{name}"


def test_importing_serve_and_dist_loads_no_daemon_or_socket_layer():
    """The packages the benchmark imports leave the daemon (HTTP,
    ``asyncio``, ``ssl``) and the socket transport to their modules."""
    code = (
        "import sys, repro.serve, repro.dist; print(sorted(m for m in "
        "('repro.serve.daemon', 'repro.dist.transport', 'asyncio', 'ssl')"
        " if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    )
    assert out.stdout.strip() == "[]"
