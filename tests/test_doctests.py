"""Doctest collection target for the public API surface.

Every exported name of ``repro.sv``, ``repro.partition``, ``repro.dist``
and ``repro.serve`` carries a docstring, and the runnable examples in
those docstrings execute here (the satellite contract of the docs PR —
CI runs this file in the docs job).  Add new doctests to the module
docstrings and they are picked up automatically: the module list below
is derived from the packages' ``__all__``.
"""

from __future__ import annotations

import doctest
import inspect

import pytest

import repro.config
import repro.dist
import repro.dist.analytic
import repro.dist.exchange
import repro.dist.hisvsim
import repro.dist.iqs
import repro.dist.state
import repro.dist.transport
import repro.cut
import repro.cut.cutter
import repro.cut.evaluate
import repro.cut.fragments
import repro.cut.recombine
import repro.dag.gategraph
import repro.partition
import repro.partition.base
import repro.partition.dagp.driver
import repro.partition.dfs
import repro.partition.ilp
import repro.partition.merge
import repro.partition.multilevel
import repro.partition.natural
import repro.partition.validate
import repro.runtime.comm
import repro.serve
import repro.serve.daemon
import repro.serve.jobs
import repro.serve.queue
import repro.serve.runner
import repro.serve.store
import repro.sv
import repro.sv.backend
import repro.sv.engine
import repro.sv.fusion
import repro.sv.hier
import repro.sv.kernels
import repro.sv.layout
import repro.sv.pauli
import repro.sv.simulator
import repro.sv.stabilizer

DOCTEST_MODULES = [
    repro.config,
    repro.sv.layout,
    repro.sv.kernels,
    repro.sv.fusion,
    repro.sv.hier,
    repro.sv.backend,
    repro.sv.simulator,
    repro.sv.pauli,
    repro.sv.stabilizer,
    repro.sv.engine,
    repro.dag.gategraph,
    repro.partition,
    repro.partition.base,
    repro.partition.natural,
    repro.partition.dfs,
    repro.partition.dagp.driver,
    repro.partition.ilp,
    repro.partition.merge,
    repro.partition.multilevel,
    repro.partition.validate,
    repro.dist.state,
    repro.dist.analytic,
    repro.dist.exchange,
    repro.dist.hisvsim,
    repro.dist.iqs,
    repro.dist.transport,
    repro.runtime.comm,
    repro.cut,
    repro.cut.cutter,
    repro.cut.fragments,
    repro.cut.evaluate,
    repro.cut.recombine,
    repro.serve.jobs,
    repro.serve.runner,
    repro.serve.queue,
    repro.serve.store,
    repro.serve.daemon,
]

#: Exported names that are plain data (no docstring expected).
DATA_EXPORTS = {
    "BACKEND_NAMES",
    "BLOCK_ELEMENTS",
    "DEFAULT_MAX_FUSED_QUBITS",
    "DEFAULT_STRIDED_MAX",
    "ENV",
    "METHOD_NAMES",
    "RUN_OPTION_FIELDS",
    "STRATEGIES",
    "PauliTerm",
    "MEAS_BASES",
    "PREP_STATES",
}

# ``repro.sv.backend`` / ``repro.sv.kernels`` are held to the package
# contract module-wide: every export documented *and* doctested (the
# backends page in ``docs/backends.md`` leans on these examples).
PACKAGES = [
    repro.config,
    repro.sv,
    repro.sv.backend,
    repro.sv.kernels,
    repro.partition,
    repro.dist,
    repro.serve,
    repro.cut,
]


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests_pass(module):
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE,
        raise_on_error=False,
        verbose=False,
    )
    assert results.failed == 0, (
        f"{module.__name__}: {results.failed} of {results.attempted} "
        f"doctests failed"
    )


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_export_has_a_docstring(package):
    missing = []
    for name in package.__all__:
        if name in DATA_EXPORTS or name.startswith("__"):
            continue
        obj = getattr(package, name)
        if not (inspect.isclass(obj) or callable(obj)):
            continue  # data constant
        if not inspect.getdoc(obj):
            missing.append(name)
    assert not missing, (
        f"{package.__name__} exports without docstrings: {missing}"
    )


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_exports_have_runnable_examples(package):
    """Every exported class/function carries at least one doctest.

    (Executed per defining module above; this asserts presence so a
    docstring regression can't silently drop the example.)
    """
    undocumented = []
    for name in package.__all__:
        if name in DATA_EXPORTS:
            continue
        obj = getattr(package, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        module = inspect.getmodule(obj)
        finder = doctest.DocTestFinder(exclude_empty=True)
        found = [
            t for t in finder.find(obj, name, module=module) if t.examples
        ]
        # Methods inherited examples count; a class example on the class
        # docstring or any method satisfies the contract.
        if not found:
            undocumented.append(name)
    assert not undocumented, (
        f"{package.__name__} exports without runnable examples: "
        f"{undocumented}"
    )
