"""The docs tree is part of the contract: pages exist, links resolve.

The CI docs job runs ``scripts/check_links.py`` standalone; this test
keeps the same check inside tier 1 so broken docs fail fast locally.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REQUIRED_PAGES = [
    "docs/architecture.md",
    "docs/backends.md",
    "docs/benchmarks.md",
    "docs/serving.md",
    "docs/configuration.md",
    "docs/cutting.md",
]


def test_docs_tree_exists():
    for page in REQUIRED_PAGES:
        assert os.path.exists(os.path.join(REPO, page)), f"missing {page}"


def test_readme_links_into_docs():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for page in REQUIRED_PAGES:
        assert page in readme, f"README does not link to {page}"


def test_markdown_links_resolve():
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "check_links.py")],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, f"broken markdown links:\n{proc.stdout}"


def test_backends_page_example_runs_bitwise_to_serial(small_blocks):
    """The custom-backend example in docs/backends.md is executed, not
    just shown: it visits the serial backend's blocks in reverse, so
    through ``run_plan`` (both lanes) it matches ``SerialBackend`` bit
    for bit."""
    import re

    import numpy as np

    from repro.circuits import generators
    from repro.partition import get_partitioner
    from repro.sv import ExecutionBackend, SerialBackend, compile_part
    from repro.sv.simulator import random_state

    page = os.path.join(REPO, "docs", "backends.md")
    with open(page, encoding="utf-8") as fh:
        section = fh.read().split("## Writing your own ExecutionBackend")[1]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace: dict = {}
    exec(code, namespace)
    (cls,) = [
        v for v in namespace.values()
        if isinstance(v, type) and issubclass(v, ExecutionBackend)
        and v is not ExecutionBackend
    ]

    visited = []
    cls().map_blocks(lambda lo, hi: visited.append(lo), 8, 8 * small_blocks)
    assert visited == sorted(visited, reverse=True) and len(visited) == 8

    qc = generators.build("qaoa", 9)
    for strided_max in (None, -1):
        ours = cls(strided_max=strided_max)
        serial = SerialBackend(strided_max=strided_max)
        for part in get_partitioner("dagP").partition(qc, 6).parts:
            plan = compile_part(qc, part.gate_indices, part.qubits)
            got, want = random_state(9, 1), random_state(9, 1)
            assert ours.run_plan(plan, got, 9) == serial.run_plan(
                plan, want, 9
            )
            assert np.array_equal(got, want)


def test_configuration_page_covers_env_vars():
    """docs/configuration.md's variable table and the registry agree.

    Every ``repro.config.ENV`` key has a table row and every row names
    an ``ENV`` key.
    """
    import re

    from repro.config import ENV

    with open(
        os.path.join(REPO, "docs", "configuration.md"), encoding="utf-8"
    ) as fh:
        documented = set(
            re.findall(r"^\| `(REPRO_\w+)` \|", fh.read(), flags=re.M)
        )
    assert set(ENV) <= documented, sorted(set(ENV) - documented)
    stale = documented - set(ENV)
    assert not stale, f"documented but read nowhere: {sorted(stale)}"


def test_configuration_page_covers_cli_flags():
    """docs/configuration.md's flag tables and ``cli.build_parser()`` agree.

    For every subcommand the parser defines flags for, the long flags in
    the first column of its ``## `repro NAME` `` section, plus the rows
    of the shared "Execution options" table whose "On" column names it,
    are exactly the subcommand's long options — no flag without a row,
    no row without a flag.
    """
    import re

    from repro.cli import build_parser

    with open(
        os.path.join(REPO, "docs", "configuration.md"), encoding="utf-8"
    ) as fh:
        sections = re.split(r"^## ", fh.read(), flags=re.M)[1:]
    sections = {s.split("\n", 1)[0].strip(): s for s in sections}

    def rows(section):
        """The cells of every table row under a heading, none if the
        page has no such heading (header and rule rows carry no flag
        and drop out with the flag filter)."""
        return [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in sections.get(section, "").splitlines()
            if line.startswith("|")
        ]

    def flags(cell):
        return set(re.findall(r"--[a-z][a-z-]*", cell))

    all_four = {"simulate", "cut", "batch", "serve"}
    shared = {}  # subcommand -> flags the shared table gives it
    for cells in rows("Execution options"):
        on = set(re.findall(r"`([a-z-]+)`", cells[2]))
        if "all four" in cells[2]:
            on |= all_four
        for command in on:
            shared.setdefault(command, set()).update(flags(cells[0]))

    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action.choices, dict)
    ).choices
    drift = {}
    for command, parser in subparsers.items():
        defined = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        if not defined:
            continue  # ``bench`` is a help-only stub here
        documented = shared.get(command, set()).union(
            *(flags(cells[0]) for cells in rows(f"`repro {command}`"))
        )
        if documented != defined:
            drift[command] = {
                "no row": sorted(defined - documented),
                "no such flag": sorted(documented - defined),
            }
    assert not drift, drift
