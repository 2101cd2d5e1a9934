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
