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
