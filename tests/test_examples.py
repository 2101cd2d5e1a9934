"""Every script under ``examples/`` runs to completion at its defaults.

``test_surface`` counts the examples as callers that justify an exported
name, so an example that no longer runs must fail here rather than keep
a dead name alive.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    existing = os.environ.get("PYTHONPATH")
    src = str(REPO / "src")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + existing if existing else ""),
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env=env, cwd=REPO, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
