"""Print how big ``src/`` is: lines of Python, total and per subpackage,
and how many knobs it has (``REPRO_*`` variables, ``RunOptions`` fields).

Every line of every ``*.py`` file under ``src/`` counts -- blank lines,
comments and docstrings too -- so the total is what ``cat $(find src
-name '*.py') | wc -l`` prints, the figure ROADMAP.md quotes.  Modules
directly under ``src/repro`` count as ``repro``.  The output is a
Markdown table, so CI's docs job appends it to the job summary.

Usage::

    python scripts/src_size.py [CHECKOUT]

``CHECKOUT`` (default: this one) is the root of the checkout to measure,
so a parent commit's copy can be measured with the same script.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def count_lines(root: str = SRC) -> Dict[str, Tuple[int, int]]:
    """``{package: (files, lines)}`` over every ``*.py`` file under
    ``root``: a file belongs to its top-level package below ``root``'s
    own (``repro.sv``), or to that package itself (``repro``)."""
    sizes: Dict[str, Tuple[int, int]] = {}
    for dirpath, dirnames, names in os.walk(root):
        dirnames.sort()
        parts = os.path.relpath(dirpath, root).split(os.sep)
        package = ".".join(parts[:2])
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name), "rb") as fh:
                lines = fh.read().count(b"\n")
            files, total = sizes.get(package, (0, 0))
            sizes[package] = (files + 1, total + lines)
    return sizes


def knobs(root: str = SRC) -> Tuple[int, int]:
    """``(REPRO_* variables, RunOptions fields)`` of the package under
    ``root``."""
    sys.path.insert(0, root)
    from repro.config import ENV, RUN_OPTION_FIELDS

    return len(ENV), len(RUN_OPTION_FIELDS)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = os.path.join(argv[0], "src") if argv else SRC
    sizes = count_lines(root)
    print("| package | files | lines |")
    print("|---|---:|---:|")
    for package, (files, lines) in sorted(sizes.items()):
        print(f"| `{package}` | {files} | {lines} |")
    files = sum(f for f, _ in sizes.values())
    lines = sum(n for _, n in sizes.values())
    print(f"| **total** | {files} | {lines} |")
    env, options = knobs(root)
    print()
    print(f"`REPRO_*` variables: {env}; `RunOptions` fields: {options}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
