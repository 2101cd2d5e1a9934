"""Result rendering: aligned text tables, saved as text files."""

from __future__ import annotations

import io
import math
import os
from typing import Iterable, List, Optional, Sequence

__all__ = ["render_table", "fmt", "geomean", "save_text"]


def fmt(value, digits: int = 3) -> str:
    """Compact numeric formatting for table cells."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        a = abs(value)
        if a >= 1000 or a < 10 ** (-digits):
            return f"{value:.{digits}e}"
        return f"{value:.{digits}g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned plain-text table."""
    str_rows: List[List[str]] = [[fmt(c) for c in r] for r in rows]
    widths = [len(h) for h in headers]
    for r in str_rows:
        if len(r) != len(headers):
            raise ValueError("row width != header width")
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    out = io.StringIO()
    if title:
        out.write(f"{title}\n")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(line + "\n")
    out.write("-" * len(line) + "\n")
    for r in str_rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "\n")
    return out.getvalue()


def save_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (paper's aggregate for factors and ratios)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
