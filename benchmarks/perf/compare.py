"""Diff two result documents of ``run.py --json`` layer by layer."""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import spec

__all__ = ["judge", "median_ratio_ok", "compare_docs", "compare_files"]


def _worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the reading ``new`` is worse."""
    return new / base - 1.0 if better == "lower" else base / new - 1.0


def judge(base: dict, new: dict, better: str, bound: float) -> str:
    """``worse`` / ``within bound`` / ``unresolved`` for one metric.

    ``base`` and ``new`` are summaries with ``q1`` and ``q3``.
    The verdict is ``worse`` only when even the reading most favourable to
    ``new`` (its good quartile against the base's bad one) is beyond the
    bound, and ``within bound`` only when even the least favourable one is
    inside it; in between the run-to-run spread straddles the bound and
    the honest answer is ``unresolved``.
    """
    good, bad = ("q1", "q3") if better == "lower" else ("q3", "q1")
    if _worsening(base[bad], new[good], better) > bound:
        return "worse"
    if _worsening(base[good], new[bad], better) <= bound:
        return "within bound"
    return "unresolved"


def median_ratio_ok(a: dict, b: dict, bound: float) -> bool:
    """Two runs of the *same* code: neither reported value may exceed the
    other by more than the bound."""
    hi, lo = max(a["value"], b["value"]), min(a["value"], b["value"])
    return hi / lo - 1.0 <= bound


def compare_docs(a: dict, b: dict) -> Tuple[List[str], int]:
    """Report lines and an exit code: 0 clean, 1 a metric got worse, 2 an
    exact count changed although the seed did not."""
    lines = [
        f"A: seed {a['seed']} commit {a.get('git_commit', 'unknown')}",
        f"B: seed {b['seed']} commit {b.get('git_commit', 'unknown')}",
        "",
        "end to end (ratio = B / A, each with its base)",
        f"{'workload':<15}{'metric':<13}{'A':>12}{'B':>12}{'ratio':>8}"
        f"{'bound':>7}  verdict",
    ]
    code = 0
    deltas: List[Tuple[float, str]] = []
    broken: List[str] = []
    for name in spec.WORKLOADS:
        wa = a["workloads"].get(name)
        wb = b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name:<15}missing from one file")
            continue
        for metric, (unit, better, bound) in spec.END_TO_END.items():
            sa = wa["untraced"]["end_to_end"][metric]
            sb = wb["untraced"]["end_to_end"][metric]
            verdict = judge(sa, sb, better, bound)
            if name in spec.UNGATED:
                verdict += ", not gated"
            elif verdict == "worse":
                code = max(code, 1)
            lines.append(
                f"{name:<15}{metric:<13}{sa['value']:>12.6g}"
                f"{sb['value']:>12.6g}{sb['value'] / sa['value']:>8.3f}"
                f"{bound:>7.2f}  {verdict} ({unit})"
            )
        fa = wa["untraced"]["failed_frac"]
        fb = wb["untraced"]["failed_frac"]
        lines.append(f"{name:<15}{'failed_frac':<13}{fa:>12.6g}{fb:>12.6g}")
        if fb > fa:
            code = max(code, 1)
        if "traced" not in wa or "traced" not in wb:
            continue
        for metric, meta in spec.PER_LAYER.items():
            va = wa["traced"]["per_layer"].get(metric)
            vb = wb["traced"]["per_layer"].get(metric)
            if va is None or vb is None or (va == 0 and vb == 0):
                continue  # a failed probe, or a layer not on this path
            if meta.exact:
                if va != vb:
                    broken.append(f"{name} {metric}: {va} -> {vb}")
            elif meta.unit == "s":
                deltas.append(
                    (vb - va, f"{name:<15}{metric:<32}{va:>12.6g}{vb:>12.6g}")
                )
    lines += ["", "per layer, seconds, largest change first (B - A)"]
    for delta, text in sorted(deltas, key=lambda d: -abs(d[0])):
        lines.append(f"{text}{delta:>+12.6g}")
    if broken:
        lines += ["", "exact counts that changed:"] + [f"  {x}" for x in broken]
        if a["seed"] == b["seed"]:
            lines.append(
                "ERROR: exact counts differ between runs of the same seed"
            )
            code = 2
    return lines, code


def compare_files(path_a: str, path_b: str) -> int:
    docs: Dict[str, dict] = {}
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs[path] = json.load(fh)
    lines, code = compare_docs(docs[path_a], docs[path_b])
    print("\n".join(lines))
    return code
