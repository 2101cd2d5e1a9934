"""scripts/bench_pairs.py's table, on canned result documents (no runs)."""

from __future__ import annotations

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO, "scripts", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "warm_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "verified_frac", "unit": "ratio", "better": "higher",
     "bound": 0.01},
]


def _run(warm, rss, verified=1.0, failed=0):
    return {
        "end_to_end": {
            "warm_s": {"value": warm},
            "peak_rss_mb": {"value": rss},
            "verified_frac": {"value": verified},
        },
        "attempted": 10,
        "failed": failed,
    }


def test_rows_give_medians_quartiles_delta_and_lower_pairs():
    parent = [_run(w, 100.0) for w in (1.0, 1.1, 1.2, 1.3, 1.4)]
    change = [_run(w, 100.0) for w in (0.9, 1.2, 1.0, 1.2, 1.3)]
    rows = bench_pairs.pair_table("wl", parent, change, METRICS)
    assert rows[0] == (
        "| `wl` | `warm_s` | 1.200 [1.100–1.300] | 1.200 [1.000–1.200] "
        "| +0.0% | 4/5 |"
    )
    assert rows[1] == (
        "|  | `peak_rss_mb` | 100.00 [100.00–100.00] "
        "| 100.00 [100.00–100.00] | +0.0% | 0/5 |"
    )
    assert len(rows) == len(METRICS)


def test_a_wide_parent_spread_is_unresolved_and_a_worse_median_over_bound():
    parent = [_run(w, 100.0) for w in (1.0, 1.0, 2.0, 3.0, 3.0)]
    change = [_run(w, 110.0, verified=0.9) for w in (2.0, 2.0, 2.0, 2.0, 2.0)]
    warm, rss, verified = bench_pairs.pair_table("wl", parent, change, METRICS)
    assert "+0.0% (unresolved) |" in warm
    assert "+10.0% (**over bound**) |" in rss
    # Higher is better: a lower verified_frac is the worse direction.
    assert "-10.0% (**over bound**) | 5/5 |" in verified


def test_every_run_is_reported_with_the_failures():
    parent = [_run(1.0, 100.0), _run(1.5, 101.0)]
    change = [_run(0.5, 99.0), _run(0.75, 98.0, failed=2)]
    lines = bench_pairs.every_run(parent, change, METRICS[:1])
    assert lines == [
        "`warm_s` (parent/change): 1.000/0.500 1.500/0.750",
        "parent: 0 failed of 20 operations",
        "change: 2 failed of 20 operations",
    ]


def _pairs(parent_rss, change_rss):
    return ([_run(1.0, v) for v in parent_rss],
            [_run(1.0, v) for v in change_rss])


RSS = METRICS[1]


def test_a_claim_is_met_by_nine_in_ten_and_a_gap_beyond_the_spread():
    parent, change = _pairs(
        [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
        [90, 91, 89, 90, 92, 88, 90, 91, 89, 101],
    )
    met, line = bench_pairs.claim_verdict(parent, change, RSS)
    assert met
    assert line.startswith("met (better in 9/10 pairs; median 100.00 -> 90.00")


def test_a_claim_needs_nine_in_ten_pairs():
    parent, change = _pairs([100] * 10, [90] * 8 + [100, 110])
    met, line = bench_pairs.claim_verdict(parent, change, RSS)
    # A tie counts for neither side.
    assert not met and line.startswith("not met (better in 8/10 pairs")


def test_a_claim_needs_the_medians_apart_by_more_than_the_parent_spread():
    parent, change = _pairs(
        [90, 110, 90, 110, 90, 110, 90, 110, 90, 110],
        [89, 100, 89, 100, 89, 100, 89, 100, 89, 100],
    )
    met, line = bench_pairs.claim_verdict(parent, change, RSS)
    assert not met
    assert "10/10" in line and "against the parent's q3 - q1 of 20.00" in line


def test_a_claim_follows_the_metric_direction():
    verified = METRICS[2]
    parent = [_run(1.0, 1.0, verified=0.5) for _ in range(10)]
    change = [_run(1.0, 1.0, verified=0.9) for _ in range(10)]
    assert bench_pairs.claim_verdict(parent, change, verified)[0]
    assert not bench_pairs.claim_verdict(change, parent, verified)[0]


def test_main_prints_the_verdict_last(monkeypatch, capsys):
    # Canned documents stand in for the benchmark runs.
    def run_once(checkout, workload, seed, seconds):
        rss = 100.0 + seed % 3 if checkout == "PARENT" else 80.0
        return {
            "end_to_end": {
                name: {"value": rss if name == "peak_rss_mb" else 1.0}
                for name in ("setup_s", "cold_s", "warm_s", "peak_rss_mb",
                             "verified_frac")
            },
            "attempted": 1,
            "failed": 0,
        }

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([
        "--parent-dir", "PARENT", "--workload", "sweep_qaoa14",
        "--claim", "sweep_qaoa14.peak_rss_mb", "--seconds", "1",
    ]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith(
        "claim sweep_qaoa14.peak_rss_mb: met (better in 10/10 pairs"
    )


def test_a_claim_on_a_workload_not_run_is_refused(monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", None)  # never reached
    with pytest.raises(SystemExit):
        bench_pairs.main([
            "--parent-dir", "PARENT", "--workload", "deep_cold12",
            "--claim", "sweep_qaoa14.peak_rss_mb",
        ])
