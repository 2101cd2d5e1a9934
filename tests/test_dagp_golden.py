"""dagP leaves every gate in its part: ``scripts/partition_digests.py
--check`` in tier 1.

``tests/data/dagp_digests.json`` was written on the commit *before* the
partitioner was made faster (its ``commit`` field names it), so these
tests fail when a change under ``partition/dagp/`` or ``dag/gategraph.py``
moves one gate of one of the pinned cases -- default or non-default
configuration.  A deliberate quality change regenerates the file with
``--write`` and says so.
"""

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "partition_digests", os.path.join(REPO, "scripts", "partition_digests.py")
)
partition_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(partition_digests)


@pytest.fixture(scope="module")
def golden():
    with open(partition_digests.DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def computed():
    return partition_digests.compute_digests()


def test_no_partition_differs_from_the_parent_commit(golden, computed):
    assert partition_digests.diff_digests(golden["digests"], computed) == []


def test_case_list_is_the_issue_s(golden):
    keys = list(golden["digests"])
    assert len(golden["commit"]) == 40
    assert len(keys) >= 190
    assert sum(k.startswith("deep/") for k in keys) == 17
    for option in ("use_ggg=False", "do_merge=False", "seed=11", "refine_passes=1"):
        assert sum(k.startswith(f"config/{option}/") for k in keys) == 3


def test_check_exits_0_on_the_tree_and_1_on_a_perturbed_file(
    golden, computed, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(partition_digests, "compute_digests", lambda: computed)
    assert partition_digests.main(["--check"]) == 0
    key = "deep/08_ising14"
    digests = dict(golden["digests"], **{key: "0" * 12})
    perturbed = tmp_path / "digests.json"
    perturbed.write_text(json.dumps({"commit": "", "digests": digests}))
    assert partition_digests.main(["--check", "--file", str(perturbed)]) == 1
    assert f"{key}: expected {'0' * 12}" in capsys.readouterr().out


def test_time_reports_every_phase(capsys):
    assert partition_digests.main(["--time", "--cases", "deep/1"]) == 0
    out = capsys.readouterr().out
    assert "dagP over 7 cases" in out  # deep/10 .. deep/16
    for label, _, _ in partition_digests.PHASES:
        assert label.strip() in out
