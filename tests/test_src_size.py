"""scripts/src_size.py counts every line of every ``*.py`` under src/."""

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "src_size", os.path.join(REPO, "scripts", "src_size.py")
)
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)


def _direct_count():
    files = lines = 0
    for dirpath, _, names in os.walk(os.path.join(REPO, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    files += 1
                    lines += sum(1 for _ in fh)
    return files, lines


def test_total_is_a_direct_count(capsys):
    sizes = src_size.count_lines()
    files, lines = _direct_count()
    assert sum(f for f, _ in sizes.values()) == files
    assert sum(n for _, n in sizes.values()) == lines
    assert "repro.sv" in sizes and "repro" in sizes
    assert src_size.main([]) == 0
    out = capsys.readouterr().out
    assert f"| **total** | {files} | {lines} |" in out



def test_total_is_within_the_committed_ceiling(capsys):
    assert src_size.main(["--check"]) == 0
    assert capsys.readouterr().out.endswith(": ok\n")


def test_a_total_above_the_ceiling_fails(tmp_path, capsys):
    lines = sum(n for _, n in src_size.count_lines().values())
    ceiling = tmp_path / "ceiling.txt"
    ceiling.write_text(f"{lines - 1}\n")
    assert src_size.check(ceiling_file=str(ceiling)) == 1
    assert "above the ceiling" in capsys.readouterr().out
    ceiling.write_text(f"{lines}\n")
    assert src_size.check(ceiling_file=str(ceiling)) == 0
