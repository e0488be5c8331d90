"""tools/reach.py: the defs of src/treeshift that no benchmark run enters."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The most defs and lines that round 0 of seed 1, all three workloads, may
# leave unentered (the 15 digest rounds list the same defs).  Code that no
# run enters raises these in the change that adds it, with its reason.
UNENTERED_DEFS, UNENTERED_LINES = 66, 388


def reach(*workloads):
    """(rows, the defs count, their lines) that ``tools/reach.py`` prints for
    round 0 of seed 1 on ``workloads`` (all three when none is named)."""
    argv = [sys.executable, os.path.join(ROOT, "tools", "reach.py"), "--seeds", "1",
            "--rounds", "1"] + (["--workloads", *workloads] if workloads else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *rows, last = done.stdout.splitlines()
    count, lines = map(int, re.fullmatch(r"unentered (\d+) lines (\d+)", last).groups())
    return rows, count, lines


def test_reach_lists_the_defs_no_run_enters():
    rows, count, lines = reach("backward-cyclic")
    names = [row.split()[0] for row in rows]
    # ``gen_n`` is library-only; every run enters ``main``, and ``_constructor``
    # runs when treeshift is imported
    assert "trees.gen_n" in names
    assert "cli.main" not in names and "records._constructor" not in names
    assert all(re.fullmatch(r"[\w.]+ src/treeshift/\w+\.py:\d+ \d+", row) for row in rows)
    assert count == len(rows) and 0 < lines <= sum(int(row.split()[2]) for row in rows)


def test_unentered_code_stays_under_its_ceiling():
    rows, count, lines = reach()
    assert count <= UNENTERED_DEFS and lines <= UNENTERED_LINES, rows
