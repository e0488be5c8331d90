"""tools/reach.py: the defs of src/treeshift that no benchmark run enters."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reach_lists_the_defs_no_run_enters():
    argv = [sys.executable, os.path.join(ROOT, "tools", "reach.py"),
            "--workloads", "backward-cyclic", "--seeds", "1", "--rounds", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *rows, last = done.stdout.splitlines()
    names = [row.split()[0] for row in rows]
    # ``gen_n`` is library-only; every run enters ``main``, and ``_constructor``
    # runs when treeshift is imported
    assert "trees.gen_n" in names
    assert "cli.main" not in names and "records._constructor" not in names
    assert all(re.fullmatch(r"[\w.]+ src/treeshift/\w+\.py:\d+ \d+", row) for row in rows)
    count, lines = map(int, re.fullmatch(r"unentered (\d+) lines (\d+)", last).groups())
    assert count == len(rows) and 0 < lines <= sum(int(row.split()[2]) for row in rows)
