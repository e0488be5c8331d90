"""tools/output_digest.py: one digest line, the same in every process."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_output_digest_repeats_across_processes():
    argv = [sys.executable, os.path.join(ROOT, "tools", "output_digest.py"),
            "--workloads", "backward-cyclic", "--seeds", "1", "--rounds", "1"]
    lines = set()
    for _ in range(2):
        done = subprocess.run(argv, env={**os.environ, "PYTHONHASHSEED": "0"},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines.add(done.stdout)
    (line,) = lines
    # 12 instances per backward-cyclic round, each in text and with --json
    assert re.fullmatch(r"runs 24 sha256 [0-9a-f]{64}\n", line)
