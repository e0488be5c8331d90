"""tools/output_digest.py: one digest line, the same in every process and
under every string hash seed."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_output_digest_repeats_across_processes():
    """The forward read-off, the ancestor chains and the oracle all iterate
    dicts keyed by vertex-id strings; no byte of output may follow their
    hash order."""
    argv = [sys.executable, os.path.join(ROOT, "tools", "output_digest.py"),
            "--workloads", "backward-cyclic", "irregular-windows", "--seeds", "1",
            "--rounds", "1"]
    lines = []
    for hash_seed in ("0", "1"):
        done = subprocess.run(argv, env={**os.environ, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines.append(done.stdout)
    assert lines[0] == lines[1]
    # 12 backward-cyclic and 25 irregular-windows instances, each in text and
    # with --json
    assert re.fullmatch(r"runs 74 sha256 [0-9a-f]{64}\n", lines[0])


def test_binary_descent_digest_repeats_under_both_hash_seeds():
    """The level-law path keys its tables by level, not by vertex id; its
    output may follow no hash order either."""
    argv = [sys.executable, os.path.join(ROOT, "tools", "output_digest.py"),
            "--workloads", "binary-descent", "--seeds", "1", "--rounds", "1"]
    lines = []
    for hash_seed in ("0", "1"):
        done = subprocess.run(argv, env={**os.environ, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines.append(done.stdout)
    assert lines[0] == lines[1]
    # 11 instances, each in text and with --json
    assert re.fullmatch(r"runs 22 sha256 [0-9a-f]{64}\n", lines[0])
