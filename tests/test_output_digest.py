"""tools/output_digest.py: one digest line, the same in every process and
under every string hash seed, from runs whose --json lines are all
``json.dumps(json.loads(line))`` (the tool exits 1 otherwise, so the two
runs below check one round of each workload)."""

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


def test_runs_lists_each_run_before_the_same_digest_line():
    """``--runs`` adds one line per run, each run named once, and leaves the
    digest line as it is without the flag."""
    argv = [sys.executable, os.path.join(ROOT, "tools", "output_digest.py"),
            "--workloads", "backward-cyclic", "--seeds", "1", "--rounds", "1"]
    plain = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    listed = subprocess.run(argv + ["--runs"], capture_output=True, text=True, timeout=120)
    assert plain.returncode == listed.returncode == 0, listed.stderr
    *runs, last = listed.stdout.splitlines()
    assert last + "\n" == plain.stdout
    assert len(runs) == 24
    assert all(re.fullmatch(r"backward-cyclic 1 0 C\d+ (text|json) [0-9a-f]{64}", run)
               for run in runs)
    assert len({run.rsplit(" ", 1)[0] for run in runs}) == 24


# Runs the tool on one backward-cyclic round with a main that adds one
# compact line, ``{"record":"extra"}``, to every run.
EXTRA_LINE_RUN = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("output_digest", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
real = tool.cli.main

def main(argv):
    code = real(argv)
    print('{"record":"extra"}')
    return code

tool.cli.main = main
sys.exit(tool.main(["--workloads", "backward-cyclic", "--seeds", "1", "--rounds", "1"]))
"""


def test_output_digest_names_a_run_with_a_noncanonical_json_line(tmp_path):
    """A --json line that json would spell otherwise fails the digest and
    names its run; text runs are not held to JSON."""
    script = tmp_path / "extra_line.py"
    script.write_text(EXTRA_LINE_RUN)
    done = subprocess.run([sys.executable, str(script),
                           os.path.join(ROOT, "tools", "output_digest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert re.fullmatch(r"runs 24 sha256 [0-9a-f]{64}\n", done.stdout)
    named = done.stderr.splitlines()
    assert len(named) == 12  # one per --json run
    assert all(re.match(r"backward-cyclic seed 1 round 0 slot \S+: --json line is not", line)
               for line in named)
