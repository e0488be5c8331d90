"""tools/ab_inprocess.py: an A/A run of one checkout reads no difference, and
a side whose output differs, in a module loaded eagerly or on first use,
fails the run naming the instance."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_inprocess.py")
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _tool(base, workload, passes=2):
    """The tool's run on round 0 of seed 1, with ``base`` as side A and this checkout as B."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, TOOL, "--base", str(base), "--head", ROOT,
                           "--workload", workload, "--seeds", "1", "--passes", str(passes)],
                          capture_output=True, text=True, env=env)


def test_an_a_a_run_prints_the_ratios_the_wins_and_each_slot(tmp_path):
    instances = workloads.write_round("binary-descent", 1, 0, str(tmp_path))["instances"]
    done = _tool(ROOT, "binary-descent")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("workload=binary-descent seeds=1 rounds=1 passes=2 "
                        f"instances={len(instances)}")
    assert [line.split(":")[0] for line in lines[1:3]] == ["pass 1", "pass 2"]
    assert re.fullmatch(r"B/A median \d+\.\d{3}  B faster in [0-2]/2 passes", lines[3])
    slots = [line.split()[1] for line in lines[4:]]
    assert slots == list(dict.fromkeys(inst["slot"] for inst in instances))


def _wrapped(tmp_path, module, name):
    """A copy of the checkout's sources whose ``module.name`` prints one line
    more before it runs."""
    shutil.copytree(os.path.join(ROOT, "src", "treeshift"), tmp_path / "src" / "treeshift",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "treeshift" / f"{module}.py", "a") as fh:
        fh.write(f"\n\n_wrapped = {name}\n\n\ndef {name}(*args, **kwargs):\n"
                 f"    print('changed')\n    return _wrapped(*args, **kwargs)\n")
    return tmp_path


def test_outputs_that_differ_exit_1_naming_the_instance(tmp_path):
    done = _tool(_wrapped(tmp_path, "cli", "main"), "binary-descent", passes=1)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("outputs differ: pass 0 slot B1 analyze --tree ")


def test_a_module_loaded_on_first_use_comes_from_its_own_side(tmp_path):
    """``cyclicity`` is imported by the first ``cyclic`` call of each side;
    the base's changed copy must not stand in for the head's, nor the reverse."""
    done = _tool(_wrapped(tmp_path, "cyclicity", "backward_shift_verdict"), "backward-cyclic",
                 passes=1)
    assert done.returncode == 1 and done.stderr.startswith("outputs differ: pass 0 slot C1 ")
