"""Record the benchmark: every workload, plain and traced, in one JSON file.

Run from the root of a treeshift checkout:

    python3 tools/bench_record.py --seed 7 --seconds 8 --out BENCH_50.json

For each workload in ``perfbench/workloads.py``, in order, the tool runs
``perfbench/run.py --workload W --seed S --seconds T --trace K`` with this
interpreter, for K = 0 and then K = 1, and reads the JSON result that each
run prints as the last line of its standard output.  A run that exits
nonzero, or whose last line is not such a result, stops the tool with exit
code 1 and a message naming the run; no file is written then.

The file holds the commit (``git describe --always --dirty``, or null where
git cannot say), ``nproc``, the Python version, the seed and the seconds,
and per workload:

- ``end_to_end``: the plain run's metrics, times normalised by the speed
  probe as ``perfbench/run.py`` prints them;
- ``per_layer``: the traced run's metrics, raw seconds and counters;
- ``attempted`` and ``failed``: the plain run's analyses;
- ``correct``: true when both runs read correct (the traced run also
  compares its output with an untraced pass).

Wall time is recorded, not judged: the tool compares nothing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys

NOTES = ("end_to_end holds the plain run's metrics, times normalised by the speed probe; "
         "per_layer holds the traced run's metrics, raw seconds and counters. "
         "correct is true when both runs read correct. Latency per (subcommand, tree "
         "family) pair is not in perfbench/run.py's output, so it is not recorded.")


class RunFailed(Exception):
    """A benchmark run that exited nonzero or printed no result line."""


def run(argv: list) -> tuple:
    """(exit code, standard output) of one benchmark run; its stderr passes through."""
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def commit():
    """``git describe --always --dirty`` of the current directory, or None."""
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def workload_names() -> tuple:
    """``WORKLOADS`` of the checkout's ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join("perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result of one ``perfbench/run.py`` run; RunFailed names a run
    that exits nonzero or ends with no result line."""
    name = f"{workload} --trace {trace}"
    code, out = run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    if code != 0:
        raise RunFailed(f"{name}: perfbench/run.py exited with code {code}")
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        if not (isinstance(doc["metrics"], dict) and isinstance(doc["correct"], bool)
                and isinstance(doc["attempted"], int) and isinstance(doc["failed"], int)):
            raise TypeError
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunFailed(f"{name}: the last line is no benchmark result: "
                        f"{lines[-1] if lines else ''!r}") from None
    print(f"{name}: {'correct' if doc['correct'] else 'NOT correct'}, "
          f"{doc['attempted']} attempted, {doc['failed']} failed", flush=True)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    record = {"commit": commit(), "nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "seed": args.seed,
              "seconds": args.seconds, "notes": NOTES, "workloads": {}}
    try:
        for workload in workload_names():
            plain = result(workload, args.seed, args.seconds, 0)
            traced = result(workload, args.seed, args.seconds, 1)
            record["workloads"][workload] = {
                "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
                "attempted": plain["attempted"], "failed": plain["failed"],
                "correct": plain["correct"] and traced["correct"]}
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
