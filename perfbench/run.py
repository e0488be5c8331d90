"""treeshift benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload binary-descent --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload in a child process (worker.py) as one
closed-loop client calling ``treeshift.cli.main`` in-process, measures
``setup_s`` (median import time of ``treeshift.cli`` over fresh interpreters,
before and after the workload), and prints every end-to-end metric.  With ``--trace 1`` the child
runs the traced comparison instead and the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SOURCE = os.path.join("src", "treeshift", "cli.py")
WORK = ".perfbench_work"
SETUP_SAMPLES = 6  # fresh interpreters before the workload, and as many after it
CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_TIMER = ("import time; t = time.perf_counter(); import treeshift.cli; "
                "t = time.perf_counter() - t; import sys; sys.path.insert(0, {here!r}); "
                "import speed; print(repr(t), repr(speed.median_probe()))")

END_TO_END_UNITS = {"analyses_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(nproc)
    return env


def measure_setup(env) -> list:
    """(raw, normalised) time to import treeshift.cli in fresh interpreters, in
    seconds; each interpreter runs the speed probe right after the import."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(here=HERE)],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        raw, probe_s = map(float, done.stdout.split())
        samples.append((raw, raw * speed.REFERENCE_S / probe_s))
    return samples


def run_worker(args, env, workdir) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _timings(samples, column, correct):
    """Throughput over the whole run; each latency percentile is taken within
    each round (every round has the same mix of slots) and the median over
    rounds is reported, so one slow phase of the machine moves it less."""
    rounds = {}
    for sample in samples:
        rounds.setdefault(sample[0], []).append(sample[column])
    return {"analyses_per_s": correct / sum(s[column] for s in samples),
            "latency_p50_ms": 1000.0 * statistics.median(
                statistics.median(v) for v in rounds.values()),
            "latency_p90_ms": 1000.0 * statistics.median(
                nearest_rank(v, 0.9) for v in rounds.values())}


def report_plain(result, setup) -> dict:
    correct_analyses = result["attempted"] - result["failed"]
    n = len(result["samples"])
    per_round = n // result["rounds"]
    raw = _timings(result["samples"], 2, correct_analyses)
    metrics = _timings(result["samples"], 3, correct_analyses)
    raw["setup_s"] = statistics.median(s[0] for s in setup)
    metrics["setup_s"] = statistics.median(s[1] for s in setup)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    beyond = result["rounds"] * (per_round - math.ceil(0.9 * per_round))
    notes = {
        "analyses_per_s": f"{correct_analyses} correct analyses / time inside main, "
                          f"{result['rounds']} rounds",
        "latency_p50_ms": f"n={n}, median over {result['rounds']} rounds of {per_round}",
        "latency_p90_ms": f"n={n}, median over {result['rounds']} rounds of {per_round}, "
                          f"{beyond} samples beyond",
        "setup_s": f"median of {len(setup)} fresh interpreters, half before and half "
                   f"after the workload",
    }
    print("times normalised by the speed probe (see speed.py); "
          "raw wall-clock values in brackets")
    for name, value in metrics.items():
        note = notes.get(name, "ru_maxrss of the workload process")
        raw_txt = f"[raw {raw[name]:.6f}] " if name in raw else ""
        print(f"{name:<16} {value:>14.6f} {END_TO_END_UNITS[name]:<6} {raw_txt}({note})")
    ratios = (("fail_frac", result["failed"], result["attempted"], "failed / attempted"),
              ("settled_frac", result["settled"], result["estimates"],
               "settled forward+adjoint estimates / estimates emitted"),
              ("rank_frac", result["rank"], result["dimension"],
               "sum of Krylov ranks / sum of window dimensions"))
    for name, num, den, what in ratios:
        value = f"{num / den:>14.6f}" if den else f"{'n/a':>14}"
        print(f"{name:<16} {value} {'ratio':<6} ({num}/{den} {what})")
    return metrics


def report_trace(result) -> dict:
    metrics = result["layer_metrics"]
    print(f"traced rounds={result['rounds']} passes={result['passes']} "
          f"(per-layer values: median over passes of one pass's total)")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6f} {tracing.LAYER_METRICS[name]}")
    for slot in result["mismatches"]:
        print(f"traced output differs from untraced: {slot}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treeshift benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(SOURCE):
        print(f"error: {SOURCE} not found; run from the root of a treeshift checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ({workloads.WHY[args.workload]})")
    print(f"nproc={nproc} blas_threads={env[BLAS_VARS[0]]} ({', '.join(BLAS_VARS)})")
    try:
        setup = [] if args.trace else measure_setup(env)
        result = run_worker(args, env, workdir)
        setup += [] if args.trace else measure_setup(env)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = report_trace(result) if args.trace else report_plain(result, setup)
    units = tracing.LAYER_METRICS if args.trace else END_TO_END_UNITS
    for name, count in sorted(result["failed_by_check"].items()):
        print(f"failed check {name}: {count} analyses")
    for defect_id, count in sorted(result["failed_by_known_defect"].items()):
        print(f"known defect {defect_id}: {count} analyses "
              f"({checks.KNOWN_DEFECTS[defect_id].description})")
    if result["unexpected"]:
        print(f"UNEXPECTED failures: {result['unexpected']} analyses")
    for example in result["examples"]:
        print(f"  e.g. {example}")
    correct = result["unexpected"] == 0 and not result.get("mismatches")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
