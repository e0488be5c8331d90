"""One workload run in a process of its own (started by run.py).

Plain mode is one closed-loop client: it calls ``treeshift.cli.main(argv)``
in-process on each instance of round 0, 1, 2, ... in turn, timing each call
(raw, and normalised by the speed probe run just before it, see speed.py)
and checking its output outside the timed region.  The number of rounds is
fixed by the workload and ``--seconds`` alone: enough rounds to fill
``--seconds`` inside ``main`` at the calibrated speed ``workloads.ROUND_S``,
and at least ``MIN_ROUNDS``.  It is not cut by the clock, so a seed always
gives the same analyses, and so the same ``attempted`` and ``failed``; a
faster program finishes them sooner.

Trace mode takes the first ``TRACE_ROUNDS`` rounds of the same seed and runs
each instance twice, untraced and then traced, in passes until ``--seconds``
is spent.  It checks that both calls print the same bytes and reports the
per-layer metrics (median over passes) and the tracing overhead.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

import checks
import tracing
import workloads
from speed import SpeedScale
from treeshift import cli

TRACE_ROUNDS = 1
MIN_ROUNDS = 10  # the p90 is taken per round: at least ten samples lie beyond it
MAX_EXAMPLES = 5


def call_main(main, argv):
    """(exit code, stdout, stderr, description of an escaped exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    gc.collect()  # garbage of the previous call is not charged to this one
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
        raised = f"SystemExit({exc.code}): {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # any escape from main is a failed analysis
        raised = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), raised, elapsed


class Tally:
    """Outcomes of the checked analyses of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_check = Counter()
        self.by_defect = Counter()
        self.unexpected = 0
        self.examples = []
        self.estimates = 0
        self.settled = 0
        self.rank = 0
        self.dimension = 0

    def add(self, instance, outcome, round_index):
        self.attempted += 1
        self.estimates += outcome.estimates
        self.settled += outcome.settled
        self.rank += outcome.rank
        self.dimension += outcome.dimension
        if not outcome.failures:
            return
        self.failed += 1
        self.by_check.update({name for name, _ in outcome.failures})
        defects = {checks.known_defect(name, instance, message)
                   for name, message in outcome.failures}
        self.by_defect.update(defects - {None})
        if None in defects:
            self.unexpected += 1
        if len(self.examples) < MAX_EXAMPLES:
            name, message = outcome.failures[0]
            self.examples.append(f"round {round_index} {instance['slot']} "
                                 f"{' '.join(instance['argv'])}: {name}: {message}")

    def to_json(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_by_check": dict(self.by_check),
                "failed_by_known_defect": dict(self.by_defect), "unexpected": self.unexpected,
                "examples": self.examples, "estimates": self.estimates,
                "settled": self.settled, "rank": self.rank, "dimension": self.dimension}


def run_plain(args, workdir):
    tally = Tally()
    samples = []
    speed = SpeedScale()
    busy = 0.0
    rounds = max(MIN_ROUNDS, math.ceil(args.seconds / workloads.ROUND_S[args.workload]))
    for index in range(rounds):
        directory = os.path.join(workdir, f"round{index:04d}")
        manifest = workloads.write_round(args.workload, args.seed, index, directory)
        for inst in manifest["instances"]:
            speed.sample()
            code, out, err, raised, elapsed = call_main(cli.main, inst["argv"])
            busy += elapsed
            outcome = checks.check(inst, code, out, manifest["docs"], raised, err)
            tally.add(inst, outcome, index)
            samples.append([index, inst["slot"], elapsed, speed.scale(elapsed),
                            not outcome.failures])
        shutil.rmtree(directory)
    return {"mode": "plain", "rounds": rounds, "busy_s": busy, "samples": samples,
            **tally.to_json()}


def run_trace(args, workdir):
    manifests = [workloads.write_round(args.workload, args.seed, r,
                                       os.path.join(workdir, f"round{r:04d}"))
                 for r in range(TRACE_ROUNDS)]
    tally = Tally()
    mismatches = []
    per_pass = []
    overheads = []
    busy = 0.0
    last = None
    while busy < args.seconds:
        tracer = tracing.Tracer()
        plain_s = traced_s = 0.0
        analysis = 0
        for manifest in manifests:
            for inst in manifest["instances"]:
                code, out, err, raised, elapsed = call_main(cli.main, inst["argv"])
                plain_s += elapsed
                if not per_pass:
                    tally.add(inst, checks.check(inst, code, out, manifest["docs"], raised, err),
                              manifest["round"])
                tracer.install(cli)
                try:
                    t_code, t_out, _, t_raised, t_elapsed = call_main(
                        lambda argv, a=analysis: tracer.run_analysis(a, cli.main, argv),
                        inst["argv"])
                finally:
                    tracer.uninstall(cli)
                traced_s += t_elapsed
                analysis += 1
                if (t_code, t_out, t_raised) != (code, out, raised) and len(mismatches) < MAX_EXAMPLES:
                    mismatches.append(f"{inst['slot']} {' '.join(inst['argv'])}")
        busy += plain_s + traced_s
        per_pass.append(tracer.layer_metrics())
        overheads.append(traced_s / plain_s - 1.0)
        last = tracer
    last.write(os.path.join(os.path.dirname(workdir), f"spans-{args.workload}-{args.seed}.jsonl"))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return {"mode": "trace", "rounds": TRACE_ROUNDS, "passes": len(per_pass),
            "mismatches": mismatches, "layer_metrics": metrics, **tally.to_json()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    # Interpreter and import-time objects never become garbage; freezing them
    # keeps the per-call collection cheap.
    gc.collect()
    gc.freeze()
    try:
        result = run_trace(args, args.workdir) if args.trace else run_plain(args, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
