"""Two checkouts' ``treeshift`` in one interpreter, timed call by call on benchmark rounds.

Run from anywhere, with a second checkout of the code to compare against:

    python3 tools/ab_inprocess.py --base ../treeshift-main --workload binary-descent \
        --seeds 7 21 --rounds 2 --passes 11

Both checkouts' ``src/treeshift`` are imported into this one process, side A
from ``--base`` and side B from ``--head``.  Each side keeps its own
``treeshift`` entries of ``sys.modules``, and they are swapped in before
each of its calls, so a module that ``treeshift.cli`` loads on first use
comes from the same checkout as the rest.  Separate processes would add
what the process start, the import and the machine's phase at that moment
cost; one process compares the calls alone.

The rounds come from the head's benchmark generator (``perfbench/workloads.py``,
imported, never edited), written once to a temporary directory, so both
sides read the same files.  A pass calls ``main`` on every instance of every
round on both sides, one side right after the other, A first on the even
instances of even passes and the odd instances of odd passes and B first on
the rest.  As in the benchmark worker, a call is preceded by
``speed.probe()`` and ``gc.collect()`` and timed around ``main`` alone.

The tool exits 1, naming the instance, when the two sides differ in exit
code, stdout, stderr or escaped exception on any call.  Otherwise it prints
per pass the B/A ratio of the summed call times and, over the passes, their
median and the passes that B won; then, for each slot, the medians of A and
B over its calls and their ratio.  An A/A run (the same checkout as both
sides) shows the spread that reads as no change.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict


def _package(name: str) -> bool:
    return name == "treeshift" or name.startswith("treeshift.")


def _take_modules() -> dict:
    """Remove every ``treeshift`` module from ``sys.modules`` and return them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules) if _package(name)}


def load_side(root: str) -> dict:
    """The ``treeshift`` modules of checkout ``root``, ``treeshift.cli`` among them."""
    _take_modules()
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        importlib.import_module("treeshift.cli")
    finally:
        sys.path.remove(os.path.join(root, "src"))
    return _take_modules()


def call(modules: dict, argv: list, probe) -> tuple:
    """((exit code, stdout, stderr, escaped exception), seconds) of the side's
    ``main(argv)``, with its modules in ``sys.modules`` for the call."""
    sys.modules.update(modules)
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    probe()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = modules["treeshift.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # compared like an exit code
        raised = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    modules.update(_take_modules())  # with what this call loaded on first use
    return (code, out.getvalue(), err.getvalue(), raised), elapsed


def run(sides: dict, instances: list, passes: int, probe) -> dict:
    """{(pass, instance index, side): seconds}; SystemExit(1) names the first
    instance whose outputs differ."""
    times = {}
    for p in range(passes):
        for i, inst in enumerate(instances):
            order = ("A", "B") if (p + i) % 2 == 0 else ("B", "A")
            outputs = {}
            for side in order:
                outputs[side], times[p, i, side] = call(sides[side], inst["argv"], probe)
            if outputs["A"] != outputs["B"]:
                print(f"outputs differ: pass {p} slot {inst['slot']} {' '.join(inst['argv'])}",
                      file=sys.stderr)
                raise SystemExit(1)
    return times


def report(times: dict, instances: list, passes: int) -> list:
    """The lines printed for a run without differences."""
    lines = []
    ratios = []
    for p in range(passes):
        a = sum(times[p, i, "A"] for i in range(len(instances)))
        b = sum(times[p, i, "B"] for i in range(len(instances)))
        ratios.append(b / a)
        lines.append(f"pass {p + 1}: A {1e3 * a:.3f} ms  B {1e3 * b:.3f} ms  B/A {b / a:.3f}")
    wins = sum(r < 1.0 for r in ratios)
    lines.append(f"B/A median {statistics.median(ratios):.3f}  B faster in {wins}/{passes} passes")
    by_slot = defaultdict(lambda: {"A": [], "B": []})
    for (p, i, side), seconds in times.items():
        by_slot[instances[i]["slot"]][side].append(seconds)
    for slot, sides in by_slot.items():
        a, b = statistics.median(sides["A"]), statistics.median(sides["B"])
        lines.append(f"slot {slot:<4} A {1e6 * a:9.1f} us  B {1e6 * b:9.1f} us  B/A {b / a:.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the checkout to compare against")
    parser.add_argument("--head", default=".", help="root of the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=1, help="rounds 0 .. ROUNDS-1 of every seed")
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")
    roots = {"A": os.path.abspath(args.base), "B": os.path.abspath(args.head)}
    for root in roots.values():
        if not os.path.isfile(os.path.join(root, "src", "treeshift", "cli.py")):
            parser.error(f"{root} has no src/treeshift/cli.py")
    sys.path.insert(0, os.path.join(roots["B"], "perfbench"))
    import speed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    sides = {side: load_side(root) for side, root in roots.items()}
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as work:
        instances = [inst for seed in args.seeds for r in range(args.rounds)
                     for inst in workloads.write_round(
                         args.workload, seed, r, os.path.join(work, f"{seed}-{r}"))["instances"]]
        gc.collect()
        gc.freeze()  # as the worker: what is loaded now never becomes garbage
        times = run(sides, instances, args.passes, speed.probe)
    print(f"workload={args.workload} seeds={' '.join(map(str, args.seeds))} "
          f"rounds={args.rounds} passes={args.passes} instances={len(instances)}")
    for line in report(times, instances, args.passes):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
