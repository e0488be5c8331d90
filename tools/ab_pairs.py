"""Alternating benchmark pairs: one workload, two checkouts, end-to-end medians.

Run from anywhere, with a second checkout of the code to compare against:

    python3 tools/ab_pairs.py --base ../treeshift-main --workload backward-cyclic \
        --seed 7 --seconds 10 --pairs 5

Both checkouts are first copied, without ``__pycache__`` or any entry whose
name starts with a dot (``.git``, and the caches that tests and runs leave),
to ``base`` and ``head`` in one fresh temporary directory, and every run
reads its copy.  Where a checkout lies moves the normalised figures by a few
per cent, and two paths of equal length under one parent remove that bias;
a ``.hypothesis`` and ``.pytest_cache`` left in one checkout alone read
``setup_s`` about 3 % higher there.  The copies are removed on exit.  Each pair runs ``perfbench/run.py`` once in each
copy (from its root, with this interpreter), and the side that runs first
alternates from pair to pair, the head first on even pairs.  The last line
of each run's standard output is its JSON result.  For every end-to-end
metric the tool prints both medians, the quartile spread of the base's runs,
and how many pairs moved each way; where the head's ``BENCHMARK.json`` says
which way is better, it also counts the pairs in which the head was better,
and where it also gives the metric's ``bound``, the line ends with ``beyond
bound`` when the head's median is worse than the base's by more than bound x
the base's median.  Otherwise it ends with ``unresolved`` when the base's
quartile spread is wider than bound x the base's median, unless every head
run beats every base run, and else with ``within bound``.  It only reads the
checkouts and runs their benchmark.

Each run writes no bytecode (``PYTHONDONTWRITEBYTECODE=1``), and the copies
hold no ``__pycache__``, so both sides compile their sources on every import:
a ``src/treeshift/__pycache__`` left in one checkout would otherwise let that
side skip compilation and read ``setup_s`` about a fifth lower for the same
code.  The standard library keeps its installed bytecode, as in a plain
``perfbench/run.py``: a ``PYTHONPYCACHEPREFIX``, the caller's included, is
dropped, since it would make every run compile the standard library as well
and read ``setup_s`` about a fifth higher than the benchmark does.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one ``perfbench/run.py`` run in checkout ``root``."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {root}: perfbench/run.py exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(root: str) -> dict:
    """{metric: ("higher" | "lower", bound or None)} from the end-to-end
    metrics of the checkout's BENCHMARK.json, or {}."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            return {m["name"]: (m["better"], m.get("bound"))
                    for m in json.load(handle)["end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def quartile_spread(values: list) -> float:
    """Upper minus lower quartile (0.0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def summary(pairs: list, metrics: dict) -> list:
    """One line per end-to-end metric over [(base result, head result)], with
    ``metrics`` as ``declared`` returns it."""
    lines = []
    for name in pairs[0][0]["metrics"]:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        up = sum(h > b for b, h in zip(base, head))
        down = sum(h < b for b, h in zip(base, head))
        mid_b, mid_h = statistics.median(base), statistics.median(head)
        spread = quartile_spread(base)
        change = f"{100.0 * (mid_h / mid_b - 1.0):+.1f}%" if mid_b else "n/a"
        line = (f"{name:<16} base {mid_b:.6g} (IQR {spread:.3g})  "
                f"head {mid_h:.6g}  {change}  head higher in {up}/{len(pairs)}, "
                f"lower in {down}/{len(pairs)}")
        if name in metrics:
            better, bound = metrics[name]
            wins = up if better == "higher" else down
            line += f"  (better: {better}; head better in {wins}/{len(pairs)}"
            if bound is None:
                line += ")"
            else:
                worse = mid_b - mid_h if better == "higher" else mid_h - mid_b
                sweep = (min(head) > max(base) if better == "higher"
                         else max(head) < min(base))
                verdict = ("beyond bound" if worse > bound * mid_b
                           else "unresolved" if spread > bound * mid_b and not sweep
                           else "within bound")
                line += f"; bound {bound:g})  {verdict}"
        lines.append(line)
    return lines


def _run_pairs(args, sides: dict):
    """Run ``args.pairs`` alternating pairs in the ``sides`` roots and print
    each pair and the summary."""
    pairs = []
    for index in range(args.pairs):
        order = ("head", "base") if index % 2 == 0 else ("base", "head")
        result = {side: run_side(sides[side], args.workload, args.seed, args.seconds)
                  for side in order}
        pairs.append((result["base"], result["head"]))
        values = "; ".join(
            f"{name} " + " ".join(f"{side} {result[side]['metrics'][name]['value']:.6g}"
                                  for side in order)
            for name in ("analyses_per_s", "latency_p90_ms") if name in pairs[-1][0]["metrics"])
        print(f"pair {index + 1} ({order[0]} first): {values}; failed "
              f"base {result['base']['failed']}/{result['base']['attempted']} "
              f"head {result['head']['failed']}/{result['head']['attempted']}", flush=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"pairs={args.pairs}")
    for line in summary(pairs, declared(sides["head"])):
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the checkout to compare against")
    parser.add_argument("--head", default=".", help="root of the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    for root in checkouts.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            parser.error(f"{root} has no perfbench/run.py")
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as work:
        sides = {side: shutil.copytree(root, os.path.join(work, side),
                                       ignore=shutil.ignore_patterns(".*", "__pycache__"))
                 for side, root in checkouts.items()}
        _run_pairs(args, sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
