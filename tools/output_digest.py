"""One sha256 over the CLI's output on benchmark rounds, to compare two checkouts.

Run from the root of a checkout, with a fixed hash seed:

    PYTHONHASHSEED=0 python3 tools/output_digest.py --workloads backward-cyclic \
        --seeds 1 7 --rounds 3

Each round comes from the benchmark's own generator (``perfbench/workloads.py``,
imported, never edited) and is written to a temporary directory.  Every
instance runs twice through ``treeshift.cli.main`` in this process, as text
and with ``--json``, by the benchmark worker's ``call_main``.  The digest
covers, in run order, the instance, its exit code, its stdout and stderr,
and any exception that escaped ``main``, with the round directory masked.  Two
checkouts give the same digest exactly when their outputs are byte-identical.

Every stdout line of a ``--json`` run must also be ``json.dumps(json.loads(line))``:
the CLI writes its per-vertex ``alpha`` and ``a`` lines and the ``cyclic
--backward`` stage lines without ``json``, and this holds them to its spelling.  A line that is not names its run on stderr, and the
tool exits 1 after printing the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from treeshift import cli  # noqa: E402
from worker import call_main  # noqa: E402

ROUND_MASK = "<round>"


def noncanonical_line(out: str):
    """The first line of ``out`` that is not ``json.dumps(json.loads(line))``,
    or None."""
    for line in out.splitlines():
        try:
            if json.dumps(json.loads(line)) == line:
                continue
        except ValueError:
            pass
        return line
    return None


def digest(names, seeds, rounds) -> tuple:
    """(run count, sha256 hex digest, [(run, line)]) over every instance of
    the rounds; the list names each ``--json`` run with a non-canonical line."""
    total = hashlib.sha256()
    runs = 0
    bad = []
    for name in names:
        for seed in seeds:
            for index in range(rounds):
                directory = tempfile.mkdtemp(prefix="output-digest-")
                try:
                    manifest = workloads.write_round(name, seed, index, directory)
                    for instance in manifest["instances"]:
                        text = [a for a in instance["argv"] if a != "--json"]
                        for argv in (text, text + ["--json"]):
                            code, out, err, raised, _ = call_main(cli.main, argv)
                            record = [name, seed, index, instance["slot"], argv, code, out, err,
                                      raised]
                            masked = json.dumps(record).replace(directory, ROUND_MASK)
                            total.update(masked.encode() + b"\n")
                            runs += 1
                            line = noncanonical_line(out) if "--json" in argv else None
                            if line is not None:
                                bad.append((f"{name} seed {seed} round {index} slot "
                                            f"{instance['slot']}", line))
                finally:
                    shutil.rmtree(directory)
    return runs, total.hexdigest(), bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True,
                        help="rounds 0 .. ROUNDS-1 of every seed")
    args = parser.parse_args(argv)
    runs, hexdigest, bad = digest(args.workloads, args.seeds, args.rounds)
    print(f"runs {runs} sha256 {hexdigest}")
    for run, line in bad:
        print(f"{run}: --json line is not json.dumps(json.loads(line)): {line!r}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
