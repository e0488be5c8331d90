"""List the functions of ``src/treeshift`` that no benchmark run enters.

Run from the root of a checkout:

    python3 tools/reach.py --workloads binary-descent --seeds 1 7 --rounds 3

The tool runs ``output_digest.digest`` on the given rounds, every instance as
text and with ``--json``, under ``sys.setprofile``, which records the code
object of every Python call.  It then prints each ``def`` of
``src/treeshift/*.py``, nested ones included, whose code no call entered: its
dotted name (module, enclosing classes and functions, name), its file and
line, and its length in lines.  The last line reads ``unentered N lines M``:
N such defs, M lines in them, where a def nested in an unentered def counts
its lines once, in the outer one.  Profiling starts before ``treeshift`` is
imported, so the functions that run at import time count as entered.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "treeshift")


def defs(path: str) -> list:
    """[(dotted name, first line, last line, outer def or None)] of every
    function definition in the module at ``path``.  The first line is the
    first decorator's, as the code object's ``co_firstlineno`` gives it."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    module = os.path.splitext(os.path.basename(path))[0]
    found = []

    def visit(node, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((name, first, child.end_lineno, outer))
                visit(child, name, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", outer)
            else:
                visit(child, prefix, outer)

    visit(tree, module, None)
    return found


def entered_lines(names, seeds, rounds) -> set:
    """{(file, co_firstlineno)} of every code object called while the rounds run."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        sys.path.insert(0, os.path.join(ROOT, "tools"))
        import output_digest  # imports treeshift under the profile
        output_digest.digest(names, seeds, rounds)
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}


def unentered(names, seeds, rounds) -> list:
    """[(dotted name, relative path, first line, lines, outer def)] of every
    def under ``src/treeshift`` that no call entered, in file and line order."""
    entered = entered_lines(names, seeds, rounds)
    out = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        real = os.path.realpath(path)
        for name, first, last, outer in defs(path):
            if (real, first) not in entered:
                out.append((name, os.path.relpath(path, ROOT), first, last - first + 1, outer))
    return out


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True,
                        help="rounds 0 .. ROUNDS-1 of every seed")
    args = parser.parse_args(argv)
    found = unentered(args.workloads, args.seeds, args.rounds)
    listed = {name for name, *_ in found}
    for name, path, first, lines, _ in found:
        print(f"{name} {path}:{first} {lines}")
    lines = sum(lines for _, _, _, lines, outer in found if outer not in listed)
    print(f"unentered {len(found)} lines {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
