"""tools/reach.py: the defs of src/treeshift that no benchmark run enters."""

import functools
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The most defs and lines that round 0 of seed 1, all three workloads, may
# leave unentered (the 15 digest rounds list the same defs).  Code that no
# run enters raises these in the change that adds it, with its reason.
UNENTERED_DEFS, UNENTERED_LINES = 62, 324

# Each def that those rounds leave unentered, in one group that says why no
# run enters it.  A change that leaves a def unentered names it here.

# argparse's help and error path, the console script, the error
# constructors, and a repr that only a failing assertion shows
HELP_AND_ERRORS = {
    "cli.build_parser", "cli.build_parser.checked", "cli.build_parser.checked.parse",
    "cli._parser", "cli.entry", "cyclicity._checked", "errors.shown",
    "errors.MultipleParents.__init__", "errors.CircuitFound.__init__",
    "errors.RootMismatch.__init__", "errors.VertexNotFound.__init__",
    "errors.EmptyWindow.__init__", "errors.WindowTooLarge.__init__",
    "errors.NotAContraction.__init__", "errors.ZeroWeight.__init__",
    "errors.DimensionCap.__init__", "errors.StageUnderflow.__init__",
    "trees._VertexTable.__missing__", "sparse.SparseVector.__repr__",
}

# the base classes' stubs and defaults, which every drawn tree and law overrides
CONTRACT_STUBS = {
    "trees.DirectedTreeModel.children", "trees.DirectedTreeModel.parent",
    "trees.DirectedTreeModel._parse", "trees.DirectedTreeModel.level",
    "trees.DirectedTreeModel.seeds", "trees.DirectedTreeModel.leaf_set",
    "weights.WeightAssignment.level_weight", "weights.WeightAssignment.max_weight",
}

# names that perfbench/tracing.py binds or counts, which wait on ROADMAP item 19
TRACER_BOUND = {
    "cli.__getattr__", "cyclicity.ge_rank", "cyclicity.cokernel_dimension",
    "shifts.ShiftOperator.dense_truncation", "shifts.vector_to_dense",
    "trees.TreeWindow.index_of", "cyclicity.BackwardShiftSpec.weight",
}

# library objects that tests read as references; the README names each
# one's reader
LIBRARY_ONLY = {
    "shifts.ShiftOperator.adjoint_power_closed", "shifts.ShiftOperator.window_cokernel",
    "similarity.g_vector", "similarity.g_norm", "cyclicity.sigma_m",
    "cyclicity.uniform_weight_rule.rule", "sparse.SparseVector.__len__",
    "sparse.SparseVector.__bool__", "sparse.SparseVector.support",
    "sparse.SparseVector.scaled", "records.Record._values", "records.Record.__eq__",
    "records.Record.__repr__", "trees.FiniteTree.level", "trees.FiniteTree.depth",
}

# laws, shapes and cases that no workload draws (ROADMAP item 13 adds slots)
UNDRAWN = {
    "weights.RayWeights.__init__", "weights.RayWeights.weight",
    "weights.RayWeights.max_weight", "weights.RayWeights.ratio_geometric",
    "weights.BinarySpineWeights.weight", "weights.BinarySpineWeights.max_weight",
    "weights.BinarySpineWeights.isometry_on", "weights.GeometricWeights.tail_log_sum",
    "weights.StepWeights.tail_log_sum", "weights.StepWeights.convergence_floor_level",
    "similarity._geometric_term", "trees.DirectedTreeModel.branching_in",
    "trees.RootlessBinary.leaf_set",
}

GROUPS = (HELP_AND_ERRORS, CONTRACT_STUBS, TRACER_BOUND, LIBRARY_ONLY, UNDRAWN)


@functools.cache
def reach(*workloads):
    """(rows, the defs count, their lines) that ``tools/reach.py`` prints for
    round 0 of seed 1 on ``workloads`` (all three when none is named)."""
    argv = [sys.executable, os.path.join(ROOT, "tools", "reach.py"), "--seeds", "1",
            "--rounds", "1"] + (["--workloads", *workloads] if workloads else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *rows, last = done.stdout.splitlines()
    count, lines = map(int, re.fullmatch(r"unentered (\d+) lines (\d+)", last).groups())
    return rows, count, lines


def test_reach_lists_the_defs_no_run_enters():
    rows, count, lines = reach("backward-cyclic")
    names = [row.split()[0] for row in rows]
    # ``adjoint_power_closed`` is library-only; every run enters ``main``, and
    # ``_constructor`` runs when treeshift is imported
    assert "shifts.ShiftOperator.adjoint_power_closed" in names
    assert "cli.main" not in names and "records._constructor" not in names
    assert all(re.fullmatch(r"[\w.]+ src/treeshift/\w+\.py:\d+ \d+", row) for row in rows)
    assert count == len(rows) and 0 < lines <= sum(int(row.split()[2]) for row in rows)


def test_unentered_code_stays_under_its_ceiling():
    rows, count, lines = reach()
    assert count <= UNENTERED_DEFS and lines <= UNENTERED_LINES, rows


def test_every_unentered_def_is_named_in_one_group():
    rows, _, _ = reach()
    listed = {row.split()[0] for row in rows}
    named = set().union(*GROUPS)
    assert sum(map(len, GROUPS)) == len(named)
    # first the unentered defs that no group names, then the named defs that
    # a run now enters
    assert (listed - named, named - listed) == (set(), set())
