"""Command-line front end: ingest tree and weight specs, run the analyses,
emit text or line-delimited JSON reports.

Exit codes: 0 ok, 1 standard output closed early (a broken pipe), else the
``exit_code`` of the ``TreeShiftError`` that ended the run: 2 bad input, 3
not a contraction, 4 asymptote precondition failed, 5 dimension or window
cap, 6 shape mismatch.  Any other exception is a bug: exit 1, traceback.

This module imports no numpy; the library functions that need it import it
when they run, so only ``cyclic --backward`` (the exact Krylov rank) loads
it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import errors
from .asymptote import (
    adjoint_intertwining_residual,
    adjoint_isometric_asymptote,
    boundary_deficiency,
    intertwining_residual,
    isometric_asymptote,
    similar_to_coisometry,
    similar_to_isometry,
)
from .asymptotics import adjoint_profile, alpha_profile, classify, stable_subtree
from .cyclicity import (
    backward_shift_verdict,
    backward_spec_from_json,
    cokernel_dimension,  # noqa: F401  (perfbench/tracing.py wraps it)
    construct_backward_cyclic,
    cyclicity_verdict,
    range_membership_report,
    verify_cyclic_candidate,
)
from .records import dumps_sorted
from .shifts import (CONTRACTION_SLACK, ShiftOperator,
                     vector_to_dense)  # noqa: F401  (perfbench/tracing.py wraps it)
from .similarity import build_leaf_similarity, build_tilde_quasiaffinity
from .sparse import SparseVector
from .trees import branching_index, count_text, leaves, load_tree, materialize_window
from .weights import load_weights

EXIT_BROKEN_PIPE = 1


class Reporter:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def record(self, kind: str, payload: dict):
        """One ``json.dumps({"record": kind, **payload}, sort_keys=True)`` line."""
        if self.as_json:
            print(dumps_sorted({"record": kind, **payload}))

    def text(self, line: str):
        if not self.as_json:
            print(line)


def _checked(kind, ok, requirement: str):
    """argparse type: parse with ``kind``, then require ``ok(value)``."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type on a parse failure
    return parse


_POSITIVE_INT = _checked(int, lambda n: n >= 1, ">= 1")
_NONNEGATIVE_INT = _checked(int, lambda n: n >= 0, ">= 0")
_TOL = _checked(float, lambda x: 0.0 < x < math.inf, "finite and > 0")
_ZERO_TH = _checked(float, lambda x: 0.0 <= x < math.inf, "finite and >= 0")


def level_range(text):
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


_LEVELS = _checked(level_range, lambda levels: levels[0] <= levels[1], "a:b with a <= b")


def cmd_validate(args, out: Reporter) -> int:
    model = load_tree(args.tree)
    window = materialize_window(model, *args.levels, args.breadth)
    br = branching_index(model)
    leafset = sorted(leaves(model))
    out.text(f"{model.describe()}")
    out.text(f"leaves: {leafset if leafset else 'none'}")
    out.text(f"window [{window.level_lo}:{window.level_hi}] has {len(window)} vertices")
    out.record("tree", {"kind": model.kind, "family": model.family,
                        "rooted": model.is_rooted, "root": model.root,
                        "leaves": leafset, "branching": count_text(br),
                        "branching_exact": True, "window_size": len(window)})
    return 0


def _operator(args):
    model = load_tree(args.tree)
    operator = ShiftOperator(model, load_weights(args.weights))
    return model, operator, materialize_window(model, *args.levels, args.breadth)


def _analysis(args, need_adjoint=True):
    model, operator, window = _operator(args)
    profile = alpha_profile(operator, window, tol=args.tol, max_depth=args.depth)
    adjoint = adjoint_profile(operator, window, depth=args.depth, tol=args.tol) \
        if need_adjoint else None
    return model, operator, window, profile, adjoint


def cmd_analyze(args, out: Reporter) -> int:
    model, operator, window, profile, adjoint = _analysis(args)
    norm = operator.operator_norm(window)
    out.text(f"norm: {norm.value:.12g} ({'certified' if norm.certified else 'window only'})")
    out.text(f"contraction: {'yes' if norm.value <= 1.0 + CONTRACTION_SLACK else 'no'}")
    out.record("norm", {"value": norm.value, "window_value": norm.window_value,
                        "certified": norm.certified})
    out.text("forward limits:")
    if out.as_json:  # one line per window vertex, the bulk of the output
        print("\n".join(profile.record(u).json_line("alpha") for u in window.order))
    else:
        for u in window.order:
            rec = profile.record(u)
            print(f"  alpha[{u}] = {rec.estimate:.12g} ({rec.status}, depth {rec.depth})")
    stable = stable_subtree(profile, args.zero_th)
    br_value, br_exact = stable.branching
    out.text(f"stable subtree: {len(stable.members)}/{len(window)} window vertices, "
             f"Br(T')={count_text(br_value)}{'' if br_exact else ' (window partial)'}")
    out.record("stable-subtree", {"members": sorted(stable.members),
                                  "branching": count_text(br_value),
                                  "branching_exact": br_exact})
    out.text("adjoint limits (by level):")
    if out.as_json:
        print("\n".join(adjoint.profile.record(u).json_line("a") for u in window.order))
    else:
        for lvl in window.levels():
            rep = adjoint.profile.record(window.vertices_at(lvl)[0])
            print(f"  a[level {lvl}] = {rep.estimate:.12g} ({rep.status})")
    cls = classify(profile, adjoint, zero_threshold=args.zero_th)
    out.text(f"classification: {cls.forward} / {cls.adjoint}")
    for note in cls.notes:
        out.text(f"  {note}")
    out.record("classification", cls.to_json())
    sim_iso = similar_to_isometry(operator, profile, args.zero_th)
    sim_co = similar_to_coisometry(operator, window)
    out.text(f"similar to isometry: {sim_iso.answer} ({sim_iso.reason})")
    out.text(f"similar to co-isometry: {sim_co.answer} ({sim_co.reason})")
    out.record("similar-to-isometry", sim_iso.to_json())
    out.record("similar-to-coisometry", sim_co.to_json())
    return 0


def cmd_asymptote(args, out: Reporter) -> int:
    model, operator, window, profile, adjoint = _analysis(args, need_adjoint=False)
    stable = stable_subtree(profile, args.zero_th)
    descriptor = isometric_asymptote(operator, profile, stable, depth=args.depth)
    out.record("asymptote", descriptor.to_json())
    out.text(f"isometric asymptote: {descriptor.classification}, multiplicity "
             f"{count_text(descriptor.multiplicity)}")
    if descriptor.cnu_value is not None:
        out.text(f"cnu diagnostic: {descriptor.cnu_value:.6g}")
    for v in sorted(descriptor.beta):
        out.text(f"  beta[{v}] = {descriptor.beta[v]:.12g}")
    residual = intertwining_residual(operator, descriptor, profile, window)
    out.text(f"intertwining residual: {residual:.3e}")
    out.record("intertwining", {"residual": residual})
    return 0


def cmd_adjoint_asymptote(args, out: Reporter) -> int:
    model, operator, window, profile, adjoint = _analysis(args)
    descriptor = adjoint_isometric_asymptote(operator, adjoint, args.zero_th)
    out.record("adjoint-asymptote", descriptor.to_json())
    out.text(f"adjoint asymptote: {descriptor.shift_type}")
    for lvl in sorted(descriptor.coefficients):
        out.text(f"  level {lvl}: coefficient {descriptor.coefficients[lvl]:.12g}")
    residual = adjoint_intertwining_residual(operator, descriptor)
    out.text(f"intertwining residual: {residual:.3e}")
    out.record("intertwining", {"residual": residual})
    return 0


def cmd_cyclic(args, out: Reporter) -> int:
    if args.backward:
        spec = backward_spec_from_json(errors.read_input(args.backward, errors.TreeSpecError))
        verdict = backward_shift_verdict(spec)
        out.text(f"verdict: {verdict.verdict} [{verdict.rule}] {verdict.reason}")
        out.record("verdict", verdict.to_json())
        if not spec.zero_positions:
            candidate = construct_backward_cyclic(spec, args.schedule)
            record = verify_cyclic_candidate(spec, candidate, args.window_k)
            certified = "certified" if record.certified else "not certified"
            # Rank is at most the number of nonzero Krylov columns, k_L + 1, so
            # a window deeper than the candidate's support cannot be certified.
            short = (f"; the window is deeper than the candidate's support, so the rank is "
                     f"short by counting ({record.support_columns} columns < "
                     f"{record.dimension} rows)"
                     if record.support_columns < record.dimension else "")
            out.text(f"candidate verified: rank {record.rank}/{record.dimension} mod "
                     f"{record.modulus} ({certified}){short}")
            membership = range_membership_report(spec, candidate, 2)
            out.text(f"range membership partial sum (n=2): {membership:.6g}")
            out.record("krylov", {"rank": record.rank, "dimension": record.dimension,
                                  "cyclic": record.certified,
                                  "range_membership_n2": membership,
                                  "certified": record.certified,
                                  "modulus": record.modulus, "columns": record.columns})
            if args.json:
                for line in candidate.to_json_lines():
                    print(line)
            else:
                for j, k, x in candidate.entries():
                    out.text(f"  f[{j},{k}] = {x:.12g}")
        return 0
    model, operator, window, profile, adjoint = _analysis(args)
    cls = classify(profile, adjoint, zero_threshold=args.zero_th)
    verdict = cyclicity_verdict(model, cls)
    out.text(f"classification: {cls.forward} / {cls.adjoint}")
    out.text(f"verdict: {verdict.verdict} [{verdict.rule}] {verdict.reason}")
    for blocker in verdict.blockers:
        out.text(f"  blocker: {blocker}")
    out.record("verdict", verdict.to_json())
    return 0


def cmd_similarity(args, out: Reporter) -> int:
    model, operator, window = _operator(args)
    # A comb has leaves exactly when it has a primed leaf; both builders
    # reject any other model.
    if model.leaf_set():
        witness = build_leaf_similarity(operator, window)
    else:
        witness = build_tilde_quasiaffinity(operator, window)
    out.text(f"witness: {witness.kind}, mode {witness.mode}")
    out.text(f"intertwining residual: {witness.residual:.3e}")
    out.text(f"block inverse bound: {witness.block_inverse_bound():.6g}")
    if witness.ratio is not None:
        out.text(f"ratio certificate: {witness.ratio.to_json()}")
    out.record("witness", witness.to_json())
    return 0


def _worst_residual(lines: dict, window, images) -> float:
    """Worst entry of |line - image| over the pairs (u, image) in ``images``:
    the line of u is ``lines[u]``, a dict of truncation entries, and the image
    a sparse vector compressed to the window.  Outside the union of the two
    supports both sides are exactly 0."""
    worst = 0.0
    for u, vector in images:
        line = lines.get(u, {})
        image = vector.coeffs
        # Line entries all lie in the window: only image-only entries need the test.
        for v, c in line.items():
            worst = max(worst, abs(c - image.get(v, 0.0)))
        for v, c in image.items():
            if v not in line and v in window:
                worst = max(worst, abs(c))
    return worst


def cmd_oracle(args, out: Reporter) -> int:
    """Cross-checks of the closed-form operations against the entries of the
    window truncation P_W S P_W, grouped by column and by row."""
    model, operator, window = _operator(args)
    columns, rows = {}, {}
    for v, u, w in operator.window_entries(window):
        columns.setdefault(u, {})[v] = w
        rows.setdefault(v, {})[u] = w
    interior = list(window.forward_interior())
    worst_apply = _worst_residual(columns, window, (
        (u, operator.apply(SparseVector.basis(u))) for u in interior))
    # S* e_u compressed to the window is row u of P_W S P_W: the adjoint
    # checked against the transpose on every window vertex.
    worst_adjoint = _worst_residual(rows, window, (
        (u, operator.apply_adjoint(SparseVector.basis(u))) for u in window.order))
    worst_power = 0.0
    for u in interior[:16]:
        closed = operator.power_closed(u, 2)
        iterated = operator.apply(operator.apply(SparseVector.basis(u)))
        worst_power = max(worst_power, (closed - iterated).norm())
    coker = operator.window_cokernel(window)
    artificial = boundary_deficiency(window)
    truncated = len(window) - len(interior)
    if truncated:
        out.text(f"boundary truncation: {truncated} window vertices have children "
                 f"outside the window; interior checks exclude them")
    out.text(f"apply vs matrix (interior): {worst_apply:.3e}")
    out.text(f"power closed-form vs iteration: {worst_power:.3e}")
    out.text(f"adjoint vs matrix transpose: {worst_adjoint:.3e}")
    out.text(f"window cokernel: {coker} (exact count, {artificial} boundary-artificial)")
    out.record("oracle", {"apply_residual": worst_apply, "power_residual": worst_power,
                          "adjoint_residual": worst_adjoint, "cokernel": coker,
                          "boundary_artificial": artificial})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeshift",
                                     description="weighted shifts on directed trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def tree_flags(p, required=True):
        p.add_argument("--tree", required=required, help="tree spec JSON path")
        p.add_argument("--levels", type=_LEVELS, default="-8:8",
                       help="window level range a:b (use --levels=-8:8 for negatives)")
        p.add_argument("--breadth", type=_POSITIVE_INT, default=64, help="per-level breadth cap")
        p.add_argument("--json", action="store_true", help="line-delimited JSON output")

    def common(p, required=True):
        tree_flags(p, required)
        p.add_argument("--weights", required=required, help="weight spec JSON path")
        p.add_argument("--tol", type=_TOL, default=1e-10)
        p.add_argument("--zero-th", dest="zero_th", type=_ZERO_TH, default=1e-9)
        p.add_argument("--depth", type=_POSITIVE_INT, default=64)

    p = sub.add_parser("validate", help="structural validation and summary")
    tree_flags(p)
    p.set_defaults(func=cmd_validate)

    for name, fn in (("analyze", cmd_analyze), ("asymptote", cmd_asymptote),
                     ("adjoint-asymptote", cmd_adjoint_asymptote),
                     ("similarity", cmd_similarity), ("oracle", cmd_oracle)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("cyclic")
    common(p, required=False)
    p.add_argument("--backward", help="backward shift spec JSON (instead of a tree)")
    p.add_argument("--schedule", type=_POSITIVE_INT, default=16, help="schedule length L")
    p.add_argument("--window-k", dest="window_k", type=_NONNEGATIVE_INT, default=50)
    p.set_defaults(func=cmd_cyclic)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use and kept for the process.
    The ``func`` defaults are the ``cmd_*`` functions, which look up every
    layer function in this module's globals at call time."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "cyclic" and not args.backward and not (args.tree and args.weights):
        parser.error("cyclic needs either --backward or both --tree and --weights")
    out = Reporter(getattr(args, "json", False))
    try:
        code = args.func(args, out)
        sys.stdout.flush()  # a reader that closed early surfaces here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail too.  No error line: the reader chose to stop.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except errors.TreeShiftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
