"""Command-line front end: ingest tree and weight specs, run the analyses,
emit text or line-delimited JSON reports.

Exit codes: 0 ok, 1 standard output closed early (a broken pipe), else the
``exit_code`` of the ``TreeShiftError`` that ended the run: 2 bad input, 3
not a contraction, 4 asymptote precondition failed, 5 dimension or window
cap, 6 shape mismatch.  Any other exception is a bug: exit 1, traceback.

Every subcommand and flag is declared once, in ``COMMANDS``.  ``main`` reads
a well-formed argv against that table in one pass; help, and any argv that
pass declines, go to the argparse parser built from the same table, which
prints today's usage and error texts (exit 2).  So argparse and gettext
load only for help and errors.

Importing this module loads the layers the tree analyses use and no numpy.
``cyclicity`` and ``similarity``, each used by one command, load when that
command first runs or a name of theirs is read off this module; numpy loads
only with ``cyclic --backward`` (the exact Krylov rank).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import types

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
from .asymptotics import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    DEFAULT_ZERO_THRESHOLD,
    adjoint_profile,
    alpha_profile,
    classify,
    stable_subtree,
)
from .records import dumps_sorted
from .shifts import ShiftOperator
from .sparse import SparseVector, nan_max
from .trees import branching_index, count_text, leaves, load_tree, materialize_window
from .weights import load_weights

EXIT_BROKEN_PIPE = 1

# The layers that one command alone uses -> the names this module reads of
# each; ``_load`` binds them when that command first runs.  No command reads
# ``cokernel_dimension`` or ``vector_to_dense``: only perfbench/tracing.py does.
_ON_FIRST_USE = {
    "cyclicity": ("backward_shift_verdict", "backward_spec_from_json", "cokernel_dimension",
                  "construct_backward_cyclic", "cyclicity_verdict", "range_membership_report",
                  "verify_cyclic_candidate"),
    "shifts": ("vector_to_dense",),
    "similarity": ("build_leaf_similarity", "build_tilde_quasiaffinity"),
}


def _load(module):
    """Import ``module`` and bind its names in ``_ON_FIRST_USE`` here; a name
    already bound (by a tracer or a test's monkeypatch) keeps its value."""
    layer = importlib.import_module(f".{module}", __package__)
    for name in _ON_FIRST_USE[module]:
        globals().setdefault(name, getattr(layer, name))


def __getattr__(name):
    for module, names in _ON_FIRST_USE.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Reporter:
    """Prints each fact of a run as text or as one JSON record, and the bulk
    rows of a fact as text lines under their header or as JSON lines."""

    def __init__(self, as_json: bool):
        self.as_json = as_json

    def fact(self, kind: str, payload: dict, *lines: str):
        """The text ``lines`` of one fact, or with ``--json`` its one
        ``json.dumps({"record": kind, **payload}, sort_keys=True)`` line."""
        if self.as_json:
            print(dumps_sorted({"record": kind, **payload}))
        else:
            print(*lines, sep="\n")

    def rows(self, header, json_lines, text_lines):
        """The ``text_lines`` under ``header`` (None for no header), or with
        ``--json`` the ``json_lines``, one record each; either side in one
        ``print``, and only that side's iterable is read."""
        if self.as_json:
            print("\n".join(json_lines))
        else:
            print("\n".join(text_lines if header is None else (header, *text_lines)))


def level_range(text):
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


# A flag value's check: (parse, test the parsed value must pass, what the test asks).
_POSITIVE_INT = (int, lambda n: n >= 1, ">= 1")
_NONNEGATIVE_INT = (int, lambda n: n >= 0, ">= 0")
_TOL = (float, lambda x: 0.0 < x < math.inf, "finite and > 0")
_ZERO_TH = (float, lambda x: 0.0 <= x < math.inf, "finite and >= 0")
_LEVELS = (level_range, lambda levels: levels[0] <= levels[1], "a:b with a <= b")


def cmd_validate(args, out: Reporter) -> int:
    model = load_tree(args.tree)
    window = materialize_window(model, *args.levels, args.breadth)
    br = branching_index(model)
    leafset = sorted(leaves(model))
    out.fact("tree", {"kind": model.kind, "family": model.family,
                      "rooted": model.is_rooted, "root": model.root,
                      "leaves": leafset, "branching": count_text(br),
                      "branching_exact": True, "window_size": len(window)},
             model.describe(),
             f"leaves: {leafset if leafset else 'none'}",
             f"window [{window.level_lo}:{window.level_hi}] has {len(window)} vertices")
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


def _classification(profile, adjoint, zero_th, out: Reporter):
    """The asymptotic class of the shift and its adjoint, reported as the
    ``classification`` fact that ``analyze`` and tree ``cyclic`` share."""
    cls = classify(profile, adjoint, zero_threshold=zero_th)
    out.fact("classification", cls.to_json(), f"classification: {cls.forward} / {cls.adjoint}",
             *(f"  {note}" for note in cls.notes))
    return cls


def cmd_analyze(args, out: Reporter) -> int:
    model, operator, window, profile, adjoint = _analysis(args)
    norm = operator.operator_norm(window)
    out.fact("norm", norm.to_json(),
             f"norm: {norm.value:.12g} ({'certified' if norm.certified else 'window only'})")
    out.rows("forward limits:", (profile.record(u).json_line("alpha") for u in window.order),
             (f"  alpha[{u}] = {rec.estimate:.12g} ({rec.status}, depth {rec.depth})"
              for u in window.order for rec in [profile.record(u)]))
    stable = stable_subtree(profile, args.zero_th)
    br_value, br_exact = stable.branching
    out.fact("stable-subtree", {"members": sorted(stable.members),
                                "branching": count_text(br_value),
                                "branching_exact": br_exact},
             f"stable subtree: {len(stable.members)}/{len(window)} window vertices, "
             f"Br(T')={count_text(br_value)}{'' if br_exact else ' (window partial)'}")
    limits = adjoint.profile
    out.rows("adjoint limits (by level):", (limits.record(u).json_line("a") for u in window.order),
             (f"  a[level {lvl}] = {rec.estimate:.12g} ({rec.status})"
              for lvl in window.levels() for rec in [limits.record(window.vertices_at(lvl)[0])]))
    _classification(profile, adjoint, args.zero_th, out)
    sim_iso = similar_to_isometry(operator, profile)
    sim_co = similar_to_coisometry(operator, window)
    out.fact("similar-to-isometry", sim_iso.to_json(),
             f"similar to isometry: {sim_iso.answer} ({sim_iso.reason})")
    out.fact("similar-to-coisometry", sim_co.to_json(),
             f"similar to co-isometry: {sim_co.answer} ({sim_co.reason})")
    return 0


def cmd_asymptote(args, out: Reporter) -> int:
    model, operator, window, profile, adjoint = _analysis(args, need_adjoint=False)
    stable = stable_subtree(profile, args.zero_th)
    descriptor = isometric_asymptote(operator, profile, stable, depth=args.depth)
    cnu = descriptor.cnu_value
    out.fact("asymptote", descriptor.to_json(),
             f"isometric asymptote: {descriptor.classification}, multiplicity "
             f"{count_text(descriptor.multiplicity)}",
             *([] if cnu is None else [f"cnu diagnostic: {cnu:.6g}"]),
             *(f"  beta[{v}] = {beta:.12g}" for v, beta in sorted(descriptor.beta.items())))
    residual = intertwining_residual(operator, descriptor, profile, window)
    out.fact("intertwining", {"residual": residual}, f"intertwining residual: {residual:.3e}")
    return 0


def cmd_adjoint_asymptote(args, out: Reporter) -> int:
    model, operator, window, profile, adjoint = _analysis(args)
    descriptor = adjoint_isometric_asymptote(operator, adjoint, args.zero_th)
    out.fact("adjoint-asymptote", descriptor.to_json(),
             f"adjoint asymptote: {descriptor.shift_type}",
             *(f"  level {lvl}: coefficient {c:.12g}"
               for lvl, c in sorted(descriptor.coefficients.items())))
    residual = adjoint_intertwining_residual(operator, descriptor)
    out.fact("intertwining", {"residual": residual}, f"intertwining residual: {residual:.3e}")
    return 0


def cmd_cyclic(args, out: Reporter) -> int:
    _load("cyclicity")
    if args.backward:
        spec = backward_spec_from_json(errors.read_input(args.backward, errors.TreeSpecError))
        verdict = backward_shift_verdict(spec)
        out.fact("verdict", verdict.to_json(),
                 f"verdict: {verdict.verdict} [{verdict.rule}] {verdict.reason}")
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
            membership = range_membership_report(spec, candidate, 2)
            out.fact("krylov", {"rank": record.rank, "dimension": record.dimension,
                                "range_membership_n2": membership,
                                "certified": record.certified,
                                "modulus": record.modulus, "columns": record.columns},
                     f"candidate verified: rank {record.rank}/{record.dimension} mod "
                     f"{record.modulus} ({certified}){short}",
                     f"range membership partial sum (n=2): {membership:.6g}")
            out.rows(None, candidate.to_json_lines(),
                     (f"  f[{j},{k}] = {x:.12g}" for j, k, x in candidate.entries()))
        return 0
    model, operator, window, profile, adjoint = _analysis(args)
    cls = _classification(profile, adjoint, args.zero_th, out)
    verdict = cyclicity_verdict(model, cls)
    out.fact("verdict", verdict.to_json(),
             f"verdict: {verdict.verdict} [{verdict.rule}] {verdict.reason}",
             *(f"  blocker: {blocker}" for blocker in verdict.blockers))
    return 0


def cmd_similarity(args, out: Reporter) -> int:
    _load("similarity")
    model, operator, window = _operator(args)
    # A comb has leaves exactly when it has a primed leaf; both builders
    # reject any other model.
    if model.leaf_set():
        witness = build_leaf_similarity(operator, window)
    else:
        witness = build_tilde_quasiaffinity(operator, window)
    out.fact("witness", witness.to_json(), f"witness: {witness.kind}, mode {witness.mode}",
             f"intertwining residual: {witness.residual:.3e}",
             f"block inverse bound: {witness.block_inverse_bound():.6g}",
             *([] if witness.ratio is None else
               [f"ratio certificate: {witness.ratio.to_json()}"]))
    return 0


def _worst_residual(worst: float, line: dict, image: SparseVector, window) -> float:
    """nan_max of ``worst`` and every entry of |line - image|, ``line`` a dict of
    truncation entries and ``image`` a sparse vector compressed to the window:
    outside the union of their supports both sides are exactly 0."""
    image = image.coeffs
    # Line entries all lie in the window: only image entries need the test.
    for v in [*line, *(v for v in image if v not in line and v in window)]:
        worst = nan_max(worst, abs(line.get(v, 0.0) - image.get(v, 0.0)))
    return worst


def cmd_oracle(args, out: Reporter) -> int:
    """Cross-checks of the closed-form operations against the columns and
    rows of the window truncation P_W S P_W, in one walk of its columns."""
    model, operator, window = _operator(args)
    interior = window.forward_interior()
    inner = set(interior)
    worst_apply, worst_adjoint, coker = 0.0, 0.0, len(window)
    # An image whose dict equals its line adds 0 and is not read entry by entry.
    for u, column in operator.window_columns(window):
        if u in inner:
            image = operator.apply(SparseVector.basis(u))
            if image.coeffs != column:
                worst_apply = _worst_residual(worst_apply, column, image, window)
        # S* e_v compressed to the window is row v of P_W S P_W, whose one entry
        # is lambda_v in its parent's column: the adjoint against the transpose.
        for v, w in column.items():
            image, row = operator.apply_adjoint(SparseVector.basis(v)), {u: w}
            if image.coeffs != row:
                worst_adjoint = _worst_residual(worst_adjoint, row, image, window)
        coker -= any(column.values())  # the columns have disjoint supports
    # The first level's rows are empty (their parents lie outside the window);
    # checked last, so the weights of the columns are asked for first.
    for u in next(iter(window.by_level.values())):
        worst_adjoint = _worst_residual(worst_adjoint, {},
                                        operator.apply_adjoint(SparseVector.basis(u)), window)
    worst_power = 0.0
    for u in interior[:16]:
        closed = operator.power_closed(u, 2)
        iterated = operator.apply(operator.apply(SparseVector.basis(u)))
        worst_power = nan_max(worst_power, (closed - iterated).norm())
    artificial = boundary_deficiency(window)
    truncated = len(window) - len(interior)
    out.fact("oracle", {"apply_residual": worst_apply, "power_residual": worst_power,
                        "adjoint_residual": worst_adjoint, "cokernel": coker,
                        "boundary_artificial": artificial, "truncated": truncated},
             *([f"boundary truncation: {truncated} window vertices have children "
                f"outside the window; interior checks exclude them"] if truncated else []),
             f"apply vs matrix (interior): {worst_apply:.3e}",
             f"power closed-form vs iteration: {worst_power:.3e}",
             f"adjoint vs matrix transpose: {worst_adjoint:.3e}",
             f"window cokernel: {coker} (exact count, {artificial} boundary-artificial)")
    return 0


class _Flag:
    """One option of a subcommand.  ``check`` is its value's check, or None to
    keep the text; a ``switch`` takes no value and stores True, argparse's
    ``store_true``."""

    __slots__ = ("option", "dest", "check", "default", "required", "help", "switch")

    def __init__(self, option, check=None, default=None, required=False, help=None,
                 switch=False):
        self.option, self.dest = option, option[2:].replace("-", "_")
        self.check, self.default, self.required = check, default, required
        self.help, self.switch = help, switch

    def parse(self, text):
        """The value of ``text``, or None where the check rejects it."""
        kind, ok, _ = self.check
        try:
            value = kind(text)
        except ValueError:
            return None
        return value if ok(value) else None


class _Command:
    """A subcommand: its ``cmd_*`` function, its help and its flags in the
    order argparse lists them, with what the table pass reads of them."""

    __slots__ = ("func", "help", "flags", "options", "defaults", "required")

    def __init__(self, func, flags, help=None):
        self.func, self.flags, self.help = func, flags, help
        self.options = {flag.option: flag for flag in flags}
        self.defaults = {flag.dest: flag.default for flag in flags}
        self.required = {flag.dest for flag in flags if flag.required}


def _tree_flags(required):
    return (_Flag("--tree", required=required, help="tree spec JSON path"),
            _Flag("--levels", _LEVELS, (-8, 8),
                  help="window level range a:b (use --levels=-8:8 for negatives)"),
            _Flag("--breadth", _POSITIVE_INT, 64, help="per-level breadth cap"),
            _Flag("--json", default=False, help="line-delimited JSON output", switch=True))


def _operator_flags(required):
    return _tree_flags(required) + (
        _Flag("--weights", required=required, help="weight spec JSON path"),)


def _analysis_flags(required):
    return _operator_flags(required) + (
        _Flag("--tol", _TOL, DEFAULT_TOL),
        _Flag("--zero-th", _ZERO_TH, DEFAULT_ZERO_THRESHOLD),
        _Flag("--depth", _POSITIVE_INT, DEFAULT_MAX_DEPTH))


# Every subcommand and flag, declared once: ``build_parser`` builds argparse's
# parser from this table and ``_read_argv`` reads a well-formed argv against it.
COMMANDS = {
    "validate": _Command(cmd_validate, _tree_flags(True),
                         help="structural validation and summary"),
    "analyze": _Command(cmd_analyze, _analysis_flags(True)),
    "asymptote": _Command(cmd_asymptote, _analysis_flags(True)),
    "adjoint-asymptote": _Command(cmd_adjoint_asymptote, _analysis_flags(True)),
    "similarity": _Command(cmd_similarity, _operator_flags(True)),
    "oracle": _Command(cmd_oracle, _operator_flags(True)),
    "cyclic": _Command(cmd_cyclic, _analysis_flags(False) + (
        _Flag("--backward", help="backward shift spec JSON (instead of a tree)"),
        _Flag("--schedule", _POSITIVE_INT, 16, help="schedule length L"),
        _Flag("--window-k", _NONNEGATIVE_INT, 50))),
}


def build_parser():
    """argparse's parser for ``COMMANDS``, with its help and error texts."""
    import argparse

    def checked(kind, ok, requirement):
        def parse(text):
            value = kind(text)
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
            return value
        parse.__name__ = kind.__name__  # argparse names the type on a parse failure
        return parse

    parser = argparse.ArgumentParser(prog="treeshift",
                                     description="weighted shifts on directed trees")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # a subcommand given help=None would still get a line of its own in -h
        p = sub.add_parser(name, **({"help": command.help} if command.help else {}))
        for flag in command.flags:
            if flag.switch:
                p.add_argument(flag.option, dest=flag.dest, action="store_true",
                               help=flag.help)
            else:
                p.add_argument(flag.option, dest=flag.dest,
                               type=flag.check and checked(*flag.check), default=flag.default,
                               required=flag.required, help=flag.help)
        p.set_defaults(func=command.func)
    return parser


@functools.cache
def _parser():
    """The parser of ``main`` for help and for the argv ``_read_argv``
    declines, built on first use and kept for the process.  The ``func``
    defaults are the ``cmd_*`` functions, which look up every layer function
    in this module's globals at call time."""
    return build_parser()


def _read_argv(argv: list):
    """The namespace ``_parser().parse_args(argv)`` returns, read against
    ``COMMANDS`` in one pass, for an argv of a command followed by ``--flag
    value`` (a value not starting with "-"), ``--flag=value`` (a value other
    than "--") and bare switches, with every required flag given.  None for
    any other argv (help, an abbreviation, ``--``, a stray token, a bad or
    missing value), which argparse then parses or rejects as it always has."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = command.options
    values = dict(command.defaults)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        flag = options.get(option)
        if flag is None:
            return None
        if flag.switch:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "-")  # a flag at the end has no value: decline
                if value.startswith("-"):
                    return None
            elif value == "--":  # argparse drops a "--" value, leaving an empty list
                return None
            if flag.check is not None:
                value = flag.parse(value)
                if value is None:
                    return None
        values[flag.dest] = value
        seen.add(flag.dest)
    if not command.required <= seen:
        return None
    return types.SimpleNamespace(command=argv[0], func=command.func, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or _parser().parse_args(argv)
    if args.command == "cyclic" and not args.backward and not (args.tree and args.weights):
        _parser().error("cyclic needs either --backward or both --tree and --weights")
    if args.command == "cyclic" and args.backward is not None and (
            args.tree is not None or args.weights is not None):
        _parser().error("cyclic takes --backward or --tree and --weights, not both")
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
