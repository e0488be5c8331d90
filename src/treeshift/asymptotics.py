"""Asymptotic limits of a contractive weighted shift and of its adjoint.

Forward side: each basis vector e_u is an eigenvector of the limit of
S*^n S^n, with eigenvalue the limit of the monotone nonincreasing partial
sums s_n(u) = sum over Chi^n(u) of the squared weight products down from u.
Monotonicity means every partial sum bounds the limit from above in real
arithmetic; the sums are not rounded outward, so a double can sit below that
bound by rounding.  Lower bounds do not exist in general, so convergence is
reported as a status, not silently assumed:

* ``exact-zero``  -- the descendant frontier died out (finite trees, leaves),
                     or, on an infinite tree, the family bound proves it:
                     past the last branch point each step scales s_n by at
                     most f * M^2 < 1 (``ShiftOperator.is_certified_vanishing``),
                     and depth 0 says that no descent step was taken
* ``exact-one``   -- certified isometry, all limits are exactly 1: every
                     children square-sum is exactly 1 on the doubles, or
                     by the ``binary-spine`` family law
* ``converged``   -- three consecutive partial-sum decrements below tol
* ``max-depth``   -- depth or frontier budget exhausted; the estimate is
                     still an upper bound, and ``depth`` is the n reached

Window read-off: ``alpha_profile`` fills the window deepest level first and
reads a vertex whose children all lie in the window off their records, by
the fixed point S*AS = A, alpha(u)^2 = sum over Chi(u) of lambda_v^2 alpha(v)^2:
the estimate and the upper bound are that sum, the status is the weakest
child's (max-depth < converged < exact-zero), and the depth is 1 + the
deepest child's, the number of levels below u that the record rests on.  A
vertex with a child outside the window, or whose deepest child already used
the whole depth budget, descends; so does every direct ``AlphaEvaluator``
call.

Adjoint side: the limit of S^n S*^n has one eigenvector per level, the
vector h_u supported on the generation of u with infinite-product
coefficients; its squared norm a_u is estimated from truncated products over
the materialized generation.  The estimate is ``converged`` only when the
generation is complete, the last three decrements of its column sums are
below tol, and the sweep has climbed past every level the weights' head
names: a flat run of unit weights above a head weight is not convergence.
Otherwise it is ``max-depth``.  On a rootless tree under the family bound
every a_u is ``exact-zero`` at depth 0 and every h the zero vector, with no
sweep.

Level lumping: on a chain (the tree's ``children_per_vertex`` is 1: the
paths) whose weights depend only on their level (the weights'
``level_only``: constant, geometric, step or exp-ray), the forward descent
runs on the weights' level law, s_n = s_(n-1) * ``level_weight(l + n)`` ** 2,
and never asks for the weight of a vertex outside the window.  That is the
product a walk of the one-vertex frontier forms, so the records are the same
floats.  Every other descent walks its cone vertex by vertex.  On either path
``alpha_profile`` descends only from the window's boundary and reads the rest
off.  The norm and the ancestor chains lump too (``ShiftOperator``).  The
adjoint side walks the generation's vertex ids, sums the members' chains of
lambda^2 products column by column over the last columns, the ones it reads,
and gives each member the square root of its chain's last product as its h
coefficient.

Every walk asks the operator, not the model, for weights, children and
parents, so overlapping cones and ancestor chains evaluate each vertex once
per analysis (``ShiftOperator``'s memos; no walk asks ``in`` first).  The
loops square, multiply and sum in the same order on the memoized floats, so
every estimate is bit-identical to an un-memoized walk.
"""

from __future__ import annotations

import itertools
import math
from json.encoder import encode_basestring_ascii as _ascii
from operator import mul

from .errors import NotAContraction, StructuralViolation
from .records import Record, json_value
from .sparse import SparseVector
from .shifts import CONTRACTION_SLACK, ShiftOperator
from .trees import TreeWindow

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 64
DEFAULT_ZERO_THRESHOLD = 1e-9
DEFAULT_ONE_THRESHOLD = 1e-6
FRONTIER_CAP = 4096
ADJOINT_GEN_CAP = 512  # most members an adjoint generation sweep keeps
CONSECUTIVE_SMALL = 3

CONVERGED = "converged"
MAX_DEPTH = "max-depth"
EXACT_ZERO = "exact-zero"
EXACT_ONE = "exact-one"

_SETTLED = (CONVERGED, EXACT_ZERO, EXACT_ONE)
_ONE = (1.0, 1.0, EXACT_ONE, 0)  # every record of a certified isometry
_ZERO = (0.0, 0.0, EXACT_ZERO, 0)  # every record where the family bound proves 0


class VertexEstimate(Record):
    __slots__ = _fields = ("vertex", "estimate", "upper", "status", "depth")

    def settled(self) -> bool:
        return self.status in _SETTLED

    def json_line(self, kind: str) -> str:
        """``json.dumps({"record": kind, **self.to_json()}, sort_keys=True)``,
        written field by field in sorted-key order: one line per window
        vertex is the bulk of ``analyze --json``.  A value of type exactly int,
        finite float or str is written inline, any other by ``json_value``."""
        d, e, u, s, v = self.depth, self.estimate, self.upper, self.status, self.vertex
        return (f'{{"depth": {repr(d) if type(d) is int else json_value(d)}, "estimate": '
                f'{repr(e) if type(e) is float and e - e == 0.0 else json_value(e)}, "record": '
                f'{_ascii(kind) if type(kind) is str else json_value(kind)}, "status": '
                f'{_ascii(s) if type(s) is str else json_value(s)}, "upper": '
                f'{repr(u) if type(u) is float and u - u == 0.0 else json_value(u)}, "vertex": '
                f'{_ascii(v) if type(v) is str else json_value(v)}}}')


class AlphaEvaluator:
    """Cached per-vertex evaluation of the forward limit eigenvalues: the
    family's record on a certified isometry or vanishing, else a descent,
    on the level law for a lumped chain."""

    def __init__(self, operator: ShiftOperator, tol: float = DEFAULT_TOL,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        self.operator = operator
        self.tol = tol
        self.max_depth = max_depth
        # Every record when the family proves the limits (all 1 or all 0), else None.
        self.closed = (_ONE if operator.is_certified_isometry()
                       else _ZERO if operator.is_certified_vanishing() else None)
        self.lumped = operator.model.children_per_vertex == 1 and operator.weights.level_only
        self._cache: dict[str, VertexEstimate] = {}
        # The deepest level a descent passes before flat partial sums count:
        # the law's own, or one past the head when every tail weight is 1.
        self._floor = None
        if self.closed is None:
            weights = operator.weights
            self._floor = weights.convergence_floor_level()
            tail = weights.tail
            if self._floor is None and tail is not None and tail.tail_log_sum(-math.inf) == 0.0:
                levels = operator.head_levels().values()
                self._floor = max(levels) + 1 if levels else None

    def __call__(self, u: str) -> VertexEstimate:
        hit = self._cache.get(u)
        if hit is None:
            hit = self._compute(u)
            self._cache[u] = hit
        return hit

    def _compute(self, u: str) -> VertexEstimate:
        if self.closed is not None:
            return VertexEstimate(u, *self.closed)
        return VertexEstimate(u, *self._descend(u))

    def _descend(self, u: str) -> tuple:
        """(estimate, upper, status, depth) from the partial sums s_n(u).

        On a lumped chain the one vertex n levels below u, at level l, has
        weight ``level_weight(l)``, so s_n = s_(n-1) * ``level_weight(l) ** 2``,
        the product a walk of the frontier forms."""
        op = self.operator
        children, weight, level_weight = op.children, op.weight, op.weights.level_weight
        lvl = op.model.level(u) if self.lumped else None
        # Flat unit-weight prefixes keep the partial sums exactly constant, so
        # convergence may not be declared before the frontier has passed them.
        min_depth = CONSECUTIVE_SMALL + 5
        if self._floor is not None:
            top = op.model.level(u) if lvl is None else lvl
            min_depth = max(min_depth, self._floor - top + CONSECUTIVE_SMALL + 2)
        frontier = {u: 1.0}
        s_prev = 1.0
        consecutive = 0
        n = 0
        for n in range(1, self.max_depth + 1):
            if lvl is not None:
                lvl += 1
                s = s_prev * level_weight(lvl) ** 2
            else:
                nxt = {}
                for w, prod in frontier.items():
                    for v in children(w):
                        nxt[v] = prod * weight(v) ** 2
                if not nxt:
                    return 0.0, 0.0, EXACT_ZERO, n
                s = sum(nxt.values())
                frontier = nxt
            if s > s_prev + CONTRACTION_SLACK:  # partial sums must be nonincreasing
                raise NotAContraction(f"the partial sums of S*^n S^n rose from {s_prev} to {s} "
                                      f"at depth {n} below vertex {u!r}")
            if abs(s - s_prev) < self.tol:
                consecutive += 1
                if consecutive >= CONSECUTIVE_SMALL and n >= min_depth:
                    return s, s, CONVERGED, n
            else:
                consecutive = 0
            s_prev = s
            if len(frontier) > FRONTIER_CAP:
                break
        return s_prev, s_prev, MAX_DEPTH, n


class AsymptoticProfile(Record):
    """Per-window-vertex estimates of the forward (alpha) or adjoint (a)
    limits; a forward profile carries the evaluator that made it."""

    __slots__ = _fields = ("records", "window", "evaluator")
    _defaults = {"evaluator": None}

    def record(self, u: str) -> VertexEstimate:
        return self.records[u]

    def estimate(self, u: str) -> float:
        return self.records[u].estimate

    def all_settled(self) -> bool:
        return all(r.settled() for r in self.records.values())


def require_contraction(operator: ShiftOperator, window: TreeWindow):
    norm = operator.operator_norm(window).value
    if norm > 1.0 + CONTRACTION_SLACK:
        raise NotAContraction(f"operator norm {norm} exceeds 1")


def alpha_profile(operator: ShiftOperator, window: TreeWindow, tol: float = DEFAULT_TOL,
                  max_depth: int = DEFAULT_MAX_DEPTH) -> AsymptoticProfile:
    """Forward limit eigenvalue for every window vertex, filled deepest level
    first: read off the children's records as the module's "Window read-off"
    says, where they allow it, else by a descent."""
    require_contraction(operator, window)
    evaluator = AlphaEvaluator(operator, tol, max_depth)
    if evaluator.closed is None:
        cache, children, weight = evaluator._cache, operator.children, operator.weight
        for level in reversed(window.by_level.values()):
            for u in level:
                kids = children(u)
                depth, weakest = 0, EXACT_ZERO
                for v in kids:
                    rec = cache.get(v)
                    if rec is None:
                        break
                    depth = max(depth, rec.depth)
                    if rec.status != EXACT_ZERO and weakest != MAX_DEPTH:
                        weakest = rec.status
                else:
                    if depth < max_depth:
                        if weakest == EXACT_ZERO:
                            cache[u] = VertexEstimate(u, 0.0, 0.0, EXACT_ZERO, depth + 1)
                        else:
                            total = sum(weight(v) ** 2 * cache[v].estimate for v in kids)
                            cache[u] = VertexEstimate(u, total, total, weakest, depth + 1)
                        continue
                evaluator(u)
    return AsymptoticProfile({u: evaluator(u) for u in window.order}, window, evaluator)


class StableSubtree(Record):
    """Window view of the subtree carrying the non-stable part of the space."""

    # branching: (value, exact)
    __slots__ = _fields = ("members", "window", "zero_threshold", "branching")

    def members_at(self, lvl):
        return [u for u in self.window.vertices_at(lvl) if u in self.members]


def _stable_branching(profile: AsymptoticProfile, members: set):
    model = profile.window.model
    children = profile.evaluator.operator.children
    count = 0
    for u in members:
        kids = [v for v in children(u) if v in members]
        if len(kids) > 1:
            count += len(kids) - 1
    if model.vertices() is not None:
        return (count, True)
    if profile.evaluator.closed == _ZERO:
        return (0, True)  # every limit vanishes, so T' is empty everywhere
    symbolic = model.branching_total()
    if members == set(profile.window.order):
        if profile.all_settled() or symbolic == 0:
            return (symbolic, True)
    return (count, model.branching_in(profile.window))


def stable_subtree(profile: AsymptoticProfile,
                   zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> StableSubtree:
    """Vertices with forward limit above the threshold, with the structural
    laws (parent-closed, leafless, root-preserving) asserted on the window.
    ``profile`` is a forward profile from ``alpha_profile``: its operator's
    memos answer every children and parent query."""
    window = profile.window
    model = window.model
    operator = profile.evaluator.operator
    children = operator.children
    # Checked in window order, so the vertex a violation names does not
    # depend on the string hash seed.
    kept = [u for u in window.order if profile.estimate(u) > zero_threshold]
    members = set(kept)
    for u in kept:
        p = operator.parent(u)
        if p is not None and p in window and p not in members:
            raise StructuralViolation("parent-closed", u)
    interior = set(window.forward_interior())
    for u in kept:
        if u in interior and not any(v in members for v in children(u)):
            raise StructuralViolation("leafless", u)
    if model.is_rooted and members and model.root in window and model.root not in members:
        raise StructuralViolation("root-preserving", model.root)

    return StableSubtree(members, window, zero_threshold, _stable_branching(profile, members))


class HVector(Record):
    """Adjoint-limit eigenvector of one level: truncated-product coefficients
    over the materialized generation, and its squared norm a_level.  The
    level is its key in ``AdjointAsymptotics.h_vectors``; the level's status
    and depth are those of its ``a`` record."""

    __slots__ = _fields = ("coefficients", "norm_sq")


def ancestor_products(operator: ShiftOperator, v: str, depth: int) -> tuple:
    """Running products of squared weights up the ancestor chain of v, at
    most ``depth`` of them, formed left to right as a walk would, and the
    ancestor the walk stopped at (None when it passed the root)."""
    squares, ancestors = operator.ancestor_chain(v, depth)
    return list(itertools.accumulate(squares, mul)), ancestors[-1]


def _generation(operator: ShiftOperator, u: str, depth: int) -> tuple:
    """(members, gen_exact) of the generation of u that the adjoint sweep
    materializes on a rootless model, where every anchor has a parent.

    Step d climbs to the d-th ancestor and adds the vertices d levels below
    it that are not below the previous anchor (each has one parent, so none
    repeats); a sibling cone that is empty stops growing.  The sweep stops
    before the members would pass ``ADJOINT_GEN_CAP`` and once the
    generation is complete.
    """
    model = operator.model
    members = [u]
    anchor, lvl = u, model.level(u)
    gen_exact = model.generation_complete(lvl)
    for d in range(1, depth + 1):
        parent = operator.parent(anchor)
        new = [v for v in operator.children(parent) if v != anchor]
        for _ in range(d - 1):
            if not new:
                break
            new = [v for w in new for v in operator.children(w)]
            if len(members) + len(new) > ADJOINT_GEN_CAP:
                break
        if len(members) + len(new) > ADJOINT_GEN_CAP:
            break
        members.extend(new)
        anchor, lvl = parent, lvl - 1
        if model.generation_complete(lvl):
            gen_exact = True
            break
    return members, gen_exact


def _adjoint_level(operator: ShiftOperator, u: str, depth: int, tol: float,
                   head_top: int | None = None):
    """(estimate record, HVector) for the level of u on a rootless model;
    ``head_top`` is the shallowest level the weights' head names, None for a
    head that names no vertex."""
    members, gen_exact = _generation(operator, u, depth)

    # A rootless chain never stops at a root, so each holds ``depth`` products;
    # the partial sums over the members certify convergence of the product tails.
    chains = {v: ancestor_products(operator, v, depth)[0] for v in members}
    # Only the column sums of the last CONSECUTIVE_SMALL + 1 columns are read,
    # and the columns end with the shortest chain.
    n = min(map(len, chains.values()))
    lo = max(n - CONSECUTIVE_SMALL - 1, 0)
    sums = [sum(col) for col in zip(*(chain[lo:n] for chain in chains.values()))]
    coefficients = {v: math.sqrt(chains[v][-1]) for v in members}
    # The chain of u holds the weights of levels down to level(u) - depth + 1.
    tail_ok = (n > CONSECUTIVE_SMALL
               and all(abs(sums[d] - sums[d - 1]) < tol for d in range(1, len(sums)))
               and (head_top is None or operator.model.level(u) - depth < head_top))
    estimate = sums[-1] if sums else 0.0
    status = CONVERGED if (gen_exact and tail_ok) else MAX_DEPTH
    h = HVector(SparseVector(coefficients), estimate)
    return VertexEstimate(u, estimate, estimate if gen_exact else 1.0, status, depth), h


class AdjointAsymptotics(Record):
    # h_vectors: level -> HVector
    __slots__ = _fields = ("profile", "h_vectors")


def adjoint_profile(operator: ShiftOperator, window: TreeWindow,
                    depth: int = DEFAULT_MAX_DEPTH, tol: float = DEFAULT_TOL
                    ) -> AdjointAsymptotics:
    """Adjoint limit eigenvalues a_u per level, plus the h eigenvectors.

    Rooted trees are certified stable with no numerics, and so are rootless
    ones under ``ShiftOperator.is_certified_vanishing``, where every h is the
    zero vector.  Other rootless trees get one computation per window level
    (the vectors and values are constant along a level by construction).
    """
    require_contraction(operator, window)
    rooted = window.model.is_rooted
    if rooted or operator.is_certified_vanishing():
        records = {u: VertexEstimate(u, *_ZERO) for u in window.order}
        h_by_level = {} if rooted else {
            lvl: HVector(SparseVector(), 0.0) for lvl in window.levels()}
        return AdjointAsymptotics(AsymptoticProfile(records, window), h_by_level)

    head_top = min(operator.head_levels().values(), default=None)
    records = {}
    h_by_level = {}
    for lvl in window.levels():
        rep = window.vertices_at(lvl)[0]
        rec, h = _adjoint_level(operator, rep, depth, tol, head_top)
        h_by_level[lvl] = h
        for u in window.vertices_at(lvl):
            records[u] = VertexEstimate(u, rec.estimate, rec.upper, rec.status, rec.depth)
    return AdjointAsymptotics(AsymptoticProfile(records, window), h_by_level)


class ClassificationC(Record):
    """Forward/adjoint asymptotic class with per-claim provenance."""

    # forward: C0dot | C1dot | mixed | undetermined
    # adjoint: Cdot0 | Cdot1 | mixed | undetermined
    __slots__ = _fields = ("forward", "adjoint", "forward_certified", "adjoint_certified",
                           "notes")
    _defaults = {"notes": []}


def _classify_side(records, zero_threshold):
    values = set()
    certified = True
    for r in records.values():
        if r.status == EXACT_ONE:
            values.add("one")
        elif r.status == EXACT_ZERO:
            values.add("zero")
        elif r.estimate <= zero_threshold:
            # The estimate is an upper bound, so smallness is one-sided safe.
            values.add("zero")
            certified = False
        elif r.estimate >= DEFAULT_ONE_THRESHOLD and r.status == CONVERGED:
            values.add("one")
            certified = False
        else:
            return "undetermined", False
    if values == {"one"}:
        return "one", certified
    if values <= {"zero"}:
        return "zero", certified
    return "mixed", certified


def classify(forward: AsymptoticProfile, adjoint: AdjointAsymptotics,
             zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> ClassificationC:
    notes = []
    fwd_side, fwd_cert = _classify_side(forward.records, zero_threshold)
    fwd = {"one": "C1dot", "zero": "C0dot"}.get(fwd_side, fwd_side)
    notes.append(f"forward: {fwd} ({'certified' if fwd_cert else 'numerical'})")

    if forward.window.model.is_rooted:
        adj, adj_cert = "Cdot0", True
        notes.append("adjoint: Cdot0 (certified: rooted tree)")
    else:
        adj_side, adj_cert = _classify_side(adjoint.profile.records, zero_threshold)
        adj = {"one": "Cdot1", "zero": "Cdot0"}.get(adj_side, adj_side)
        notes.append(f"adjoint: {adj} ({'certified' if adj_cert else 'numerical'})")
    return ClassificationC(fwd, adj, fwd_cert, adj_cert, notes)
