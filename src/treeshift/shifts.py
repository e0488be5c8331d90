"""The weighted shift operator: sparse application, closed-form powers, norm,
and the entries of the window truncation that back the oracle comparisons."""

from __future__ import annotations

import math

from .errors import UnknownVertex, VertexNotFound, WeightError, WindowTooLarge
from .records import Record
from .sparse import SparseVector
from .trees import TreeWindow
from .weights import WeightAssignment

DENSE_CAP = 4096
CONTRACTION_SLACK = 1e-12


class NormBound(Record):
    """Operator norm report: `value` is the certified sup when `certified`,
    otherwise just the window-restricted lower estimate."""

    __slots__ = _fields = ("value", "window_value", "certified")


class ShiftOperator:
    """Weighted shift S on a directed tree: e_u -> sum over children v of lambda_v e_v.

    The model and the weights are fixed once the operator is built.  The
    operator memoizes, per vertex, the weight lambda_v and the tree query
    ``children(u)``, ``operator_norm`` per window, and ``ancestor_chain``
    per vertex and depth, so an analysis that walks overlapping cones and
    ancestor chains evaluates each vertex once, and a vertex whose parent's
    chain is known does not walk its own.  Parents are read from the model,
    with no memo, and an analysis may ask for one parent many times: an
    ``adjoint-asymptote`` run on a 109-vertex tilde window asks 293 times,
    up to 17 times for one vertex.  An ancestor chain squares the memoized weight of each vertex it
    passes, whatever the weight law.  The first query of a vertex still goes
    through the model and the weight assignment, so the model's own
    membership check of the id and the weight checks run (and raise at the
    same vertex) as without the memo;
    later queries return the same float or tuple, so every product and sum
    built from them is unchanged.  The memos live as long as the operator:
    the CLI builds one per call.  Weights that read family vertex ids
    reject, here, a tree whose ids they cannot read.
    """

    def __init__(self, model, weights: WeightAssignment):
        families = weights.tree_families
        if families is not None and model.family not in families:
            raise WeightError(f"{weights.name} weights need a {' or '.join(families)} "
                              f"tree, got {model.describe()}")
        self.model = model
        self.weights = weights
        self._weights: dict[str, float] = {}
        self._children: dict[str, tuple] = {}
        self._norms: dict[TreeWindow, NormBound] = {}
        # depth -> vertex -> (squared weights, ancestors) of ``ancestor_chain``
        self._chains: dict[int, dict[str, tuple]] = {}

    def weight(self, v: str) -> float:
        w = self._weights.get(v)
        if w is None:
            w = self._weights[v] = self.weights.weight(self.model, v)
        return w

    def children(self, u: str) -> tuple:
        kids = self._children.get(u)
        if kids is None:
            kids = self._children[u] = self.model.children(u)
        return kids

    def ancestor_chain(self, v: str, depth: int) -> tuple:
        """(squares of lambda at v and at up to ``depth`` - 1 ancestors, the
        vertices walked: v first, last the stop, None when the walk would
        have to pass the root, whose weight it never asks for).  When
        the parent's chain is memoized, v's is its own square and itself
        prepended to it, cut to length: the same floats, without a walk."""
        table = self._chains.setdefault(depth, {})
        chain = table.get(v)
        if chain is None:
            above = table.get(self.model.parent(v))
            if above is not None:
                chain = (((self.weight(v) ** 2,) + above[0])[:depth],
                         ((v,) + above[1])[:depth + 1])
            else:
                squares, ancestors, w = [], [v], v
                for _ in range(depth):
                    parent = self.model.parent(w)
                    if parent is None:  # w is the root, which carries no weight
                        ancestors.append(None)
                        break
                    squares.append(self.weight(w) ** 2)
                    ancestors.append(w := parent)
                chain = (tuple(squares), tuple(ancestors))
            table[v] = chain
        return chain

    def apply(self, x: SparseVector) -> SparseVector:
        out = {}
        for u, c in x.coeffs.items():
            try:
                kids = self.children(u)
            except VertexNotFound:
                raise UnknownVertex(u) from None
            for v in kids:  # v has one parent, so no other u reaches it
                term = c * self.weight(v)
                if term != 0.0:
                    out[v] = term
        return SparseVector.wrap(out)

    def apply_adjoint(self, x: SparseVector) -> SparseVector:
        out = {}
        for u, c in x.coeffs.items():
            try:
                p = self.model.parent(u)
            except VertexNotFound:
                raise UnknownVertex(u) from None
            if p is None:
                continue
            out[p] = out.get(p, 0.0) + c * self.weight(u)
        if 0.0 in out.values():  # a zero weight, or siblings' terms that cancel
            out = {k: c for k, c in out.items() if c != 0.0}
        return SparseVector.wrap(out)

    def power_closed(self, u: str, n: int) -> SparseVector:
        """S^n e_u from the closed form: sum over v in Chi^n(u) of the
        product of the weights along the path from u down to v."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self.model.require_vertex(u)
        frontier = {u: 1.0}
        for _ in range(n):
            nxt: dict[str, float] = {}
            for w, prod in frontier.items():
                for v in self.children(w):
                    nxt[v] = prod * self.weight(v)
            frontier = nxt
            if not frontier:
                break
        return SparseVector(frontier)

    def adjoint_power_closed(self, u: str, n: int) -> SparseVector:
        """S*^n e_u: a single weighted ancestor term, or 0 when the n-fold
        parent does not exist."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self.model.require_vertex(u)
        prod = 1.0
        w = u
        for _ in range(n):
            p = self.model.parent(w)
            if p is None:
                return SparseVector()
            prod *= self.weight(w)
            w = p
        return SparseVector({w: prod})

    def _column_norm(self, u: str) -> float:
        return math.sqrt(sum(self.weight(v) ** 2 for v in self.children(u)))

    def operator_norm(self, window: TreeWindow) -> NormBound:
        """sup over u of sqrt(sum of squared children weights).

        Explicit models are scanned exhaustively.  For procedural models the
        scan covers the window, its outside parents and the tree's branch
        points when they are finite.  Every vertex left unscanned then has at
        most ``children_per_vertex`` children (1 when that is unset and the
        branch points are finite), so the rest is bounded by max_weight *
        sqrt(that count), and the result is certified whenever both exist.
        The bound is computed once per window and then returned from the
        cache.
        """
        bound = self._norms.get(window)
        if bound is None:
            bound = self._norms[window] = self._operator_norm(window)
        return bound

    def _operator_norm(self, window: TreeWindow) -> NormBound:
        vertices = self.model.vertices()
        if vertices is not None:
            value = max(self._column_norm(u) for u in vertices)
            return NormBound(value, value, True)
        if self.is_certified_isometry():
            return NormBound(1.0, 1.0, True)
        # In window order, then the outside parents, then the branch points:
        # the vertex a WeightError names does not depend on the string hash seed.
        scan = dict.fromkeys(window.order)
        for u in window.top_boundary():
            scan[self.model.parent(u)] = None
        points = self.model.branch_points()
        for v, _, _ in points or ():
            scan[v] = None
        window_value = max(self._column_norm(u) for u in scan)
        top = self.weights.max_weight()
        fan = self.model.eventual_fan()
        if top is None or fan is None:
            return NormBound(window_value, window_value, False)
        outside = top * math.sqrt(fan)
        return NormBound(max(window_value, outside), window_value, True)

    def is_certified_isometry(self) -> bool:
        """Family-level isometry certificate (children square-sums all 1),
        never given where ``is_certified_vanishing`` proves the limits 0."""
        return self.weights.isometry_on(self.model) and not self.is_certified_vanishing()

    def is_certified_vanishing(self) -> bool:
        """True when f * M^2 < 1, decided exactly on the doubles, proves every
        forward limit 0 (and every adjoint one, rootless): on an infinite tree
        past the branch points each step scales the partial sums by at most f
        = ``eventual_fan()`` squares of at most M = ``max_weight``, and a
        generation n levels up holds O(f^n) chains of product at most M^(2n).
        """
        top = self.weights.max_weight()
        fan = self.model.eventual_fan()
        if (self.model.vertices() is not None or not self.weights.weighs_every_vertex
                or top is None or not math.isfinite(top) or fan is None):
            return False
        num, den = top.as_integer_ratio()
        return fan * num * num < den * den

    def is_level_homogeneous(self) -> bool:
        """True when all vertices of a level share one weighted cone and one
        ancestor chain: every vertex has the same children count and every
        weight is a function of its vertex's level."""
        return self.model.children_per_vertex is not None and self.weights.level_only

    def window_entries(self, window: TreeWindow):
        """The entries of the window truncation P_W S P_W: ``(v, u, lambda_v)``
        for each in-window child v of each window vertex u, column by column
        in window order.  Each vertex has at most one parent, so there are at
        most len(window) - 1 of them."""
        for u in window.order:
            for v in self.children(u):
                if v in window:
                    yield v, u, self.weight(v)

    def window_cokernel(self, window: TreeWindow) -> int:
        """Exact dim ker (P_W S P_W)^*: len(window) minus the rank of the
        window truncation, counted without building it.

        The columns S e_u restricted to the window have disjoint supports, so
        the rank is the number of columns with a nonzero entry.  No
        elimination and no tolerance: a tiny positive weight still counts.
        """
        return len(window) - len({u for _, u, w in self.window_entries(window) if w != 0.0})

    def dense_truncation(self, window: TreeWindow, cap: int = DENSE_CAP) -> np.ndarray:
        """Matrix of the compression P_W S P_W in the level-major basis order."""
        import numpy as np
        if len(window) > cap:
            raise WindowTooLarge(len(window), cap)
        mat = np.zeros((len(window), len(window)))
        for v, u, w in self.window_entries(window):
            mat[window.index_of(v), window.index_of(u)] = w
        return mat


def vector_to_dense(window: TreeWindow, x: SparseVector, strict: bool = True) -> np.ndarray:
    """Coordinates of a sparse vector in the window basis.

    With strict=True any support outside the window is an error; otherwise it
    is silently compressed away (the P_W projection).
    """
    import numpy as np
    out = np.zeros(len(window))
    for u, c in x.items():
        if u in window:
            out[window.index_of(u)] = c
        elif strict:
            raise UnknownVertex(u)
    return out
