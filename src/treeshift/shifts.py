"""The weighted shift operator: sparse application, closed-form powers, norm,
and the columns of the window truncation that back the oracle comparisons."""

from __future__ import annotations

import math

from .errors import VertexNotFound, WeightError, WindowTooLarge
from .records import Record
from .sparse import SparseVector
from .trees import TreeWindow
from .weights import WeightAssignment

DENSE_CAP = 4096
CONTRACTION_SLACK = 1e-12


class NormBound(Record):
    """Operator norm report: `value` is the certified sup when `certified`,
    otherwise the largest scanned column, a lower estimate; `window_value`
    is the largest column of the window scan alone."""

    __slots__ = _fields = ("value", "window_value", "certified")


class ShiftOperator:
    """Weighted shift S on a directed tree: e_u -> sum over children v of lambda_v e_v.

    The model and the weights are fixed once the operator is built.  The
    operator memoizes, per vertex, the weight lambda_v and the tree queries
    ``children(u)`` and ``parent(u)``, ``operator_norm`` per window,
    ``head_levels`` once, and ``ancestor_chain`` per vertex and depth
    (squaring the memoized weights, whatever the weight law), so an analysis
    evaluates each vertex once, reads the head once, and a vertex whose
    parent's chain is known does not walk its own.  The first
    query of a vertex goes through the model and the weight assignment, so
    their checks run and raise at the same vertex as without the memo, and a
    query that raises is not memoized; later queries return the same float,
    tuple or parent (a root's None too), so every product and sum built from
    them is unchanged.  The memos live as long as the operator:
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
        self._parents: dict[str, str | None] = {}
        self._norms: dict[TreeWindow, NormBound] = {}
        self._head_levels: dict[str, int] | None = None
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

    def parent(self, u: str):
        p = self._parents.get(u, u)  # no vertex is its own parent: u itself marks a miss
        if p is u:
            p = self._parents[u] = self.model.parent(u)
        return p

    def head_levels(self) -> dict:
        """{v: level of v} for each key v of the weights' ``head`` that is a
        non-root vertex of the model, in key order, read on first use and then
        kept.  A root key or a key that is not a vertex carries no weight."""
        levels = self._head_levels
        if levels is None:
            levels = self._head_levels = {}
            model = self.model
            for v in self.weights.head:
                if v != model.root:
                    try:
                        levels[v] = model.level(v)
                    except VertexNotFound:
                        pass
        return levels

    def ancestor_chain(self, v: str, depth: int) -> tuple:
        """(squares of lambda at v and at up to ``depth`` - 1 ancestors, the
        vertices walked: v first, last the stop, None when the walk would
        have to pass the root, whose weight it never asks for).  When
        the parent's chain is memoized, v's is its own square and itself
        prepended to it, cut to length: the same floats, without a walk."""
        table = self._chains.setdefault(depth, {})
        chain = table.get(v)
        if chain is None:
            above = table.get(self.parent(v))
            if above is not None:
                chain = (((self.weight(v) ** 2,) + above[0])[:depth],
                         ((v,) + above[1])[:depth + 1])
            else:
                squares, ancestors, w = [], [v], v
                for _ in range(depth):
                    parent = self.parent(w)
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
        children, weight = self.children, self.weight
        for u, c in x.coeffs.items():
            for v in children(u):  # v has one parent, so no other u reaches it
                term = c * weight(v)
                if term != 0.0:
                    out[v] = term
        return SparseVector.wrap(out)

    def apply_adjoint(self, x: SparseVector) -> SparseVector:
        out = {}
        for u, c in x.coeffs.items():
            p = self.parent(u)
            if p is not None:
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
            p = self.parent(w)
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
        points when they are finite, and then the parent of every vertex the
        weights' ``head`` names.  Every column left unscanned then has at
        most f = ``eventual_fan()`` children, each weighted by the ``tail``, so
        the rest is bounded by the tail's ``max_weight`` * sqrt(f), and the
        result is certified whenever both exist.
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
            scan[self.parent(u)] = None
        points = self.model.branch_points()
        for v, _, _ in points or ():
            scan[v] = None
        window_value = max(self._column_norm(u) for u in scan)
        keyed = dict.fromkeys(self.parent(v) for v in self.head_levels())
        value = max([window_value] + [self._column_norm(u) for u in keyed if u not in scan])
        top = self.tail_bound()
        fan = self.model.eventual_fan()
        if top is None or fan is None:
            return NormBound(value, window_value, False)
        return NormBound(max(value, top * math.sqrt(fan)), window_value, True)

    def tail_bound(self):
        """The tail's ``max_weight``, or None when there is no tail."""
        tail = self.weights.tail
        return None if tail is None else tail.max_weight()

    def is_certified_isometry(self) -> bool:
        """Family-level isometry certificate, the weights' ``isometry_on``: every
        children square-sum is exactly 1 on the doubles, or by a family law."""
        return self.weights.isometry_on(self.model)

    def is_certified_vanishing(self) -> bool:
        """True when f * M^2 < 1, decided exactly on the doubles, proves every
        forward limit 0 (and every adjoint one, rootless): on an infinite tree
        past the branch points and the finite head each step scales the partial
        sums by at most f = ``eventual_fan()`` squares of at most M, the tail's
        ``max_weight``, and a generation n levels up holds O(f^n) chains of
        product at most M^(2n) times the head's finitely many factors.
        """
        top = self.tail_bound()
        fan = self.model.eventual_fan()
        if (self.model.vertices() is not None or top is None or not math.isfinite(top)
                or fan is None):
            return False
        num, den = top.as_integer_ratio()
        return fan * num * num < den * den

    def window_columns(self, window: TreeWindow):
        """``(u, column)`` for each window vertex u in window order: column u of
        P_W S P_W, ``{v: lambda_v}`` over u's in-window children v.  A vertex
        has at most one parent, so row v is the one entry of its parent's column."""
        for u in window.order:
            column = {}
            for v in self.children(u):
                if v in window.index:
                    column[v] = self.weight(v)
            yield u, column

    def window_cokernel(self, window: TreeWindow) -> int:
        """Exact dim ker (P_W S P_W)^*: len(window) minus the rank of the window
        truncation, counted without building it: the columns have disjoint
        supports, so the rank is the number of columns with a nonzero entry.
        No elimination and no tolerance: a tiny positive weight still counts."""
        return len(window) - sum(any(column.values()) for _, column in self.window_columns(window))

    def dense_truncation(self, window: TreeWindow, cap: int = DENSE_CAP) -> np.ndarray:
        """Matrix of the compression P_W S P_W in the level-major basis order."""
        import numpy as np
        if len(window) > cap:
            raise WindowTooLarge(len(window), cap)
        mat = np.zeros((len(window), len(window)))
        for u, column in self.window_columns(window):
            for v, w in column.items():
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
            raise VertexNotFound(u)
    return out
