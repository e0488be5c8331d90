"""Directed tree models: finite explicit trees and procedural (lazily generated) families.

A directed tree is a connected directed graph in which every vertex has at
most one parent and there is no directed circuit.  Finite models validate
these conditions exhaustively; procedural families guarantee them by
construction and expose pure ``children``/``parent`` queries so that the
infinite vertex set never has to be materialized.  All numeric work happens
on a :class:`TreeWindow`, a finite, parent-closed slab of consecutive levels.

Vertex ids are strings.  Procedural families use structured tokens, and a
family holds exactly the ids its ``seeds``, ``children`` and ``parent``
produce, so integers are written canonically (``str(int(s)) == s``: no
sign ``+``, no leading zero, no padding, no ``_``):

* path / spine vertices: the level as a decimal integer, e.g. ``"-3"``
* the primed ray of the tilde/comb families: ``"4'"`` for the vertex four
  steps below the branching vertex ``"0"``
* off-spine vertices of the rootless binary tree: ``"m:w"`` where ``m`` is
  the spine level the vertex hangs off and ``w`` is a binary word starting
  with ``"1"`` (the spine child of ``"m"`` is ``"m+1"``, its sibling is
  ``"m:1"``).

A :class:`TreeWindow` is the record of its own breadth-first walk: the walk
visits one level at a time, each in id order, so it already holds the
canonical order, every vertex's level and the vertices whose children it
kept.
"""

from __future__ import annotations

import math
from itertools import chain, filterfalse, repeat

from .errors import (
    CircuitFound,
    DisconnectedGraph,
    EmptyWindow,
    MultipleParents,
    RootMismatch,
    TreeSpecError,
    VertexNotFound,
    WindowTooLarge,
    decoded,
    read_input,
    shown,
)

INFINITE = math.inf
WINDOW_CAP = 2 ** 18  # most vertices a window may hold

FAMILY_TAGS = ("rooted-path", "bilateral-path", "rootless-binary", "tilde", "comb")


def _is_primed(v: str) -> bool:
    return v.endswith("'")


def _primed_index(v: str) -> int:
    return int(v[:-1])


def _primed_id(k: int) -> str:
    return f"{k}'"


def _integer_id(s: str):
    """The integer ``s`` spells canonically, or None (``"03"``, ``"+3"``,
    ``" 3"``, ``"9_9"`` and ``"-0"`` are not canonical)."""
    try:
        n = int(s)
    except ValueError:
        return None
    return n if str(n) == s else None


class _VertexTable(dict):
    """A dict keyed by vertex id: a missing id raises VertexNotFound."""

    def __missing__(self, u):
        raise VertexNotFound(u)


def count_text(n) -> str:
    """A count as printed: ``"inf"`` for INFINITE, else its integer digits."""
    return "inf" if n == INFINITE else str(int(n))


class DirectedTreeModel:
    """Query contract shared by finite and procedural models."""

    kind = "abstract"
    family = None
    # Family hooks answer family-specific questions in closed form; the
    # defaults (None, False) mean "no closed form".  One children count for
    # every vertex (then level-only weights give one cone per level):
    children_per_vertex = None
    has_primed_ray = False  # a Br=1 comb: an integer spine and a primed ray off "0"
    root = None  # the root's id; None on a rootless tree

    def children(self, u: str) -> tuple[str, ...]:
        raise NotImplementedError

    def parent(self, u: str):
        raise NotImplementedError

    def _parse(self, u: str):
        """The parsed id ``u``; VertexNotFound when the tree holds no such
        vertex.  A procedural family states its id grammar here alone."""
        raise NotImplementedError

    def __contains__(self, u: str):
        """Whether the tree holds ``u``: a procedural family answers a 1-tuple
        of the parsed id, which ``in`` reads as True, or False.  Its queries
        take the parse from here (``_vertex``), so each parses its id once and
        makes the one membership check that perfbench counts."""
        try:
            return (self._parse(u),)
        except VertexNotFound:
            return False

    def _vertex(self, u: str):
        """The parsed id of a procedural query's vertex, or VertexNotFound."""
        found = self.__contains__(u)
        if not found:
            raise VertexNotFound(u)
        return found[0]

    @property
    def is_rooted(self) -> bool:
        return self.root is not None

    def level(self, u: str) -> int:
        """Integer level; 0 at the root (rooted) or the family base vertex."""
        raise NotImplementedError

    def seeds(self, lvl: int) -> list:
        """Vertices a window at level ``lvl`` grows from, in id order; empty
        for an absent level (levels are contiguous, so every deeper one is
        absent too)."""
        raise NotImplementedError

    def leaf_set(self):
        """The leaf set of the whole tree."""
        raise NotImplementedError

    def vertices(self):
        """Every vertex, level-major, when the tree is explicit; else None."""
        return None

    def branch_points(self):
        """``(vertex, level, children count)`` of each vertex with two or more
        children, or None when there are infinitely many: the hooks below."""
        return ()

    def branching_total(self):
        """Br(T) = sum over the branch points of (children count - 1)."""
        points = self.branch_points()
        return INFINITE if points is None else sum(c - 1 for _, _, c in points)

    def generation_complete(self, lvl: int) -> bool:
        """True when no branch vertex lies above level ``lvl``."""
        points = self.branch_points()
        return points is not None and all(level >= lvl for _, level, _ in points)

    def branching_in(self, window) -> bool:
        """True when ``window`` shows every branch vertex of the tree."""
        points = self.branch_points()
        return points is not None and all(v in window for v, _, _ in points)

    def eventual_fan(self):
        """A bound on the children count of every vertex past the branch
        points: ``children_per_vertex``, or 1 when the branch points are
        finite; None when neither is known."""
        if self.children_per_vertex is None and self.branch_points() is not None:
            return 1
        return self.children_per_vertex

    @property
    def has_last_level(self) -> bool:
        """A deepest level: all Br + 1 downward ends of a finite-Br tree are leaves."""
        return len(self.leaf_set()) == self.branching_total() + 1

    def require_vertex(self, u: str):
        """Check an id that comes from outside the tree's own queries."""
        if u not in self:
            raise VertexNotFound(u)

    def describe(self) -> str:
        rooted = "rooted" if self.is_rooted else "rootless"
        br_txt = count_text(self.branching_total())
        return f"{self.kind}({self.family or 'finite'}): {rooted}, Br={br_txt}"


class FiniteTree(DirectedTreeModel):
    """Explicit finite directed tree, always rooted (finite trees cannot be rootless).

    ``validate_finite`` builds it from a checked parent map.  The ids are
    sorted once: a pass of them gives the children lists in id order, and,
    after a walk a generation at a time from the parentless vertices has
    found every level, a second pass each level's vertices in id order.  A
    vertex the walk misses hangs below a circuit (CircuitFound); then
    DisconnectedGraph and RootMismatch are raised.  A query is one lookup in
    a ``_VertexTable``, which is also its membership check.
    """

    kind = "finite"

    def __init__(self, vertices, parent_map, declared_root=None):
        ids = sorted(vertices)
        kids: dict[str, list[str]] = {v: [] for v in vertices}
        for v in filter(parent_map.__contains__, ids):
            kids[parent_map[v]].append(v)
        self._children = _VertexTable(zip(kids, map(tuple, kids.values())))
        roots = list(filterfalse(parent_map.__contains__, ids))
        level, by_level, generation = _VertexTable(), [], roots
        while generation:
            level.update(dict.fromkeys(generation, len(by_level)))
            by_level.append([])
            generation = [v for u in generation for v in kids[u]]
        if len(level) < len(vertices):
            u = next(v for v in vertices if v not in level)
            walked: dict[str, None] = {}
            while u not in walked:
                walked[u] = None
                u = parent_map[u]
            cycle = list(walked)
            raise CircuitFound(cycle[cycle.index(u):] + [u])
        if len(roots) != 1:
            raise DisconnectedGraph(f"found {len(roots)} parentless vertices: {roots[:4]}")
        self.root = roots[0]
        if declared_root is not None and declared_root != self.root:
            raise RootMismatch(declared_root, self.root)
        self._parent = _VertexTable(parent_map)
        self._parent[self.root] = None
        for v in ids:
            by_level[level[v]].append(v)
        self._level, self._by_level = level, by_level
        self._order = list(chain.from_iterable(by_level))
        self._branch_points = tuple((u, level[u], len(self._children[u]))
                                    for u in self._order if len(kids[u]) > 1)

    def children(self, u):
        return self._children[u]

    def parent(self, u):
        return self._parent[u]

    def __contains__(self, u):
        return u in self._children

    def level(self, u):
        return self._level[u]

    def seeds(self, lvl):
        return list(self._by_level[lvl]) if 0 <= lvl < len(self._by_level) else []

    def vertices(self):
        return list(self._order)

    def depth(self) -> int:
        return len(self._by_level) - 1

    def branch_points(self):
        return self._branch_points

    def leaf_set(self):
        return {u for u, kids in self._children.items() if not kids}


def validate_finite(vertices, edges, declared_root=None) -> FiniteTree:
    """Check parents here, and circuit-freeness and connectivity in the walk
    that builds the model; return the model.

    Raises TreeSpecError, VertexNotFound, MultipleParents, CircuitFound,
    DisconnectedGraph or RootMismatch.
    """
    verts = dict.fromkeys(vertices)
    if not verts:
        raise TreeSpecError("a finite tree needs at least one vertex")
    parent: dict[str, str] = {}
    for u, v in edges:  # a repeated edge passes the checks it passed before
        if u not in verts or v not in verts:
            raise VertexNotFound(u if u not in verts else v)
        if u == v:
            raise CircuitFound([u, v])
        if parent.setdefault(v, u) != u:
            raise MultipleParents(v)
    return FiniteTree(verts, parent, declared_root)


class BilateralPath(DirectedTreeModel):
    """Z with edges (n, n+1); rootless, leafless; level-0 base is vertex 0."""

    kind = "procedural"
    family = "bilateral-path"
    children_per_vertex = 1
    first = -INFINITE  # the least vertex, as an integer

    def _parse(self, u):
        n = _integer_id(u)
        if n is None or n < self.first:
            raise VertexNotFound(u)
        return n

    def children(self, u):
        return (str(self._vertex(u) + 1),)

    def parent(self, u):
        return str(self._vertex(u) - 1)

    def level(self, u):
        return self._vertex(u)

    def seeds(self, lvl):
        return [str(lvl)] if lvl >= self.first else []

    def leaf_set(self):
        return set()


class RootedPath(BilateralPath):
    """Z+ with root 0 and edges (n, n+1)."""

    family = "rooted-path"
    first = 0
    root = "0"

    def parent(self, u):
        n = self._vertex(u)
        return None if n == 0 else str(n - 1)


class CombTree(DirectedTreeModel):
    """Rootless Br=1 family: an integer spine plus one primed ray off vertex 0.

    ``primed_leaf=k0`` ends the primed ray at the leaf ``k0'``;
    ``unprimed_leaf=j0`` (requires ``j0 >= k0``) ends the spine at the leaf
    ``j0``.  With both None this is the leafless tree with vertex set
    Z u {k': k >= 1} and the extra edge (0, 1').
    """

    kind = "procedural"
    family = "comb"
    has_primed_ray = True

    def __init__(self, primed_leaf=None, unprimed_leaf=None):
        for name, value in (("primed_leaf", primed_leaf), ("unprimed_leaf", unprimed_leaf)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise TreeSpecError(f"comb {name} must be an integer, got {shown(value)}")
        if primed_leaf is not None and primed_leaf < 1:
            raise TreeSpecError("primed_leaf must be >= 1")
        if unprimed_leaf is not None:
            if primed_leaf is None:
                raise TreeSpecError("an unprimed leaf requires a primed leaf "
                                    "(canonical labelling)")
            if unprimed_leaf < primed_leaf:
                raise TreeSpecError("unprimed_leaf must be >= primed_leaf")
        self.primed_leaf = primed_leaf
        self.unprimed_leaf = unprimed_leaf

    def _parse(self, u):
        """(level, primed) of ``u``."""
        if _is_primed(u):
            k = _integer_id(u[:-1])
            if k is not None and k >= 1 and (self.primed_leaf is None or k <= self.primed_leaf):
                return k, True
        else:
            n = _integer_id(u)
            if n is not None and (self.unprimed_leaf is None or n <= self.unprimed_leaf):
                return n, False
        raise VertexNotFound(u)

    def children(self, u):
        k, primed = self._vertex(u)
        if k == (self.primed_leaf if primed else self.unprimed_leaf):
            return ()
        if primed:
            return (_primed_id(k + 1),)
        return ("1", _primed_id(1)) if k == 0 else (str(k + 1),)

    def parent(self, u):
        k, primed = self._vertex(u)
        if primed:
            return "0" if k == 1 else _primed_id(k - 1)
        return str(k - 1)

    def level(self, u):
        return self._vertex(u)[0]

    def seeds(self, lvl):
        if self.unprimed_leaf is not None and lvl > self.unprimed_leaf:
            return []
        return [str(lvl)]

    def branch_points(self):
        return (("0", 0, 2),)  # "0" has the spine's "1" and the primed ray's "1'"

    def leaf_set(self):
        out = set()
        if self.primed_leaf is not None:
            out.add(_primed_id(self.primed_leaf))
        if self.unprimed_leaf is not None:
            out.add(str(self.unprimed_leaf))
        return out


class TildeTree(CombTree):
    """The leafless Br=1 comb: integer spine and an infinite primed ray."""

    family = "tilde"


class RootlessBinary(DirectedTreeModel):
    """Rootless tree with |Chi(u)| = 2 everywhere; spine indexed by Z."""

    kind = "procedural"
    family = "rootless-binary"
    children_per_vertex = 2

    @staticmethod
    def _parse(u):
        """(spine level, binary word) of ``u``; the word is "" on the spine."""
        m, colon, w = u.partition(":")
        n = _integer_id(m)
        if n is None or colon and (w[:1] != "1" or w.strip("01")):
            raise VertexNotFound(u)
        return n, w

    def children(self, u):
        m, w = self._vertex(u)
        if not w:
            return (str(m + 1), f"{u}:1")
        return (u + "0", u + "1")

    def parent(self, u):
        m, w = self._vertex(u)
        if not w:
            return str(m - 1)
        return u[:-2] if len(w) == 1 else u[:-1]

    def level(self, u):
        m, w = self._vertex(u)
        return m + len(w)

    def seeds(self, lvl):
        return [str(lvl)]

    def branch_points(self):
        return None

    def leaf_set(self):
        return set()


def make_family(tag: str, params: dict | None = None) -> DirectedTreeModel:
    """The family ``tag`` built from ``params``; an unknown family or a
    param the family does not take raises TreeSpecError."""
    params = params or {}
    for family in (RootedPath, BilateralPath, RootlessBinary, TildeTree, CombTree):
        if family.family == tag:
            takes = ("primed_leaf", "unprimed_leaf") if family is CombTree else ()
            if not params.keys() <= set(takes):
                raise TreeSpecError(f"tree family {tag!r} takes params {list(takes)}, "
                                    f"got {shown(params)}")
            return family(**params)
    raise TreeSpecError(f"unknown family {shown(tag)}; expected one of {FAMILY_TAGS}")


def tree_from_json(doc) -> DirectedTreeModel:
    """Build a model from its JSON doc or JSON text (finite or procedural).

    The shape of the doc is checked first: an object with a ``family`` and
    optional object ``params``, or with ``vertices`` (a list of string ids)
    and ``edges`` (a list of [parent, child] id pairs).  Any other shape
    raises TreeSpecError, and so does text that is not JSON.
    """
    doc = decoded(doc, TreeSpecError, "a tree spec")
    if "family" in doc:
        params = doc.get("params")
        if params is not None and not isinstance(params, dict):
            raise TreeSpecError(f"tree params must be a JSON object, got {shown(params)}")
        return make_family(doc["family"], params)
    vertices, edges = doc.get("vertices"), doc.get("edges")
    if not isinstance(vertices, list) or not all(map(isinstance, vertices, repeat(str))):
        raise TreeSpecError("a finite tree needs 'vertices', a list of string ids, "
                            f"got {shown(vertices)}")
    # One generator step per edge: C-level passes (list test, lengths, ids through
    # itertools.chain) took 133 us per 1,000 edges against 83 us (CPython 3.11).
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], str) for e in edges):
        raise TreeSpecError("a finite tree needs 'edges', a list of [parent, child] "
                            f"string id pairs, got {shown(edges)}")
    return validate_finite(vertices, edges, doc.get("root"))


def load_tree(path) -> DirectedTreeModel:
    return tree_from_json(read_input(path, TreeSpecError))


class TreeWindow:
    """Finite, parent-closed slab of a tree between two levels.

    The window is the record of the breadth-first walk that built it:
    ``by_level`` maps each level, in increasing order, to its vertices in
    id order, so ``order`` (their concatenation, each vertex's position in it
    under ``index``) is the canonical dense-truncation order, and every
    level is known without asking the model.  ``interior`` lists, in window
    order, the vertices whose children the walk kept.
    """

    def __init__(self, model, level_lo, level_hi, by_level, interior):
        self.model = model
        self.level_lo = level_lo
        self.level_hi = level_hi
        self.by_level: dict[int, list[str]] = by_level
        self.order = list(chain.from_iterable(by_level.values()))
        self.index = _VertexTable(zip(self.order, range(len(self.order))))
        self._interior = interior

    def __contains__(self, u):
        return u in self.index

    def __len__(self):
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def index_of(self, u) -> int:
        return self.index[u]

    def levels(self):
        return list(self.by_level)

    def vertices_at(self, lvl):
        return list(self.by_level.get(lvl, ()))

    def forward_interior(self):
        """Vertices whose full children set is materialized in the window."""
        return list(self._interior)

    def top_boundary(self):
        """Window vertices whose parent exists in the model but not in the
        window: the first level's, as every later vertex is a child the walk
        kept, but for a root, the one vertex of a rooted tree's level 0."""
        lvl, first = next(iter(self.by_level.items()))
        return [] if self.model.is_rooted and lvl == 0 else list(first)


def materialize_window(model, level_lo, level_hi, breadth=64) -> TreeWindow:
    """BFS a window downward from the model's seeds at ``level_lo``.

    Per-level breadth is clamped on the children side only, so the window is
    parent-closed by construction.  Every vertex has one parent, so the
    children of a level are distinct: the next level is the first
    ``breadth`` of their sorted concatenation.  A vertex is interior when
    the next level keeps all its children; past ``level_hi`` no level is
    kept, so only leaves are interior there.  A rooted window starts at
    level 0 at the earliest.  An empty first level or range raises
    EmptyWindow; a level that takes the window past WINDOW_CAP vertices
    raises WindowTooLarge.
    """
    if breadth < 1:
        raise ValueError("breadth cap must be positive")

    lvl = max(level_lo, 0) if model.is_rooted else level_lo
    current = model.seeds(lvl)[:breadth] if lvl <= level_hi else []
    if not current:
        raise EmptyWindow(level_lo, level_hi)
    by_level: dict[int, list[str]] = {}
    interior: list[str] = []
    size = 0
    while current:
        by_level[lvl] = current
        size += len(current)
        if size > WINDOW_CAP:
            raise WindowTooLarge(None, WINDOW_CAP)
        kids = list(map(model.children, current))
        lvl += 1
        if lvl > level_hi:
            interior.extend(u for u, vs in zip(current, kids) if not vs)
            break
        nxt = sorted(chain.from_iterable(kids))
        kept = set(nxt := nxt[:breadth]) if len(nxt) > breadth else None  # a level cut short
        interior.extend(current if kept is None else
                        (u for u, vs in zip(current, kids) if kept.issuperset(vs)))
        current = nxt
    return TreeWindow(model, level_lo, level_hi, by_level, interior)


def branching_index(model):
    """Branching index Br(T) = sum over vertices of (children count - 1)+;
    every model knows it for the whole tree."""
    return model.branching_total()


def leaves(model) -> set:
    """Leaf set of the whole tree."""
    return set(model.leaf_set())
