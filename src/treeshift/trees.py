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
canonical order and every vertex's level.
"""

from __future__ import annotations

import math
from collections import deque

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


class DirectedTreeModel:
    """Query contract shared by finite and procedural models."""

    kind = "abstract"
    family = None
    # Family hooks answer family-specific questions in closed form; the
    # defaults (None, False) mean "no closed form".  One children count for
    # every vertex (then level-only weights give one cone per level):
    children_per_vertex = None
    has_last_level = False  # a deepest level: the adjoint asymptote is unilateral
    has_primed_ray = False  # a Br=1 comb: an integer spine and a primed ray off "0"

    def children(self, u: str) -> tuple[str, ...]:
        raise NotImplementedError

    def parent(self, u: str):
        raise NotImplementedError

    def __contains__(self, u: str) -> bool:
        raise NotImplementedError

    @property
    def is_rooted(self) -> bool:
        raise NotImplementedError

    @property
    def root(self):
        return None

    def level(self, u: str) -> int:
        """Integer level; 0 at the root (rooted) or the family base vertex."""
        raise NotImplementedError

    def seeds(self, lvl: int) -> list:
        """Vertices a window at level ``lvl`` grows from, in id order; empty
        for an absent level (levels are contiguous, so every deeper one is
        absent too)."""
        raise NotImplementedError

    def branching_total(self):
        """Br(T), the branching index of the whole tree."""
        raise NotImplementedError

    def leaf_set(self):
        """The leaf set of the whole tree."""
        raise NotImplementedError

    def vertices(self):
        """Every vertex, level-major, when the tree is explicit; else None."""
        return None

    def children_bound(self, window):
        """Most children a vertex outside ``window`` can have, or None."""
        return self.children_per_vertex

    def generation_complete(self, lvl: int) -> bool:
        """True when no branch vertex lies above level ``lvl``."""
        return self.branching_total() == 0

    def branching_in(self, window) -> bool:
        """True when ``window`` shows every branch vertex of the tree."""
        return self.branching_total() == 0

    def require_vertex(self, u: str):
        if u not in self:
            raise VertexNotFound(u)

    def describe(self) -> str:
        rooted = "rooted" if self.is_rooted else "rootless"
        br = self.branching_total()
        br_txt = "inf" if br == INFINITE else str(br)
        return f"{self.kind}({self.family or 'finite'}): {rooted}, Br={br_txt}"


class FiniteTree(DirectedTreeModel):
    """Explicit finite directed tree, always rooted (finite trees cannot be rootless)."""

    kind = "finite"
    has_last_level = True

    def __init__(self, vertices, parent_map, root):
        self._vertices = set(vertices)
        self._parent = dict(parent_map)
        self._root = root
        kids: dict[str, list[str]] = {v: [] for v in self._vertices}
        for v, p in self._parent.items():
            kids[p].append(v)
        self._children = {u: tuple(sorted(vs)) for u, vs in kids.items()}
        self._level = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in self._children[u]:
                self._level[v] = self._level[u] + 1
                queue.append(v)
        self._order = sorted(self._vertices, key=lambda v: (self._level[v], v))

    def children(self, u):
        self.require_vertex(u)
        return self._children[u]

    def parent(self, u):
        self.require_vertex(u)
        return self._parent.get(u)

    def __contains__(self, u):
        return u in self._vertices

    @property
    def is_rooted(self):
        return True

    @property
    def root(self):
        return self._root

    def level(self, u):
        self.require_vertex(u)
        return self._level[u]

    def seeds(self, lvl):
        return sorted(v for v, l in self._level.items() if l == lvl)

    def vertices(self):
        return list(self._order)

    def depth(self) -> int:
        return max(self._level.values())

    def branching_total(self):
        return sum(len(c) - 1 for c in self._children.values() if len(c) > 1)

    def leaf_set(self):
        return {u for u in self._vertices if not self._children[u]}


def validate_finite(vertices, edges, declared_root=None) -> FiniteTree:
    """Check connectivity, unique parents and circuit-freeness; return the model.

    Raises TreeSpecError, DisconnectedGraph, MultipleParents, CircuitFound or RootMismatch.
    """
    verts = list(dict.fromkeys(vertices))
    if not verts:
        raise TreeSpecError("a finite tree needs at least one vertex")
    vset = set(verts)
    parent: dict[str, str] = {}
    for u, v in dict.fromkeys(tuple(e) for e in edges):
        if u not in vset or v not in vset:
            raise VertexNotFound(u if u not in vset else v)
        if u == v:
            raise CircuitFound([u, v])
        if v in parent and parent[v] != u:
            raise MultipleParents(v)
        parent[v] = u

    # Circuit detection: walk parent chains with a three-color sweep.
    state = {v: 0 for v in verts}  # 0 unseen, 1 on current chain, 2 done
    for start in verts:
        if state[start]:
            continue
        chain = []
        u = start
        while u is not None and state[u] == 0:
            state[u] = 1
            chain.append(u)
            u = parent.get(u)
        if u is not None and state[u] == 1:
            cycle = chain[chain.index(u):]
            raise CircuitFound(cycle + [u])
        for w in chain:
            state[w] = 2

    # No circuit: every parent chain ends at a parentless vertex, so one root means connected.
    roots = [v for v in verts if v not in parent]
    if len(roots) != 1:
        raise DisconnectedGraph(f"found {len(roots)} parentless vertices: {sorted(roots)[:4]}")
    root = roots[0]
    if declared_root is not None and declared_root != root:
        raise RootMismatch(declared_root, root)
    return FiniteTree(verts, parent, root)


class BilateralPath(DirectedTreeModel):
    """Z with edges (n, n+1); rootless, leafless; level-0 base is vertex 0."""

    kind = "procedural"
    family = "bilateral-path"
    children_per_vertex = 1

    def children(self, u):
        self.require_vertex(u)
        return (str(int(u) + 1),)

    def parent(self, u):
        self.require_vertex(u)
        return str(int(u) - 1)

    def __contains__(self, u):
        return _integer_id(u) is not None

    @property
    def is_rooted(self):
        return False

    def level(self, u):
        self.require_vertex(u)
        return int(u)

    def seeds(self, lvl):
        return [str(lvl)]

    def branching_total(self):
        return 0

    def leaf_set(self):
        return set()


class RootedPath(BilateralPath):
    """Z+ with root 0 and edges (n, n+1)."""

    family = "rooted-path"

    def parent(self, u):
        self.require_vertex(u)
        n = int(u)
        return None if n == 0 else str(n - 1)

    def __contains__(self, u):
        n = _integer_id(u)
        return n is not None and n >= 0

    @property
    def is_rooted(self):
        return True

    @property
    def root(self):
        return "0"

    def seeds(self, lvl):
        return [str(lvl)] if lvl >= 0 else []


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
        self.has_last_level = unprimed_leaf is not None

    def children(self, u):
        self.require_vertex(u)
        if _is_primed(u):
            k = _primed_index(u)
            if self.primed_leaf is not None and k >= self.primed_leaf:
                return ()
            return (_primed_id(k + 1),)
        n = int(u)
        if self.unprimed_leaf is not None and n >= self.unprimed_leaf:
            return ()
        if n == 0:
            return ("1", _primed_id(1))
        return (str(n + 1),)

    def parent(self, u):
        self.require_vertex(u)
        if _is_primed(u):
            k = _primed_index(u)
            return "0" if k == 1 else _primed_id(k - 1)
        return str(int(u) - 1)

    def __contains__(self, u):
        if _is_primed(u):
            k = _integer_id(u[:-1])
            return k is not None and k >= 1 and (self.primed_leaf is None
                                                 or k <= self.primed_leaf)
        n = _integer_id(u)
        return n is not None and (self.unprimed_leaf is None or n <= self.unprimed_leaf)

    @property
    def is_rooted(self):
        return False

    def level(self, u):
        self.require_vertex(u)
        return _primed_index(u) if _is_primed(u) else int(u)

    def seeds(self, lvl):
        if self.unprimed_leaf is not None and lvl > self.unprimed_leaf:
            return []
        return [str(lvl)]

    def branching_total(self):
        return 1

    def leaf_set(self):
        out = set()
        if self.primed_leaf is not None:
            out.add(_primed_id(self.primed_leaf))
        if self.unprimed_leaf is not None:
            out.add(str(self.unprimed_leaf))
        return out

    # The only branch vertex is "0"; its two children are the spine's "1" and
    # the primed ray's "1'".
    def children_bound(self, window):
        return 1 if "0" in window else 2

    def generation_complete(self, lvl):
        return lvl <= 0

    def branching_in(self, window):
        return "0" in window


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
        if ":" in u:
            m, w = u.split(":", 1)
            return int(m), w
        return int(u), ""

    def children(self, u):
        self.require_vertex(u)
        m, w = self._parse(u)
        if not w:
            return (str(m + 1), f"{m}:1")
        return (f"{m}:{w}0", f"{m}:{w}1")

    def parent(self, u):
        self.require_vertex(u)
        m, w = self._parse(u)
        if not w:
            return str(m - 1)
        if len(w) == 1:
            return str(m)
        return f"{m}:{w[:-1]}"

    def __contains__(self, u):
        m, colon, w = u.partition(":")
        if _integer_id(m) is None:
            return False
        return not colon or (w[:1] == "1" and all(c in "01" for c in w))

    @property
    def is_rooted(self):
        return False

    def level(self, u):
        self.require_vertex(u)
        m, w = self._parse(u)
        return m + len(w)

    def seeds(self, lvl):
        return [str(lvl)]

    def branching_total(self):
        return INFINITE

    def leaf_set(self):
        return set()


def make_family(tag: str, params: dict | None = None) -> DirectedTreeModel:
    params = params or {}
    if tag == "comb":
        return CombTree(params.get("primed_leaf"), params.get("unprimed_leaf"))
    for family in (RootedPath, BilateralPath, RootlessBinary, TildeTree):
        if family.family == tag:
            return family()
    raise TreeSpecError(f"unknown family {shown(tag)}; expected one of {FAMILY_TAGS}")


def tree_from_json(doc) -> DirectedTreeModel:
    """Build a model from its JSON doc or JSON text (finite or procedural).

    The shape of the doc is checked first: an object with a ``family`` and
    optional object ``params``, or with ``vertices`` (a list of string ids)
    and ``edges`` (a list of [parent, child] id pairs).  Any other shape
    raises TreeSpecError, and so does text that is not JSON.
    """
    doc = decoded(doc, TreeSpecError, "a tree spec")
    if not isinstance(doc, dict):
        raise TreeSpecError(f"a tree spec must be a JSON object, got {shown(doc)}")
    if "family" in doc:
        params = doc.get("params")
        if params is not None and not isinstance(params, dict):
            raise TreeSpecError(f"tree params must be a JSON object, got {shown(params)}")
        return make_family(doc["family"], params)
    vertices, edges = doc.get("vertices"), doc.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise TreeSpecError("a finite tree needs 'vertices', a list of string ids, "
                            f"got {shown(vertices)}")
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
    id order, so ``order`` (their concatenation) is the canonical
    dense-truncation order, level-major then id-lexicographic, and every
    level is known without asking the model.
    """

    def __init__(self, model, level_lo, level_hi, by_level):
        self.model = model
        self.level_lo = level_lo
        self.level_hi = level_hi
        self.by_level: dict[int, list[str]] = by_level
        self.order = [v for vs in by_level.values() for v in vs]
        self._index = {v: i for i, v in enumerate(self.order)}
        self._levels = {v: lvl for lvl, vs in by_level.items() for v in vs}

    def __contains__(self, u):
        return u in self._index

    def __len__(self):
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def index_of(self, u) -> int:
        if u not in self._index:
            raise VertexNotFound(u)
        return self._index[u]

    def level_of(self, u) -> int:
        if u not in self._levels:
            raise VertexNotFound(u)
        return self._levels[u]

    def levels(self):
        return sorted(self.by_level)

    def vertices_at(self, lvl):
        return list(self.by_level.get(lvl, ()))

    def forward_interior(self):
        """Vertices whose full children set is materialized in the window."""
        out = []
        for u in self.order:
            if all(v in self._index for v in self.model.children(u)):
                out.append(u)
        return out

    def top_boundary(self):
        """Window vertices whose parent exists in the model but not in the window."""
        out = []
        for u in self.order:
            p = self.model.parent(u)
            if p is not None and p not in self._index:
                out.append(u)
        return out

    def check_parent_closed(self):
        for u in self.order:
            p = self.model.parent(u)
            if p is not None and self._levels[u] > self.level_lo and p not in self._index:
                return False
        return True


def materialize_window(model, level_lo, level_hi, breadth=64) -> TreeWindow:
    """BFS a window downward from the model's seeds at ``level_lo``.

    Per-level breadth is clamped on the children side only, so the window is
    parent-closed by construction.  A rooted window starts at level 0 at the
    earliest.  An empty first level or range raises EmptyWindow; a level that
    takes the window past WINDOW_CAP vertices raises WindowTooLarge.
    """
    if breadth < 1:
        raise ValueError("breadth cap must be positive")

    lvl = max(level_lo, 0) if model.is_rooted else level_lo
    current = model.seeds(lvl)[:breadth] if lvl <= level_hi else []
    if not current:
        raise EmptyWindow(level_lo, level_hi)
    by_level: dict[int, list[str]] = {}
    size = 0
    while current and lvl <= level_hi:
        by_level[lvl] = current
        size += len(current)
        if size > WINDOW_CAP:
            raise WindowTooLarge(None, WINDOW_CAP)
        nxt: list[str] = []
        for u in current:
            nxt.extend(model.children(u))
        current = sorted(set(nxt))[:breadth]
        lvl += 1
    return TreeWindow(model, level_lo, level_hi, by_level)


def chi_n(model, verts, n: int) -> set:
    """n-fold children image of a finite vertex set; chi_0 is the identity."""
    if n < 0:
        raise ValueError("n must be >= 0")
    current = set(verts)
    for _ in range(n):
        nxt = set()
        for u in current:
            nxt.update(model.children(u))
        current = nxt
        if not current:
            break
    return current


def gen_n(model, u: str, n: int) -> set:
    """n-th generation of u: union over j <= n of Chi^j(Par^j(u)).

    Terms with a nonexistent j-fold parent are skipped, so the result always
    contains u itself.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    model.require_vertex(u)
    out = {u}
    anc = u
    for j in range(1, n + 1):
        anc = model.parent(anc)
        if anc is None:
            break
        out |= chi_n(model, {anc}, j)
    return out


def branching_index(model):
    """Branching index Br(T) = sum over vertices of (children count - 1)+;
    every model knows it for the whole tree."""
    return model.branching_total()


def leaves(model) -> set:
    """Leaf set of the whole tree."""
    return set(model.leaf_set())
