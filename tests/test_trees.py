"""Tree models: validation, traversal queries, windows, structural laws."""

import json
import math
import random

import pytest

from treeshift.errors import (
    CircuitFound,
    DisconnectedGraph,
    MultipleParents,
    RootMismatch,
    TreeSpecError,
    UnknownVertex,
    VertexNotFound,
)
from treeshift.shifts import ShiftOperator
from treeshift.sparse import SparseVector
from treeshift.trees import (
    FAMILY_TAGS,
    branching_index,
    chi_n,
    gen_n,
    leaves,
    make_family,
    materialize_window,
    tree_from_json,
    validate_finite,
)
from treeshift.weights import ConstantWeights

from conftest import random_finite_tree


# -- validation --------------------------------------------------------------

def test_validate_smallest_branching_tree():
    model = validate_finite(["r", "a", "b"], [("r", "a"), ("r", "b")])
    assert model.root == "r"
    assert model.children("r") == ("a", "b")
    assert model.parent("a") == "r"


def test_validate_two_cycle():
    with pytest.raises(CircuitFound):
        validate_finite(["a", "b"], [("a", "b"), ("b", "a")])


def test_validate_multiple_parents():
    with pytest.raises(MultipleParents) as err:
        validate_finite(["r", "a", "b"], [("r", "b"), ("a", "b"), ("r", "a")])
    assert err.value.vertex == "b"


def test_validate_root_mismatch_and_disconnected():
    with pytest.raises(RootMismatch):
        validate_finite(["r", "a"], [("r", "a")], declared_root="a")
    with pytest.raises(DisconnectedGraph):
        validate_finite(["r", "a", "b", "c"], [("r", "a"), ("b", "c")])


def test_validate_longer_circuit():
    with pytest.raises(CircuitFound):
        validate_finite(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


@pytest.mark.parametrize("vertices, edges, error, text", [
    (["r", "a", "b", "c"], [("r", "a"), ("b", "c"), ("c", "b")],
     CircuitFound, "directed circuit: b -> c -> b"),  # beside a rooted part
    (["r", "x", "y", "z"], [("y", "x"), ("z", "y"), ("y", "z")],
     CircuitFound, "directed circuit: y -> z -> y"),  # with a tail
    (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")],
     CircuitFound, "directed circuit: a -> c -> b -> a"),  # no parentless vertex
    (["r", "s", "b", "c"], [("b", "c"), ("c", "b")],
     CircuitFound, "directed circuit: b -> c -> b"),  # before the disconnection
    (["r", "a"], [("a", "a")], CircuitFound, "directed circuit: a -> a"),
    (["r", "a", "b", "c"], [("r", "a"), ("b", "c")],
     DisconnectedGraph, "found 2 parentless vertices: ['b', 'r']"),
], ids=["beside-rooted", "tail", "no-root", "circuit-first", "self-loop", "two-roots"])
def test_validate_error_text_and_precedence(vertices, edges, error, text):
    with pytest.raises(error) as err:
        validate_finite(vertices, edges)
    assert type(err.value) is error and str(err.value) == text


class _Id(str):
    pass


class _Pair(list):
    pass


_NEEDS_VERTICES = "a finite tree needs 'vertices', a list of string ids, got "
_NEEDS_EDGES = "a finite tree needs 'edges', a list of [parent, child] string id pairs, got "


@pytest.mark.parametrize("vertices, edges, text", [
    ("r", [["r", "a"]], _NEEDS_VERTICES + '"r"'),
    (["r", 1], [["r", 1]], _NEEDS_VERTICES + '["r", 1]'),  # vertices before edges
    (["r", "a"], [["r", "a"], ("r", "a")], _NEEDS_EDGES + '[["r", "a"], ["r", "a"]]'),
    (["r", "a"], [["r", "a"], "ra"], _NEEDS_EDGES + '[["r", "a"], "ra"]'),
    (["r", "a"], [["r", "a"], ["r"]], _NEEDS_EDGES + '[["r", "a"], ["r"]]'),
    (["r", "a"], [["r", "a", "a"], 7], _NEEDS_EDGES + '[["r", "a", "a"], 7]'),
    (["r", "a"], [["r", "a"], [None, "a"]], _NEEDS_EDGES + '[["r", "a"], [null, "a"]]'),
    (["r", "a"], {"r": "a"}, _NEEDS_EDGES + '{"r": "a"}'),
], ids=["vertices-not-a-list", "both-bad", "tuple-edge", "string-edge", "short-edge",
        "long-edge-then-int", "null-id", "edges-not-a-list"])
def test_tree_from_json_type_error_text_and_precedence(vertices, edges, text):
    with pytest.raises(TreeSpecError) as err:
        tree_from_json({"vertices": vertices, "edges": edges})
    assert type(err.value) is TreeSpecError and str(err.value) == text


def test_tree_from_json_accepts_subclasses_of_str_and_list():
    model = tree_from_json({"vertices": [_Id("r"), "a", _Id("b")],
                            "edges": [_Pair([_Id("r"), "a"]), ["r", _Id("b")]]})
    assert model.root == "r" and model.children("r") == ("a", "b")


@pytest.mark.parametrize("edges, error, text", [
    ([("r", "a"), ("r", "a"), ("x", "a")], VertexNotFound, "vertex 'x' is not part of the model"),
    ([("r", "a"), ("a", "a"), ("a", "a")], CircuitFound, "directed circuit: a -> a"),
    ([("r", "a"), ("r", "b"), ("r", "a"), ("b", "a")], MultipleParents,
     "vertex 'a' has more than one parent"),
    ([("a", "b"), ("b", "a"), ("a", "b"), ("r", "a")], MultipleParents,
     "vertex 'a' has more than one parent"),
], ids=["absent-after-repeat", "repeated-self-loop", "second-parent-after-repeat",
        "repeated-circuit-edge"])
def test_a_repeated_edge_meets_the_same_checks(edges, error, text):
    with pytest.raises(error) as err:
        validate_finite(["r", "a", "b"], edges)
    assert type(err.value) is error and str(err.value) == text


def naive_finite(vertices, edges):
    """(root, children, parent, level) of a finite tree, computed the plain
    way: parents from the edges, a level by climbing to the root, children by
    scanning every vertex."""
    parent = {v: u for u, v in edges}
    verts = set(vertices)
    root, = (v for v in verts if v not in parent)
    level = {}
    for v in verts:
        n, w = 0, v
        while w != root:
            n, w = n + 1, parent[w]
        level[v] = n
    children = {u: tuple(sorted(v for v in verts if parent.get(v) == u)) for u in verts}
    return root, children, {v: parent.get(v) for v in verts}, level


def random_finite_spec(rng, n):
    """A random tree on n distinct ids, listed in shuffled order with some
    ids and edges repeated."""
    ids = [str(k) if rng.random() < 0.3 else f"v{k}" for k in rng.sample(range(10 ** 4), n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    edges += [rng.choice(edges) for _ in range(n // 3)] if edges else []
    vertices = ids + [rng.choice(ids) for _ in range(n // 4)]
    rng.shuffle(edges)
    rng.shuffle(vertices)
    return vertices, edges


@pytest.mark.parametrize("size", [1, 2, 3, 8, 40, 150])
def test_random_finite_trees_match_a_naive_reference(size):
    rng = random.Random(size)
    for _ in range(12 if size > 1 else 2):
        vertices, edges = random_finite_spec(rng, size)
        model = validate_finite(vertices, edges)
        root, children, parent, level = naive_finite(vertices, edges)
        assert model.root == root and model.depth() == max(level.values())
        for v in children:
            assert v in model
            assert model.children(v) == children[v]
            assert model.parent(v) == parent[v]
            assert model.level(v) == level[v]
        for lvl in range(-1, model.depth() + 2):
            assert model.seeds(lvl) == sorted(v for v in level if level[v] == lvl)
        order = sorted(level, key=lambda v: (level[v], v))
        assert model.vertices() == order
        assert model.branch_points() == tuple((u, level[u], len(children[u])) for u in order
                                              if len(children[u]) > 1)
        assert model.leaf_set() == {v for v in children if not children[v]}


def outcome(query, u):
    """("value", result) of ``query(u)``, or (exception type, message)."""
    try:
        return "value", query(u)
    except Exception as exc:  # noqa: BLE001  (the type is the result)
        return type(exc), str(exc)


def id_trees():
    return {
        "finite": validate_finite(["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("a", "c")]),
        "rooted-path": make_family("rooted-path"),
        "bilateral-path": make_family("bilateral-path"),
        "tilde": make_family("tilde"),
        "comb": make_family("comb", {"primed_leaf": 2, "unprimed_leaf": 4}),
        "rootless-binary": make_family("rootless-binary"),
    }


# Ids that no tree of ``id_trees`` holds: non-canonical integers, empty and
# malformed binary words, primed indices below 1.
MALFORMED_IDS = ["03", "+3", "-0", " 3", "", "1:", "1:0", "1:12", "0'", "-1'", "1''", ":1"]
# Well-formed ids that a tree does not hold, and ids that it does.
ABSENT_IDS = {"finite": ["x", "0", "r'"], "rooted-path": ["-1", "1'"],
              "bilateral-path": ["1'", "1:1"], "tilde": ["1:1"], "comb": ["3'", "5", "1:1"],
              "rootless-binary": ["1'"]}
PRESENT_IDS = {"finite": ["r", "c"], "rooted-path": ["0", "3"], "bilateral-path": ["-1", "10"],
               "tilde": ["-1", "3'"], "comb": ["-7", "1'", "2'", "4"],
               "rootless-binary": ["-1", "1:10", "-2:1"]}
# A non-str id fails the way the tree's id grammar fails on it: an
# integer is no canonical id, and the other failures are those of the
# str method or dict lookup that the grammar starts with.
NOT_STR_IDS = {
    "finite": [(3, None), ([1], outcome(lambda u: u in {}, [1]))],
    "rooted-path": [(3, None), (None, outcome(int, None))],
    "bilateral-path": [(3, None), (2.0, None), ([1], outcome(int, [1]))],
    "tilde": [(3, outcome(lambda u: u.endswith("'"), 3))],
    "comb": [(None, outcome(lambda u: u.endswith("'"), None))],
    "rootless-binary": [(3, outcome(lambda u: u.partition(":"), 3))],
}


@pytest.mark.parametrize("name", list(id_trees()))
def test_absent_and_malformed_ids_fail_as_before(name):
    """``in`` answers False and ``children``, ``parent`` and ``level`` raise
    VertexNotFound naming the id; an id that is not a str raises what it
    always raised.  ``apply`` and ``apply_adjoint`` raise UnknownVertex."""
    model = id_trees()[name]
    queries = (model.children, model.parent, model.level)
    for u in PRESENT_IDS[name]:
        assert u in model
        assert all(outcome(query, u)[0] == "value" for query in queries)
    op = ShiftOperator(model, ConstantWeights(0.5))
    for u in MALFORMED_IDS + ABSENT_IDS[name]:
        assert (u in model) is False
        for query in queries:
            assert outcome(query, u) == (VertexNotFound, f"vertex {u!r} is not part of the model")
        for image in (op.apply, op.apply_adjoint):
            assert outcome(image, SparseVector({u: 1.0})) == \
                (UnknownVertex, f"vertex {u!r} is not part of the model")
    for u, failure in NOT_STR_IDS[name]:
        if failure is None:  # no such vertex
            assert (u in model) is False
            failure = (VertexNotFound, f"vertex {u!r} is not part of the model")
        else:
            assert outcome(model.__contains__, u) == failure
        for query in queries:
            assert outcome(query, u) == failure


# -- children / generations --------------------------------------------------

def test_chi_n_binary_powers_of_two():
    model = make_family("rootless-binary")
    assert len(chi_n(model, {"0"}, 3)) == 8
    assert chi_n(model, {"0", "0:1"}, 0) == {"0", "0:1"}


def test_chi_n_leaf_empties():
    model = validate_finite(["r", "a", "b"], [("r", "a"), ("a", "b")])
    assert chi_n(model, {"b"}, 1) == set()


def test_gen_n_single_child_chain_is_singleton():
    model = make_family("rooted-path")
    assert gen_n(model, "2", 5) == {"2"}


def test_gen_n_binary_sibling():
    model = make_family("rootless-binary")
    out = gen_n(model, "1", 1)
    assert out == {"1", "0:1"}


def test_gen_n_tilde_picks_up_primed_ray():
    model = make_family("tilde")
    assert gen_n(model, "3", 3) == {"3", "3'"}
    assert gen_n(model, "3", 2) == {"3"}


# -- branching index / levels / leaves ----------------------------------------

def test_branching_symbolic_families():
    assert branching_index(make_family("tilde")) == 1
    assert branching_index(make_family("bilateral-path")) == 0
    assert branching_index(make_family("rootless-binary")) == math.inf
    assert branching_index(make_family("comb", {"primed_leaf": 3})) == 1


def test_branching_window_count_matches_dense(rng):
    tree = random_finite_tree(rng, 60)
    window = materialize_window(tree, 0, tree.depth(), breadth=100)
    br = branching_index(tree)
    manual = sum(max(len(tree.children(u)) - 1, 0) for u in window)
    assert br == manual


def test_level_index():
    assert make_family("rooted-path").level("0") == 0
    assert make_family("tilde").level("4'") == 4
    assert make_family("bilateral-path").level("-5") == -5
    binary = make_family("rootless-binary")
    assert binary.level("2:101") == 5
    with pytest.raises(VertexNotFound):
        make_family("rooted-path").level("-1")


def test_leaves():
    comb = make_family("comb", {"primed_leaf": 2})
    assert leaves(comb) == {"2'"}
    two = make_family("comb", {"primed_leaf": 2, "unprimed_leaf": 5})
    assert leaves(two) == {"2'", "5"}
    assert leaves(make_family("rootless-binary")) == set()
    path = validate_finite(["r", "a", "b"], [("r", "a"), ("a", "b")])
    assert leaves(path) == {"b"}


def test_comb_parameter_validation():
    with pytest.raises(ValueError):
        make_family("comb", {"unprimed_leaf": 3})
    with pytest.raises(ValueError):
        make_family("comb", {"primed_leaf": 4, "unprimed_leaf": 2})


# -- structural laws on windows ----------------------------------------------

FAMILIES = ["rooted-path", "bilateral-path", "rootless-binary", "tilde"]


@pytest.mark.parametrize("family", FAMILIES + ["comb"])
def test_parent_child_duality(family):
    params = {"primed_leaf": 3, "unprimed_leaf": 6} if family == "comb" else None
    model = make_family(family, params)
    window = materialize_window(model, -4, 5, breadth=32)
    for u in window:
        for v in model.children(u):
            assert model.parent(v) == u
        p = model.parent(u)
        if p is not None:
            assert u in model.children(p)


@pytest.mark.parametrize("family", FAMILIES)
def test_children_sets_disjoint(family):
    model = make_family(family)
    window = materialize_window(model, -3, 4, breadth=32)
    seen = {}
    for u in window:
        for v in model.children(u):
            assert v not in seen, f"{v} child of both {seen.get(v)} and {u}"
            seen[v] = u


def test_generation_is_level_equivalence_on_leafless_windows():
    model = make_family("rootless-binary")
    for u in ["2", "0:11", "1:1"]:
        for n in (1, 2):
            block = gen_n(model, u, n)
            lvl = model.level(u)
            for w in block:
                if model.level(w) == lvl:
                    assert gen_n(model, w, n) == block


@pytest.mark.parametrize("family", FAMILIES)
def test_levels_are_graph_homomorphism(family):
    model = make_family(family)
    window = materialize_window(model, -3, 4, breadth=16)
    for u in window:
        for v in model.children(u):
            assert model.level(v) == model.level(u) + 1
        p = model.parent(u)
        if p is not None:
            assert model.level(p) == model.level(u) - 1


# -- windows -------------------------------------------------------------------

def parent_closed(window):
    """Every window vertex below the first level has its parent in the window."""
    model, first = window.model, window.levels()[0]
    return all(model.level(u) == first or model.parent(u) in window for u in window)


def test_window_is_parent_closed_and_level_major():
    model = make_family("tilde")
    window = materialize_window(model, -4, 4, breadth=16)
    assert parent_closed(window)
    order_keys = [(model.level(u), u) for u in window.order]
    assert order_keys == sorted(order_keys)


def test_window_breadth_cap():
    model = make_family("rootless-binary")
    window = materialize_window(model, 0, 9, breadth=8)
    assert all(len(window.vertices_at(lvl)) <= 8 for lvl in window.levels())
    assert parent_closed(window)


def test_window_top_boundary_and_interior():
    model = make_family("bilateral-path")
    window = materialize_window(model, -3, 3)
    assert window.top_boundary() == ["-3"]
    interior = window.forward_interior()
    assert "3" not in interior and "2" in interior


def test_finite_window_skips_empty_levels():
    tree = validate_finite(["r", "a"], [("r", "a")])
    window = materialize_window(tree, -5, 5)
    assert set(window.order) == {"r", "a"}


@pytest.mark.parametrize("family", FAMILIES + ["comb", "finite"])
def test_window_takes_its_levels_from_its_own_walk(family, rng):
    model = random_finite_tree(rng, 40) if family == "finite" else make_family(
        family, {"primed_leaf": 3, "unprimed_leaf": 5} if family == "comb" else None)
    calls = []

    class LevelCounting(type(model)):
        def level(self, u):
            calls.append(u)
            return super().level(u)

    model.__class__ = LevelCounting
    window = materialize_window(model, -3, 6, breadth=8)
    assert calls == []
    assert parent_closed(window)
    assert window.order == sorted(window.order, key=lambda v: (model.level(v), v))
    assert all(u in window.vertices_at(model.level(u)) for u in window)


def rewalked(window):
    """``forward_interior`` and ``top_boundary`` as a re-walk of the model
    over the finished window finds them."""
    model = window.model
    interior = [u for u in window.order if all(v in window for v in model.children(u))]
    boundary = [u for u in window.order
                if model.parent(u) is not None and model.parent(u) not in window]
    return interior, boundary


REWALK_WINDOWS = {
    **{tag: (lambda tag=tag: make_family(tag), -4, 5, 16) for tag in FAMILY_TAGS},
    "rootless-binary-clipped": (lambda: make_family("rootless-binary"), -2, 7, 8),
    "rooted-path-below-root": (lambda: make_family("rooted-path"), 3, 8, 16),
    "finite-below-root": (lambda: validate_finite(
        ["r", "a", "b", "c", "d", "e"],
        [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("d", "e")]), 1, 2, 16),
    "comb-both-leaves": (lambda: make_family("comb", {"primed_leaf": 3, "unprimed_leaf": 5}),
                         -2, 8, 16),
    "finite-stops-early": (lambda: validate_finite(
        ["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("b", "c")]), -3, 9, 16),
    "finite-breadth-clipped": (lambda: validate_finite(
        ["r", "a", "b", "c", "d"], [("r", "a"), ("r", "b"), ("r", "c"), ("c", "d")]),
        0, 3, 2),
}


@pytest.mark.parametrize("name", REWALK_WINDOWS)
def test_window_walk_matches_a_model_rewalk(name):
    build, lo, hi, breadth = REWALK_WINDOWS[name]
    window = materialize_window(build(), lo, hi, breadth=breadth)
    assert (window.forward_interior(), window.top_boundary()) == rewalked(window)


@pytest.mark.parametrize("size", [1, 2, 5, 40])
def test_random_finite_windows_match_a_model_rewalk(size, rng):
    for _ in range(20):
        tree = random_finite_tree(rng, size)
        depth = tree.depth()
        for lo, hi, breadth in ((0, depth + 2, 64), (1, depth, 3), (0, max(depth - 1, 0), 2)):
            if lo > hi or not tree.seeds(max(lo, 0)):
                continue
            window = materialize_window(tree, lo, hi, breadth=breadth)
            assert (window.forward_interior(), window.top_boundary()) == rewalked(window)


# -- JSON ingestion -------------------------------------------------------------

def test_tree_json_roundtrip_finite():
    doc = {"vertices": ["r", "a", "b"], "edges": [["r", "a"], ["r", "b"]], "root": "r"}
    model = tree_from_json(json.dumps(doc))
    assert model.root == "r"


def test_tree_json_families():
    model = tree_from_json({"family": "comb", "params": {"primed_leaf": 2}})
    assert model.family == "comb"
    assert leaves(model) == {"2'"}
    with pytest.raises(ValueError):
        tree_from_json({"family": "mystery"})


def test_vertex_id_text_roundtrip(rng):
    binary = make_family("rootless-binary")
    window = materialize_window(binary, -2, 4, breadth=20)
    for u in window:
        assert u in binary
        # parse: level + branch word survive the text form
        assert binary.level(u) == binary.level(str(u))


@pytest.mark.parametrize("family, vertex", [
    ("bilateral-path", "03"), ("bilateral-path", "+3"), ("bilateral-path", " 3"),
    ("bilateral-path", "9_9"), ("bilateral-path", "-0"), ("rooted-path", "03"),
    ("tilde", "03'"), ("tilde", "+1'"), ("tilde", "1_0"), ("comb", "02'"),
    ("rootless-binary", "3:"), ("rootless-binary", "03:1"), ("rootless-binary", "+3"),
])
def test_families_hold_only_canonical_ids(family, vertex):
    model = make_family(family, {"primed_leaf": 3} if family == "comb" else None)
    assert vertex not in model
    for query in (model.children, model.parent, model.level):
        with pytest.raises(VertexNotFound):
            query(vertex)
