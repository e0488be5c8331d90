"""Tree models: validation, traversal queries, windows, structural laws."""

import json
import math

import pytest

from treeshift.errors import (
    CircuitFound,
    DisconnectedGraph,
    MultipleParents,
    RootMismatch,
    VertexNotFound,
)
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
