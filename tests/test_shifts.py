"""Shift operator: sparse action, closed-form powers, norm, dense oracle."""

import math

import numpy as np
import pytest

from treeshift.cyclicity import cokernel_dimension
from treeshift.errors import VertexNotFound, WeightError, WindowTooLarge
from treeshift.shifts import ShiftOperator, vector_to_dense
from treeshift.sparse import SparseVector
from treeshift.trees import make_family, materialize_window, validate_finite
from treeshift.weights import (
    ConstantWeights,
    ExpRayWeights,
    HashRandomWeights,
    MapWeights,
    weights_from_json,
)

from conftest import BINARY_ISOMETRY, full_window, random_finite_tree, random_weight_map


def star():
    tree = validate_finite(["r", "a", "b"], [("r", "a"), ("r", "b")])
    return ShiftOperator(tree, MapWeights({"a": 0.6, "b": 0.8}))


# -- apply / adjoint -----------------------------------------------------------

def test_apply_definition():
    out = star().apply(SparseVector.basis("r"))
    assert out.coeffs == {"a": 0.6, "b": 0.8}


def test_apply_leaf_gives_zero():
    assert not star().apply(SparseVector.basis("a"))


def test_apply_and_adjoint_keep_no_exact_zero():
    """A zero weight, or sibling terms that cancel in the adjoint, leave no
    0.0 coefficient in the image.  The weight loaders reject zero weights, so
    the map is edited after loading."""
    tree = validate_finite(["r", "a", "b"], [("r", "a"), ("r", "b")])
    weights = MapWeights({"a": 0.5, "b": 0.5})
    op = ShiftOperator(tree, weights)
    assert op.apply_adjoint(SparseVector({"a": 1.0, "b": -1.0})).coeffs == {}
    assert op.apply_adjoint(SparseVector({"a": 1.0, "b": -0.5})).coeffs == {"r": 0.25}
    weights.head["a"] = 0.0
    op = ShiftOperator(tree, weights)
    assert op.apply(SparseVector.basis("r")).coeffs == {"b": 0.5}
    assert op.apply_adjoint(SparseVector.basis("a")).coeffs == {}


def test_apply_linearity_on_bilateral():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(0.5))
    out = op.apply(SparseVector({"0": 1.0, "1": 1.0}))
    assert out.coeffs == {"1": 0.5, "2": 0.5}


def test_apply_unknown_vertex():
    with pytest.raises(VertexNotFound) as info:
        star().apply(SparseVector.basis("zz"))
    assert info.type is VertexNotFound


def test_adjoint_kills_root_and_pulls_up():
    op = star()
    assert not op.apply_adjoint(SparseVector.basis("r"))
    out = op.apply_adjoint(SparseVector.basis("a"))
    assert out.coeffs == {"r": pytest.approx(0.6)}


def test_adjoint_matrix_is_transpose(rng):
    tree = random_finite_tree(rng, 40)
    op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree)))
    window = full_window(tree)
    mat = op.dense_truncation(window)
    adj = np.zeros_like(mat)
    for j, u in enumerate(window.order):
        col = op.apply_adjoint(SparseVector.basis(u))
        adj[:, j] = vector_to_dense(window, col)
    assert np.max(np.abs(adj - mat.T)) == 0.0


# -- closed-form powers ----------------------------------------------------------

def test_power_closed_binary_two_levels():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(1 / math.sqrt(2)))
    out = op.power_closed("0", 2)
    assert len(out) == 4
    assert all(c == pytest.approx(0.5) for c in out.coeffs.values())


def test_power_closed_leaf_is_zero():
    assert not star().power_closed("b", 1)


def test_powers_match_iteration_on_random_trees(rng):
    for _ in range(5):
        tree = random_finite_tree(rng, 80)
        op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree)))
        u = rng.choice(tree.vertices())
        forward = SparseVector.basis(u)
        backward = SparseVector.basis(u)
        for n in range(1, 7):
            forward = op.apply(forward)
            backward = op.apply_adjoint(backward)
            assert (op.power_closed(u, n) - forward).norm() <= 1e-12
            assert (op.adjoint_power_closed(u, n) - backward).norm() <= 1e-12


def test_adjoint_power_closed_values():
    op = star()
    assert not op.adjoint_power_closed("r", 1)
    bil = ShiftOperator(make_family("bilateral-path"), ConstantWeights(0.5))
    out = bil.adjoint_power_closed("0", 3)
    assert out.coeffs == {"-3": pytest.approx(0.125)}


def test_power_supports():
    tree = make_family("rootless-binary")
    op = ShiftOperator(tree, ConstantWeights(0.5))
    # the window grown from the seed "0" holds Chi^3("0") at level 3
    assert op.power_closed("0", 3).support() == \
        set(materialize_window(tree, 0, 3).vertices_at(3))
    assert op.adjoint_power_closed("0:1", 2).support() == {"-1"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_power_closed_on_the_binary_tree_reaches_2_to_the_n_children(n):
    tree = make_family("rootless-binary")
    support = ShiftOperator(tree, ConstantWeights(0.5)).power_closed("0", n).support()
    # Chi^n("0") holds 2^n vertices, all n levels below "0"
    assert len(support) == 2 ** n
    assert {tree.level(v) for v in support} == {n}


# -- norm ------------------------------------------------------------------------

def test_norm_binary_isometry():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window = materialize_window(op.model, 0, 4)
    norm = op.operator_norm(window)
    assert norm.value == pytest.approx(1.0)
    assert norm.certified
    assert not op.is_certified_isometry()


def test_norm_star_and_path():
    assert star().operator_norm(full_window(star().model)).value == pytest.approx(1.0)
    path = ShiftOperator(make_family("rooted-path"), ConstantWeights(0.5))
    window = materialize_window(path.model, 0, 6)
    assert path.operator_norm(window).value == pytest.approx(0.5)


def test_norm_bound_covers_outside_window():
    # explicit small weights near the base, default 1 beyond: sup must be 1
    op = ShiftOperator(make_family("bilateral-path"),
                       MapWeights({"0": 0.5, "1": 0.5}, default=1.0))
    window = materialize_window(op.model, -2, 2)
    norm = op.operator_norm(window)
    assert norm.value == pytest.approx(1.0)
    assert norm.certified


# -- dense truncation --------------------------------------------------------------

def test_dense_matches_apply_on_interior(rng):
    tree = random_finite_tree(rng, 50)
    op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree)))
    window = full_window(tree)
    mat = op.dense_truncation(window)
    for u in window.forward_interior():
        got = mat @ vector_to_dense(window, SparseVector.basis(u))
        want = vector_to_dense(window, op.apply(SparseVector.basis(u)))
        assert np.max(np.abs(got - want)) == 0.0


def test_vector_to_dense_outside_the_window_is_vertex_not_found():
    """A support vertex outside the window fails as an absent vertex does,
    with exactly VertexNotFound naming it; strict=False drops it."""
    window = materialize_window(make_family("bilateral-path"), 0, 2)
    with pytest.raises(VertexNotFound, match="'5'") as info:
        vector_to_dense(window, SparseVector.basis("5"))
    assert info.type is VertexNotFound
    assert not vector_to_dense(window, SparseVector.basis("5"), strict=False).any()


def test_dense_nilpotency_depth(rng):
    tree = random_finite_tree(rng, 30)
    op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree)))
    mat = op.dense_truncation(full_window(tree))
    assert np.max(np.abs(np.linalg.matrix_power(mat, tree.depth() + 1))) == 0.0


def test_dense_cap():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(0.5))
    window = materialize_window(op.model, 0, 5, breadth=64)
    with pytest.raises(WindowTooLarge):
        op.dense_truncation(window, cap=10)


def test_dense_cap_names_the_true_window_size():
    """A built window has a known size, so the message states it; only a
    window stopped while it was built says "more than"."""
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(0.5))
    window = materialize_window(op.model, 0, 5, breadth=64)
    with pytest.raises(WindowTooLarge) as caught:
        op.dense_truncation(window, cap=10)
    assert str(caught.value) == f"window has {len(window)} vertices, cap is 10"


def _float_cokernel(op, window):
    return cokernel_dimension(op.dense_truncation(window))


def test_window_cokernel_matches_the_float_cokernel_on_random_trees(rng):
    for n in (1, 2, 5, 30, 120, 400):
        tree = random_finite_tree(rng, n)
        op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree, 1e-6, 1.0)))
        window = full_window(tree)
        assert op.window_cokernel(window) == _float_cokernel(op, window)
        # a partial window: its top boundary and its cut-off children
        if tree.depth() >= 2:
            part = materialize_window(tree, 1, tree.depth() - 1, breadth=10 ** 6)
            assert op.window_cokernel(part) == _float_cokernel(op, part)


@pytest.mark.parametrize("tag,params,lo,hi", [
    ("tilde", None, -8, 8),
    ("comb", {"primed_leaf": 3}, -6, 9),
    ("comb", {"primed_leaf": 2, "unprimed_leaf": 5}, -4, 7),
    ("bilateral-path", None, -10, 10),
])
def test_window_cokernel_matches_the_float_cokernel_on_family_windows(tag, params, lo, hi):
    model = make_family(tag, params)
    window = materialize_window(model, lo, hi, breadth=64)
    for seed in range(4):
        for weights in (HashRandomWeights(seed, 1e-6, 1.0), HashRandomWeights(seed, 0.5, 0.99)):
            op = ShiftOperator(model, weights)
            assert op.window_cokernel(window) == _float_cokernel(op, window)


def test_window_cokernel_drops_the_column_of_a_zero_weight():
    """An exact 0.0 weight empties its parent's column in both counts.  The
    weight loaders reject zero weights, so the map is edited after loading."""
    tree = validate_finite(["r", "a", "b", "c", "d"],
                           [("r", "a"), ("r", "b"), ("a", "c"), ("b", "d")])
    weights = MapWeights({"a": 0.6, "b": 0.8, "c": 0.5, "d": 0.5})
    window = full_window(tree)
    base = ShiftOperator(tree, weights)
    assert base.window_cokernel(window) == _float_cokernel(base, window) == 2
    weights.head["d"] = 0.0
    zeroed = ShiftOperator(tree, weights)
    assert zeroed.window_cokernel(window) == _float_cokernel(zeroed, window) == 3
    weights.head["a"] = 0.0  # r keeps its column through b
    zeroed = ShiftOperator(tree, weights)
    assert zeroed.window_cokernel(window) == _float_cokernel(zeroed, window) == 3


def test_window_cokernel_builds_no_matrix(monkeypatch):
    op = ShiftOperator(make_family("tilde"), HashRandomWeights(3, 0.5, 0.9))
    window = materialize_window(op.model, -6, 6)
    want = _float_cokernel(op, window)

    def refuse(*args, **kwargs):
        raise AssertionError("dense_truncation called")

    monkeypatch.setattr(ShiftOperator, "dense_truncation", refuse)
    assert ShiftOperator(op.model, op.weights).window_cokernel(window) == want


# -- operator laws -----------------------------------------------------------------

def test_apply_respects_norm_bound(rng):
    for _ in range(5):
        tree = random_finite_tree(rng, 60)
        op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree)))
        norm = op.operator_norm(full_window(tree)).value
        support = rng.sample(tree.vertices(), 8)
        x = SparseVector({u: rng.uniform(-1, 1) for u in support})
        assert op.apply(x).norm() <= norm * x.norm() + 1e-12


def test_adjoint_duality(rng):
    tree = random_finite_tree(rng, 60)
    op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree)))
    verts = tree.vertices()
    for _ in range(20):
        x = SparseVector({u: rng.uniform(-1, 1) for u in rng.sample(verts, 6)})
        y = SparseVector({u: rng.uniform(-1, 1) for u in rng.sample(verts, 6)})
        assert abs(op.apply(x).dot(y) - x.dot(op.apply_adjoint(y))) <= 1e-12


def test_same_level_images_are_orthogonal(rng):
    tree = make_family("rootless-binary")
    op = ShiftOperator(tree, ConstantWeights(0.7))
    window = materialize_window(tree, 0, 3)
    level1 = window.vertices_at(1)
    for i, u in enumerate(level1):
        for v in level1[i + 1:]:
            assert op.apply(SparseVector.basis(u)).dot(op.apply(SparseVector.basis(v))) == 0.0


# -- weight assignments ---------------------------------------------------------

@pytest.mark.parametrize("name,params,text", [
    ("geometric", {"scale": 0.5}, "['scale', 'ratio'], got {\"scale\": 0.5}"),
    ("geometric", {}, "['scale', 'ratio'], got {}"),
    ("geometric", {"scale": 0.5, "ratio": 0.5, "cut": 1},
     "['scale', 'ratio'], got {\"scale\": 0.5, \"ratio\": 0.5, \"cut\": 1}"),
    ("step", {"low": 0.5, "high": 0.6, "self": 1},
     "['low', 'high', 'cut'], got {\"low\": 0.5, \"high\": 0.6, \"self\": 1}"),
    ("step", {"high": 0.5}, "['low', 'high', 'cut'], got {\"high\": 0.5}"),
    ("rays", {"spine": 0.5},
     "['spine', 'primed', 'branch_spine', 'branch_primed'], got {\"spine\": 0.5}"),
    ("hash-random", {"seed": 1, "low": 0.5},
     "['seed', 'low', 'high'], got {\"seed\": 1, \"low\": 0.5}"),
    ("exp-ray", [2.0], "['base', 'start_level'], got [2.0]"),
    ("exp-ray", [], "['base', 'start_level'], got []"),
    ("exp-ray", 3, "['base', 'start_level'], got 3"),
    ("exp-ray", None, "['base', 'start_level'], got null"),
    ("exp-ray", "base", "['base', 'start_level'], got \"base\""),
    ("geometric", True, "['scale', 'ratio'], got true"),
    ("binary-spine", {"scale": 0.5}, "[], got {\"scale\": 0.5}"),
    ("binary-spine", {"self": 1}, "[], got {\"self\": 1}"),
    ("binary-spine", None, "[], got null"),
])
def test_family_params_errors_name_the_constructor_params(name, params, text):
    """Unknown, missing and non-object params raise WeightError naming the
    family's constructor parameters in order."""
    with pytest.raises(WeightError) as caught:
        weights_from_json({"kind": "family", "name": name, "params": params})
    assert str(caught.value) == f"weight family {name!r} takes params {text}"


def test_weights_positivity_enforced():
    with pytest.raises(WeightError):
        MapWeights({"a": 0.0})
    with pytest.raises(WeightError):
        ConstantWeights(-0.5)


@pytest.mark.parametrize("doc", [
    {"kind": "constant", "value": math.nan},
    {"kind": "constant", "value": math.inf},
    {"kind": "map", "values": {"a": 0.5, "b": math.nan}},
    {"kind": "map", "values": {"a": 0.5}, "default": math.nan},
    {"kind": "map", "values": {"a": -math.inf}},
    {"kind": "family", "name": "geometric", "params": {"scale": math.nan, "ratio": 0.8}},
    {"kind": "family", "name": "geometric", "params": {"scale": 0.9, "ratio": math.inf}},
    {"kind": "family", "name": "step", "params": {"low": 0.5, "high": math.nan}},
    {"kind": "family", "name": "step", "params": {"low": 0.5, "high": 0.9, "cut": math.inf}},
    {"kind": "family", "name": "exp-ray", "params": {"base": math.inf}},
    {"kind": "family", "name": "exp-ray", "params": {"base": 2.0, "start_level": math.nan}},
    {"kind": "family", "name": "rays", "params": {"spine": 0.7, "primed": math.nan}},
    {"kind": "family", "name": "rays",
     "params": {"spine": 0.7, "primed": 0.6, "branch_spine": math.inf}},
    {"kind": "family", "name": "hash-random", "params": {"seed": 1, "low": 0.5, "high": math.inf}},
])
def test_non_finite_weights_rejected(doc):
    with pytest.raises(WeightError):
        weights_from_json(doc)


def test_exp_ray_values():
    model = make_family("rooted-path")
    w = ExpRayWeights(2.0, 1)
    assert w.weight(model, "3") == pytest.approx(math.exp(-0.125))
    with pytest.raises(WeightError):
        w.weight(model, "0")  # the root carries no weight


def test_geometric_weights():
    from treeshift.weights import GeometricWeights
    model = make_family("bilateral-path")
    w = GeometricWeights(scale=0.9, ratio=0.8)
    assert w.weight(model, "3") == pytest.approx(0.9 * 0.8 ** 3)
    assert w.weight(model, "-2") == pytest.approx(0.9 * 0.8 ** 2)
    assert w.max_weight() == pytest.approx(0.9)


def test_hash_random_weights_deterministic():
    from treeshift.weights import HashRandomWeights
    model = make_family("tilde")
    w = HashRandomWeights(7, 0.5, 0.9)
    assert w.weight(model, "4'") == HashRandomWeights(7, 0.5, 0.9).weight(model, "4'")
    assert w.weight(model, "4'") != w.weight(model, "4")
    values = [w.weight(model, str(k)) for k in range(-20, 21)]
    assert all(0.5 <= v <= 0.9 for v in values)
