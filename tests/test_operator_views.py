"""The Br=1 witness operators and the asymptote's rooted c.n.u. value.

The sparse witness operators, which the residual applies, give the dense
reference matrices of ``dense_reference`` on a window.  The c.n.u. value of
a rooted chain is anchored at the root once the walk reaches it, so it does
not depend on the depth past there.
"""

import numpy as np
import pytest

from treeshift import similarity
from treeshift.asymptote import cnu_level_value
from treeshift.asymptotics import DEFAULT_ZERO_THRESHOLD, alpha_profile
from treeshift.shifts import ShiftOperator
from treeshift.similarity import (
    build_leaf_similarity,
    build_tilde_quasiaffinity,
    g_norm,
)
from treeshift.sparse import SparseVector
from treeshift.trees import make_family, materialize_window
from treeshift.weights import ExpRayWeights, HashRandomWeights, RayWeights

import dense_reference
from conftest import UnstatedBound


@pytest.mark.parametrize("family, params, weights, build, levels", [
    # comb windows with an unprimed leaf: past it, and stopping above both leaves
    ("comb", {"primed_leaf": 2, "unprimed_leaf": 4}, HashRandomWeights(5, 0.5, 0.9),
     build_leaf_similarity, (-5, 4)),
    ("comb", {"primed_leaf": 3, "unprimed_leaf": 6}, RayWeights(spine=0.6, primed=0.55),
     build_leaf_similarity, (-4, 2)),
    # comb windows without one
    ("comb", {"primed_leaf": 3}, RayWeights(spine=0.6, primed=0.55),
     build_leaf_similarity, (-5, 7)),
    ("comb", {"primed_leaf": 1}, HashRandomWeights(11, 0.5, 0.9),
     build_leaf_similarity, (0, 5)),
    # tilde windows, bounded and unbounded product ratios
    ("tilde", None, RayWeights(spine=0.6, primed=0.55), build_tilde_quasiaffinity, (-6, 6)),
    ("tilde", None, RayWeights(spine=0.5, primed=0.85), build_tilde_quasiaffinity, (-2, 9)),
])
def test_target_matrix_is_the_forward_written_target(family, params, weights, build, levels):
    """``_target_adjoint``, which a witness's residual applies, compressed to
    the window is the transpose of the forward-written target, with the
    target weights the witness derives from its g norms."""
    op = ShiftOperator(make_family(family, params), weights)
    window = materialize_window(op.model, *levels)
    assert build(op, window).residual <= 1e-12
    top = max(lvl for lvl in window.levels() if f"{lvl}'" in window)
    target_primed = {k: g_norm(op, k - 1) / g_norm(op, k) for k in range(2, top + 1)}
    adjoint = np.zeros((len(window), len(window)))
    for j, u in enumerate(window.order):
        for v, c in similarity._target_adjoint(op, target_primed, u).items():
            if v in window:
                adjoint[j, window.index_of(v)] = c
    assert np.array_equal(adjoint, dense_reference.target_matrix(op, window))


@pytest.mark.parametrize("family, params, weights, levels", [
    ("comb", {"primed_leaf": 6, "unprimed_leaf": 8}, RayWeights(spine=0.6, primed=0.55),
     (-5, 8)),
    # the window stops above the primed leaf
    ("comb", {"primed_leaf": 6, "unprimed_leaf": 8}, RayWeights(spine=0.6, primed=0.55),
     (-5, 4)),
    ("tilde", None, RayWeights(spine=0.5, primed=0.85), (-6, 12)),
])
def test_x_apply_is_the_matrix_of_one_g_vector_per_column(family, params, weights, levels):
    """``_x_apply`` with one table of g vectors and norms, on each window
    basis vector, gives the reference X bit for bit."""
    op = ShiftOperator(make_family(family, params), weights)
    window = materialize_window(op.model, *levels)
    g, norms = similarity._g_table(op, max(lvl for lvl in window.levels()
                                            if f"{lvl}'" in window))
    x = np.zeros((len(window), len(window)))
    for j, u in enumerate(window.order):
        for v, c in similarity._x_apply(g, norms, SparseVector.basis(u)).items():
            x[window.index_of(v), j] = c
    assert np.array_equal(x, dense_reference.x_matrix(op, window))


# the deepest primed level of the window: the comb's primed leaf 3', or 4'
@pytest.mark.parametrize("family, params, build, levels, deepest", [
    ("comb", {"primed_leaf": 3}, build_leaf_similarity, (-2, 5), 3),
    ("tilde", None, build_tilde_quasiaffinity, (-2, 4), 4),
])
def test_a_witness_reads_the_ray_products_once(monkeypatch, family, params, build, levels,
                                               deepest):
    calls = []
    original = similarity.ray_products

    def counted(operator, upto):
        calls.append(upto)
        return original(operator, upto)

    monkeypatch.setattr(similarity, "ray_products", counted)
    op = ShiftOperator(make_family(family, params), RayWeights(spine=0.6, primed=0.55))
    witness = build(op, materialize_window(op.model, *levels))
    assert calls == [deepest] and len(witness.blocks) == deepest
    assert witness.residual <= 1e-12


@pytest.mark.parametrize("weights", [UnstatedBound(0.9), ExpRayWeights(2.0)])
def test_rooted_cnu_value_is_the_same_at_every_depth_past_the_member(weights):
    op = ShiftOperator(make_family("rooted-path"), weights)
    alpha = alpha_profile(op, materialize_window(op.model, 0, 5)).evaluator
    values = {depth: cnu_level_value(op, alpha, ["3"], depth, DEFAULT_ZERO_THRESHOLD)
              for depth in (3, 4, 64)}
    assert values[3] == values[4] == values[64]
    if isinstance(weights, ExpRayWeights):
        # the squared beta along the whole chain telescope to alpha(3) * prod / alpha(0) = 1
        assert values[3] == pytest.approx(1.0, rel=1e-9)
