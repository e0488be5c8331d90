"""The Br=1 witness operators and the asymptote's rooted c.n.u. value.

The dense window views of the similarity witness read the one sparse
definition of each operator; the references here write the same matrices
out by hand.  The c.n.u. value of a rooted chain is anchored at the root
once the walk reaches it, so it does not depend on the depth past there.
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
    direct_sum_decomposition,
)
from treeshift.sparse import SparseVector
from treeshift.trees import make_family, materialize_window
from treeshift.weights import ExpRayWeights, HashRandomWeights, RayWeights

from conftest import UnstatedBound


def reference_target_matrix(witness):
    """W + N (or the tilde analogue) written forward, column by column: the
    spine shifts with the original weights up to an unprimed leaf, the primed
    ray shifts with the g-norm ratios, and the branch edge into 1' carries
    nothing."""
    win = witness.window
    unprimed_leaf = win.model.unprimed_leaf
    mat = np.zeros((len(win), len(win)))
    for j, u in enumerate(win.order):
        if u.endswith("'"):
            k = int(u[:-1])
            tgt = f"{k + 1}'"
            if tgt in win and (k + 1) in witness.target_primed_weights:
                mat[win.index_of(tgt), j] = witness.target_primed_weights[k + 1]
        else:
            nxt = str(int(u) + 1)
            if nxt in win and (unprimed_leaf is None or int(u) < unprimed_leaf):
                mat[win.index_of(nxt), j] = witness.operator.weight(nxt)
    return mat


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
    op = ShiftOperator(make_family(family, params), weights)
    witness = build(op, materialize_window(op.model, *levels))
    assert np.array_equal(witness.target_matrix(), reference_target_matrix(witness))


def test_direct_sum_decomposition_reads_the_ray_products_once(monkeypatch):
    calls = []
    original = similarity.ray_products

    def counted(operator, upto):
        calls.append(upto)
        return original(operator, upto)

    monkeypatch.setattr(similarity, "ray_products", counted)
    op = ShiftOperator(make_family("tilde"), RayWeights(spine=0.6, primed=0.55))
    x = SparseVector({"1'": 0.5, "2": -1.0, "3'": 2.0, "-2": 0.25, "4'": -0.75})
    dec = direct_sum_decomposition(x, op)
    assert calls == [4]
    assert set(dec.mu) == {1, 3, 4}
    assert set(dec.nu) == {1, 2, 3, 4, -2}
    assert dec.residual <= 1e-12


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
