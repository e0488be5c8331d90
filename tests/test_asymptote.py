"""Isometric asymptotes: weights, classification, cnu diagnostic, intertwining."""

import json
import math

import pytest

from treeshift import asymptote
from treeshift.asymptote import (
    adjoint_intertwining_residual,
    adjoint_isometric_asymptote,
    boundary_deficiency,
    cnu_level_value,
    intertwining_residual,
    isometric_asymptote,
    similar_to_coisometry,
    similar_to_isometry,
)
from treeshift.asymptotics import (
    DEFAULT_MAX_DEPTH,
    adjoint_profile,
    alpha_profile,
    stable_subtree,
)
from treeshift.cli import main
from treeshift.cyclicity import cokernel_dimension
from treeshift.errors import AdjointStable, StableSubtreeEmpty
from treeshift.shifts import ShiftOperator
from treeshift.trees import make_family, materialize_window
from treeshift.weights import (
    BinarySpineWeights,
    ConstantWeights,
    ExpRayWeights,
    HashRandomWeights,
    MapWeights,
    RayWeights,
)

from conftest import (BINARY_ISOMETRY, NaNAdjoint, contractive_operator, full_window,
                      random_finite_tree)


def build(op, lo, hi, **kw):
    window = materialize_window(op.model, lo, hi, kw.pop("breadth", 64))
    profile = alpha_profile(op, window)
    stable = stable_subtree(profile, kw.pop("zero_threshold", 1e-9))
    return window, profile, stable


# -- the asymptote of the shift ----------------------------------------------------

def test_beta_is_one_on_c1_chains():
    op = ShiftOperator(make_family("bilateral-path"), ExpRayWeights(2.0, 1))
    window, profile, stable = build(op, -6, 6)
    descriptor = isometric_asymptote(op, profile, stable)
    assert descriptor.beta
    for v, b in descriptor.beta.items():
        assert b == pytest.approx(1.0, abs=1e-10)


def test_binary_isometry_asymptote_is_itself():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window, profile, stable = build(op, 0, 4)
    descriptor = isometric_asymptote(op, profile, stable)
    assert descriptor.classification == "cnu-unilateral"
    assert descriptor.multiplicity == math.inf
    for v, b in descriptor.beta.items():
        assert b == pytest.approx(op.weight(v))
    assert descriptor.cnu_value <= 2.0 ** -60


def test_binary_spine_has_unitary_part():
    op = ShiftOperator(make_family("rootless-binary"), BinarySpineWeights())
    assert op.is_certified_isometry()
    window, profile, stable = build(op, 0, 4)
    descriptor = isometric_asymptote(op, profile, stable)
    assert descriptor.classification == "bilateral-plus-unilateral"
    # the spine chain alone already keeps the generation sum positive
    spine_bound = math.exp(-2.0 * sum(1.0 / (j + 1) ** 2 for j in range(64)))
    assert descriptor.cnu_value >= spine_bound * 0.99


def test_stable_subtree_empty_rejected(rng):
    op = contractive_operator(rng, random_finite_tree(rng, 20))
    window = full_window(op.model)
    profile = alpha_profile(op, window)
    stable = stable_subtree(profile)
    with pytest.raises(StableSubtreeEmpty):
        isometric_asymptote(op, profile, stable)


def test_rooted_asymptote_is_unilateral():
    op = ShiftOperator(make_family("rooted-path"), ExpRayWeights(2.0, 1))
    window, profile, stable = build(op, 0, 8)
    descriptor = isometric_asymptote(op, profile, stable)
    assert descriptor.classification == "unilateral"
    assert descriptor.multiplicity == 1
    assert descriptor.to_json()["multiplicity"] == "1"  # a count is a string, as Br is


def test_mixed_subtree_asymptote_is_pure_bilateral():
    # spine products stay positive while the primed ray decays: the asymptote
    # lives on the bilateral spine alone, with no unilateral summands
    from treeshift.weights import WeightAssignment

    class SpineAlive(WeightAssignment):
        def weight(self, model, v):
            if v.endswith("'"):
                return 0.5
            return 0.6 if v == "1" else 1.0

        def max_weight(self):
            return 1.0

        def convergence_floor_level(self, model):
            return 1  # weights are unit at every level below the branch

    op = ShiftOperator(make_family("tilde"), SpineAlive())
    window, profile, stable = build(op, -5, 5)
    assert all(not u.endswith("'") for u in stable.members)
    descriptor = isometric_asymptote(op, profile, stable)
    assert descriptor.classification == "bilateral-plus-unilateral"
    assert descriptor.multiplicity == 0
    assert descriptor.cnu_value > 1e-9
    # the surviving spine weights rescale to an exact unitary
    for v, b in descriptor.beta.items():
        assert b == pytest.approx(1.0, abs=1e-10)


# -- cnu diagnostic -----------------------------------------------------------------

def test_cnu_unitary_bilateral_is_one():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(1.0))
    window, profile, stable = build(op, -4, 4)
    descriptor = isometric_asymptote(op, profile, stable)
    assert descriptor.cnu_value == pytest.approx(1.0)
    assert descriptor.classification == "bilateral-plus-unilateral"
    assert descriptor.multiplicity == 0  # a pure bilateral shift


def test_cnu_spine_of_ones_forces_unitary_part():
    # isometric tilde: branch children share the unit mass, every other
    # weight is 1, so the ancestor products along the spine stay 1
    op = ShiftOperator(make_family("tilde"),
                       RayWeights(spine=1.0, primed=1.0,
                                  branch_spine=1 / math.sqrt(2),
                                  branch_primed=1 / math.sqrt(2)))
    assert op.is_certified_isometry()
    window, profile, stable = build(op, -5, 5)
    descriptor = isometric_asymptote(op, profile, stable)
    assert descriptor.cnu_value >= 1.0 - 1e-9
    assert descriptor.classification == "bilateral-plus-unilateral"


def test_cnu_level_independence():
    for op in (
        ShiftOperator(make_family("bilateral-path"), ConstantWeights(1.0)),
        ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY)),
    ):
        window, profile, stable = build(op, 0, 4)
        descriptor = isometric_asymptote(op, profile, stable)
        values = [cnu_level_value(op, profile.evaluator, stable.members_at(lvl),
                                  DEFAULT_MAX_DEPTH, stable.zero_threshold)
                  for lvl in window.levels()]
        assert max(values) - min(values) <= 1e-9
        # the descriptor's value is the top level's, the one it classifies by
        assert repr(descriptor.cnu_value) == repr(values[0])


def test_asymptote_takes_one_cnu_sum(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return cnu_level_value(*args)

    monkeypatch.setattr(asymptote, "cnu_level_value", counted)
    tree, weights = tmp_path / "tree.json", tmp_path / "weights.json"
    tree.write_text(json.dumps({"family": "bilateral-path", "params": {}}))
    weights.write_text(json.dumps({"kind": "family", "name": "exp-ray",
                                   "params": {"base": 2.0, "start_level": -3}}))
    assert main(["asymptote", "--tree", str(tree), "--weights", str(weights),
                 "--levels=-3:3"]) == 0
    assert "cnu diagnostic: 1.12535e-07" in capsys.readouterr().out
    assert calls == [["-3"]]


# -- the adjoint's asymptote ---------------------------------------------------------

def test_adjoint_asymptote_unitary_bilateral():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(1.0))
    window = materialize_window(op.model, -4, 4)
    adj = adjoint_profile(op, window)
    descriptor = adjoint_isometric_asymptote(op, adj)
    assert descriptor.shift_type == "simple-bilateral"
    assert all(c == pytest.approx(1.0) for c in descriptor.coefficients.values())


def test_adjoint_asymptote_one_leaf_comb_is_bilateral():
    model = make_family("comb", {"primed_leaf": 2})
    op = ShiftOperator(model, MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    window = materialize_window(model, -5, 5)
    adj = adjoint_profile(op, window)
    descriptor = adjoint_isometric_asymptote(op, adj)
    assert descriptor.shift_type == "simple-bilateral"


def test_adjoint_asymptote_last_level_is_unilateral():
    model = make_family("comb", {"primed_leaf": 2, "unprimed_leaf": 4})
    op = ShiftOperator(model, MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    window = materialize_window(model, -5, 5)
    adj = adjoint_profile(op, window)
    descriptor = adjoint_isometric_asymptote(op, adj)
    assert descriptor.shift_type == "simple-unilateral"


def test_adjoint_asymptote_rooted_rejected(rng):
    op = contractive_operator(rng, random_finite_tree(rng, 15))
    adj = adjoint_profile(op, full_window(op.model))
    with pytest.raises(AdjointStable):
        adjoint_isometric_asymptote(op, adj)


def test_adjoint_coefficient_telescoping():
    model = make_family("bilateral-path")
    op = ShiftOperator(model, MapWeights({"0": 0.8, "1": 0.9}, default=1.0))
    window = materialize_window(model, -4, 4)
    adj = adjoint_profile(op, window)
    descriptor = adjoint_isometric_asymptote(op, adj)
    a = {lvl: h.norm_sq for lvl, h in adj.h_vectors.items()}
    prod = 1.0
    for lvl in range(3, -1, -1):
        prod *= descriptor.coefficients[lvl + 1]
        assert prod == pytest.approx(math.sqrt(a[4] / a[4 - (4 - lvl)]), abs=1e-10)


# -- intertwining --------------------------------------------------------------------

def test_intertwining_binary_exact():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window, profile, stable = build(op, 0, 4)
    descriptor = isometric_asymptote(op, profile, stable)
    assert intertwining_residual(op, descriptor, profile, window) <= 1e-12


def test_intertwining_exp_bilateral():
    op = ShiftOperator(make_family("bilateral-path"), ExpRayWeights(2.0, 1))
    window, profile, stable = build(op, -6, 6)
    descriptor = isometric_asymptote(op, profile, stable)
    assert intertwining_residual(op, descriptor, profile, window) <= 1e-9


def test_intertwining_reads_children_through_the_operator_memo():
    """After ``stable_subtree`` the stable members' children are in the
    operator's memo, so the asymptote, its residual and its truncation ask
    the model for none."""
    model = make_family("rootless-binary")
    calls = []

    class ChildrenCounting(type(model)):
        def children(self, u):
            calls.append(u)
            return super().children(u)

    model.__class__ = ChildrenCounting
    op = ShiftOperator(model, ConstantWeights(BINARY_ISOMETRY))
    window = materialize_window(model, -3, 4, breadth=16)
    profile = alpha_profile(op, window)
    stable = stable_subtree(profile)
    calls.clear()
    descriptor = isometric_asymptote(op, profile, stable)
    assert intertwining_residual(op, descriptor, profile, window) <= 1e-12
    descriptor.dense_truncation(window)
    assert calls == []


def test_adjoint_intertwining_residual():
    model = make_family("bilateral-path")
    op = ShiftOperator(model, MapWeights({"0": 0.8, "-1": 0.9}, default=1.0))
    window = materialize_window(model, -6, 6)
    adj = adjoint_profile(op, window)
    descriptor = adjoint_isometric_asymptote(op, adj)
    assert adjoint_intertwining_residual(op, descriptor) <= 1e-9


class _NaNWeight(ShiftOperator):
    def weight(self, v):
        return math.nan


def test_intertwining_residual_keeps_a_nan():
    """``max(0.0, nan)`` is 0.0: a running max would report a NaN term as
    an exact intertwining."""
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window, profile, stable = build(op, 0, 4)
    descriptor = isometric_asymptote(op, profile, stable)
    assert math.isnan(intertwining_residual(_NaNWeight(op.model, op.weights), descriptor,
                                            profile, window))


def test_adjoint_intertwining_residual_keeps_a_nan():
    model = make_family("bilateral-path")
    op = ShiftOperator(model, MapWeights({"0": 0.8, "-1": 0.9}, default=1.0))
    descriptor = adjoint_isometric_asymptote(op, adjoint_profile(
        op, materialize_window(model, -6, 6)))
    assert math.isnan(adjoint_intertwining_residual(NaNAdjoint(model, op.weights),
                                                    descriptor))


def test_isometry_law_for_beta():
    op = ShiftOperator(make_family("bilateral-path"), ExpRayWeights(2.0, 1))
    window, profile, stable = build(op, -6, 6)
    descriptor = isometric_asymptote(op, profile, stable)
    for u in stable.members & set(window.forward_interior()):
        kids = [v for v in stable.children_in(u) if v in descriptor.beta]
        if kids:
            assert sum(descriptor.beta[v] ** 2 for v in kids) == pytest.approx(1.0, abs=1e-9)


def test_multiplicity_matches_window_cokernel():
    # rooted chain: multiplicity 1, no boundary artifact (the root is inside)
    op = ShiftOperator(make_family("rooted-path"), ExpRayWeights(2.0, 1))
    window, profile, stable = build(op, 0, 8)
    descriptor = isometric_asymptote(op, profile, stable)
    mat, members = descriptor.dense_truncation(window)
    coker = cokernel_dimension(mat)
    artificial = boundary_deficiency(window, stable.members)
    assert coker - artificial == descriptor.multiplicity == 1

    # leafless Br=1: multiplicity Br(T') = 1 after removing the spine-top artifact
    tilde = ShiftOperator(make_family("tilde"), MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    window, profile, stable = build(tilde, -5, 5)
    descriptor = isometric_asymptote(tilde, profile, stable)
    mat, members = descriptor.dense_truncation(window)
    coker = cokernel_dimension(mat)
    artificial = boundary_deficiency(window, stable.members)
    assert coker - artificial == descriptor.multiplicity == 1


# -- similarity corollaries ------------------------------------------------------------

def test_similar_to_isometry_answers(rng):
    yes = ShiftOperator(make_family("rooted-path"), ExpRayWeights(2.0, 1))
    window = materialize_window(yes.model, 0, 8)
    answer = similar_to_isometry(yes, alpha_profile(yes, window))
    assert answer.answer == "yes"
    # the closed-form infimum is the base-level limit exp(-2)
    assert f"{math.exp(-2.0):.6g}" in answer.reason

    no = ShiftOperator(make_family("rooted-path"), ConstantWeights(0.5))
    window = materialize_window(no.model, 0, 8)
    assert similar_to_isometry(no, alpha_profile(no, window)).answer == "no"

    finite = contractive_operator(rng, random_finite_tree(rng, 12))
    window = full_window(finite.model)
    assert similar_to_isometry(finite, alpha_profile(finite, window)).answer == "no"


def test_similar_to_coisometry_answers():
    tilde = ShiftOperator(make_family("tilde"), MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    window = materialize_window(tilde.model, -5, 5)
    assert similar_to_coisometry(tilde, window).answer == "no"

    ones = ShiftOperator(make_family("bilateral-path"), ConstantWeights(1.0))
    window = materialize_window(ones.model, -5, 5)
    assert similar_to_coisometry(ones, window).answer == "yes"

    half = ShiftOperator(make_family("bilateral-path"), ConstantWeights(0.5))
    window = materialize_window(half.model, -5, 5)
    assert similar_to_coisometry(half, window).answer == "no"


@pytest.mark.parametrize("family, params", [("tilde", None), ("comb", {"primed_leaf": 2})])
def test_similar_to_coisometry_above_the_branch_vertex(family, params):
    op = ShiftOperator(make_family(family, params), ConstantWeights(0.6))
    window = materialize_window(op.model, 1, 4)
    assert not any(len(op.children(u)) > 1 for u in window)
    answer = similar_to_coisometry(op, window)
    assert (answer.answer, answer.reason) == ("no", "family has positive branching index")


def test_similar_to_coisometry_closed_forms():
    exp = ShiftOperator(make_family("bilateral-path"), ExpRayWeights(2.0, 1))
    window = materialize_window(exp.model, -5, 5)
    # the two-sided log-sum is a finite geometric series: product positive
    assert similar_to_coisometry(exp, window).answer == "yes"

    padded = ShiftOperator(make_family("bilateral-path"),
                           MapWeights({"0": 0.6}, default=1.0))
    assert similar_to_coisometry(padded, window).answer == "yes"

    leaky = ShiftOperator(make_family("bilateral-path"),
                          MapWeights({"0": 0.6}, default=0.9))
    assert similar_to_coisometry(leaky, window).answer == "no"


def test_similar_to_coisometry_answers_only_from_a_closed_form():
    path = make_family("bilateral-path")
    window = materialize_window(path, -2, 2)
    # every weight at most 0.9 < 1: the full product vanishes
    hashed = ShiftOperator(path, HashRandomWeights(3, 0.5, 0.9))
    assert similar_to_coisometry(hashed, window).to_json() == {
        "answer": "no", "reason": "full weight product vanishes (closed form)"}
    # weights above 1 give no bound, and a map without default none either:
    # its window log-sum of -35 says nothing of the weights outside the window
    unbounded = ShiftOperator(path, HashRandomWeights(3, 0.01, 1.5))
    sparse = ShiftOperator(path, MapWeights({str(n): 0.001 for n in range(-3, 3)}))
    for op in (unbounded, sparse):
        assert similar_to_coisometry(op, window).to_json() == {
            "answer": "undetermined", "reason": "no closed form for the full weight product"}


def test_descriptor_json_shape():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window, profile, stable = build(op, 0, 3)
    doc = isometric_asymptote(op, profile, stable).to_json()
    assert set(doc) == {"beta", "class", "multiplicity", "cnu_test"}
    assert doc["multiplicity"] == "inf"
