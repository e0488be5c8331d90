"""Forward and adjoint limit profiles, stable subtree, classification."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from treeshift import asymptotics
from treeshift.asymptote import cnu_level_value
from treeshift.asymptotics import (
    AlphaEvaluator,
    VertexEstimate,
    adjoint_profile,
    alpha_profile,
    ancestor_products,
    classify,
    stable_subtree,
    _adjoint_level,
    _generation,
    CONSECUTIVE_SMALL,
    CONVERGED,
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    EXACT_ONE,
    EXACT_ZERO,
    FRONTIER_CAP,
    MAX_DEPTH,
)
from treeshift.cli import main
from treeshift.errors import NotAContraction, StructuralViolation, WeightError
from treeshift.shifts import ShiftOperator, vector_to_dense
from treeshift.trees import make_family, materialize_window, validate_finite
from treeshift.weights import (
    BinarySpineWeights,
    ConstantWeights,
    ExpRayWeights,
    GeometricWeights,
    HashRandomWeights,
    MapWeights,
    RayWeights,
    StepWeights,
    WeightAssignment,
)

from conftest import (BINARY_ISOMETRY, UnstatedBound, contractive_operator, full_window,
                      random_finite_tree, reference_floor)
from test_memoized_queries import ref_adjoint_level, ref_descend, ref_read_off


def exp_path(base=2.0, start=1):
    model = make_family("rooted-path")
    return ShiftOperator(model, ExpRayWeights(base, start))


# -- forward profiles -------------------------------------------------------------

def test_isometry_gives_exact_one():
    for family, weights in (("bilateral-path", ConstantWeights(1.0)),
                            ("rootless-binary", BinarySpineWeights())):
        op = ShiftOperator(make_family(family), weights)
        window = materialize_window(op.model, 0, 4)
        prof = alpha_profile(op, window)
        assert all(r.status == EXACT_ONE and r.estimate == 1.0 for r in prof.records.values())


def test_finite_tree_is_exactly_stable(rng):
    op = contractive_operator(rng, random_finite_tree(rng, 40))
    window = full_window(op.model)
    prof = alpha_profile(op, window)
    assert all(r.status == EXACT_ZERO and r.estimate == 0.0 for r in prof.records.values())


class SplitCones(WeightAssignment):
    """Rootless binary weights: isometric everywhere but below "0:1", where
    each step scales the partial sums by 2 * 0.67^2 < 1."""

    def weight(self, model, v):
        return 0.67 if v.startswith("0:1") else BINARY_ISOMETRY

    def max_weight(self):
        return BINARY_ISOMETRY


def test_a_read_off_record_takes_its_weakest_childs_status():
    """Below "1" the partial sums are flat and converge; below "0:1" the
    frontier passes the cap first.  alpha[0] is read off both, and the
    max-depth child, the second of the two, sets its status."""
    model = make_family("rootless-binary")
    window = materialize_window(model, 0, 1)
    records = alpha_profile(ShiftOperator(model, SplitCones()), window).records
    assert model.children("0") == ("1", "0:1")
    assert [(records[v].status, records[v].depth) for v in ("1", "0:1")] == \
        [(CONVERGED, 8), (MAX_DEPTH, 13)]
    assert (records["0"].status, records["0"].depth) == (MAX_DEPTH, 14)


def test_exp_ray_alpha_closed_form():
    op = exp_path()
    window = materialize_window(op.model, 0, 10)
    prof = alpha_profile(op, window)
    for k in range(0, 11):
        want = math.exp(-(2.0 ** (1 - k)))
        rec = prof.record(str(k))
        assert rec.status == CONVERGED
        assert rec.estimate == pytest.approx(want, abs=1e-8)


def test_partial_sums_monotone_and_upper_bound():
    op = exp_path()
    window = materialize_window(op.model, 0, 6)
    prof = alpha_profile(op, window)
    for k in range(0, 7):
        rec = prof.record(str(k))
        # the estimate is a certified upper bound for the true limit
        assert rec.estimate >= math.exp(-(2.0 ** (1 - k))) - 1e-12
        assert rec.estimate <= rec.upper <= 1.0


def test_not_a_contraction_rejected():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(1.5))
    window = materialize_window(op.model, -3, 3)
    with pytest.raises(NotAContraction):
        alpha_profile(op, window)


class UnboundedGeometric(GeometricWeights):
    """Geometric weights that do not state their (infinite) largest weight,
    so the norm is read on the window alone."""

    def max_weight(self):
        return None


@pytest.mark.parametrize("family,ratio,seen", [
    ("bilateral-path", 1.5, "rose from 0.5625 to 0.7119140625 at depth 2 below vertex '0'"),
    ("tilde", 1.3, "rose from 0.6033511250000002 to 0.7280651600775315 at depth 3 "
                   "below vertex '0'"),
], ids=["lumped", "per-vertex"])
def test_rising_partial_sums_are_reported_as_seen(family, ratio, seen):
    """The window norm at level 0 is below 1, so the descent is what sees the
    non-contraction: on the bilateral path s_2 = 0.5625 * 1.125^2 > s_1."""
    op = ShiftOperator(make_family(family), UnboundedGeometric(0.5, ratio))
    window = materialize_window(op.model, 0, 0)
    assert op.operator_norm(window).value < 1.0
    with pytest.raises(NotAContraction) as caught:
        alpha_profile(op, window)
    assert str(caught.value) == f"not a contraction: the partial sums of S*^n S^n {seen}"
    assert caught.value.exit_code == 3


STAR_WEIGHTS = {"a": 0.867650633276726, "b": 0.4794833496548955, "c": 0.13144617140950746}


def test_a_contraction_whose_float_column_sum_exceeds_1_is_analyzed(tmp_path, capsys):
    """The star r -> a, b, c is a contraction: its one column's exact square
    sum is 1 - 2.4e-19.  Its float sum rounds to 1 + 2^-52, so a test of the
    contraction, or of rising partial sums, that compares the float sums with
    1 and nothing else rejects it."""
    exact = sum(Fraction(x) ** 2 for x in STAR_WEIGHTS.values())
    assert 0 < 1 - exact < Fraction(3, 10 ** 19)
    assert sum(x ** 2 for x in STAR_WEIGHTS.values()) == 1 + 2.0 ** -52
    tree, weights = tmp_path / "star.json", tmp_path / "star_w.json"
    tree.write_text(json.dumps({"vertices": ["r", "a", "b", "c"],
                                "edges": [["r", "a"], ["r", "b"], ["r", "c"]]}))
    weights.write_text(json.dumps({"kind": "map", "values": STAR_WEIGHTS}))
    assert main(["analyze", "--tree", str(tree), "--weights", str(weights),
                 "--levels", "0:0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  alpha[r] = 0 (exact-zero, depth 2)\n" in captured.out


def test_alpha_recursion_residual(rng):
    instances = [contractive_operator(rng, random_finite_tree(rng, 40)),
                 exp_path(), exp_path(2.5, 0)]
    for op in instances:
        window = (full_window(op.model) if op.model.kind == "finite"
                  else materialize_window(op.model, 0, 8))
        prof = alpha_profile(op, window)
        for u in window.forward_interior():
            total = sum(op.weight(v) ** 2 * prof.estimate(v) for v in op.model.children(u))
            assert abs(prof.estimate(u) - total) <= 1e-9


def test_dense_oracle_nilpotent_alpha(rng):
    tree = random_finite_tree(rng, 25)
    op = contractive_operator(rng, tree)
    window = full_window(tree)
    mat = op.dense_truncation(window)
    power = np.linalg.matrix_power(mat, tree.depth() + 1)
    gram = power.T @ power
    assert np.max(np.abs(gram)) == 0.0  # alpha is exactly the zero diagonal


# -- exact-zero cones read off their children ---------------------------------------

def chain_operator(length, weight):
    """The finite path c00 -> c01 -> ... with one constant weight."""
    names = [f"c{i:02d}" for i in range(length)]
    tree = validate_finite(names, list(zip(names, names[1:])))
    return ShiftOperator(tree, ConstantWeights(weight))


def test_a_dying_chain_reads_exact_zero_at_its_height():
    """Tiny weights make the descent's decrements small at once; the cone
    still dies inside the window, so the limit is exactly 0, not
    'converged'."""
    op = chain_operator(20, 0.01)
    prof = alpha_profile(op, full_window(op.model))
    for i in range(20):
        assert prof.record(f"c{i:02d}") == VertexEstimate(f"c{i:02d}", 0.0, 0.0, EXACT_ZERO,
                                                          20 - i)


def test_a_cone_wider_than_the_frontier_cap_reads_exact_zero(tmp_path, capsys):
    """r -> m -> 5,000 leaves: the descent from m stops at the frontier cap,
    but every child of m is a leaf, so m and r are exact-zero, the stable
    subtree is empty (no 'leafless' violation) and there is no asymptote."""
    leaves = [f"l{i}" for i in range(5000)]
    assert len(leaves) > FRONTIER_CAP
    tree = tmp_path / "star.json"
    tree.write_text(json.dumps({"vertices": ["r", "m"] + leaves,
                                "edges": [["r", "m"]] + [["m", leaf] for leaf in leaves]}))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"kind": "constant", "value": 0.01}))
    argv = ["--tree", str(tree), "--weights", str(weights), "--levels=0:2", "--breadth", "6000"]
    assert main(["analyze", *argv]) == 0
    out = capsys.readouterr().out
    assert "alpha[r] = 0 (exact-zero, depth 3)" in out
    assert "alpha[m] = 0 (exact-zero, depth 2)" in out
    assert "stable subtree: 0/5002 window vertices" in out
    assert main(["asymptote", *argv]) == 4
    assert "StableSubtreeEmpty" in capsys.readouterr().err


def test_a_path_longer_than_the_depth_budget_still_descends():
    """A cone within the budget is read off; one past it keeps the descent's
    max-depth record, bit for bit."""
    op = chain_operator(20, 0.999)
    prof = alpha_profile(op, full_window(op.model), max_depth=10)
    assert prof.record("c10") == VertexEstimate("c10", 0.0, 0.0, EXACT_ZERO, 10)
    reference = ShiftOperator(op.model, op.weights)
    for i in range(10):
        u = f"c{i:02d}"
        assert prof.record(u).status == MAX_DEPTH
        assert repr(prof.record(u)) == repr(VertexEstimate(u, *ref_descend(reference, u,
                                                                          max_depth=10)))


# -- the family bound f * M^2 < 1 ---------------------------------------------------

def _ulps(center, k):
    """The double ``k`` steps from ``center``."""
    toward = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        center = math.nextafter(center, toward)
    return center


@pytest.mark.parametrize("family,fan,center", [("rootless-binary", 2, 1 / math.sqrt(2)),
                                               ("bilateral-path", 1, 1.0)])
@pytest.mark.parametrize("k", range(-4, 5))
def test_the_family_bound_is_decided_exactly_on_the_double(family, fan, center, k):
    c = _ulps(center, k)
    op = ShiftOperator(make_family(family), ConstantWeights(c))
    window = materialize_window(op.model, 0, 2)
    vanish = Fraction(c) ** 2 * fan < 1
    assert op.is_certified_vanishing() == vanish
    forward = alpha_profile(op, window).records.values()
    adjoint = adjoint_profile(op, window)
    if vanish:
        assert not op.is_certified_isometry()
        for records in (forward, adjoint.profile.records.values()):
            assert all((r.estimate, r.upper, r.status, r.depth) == (0.0, 0.0, EXACT_ZERO, 0)
                       for r in records)
        assert sorted(adjoint.h_vectors) == window.levels()
        for lvl, h in adjoint.h_vectors.items():
            rec = adjoint.profile.record(window.vertices_at(lvl)[0])
            assert (h.norm_sq, rec.status, rec.depth, h.coefficients.coeffs) \
                == (0.0, EXACT_ZERO, 0, {})
    else:
        assert not any(r.status == EXACT_ZERO for r in forward)


def _every_column_square_sum_is_one(op):
    """Each column's square-sum in Fractions, on a window that holds every kind
    of column of the family (the branch vertex and both rays of a tilde)."""
    window = materialize_window(op.model, -2, 3)
    return all(sum(Fraction(op.weight(v)) ** 2 for v in op.children(u)) == 1
               for u in window.order)


@pytest.mark.parametrize("family,center", [("rootless-binary", 1 / math.sqrt(2)),
                                           ("rooted-path", 1.0), ("bilateral-path", 1.0)])
@pytest.mark.parametrize("k", range(-8, 9))
def test_a_constant_isometry_is_certified_on_exact_doubles_alone(family, center, k):
    op = ShiftOperator(make_family(family), ConstantWeights(_ulps(center, k)))
    assert op.is_certified_isometry() == _every_column_square_sum_is_one(op)
    assert op.is_certified_isometry() == (family != "rootless-binary" and k == 0)
    assert not (op.is_certified_isometry() and op.is_certified_vanishing())


_NEAR_UNIT_RAYS = [(1.0, 1.0, _ulps(0.6, i), _ulps(0.8, j)) for i in range(-3, 4)
                   for j in range(-3, 4)]
_NEAR_UNIT_RAYS += [(1.0, 1.0, _ulps(1 / math.sqrt(2), i), _ulps(1 / math.sqrt(2), j))
                    for i in range(-3, 4) for j in range(-3, 4)]
_NEAR_UNIT_RAYS += [(spine, primed, 0.6, 0.8) for spine, primed in
                    ((_ulps(1.0, -1), 1.0), (_ulps(1.0, 1), 1.0),
                     (1.0, _ulps(1.0, -1)), (1.0, _ulps(1.0, 1)))]


def test_no_rays_law_on_doubles_is_a_certified_isometry():
    """s^2 + p^2 = 1 has no solution in positive doubles (s = a/2^k, p = b/2^k
    and a^2 + b^2 = 4^k force a or b to be 0), so no rays law near a unit
    split of the branch vertex is certified."""
    for params in _NEAR_UNIT_RAYS:
        op = ShiftOperator(make_family("tilde"), RayWeights(*params))
        assert not _every_column_square_sum_is_one(op)
        assert not op.is_certified_isometry()


@pytest.mark.parametrize("family,value,levels", [
    ("rootless-binary", 0.7071067811866, "0:1"),
    ("rootless-binary", math.sqrt(0.5), "0:1"),
    ("bilateral-path", 1.00000000000005, "-1:1")])
def test_an_isometry_within_rounding_prints_no_certificate(
        tmp_path, capsys, family, value, levels):
    tree, weights = tmp_path / "tree.json", tmp_path / "weights.json"
    tree.write_text(json.dumps({"family": family, "params": {}}))
    weights.write_text(json.dumps({"kind": "constant", "value": value}))
    assert main(["analyze", "--tree", str(tree), "--weights", str(weights),
                 f"--levels={levels}"]) == 0
    out = capsys.readouterr().out
    assert "exact-one" not in out
    assert "forward: C1dot (certified)" not in out
    assert "certified isometry" not in out


def test_a_map_without_default_proves_nothing_and_still_raises():
    op = ShiftOperator(make_family("tilde"), MapWeights({"1": 0.5, "1'": 0.5, "2": 0.5}))
    assert op.weights.tail is None and not op.is_certified_vanishing()
    with pytest.raises(WeightError, match="no weight assigned to vertex '3'"):
        AlphaEvaluator(op)("1")
    padded = ShiftOperator(make_family("tilde"),
                           MapWeights({"1": 0.5, "1'": 0.5, "2": 0.5}, default=0.5))
    assert padded.is_certified_vanishing()


def test_finite_tree_alpha_records_are_read_off_the_frontier(rng):
    # small weights, which the bound would cover on an infinite tree
    tree = random_finite_tree(rng, 60)
    op = ShiftOperator(tree, MapWeights(dict.fromkeys(
        (v for v in tree.vertices() if v != tree.root), 0.3)))
    assert not op.is_certified_vanishing()
    height = {}
    for u in reversed(tree.vertices()):  # level-major: children first
        height[u] = 1 + max((height[v] for v in tree.children(u)), default=0)
    window = full_window(tree)
    assert repr(alpha_profile(op, window).records) == repr(
        {u: VertexEstimate(u, 0.0, 0.0, EXACT_ZERO, height[u]) for u in window.order})


def test_the_family_bound_empties_the_stable_subtree_exactly():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(0.7))
    window = materialize_window(op.model, 0, 1)
    stable = stable_subtree(alpha_profile(op, window))
    assert stable.members == set() and stable.branching == (0, True)


# -- stable subtree ----------------------------------------------------------------

def test_stable_subtree_binary_everything():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window = materialize_window(op.model, 0, 4)
    stable = stable_subtree(alpha_profile(op, window))
    assert stable.members == set(window.order)
    assert stable.branching == (math.inf, True)


def test_stable_subtree_finite_empty(rng):
    op = contractive_operator(rng, random_finite_tree(rng, 30))
    stable = stable_subtree(alpha_profile(op, full_window(op.model)))
    assert stable.members == set()


def test_stable_subtree_bilateral_exp_all_members():
    op = ShiftOperator(make_family("bilateral-path"), ExpRayWeights(2.0, 1))
    window = materialize_window(op.model, -6, 6)
    stable = stable_subtree(alpha_profile(op, window))
    assert stable.members == set(window.order)
    assert stable.branching == (0, True)


def test_stable_subtree_threshold_misconfiguration_detected():
    op = exp_path()
    window = materialize_window(op.model, 0, 6)
    prof = alpha_profile(op, window)
    # a threshold between alpha_0 and alpha_1 breaks parent-closure
    bad = (prof.estimate("0") + prof.estimate("1")) / 2.0
    with pytest.raises(StructuralViolation):
        stable_subtree(prof, zero_threshold=bad)


def test_stable_subtree_tilde_mixed_rays():
    # spine products stay positive, primed ray dies: V' = the bilateral spine
    model = make_family("tilde")
    weights = MapWeights({"1": 0.6, "1'": 0.6}, default=1.0)

    class PrimedDecay(MapWeights):
        def weight(self, m, v):
            if v.endswith("'") and v != "1'":
                return 0.5
            return super().weight(m, v)

    op = ShiftOperator(model, PrimedDecay({"1": 0.6, "1'": 0.6}, default=1.0))
    window = materialize_window(model, -5, 5)
    prof = alpha_profile(op, window)
    stable = stable_subtree(prof)
    assert all(not u.endswith("'") for u in stable.members)
    assert {"0", "3", "-4"} <= stable.members
    assert stable.branching == (0, True)


def test_stable_subtree_reads_children_through_the_operator_memo():
    """Each stable member's children come from the operator's memo, so the
    model is asked at most once per vertex and a second call asks it
    nothing."""
    model = make_family("rootless-binary")
    calls = []

    class ChildrenCounting(type(model)):
        def children(self, u):
            calls.append(u)
            return super().children(u)

    model.__class__ = ChildrenCounting
    op = ShiftOperator(model, ConstantWeights(BINARY_ISOMETRY))
    window = materialize_window(model, -3, 4, breadth=16)
    prof = alpha_profile(op, window)
    calls.clear()
    stable = stable_subtree(prof)
    assert stable.members == set(window.order) and len(window) == 79
    assert len(calls) == len(set(calls)) <= len(window)
    calls.clear()
    assert stable_subtree(prof) == stable and calls == []


# -- adjoint profiles ---------------------------------------------------------------

def test_adjoint_rooted_certified_zero(rng):
    op = contractive_operator(rng, random_finite_tree(rng, 20))
    window = full_window(op.model)
    adj = adjoint_profile(op, window)
    assert op.model.is_rooted
    assert all(r.status == EXACT_ZERO for r in adj.profile.records.values())
    cls = classify(alpha_profile(op, window), adj)
    assert (cls.adjoint, cls.adjoint_certified) == ("Cdot0", True)
    assert "adjoint: Cdot0 (certified: rooted tree)" in cls.notes


def test_adjoint_bilateral_product_formula(rng):
    values = {str(k): rng.uniform(0.5, 1.0) for k in range(-10, 11)}
    op = ShiftOperator(make_family("bilateral-path"), MapWeights(values, default=1.0))
    window = materialize_window(op.model, -10, 10)
    adj = adjoint_profile(op, window)
    for k in range(-10, 11):
        want = math.prod(values[str(j)] ** 2 for j in range(-10, k + 1))
        assert adj.profile.estimate(str(k)) == pytest.approx(want, abs=1e-10)
        assert adj.profile.record(str(k)).status == CONVERGED


def test_adjoint_unitary_bilateral():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(1.0))
    window = materialize_window(op.model, -4, 4)
    adj = adjoint_profile(op, window)
    for lvl, h in adj.h_vectors.items():
        assert h.norm_sq == pytest.approx(1.0)
        assert h.coefficients.coeffs == {str(lvl): pytest.approx(1.0)}


def test_adjoint_level_constancy_across_representatives(monkeypatch):
    monkeypatch.setattr(asymptotics, "ADJOINT_GEN_CAP", 4096)
    model = make_family("tilde")
    op = ShiftOperator(model, MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    window = materialize_window(model, -5, 5)
    lvl = 3
    reps = window.vertices_at(lvl)
    assert len(reps) == 2
    rec_a, _ = _adjoint_level(op, reps[0], 64, 1e-10)
    rec_b, _ = _adjoint_level(op, reps[1], 64, 1e-10)
    assert rec_a.estimate == pytest.approx(rec_b.estimate, abs=1e-9)


def test_adjoint_all_or_nothing():
    model = make_family("tilde")
    op = ShiftOperator(model, MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    window = materialize_window(model, -5, 5)
    adj = adjoint_profile(op, window)
    values = [h.norm_sq for h in adj.h_vectors.values()]
    assert all(v > 1e-9 for v in values) or all(v <= 1e-9 for v in values)


def test_adjoint_limit_outer_product_structure():
    # on a branching level the limit of M^n M^T^n couples the two rays:
    # the (v, u) entry is the product of the two infinite ancestor products
    model = make_family("tilde")
    op = ShiftOperator(model, MapWeights({"1": 0.6, "1'": 0.7, "2": 0.9, "2'": 0.8},
                                         default=1.0))
    window = materialize_window(model, -16, 5)
    mat = op.dense_truncation(window)
    n = 9  # clears the non-unit support and reaches both rays
    approx = np.linalg.matrix_power(mat, n) @ np.linalg.matrix_power(mat.T, n)

    def ancestor_product(u, depth=30):
        prod, w = 1.0, u
        for _ in range(depth):
            prod *= op.weight(w)
            w = model.parent(w)
        return prod

    for u, v in (("3", "3'"), ("3", "3"), ("3'", "3'"), ("2", "2'")):
        want = ancestor_product(u) * ancestor_product(v)
        got = approx[window.index_of(v), window.index_of(u)]
        assert got == pytest.approx(want, abs=1e-12)


def test_adjoint_eigen_equation_dense_oracle(rng):
    # padded weights: the limit operator equals M^n M^T n exactly once n
    # clears the non-unit support; compare on a window that contains it
    values = {str(k): rng.uniform(0.6, 1.0) for k in range(-3, 4)}
    op = ShiftOperator(make_family("bilateral-path"), MapWeights(values, default=1.0))
    window = materialize_window(op.model, -12, 12)
    adj = adjoint_profile(op, window)
    mat = op.dense_truncation(window)
    n = 8  # deep enough that every product has cleared the non-unit weights
    approx = np.linalg.matrix_power(mat, n) @ np.linalg.matrix_power(mat.T, n)
    for lvl in range(-3, 4):
        h = adj.h_vectors[lvl]
        dense_h = vector_to_dense(window, h.coefficients, strict=False)
        residual = np.linalg.norm(approx @ dense_h - h.norm_sq * dense_h)
        assert residual <= 1e-10


# -- classification -----------------------------------------------------------------

def test_classify_finite_certified(rng):
    op = contractive_operator(rng, random_finite_tree(rng, 25))
    window = full_window(op.model)
    cls = classify(alpha_profile(op, window), adjoint_profile(op, window))
    assert (cls.forward, cls.adjoint) == ("C0dot", "Cdot0")
    assert cls.forward_certified and cls.adjoint_certified


def test_classify_binary_isometry():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window = materialize_window(op.model, 0, 4)
    cls = classify(alpha_profile(op, window), adjoint_profile(op, window))
    assert (cls.forward, cls.adjoint) == ("C1dot", "Cdot0")
    assert not cls.forward_certified


def test_classify_unitary_bilateral():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(1.0))
    window = materialize_window(op.model, -4, 4)
    cls = classify(alpha_profile(op, window), adjoint_profile(op, window))
    assert (cls.forward, cls.adjoint) == ("C1dot", "Cdot1")


def test_classify_step_weights_c1dot_cdot0():
    op = ShiftOperator(make_family("bilateral-path"), StepWeights(0.5, 1.0, cut=0))
    window = materialize_window(op.model, -6, 6)
    cls = classify(alpha_profile(op, window), adjoint_profile(op, window))
    assert (cls.forward, cls.adjoint) == ("C1dot", "Cdot0")


def test_classify_undetermined_when_depth_exhausted():
    # 0.9 above level 0 decays too slowly for the depth budget: the estimate is
    # an upper bound that is neither small enough nor converged (the unit
    # weights below the cut keep the family bound from proving the limits 0)
    op = ShiftOperator(make_family("bilateral-path"), StepWeights(1.0, 0.9, cut=0))
    window = materialize_window(op.model, -3, 3)
    prof = alpha_profile(op, window, max_depth=48)
    assert any(r.status == MAX_DEPTH for r in prof.records.values())
    cls = classify(prof, adjoint_profile(op, window, depth=48))
    assert cls.forward == "undetermined"



def test_classify_counts_an_estimate_at_the_zero_threshold_as_zero():
    """An estimate is an upper bound, so one equal to the zero threshold is
    small enough: with the threshold at the largest forward estimate, every
    record reads zero, numerical as none is exact; one ulp lower, the largest
    is neither small nor converged."""
    op = ShiftOperator(make_family("bilateral-path"), StepWeights(1.0, 0.9, cut=0))
    window = materialize_window(op.model, -3, 3)
    prof = alpha_profile(op, window, max_depth=48)
    adjoint = adjoint_profile(op, window, depth=48)
    top = max(r.estimate for r in prof.records.values())
    cls = classify(prof, adjoint, zero_threshold=top)
    assert (cls.forward, cls.forward_certified) == ("C0dot", False)
    assert "forward: C0dot (numerical)" in cls.notes
    assert classify(prof, adjoint, zero_threshold=math.nextafter(top, 0.0)).forward == \
        "undetermined"

def test_alpha_evaluator_cache():
    op = exp_path()
    ev = AlphaEvaluator(op)
    a = ev("4")
    assert ev("4") is a


# -- level lumping ------------------------------------------------------------------

class PerVertex(WeightAssignment):
    """The same weights without the level-only mark, so every cone and every
    ancestor chain is walked vertex by vertex."""

    def __init__(self, inner):
        self.inner = inner

    def weight(self, model, v):
        return self.inner.weight(model, v)

    def max_weight(self):
        return self.inner.max_weight()

    def convergence_floor_level(self):
        return self.inner.convergence_floor_level()


class CountingConstant(ConstantWeights):
    def __init__(self, value):
        super().__init__(value)
        self.calls = 0

    def weight(self, model, v):
        self.calls += 1
        return super().weight(model, v)


# Laws that still descend on the rootless binary tree: the constant one
# states no bound, and the largest weight of the other two, BINARY_ISOMETRY,
# has f * M^2 = 2 * M^2 > 1.
LEVEL_ONLY = [UnstatedBound(0.6), GeometricWeights(BINARY_ISOMETRY, 0.9),
              StepWeights(BINARY_ISOMETRY, 0.6, cut=0)]


def _weights_id(weights):
    return getattr(weights, "name", "constant")  # the one unnamed law here is constant


def _per_vertex(weights):
    if type(weights) is ConstantWeights:
        return MapWeights({}, default=weights.value)
    return PerVertex(weights)


@pytest.mark.parametrize("family", ["bilateral-path", "rooted-path"])
@pytest.mark.parametrize("weights", [UnstatedBound(0.9), GeometricWeights(1.0, 0.9),
                                     StepWeights(0.5, 1.0, cut=0), ExpRayWeights(2.0, 1),
                                     ExpRayWeights(2.5, -2)], ids=_weights_id)
def test_lumped_paths_are_bit_identical(family, weights):
    model = make_family(family)
    lumped = ShiftOperator(model, weights)
    plain = ShiftOperator(model, _per_vertex(weights))
    assert AlphaEvaluator(lumped).lumped and not AlphaEvaluator(plain).lumped
    assert not (lumped.is_certified_vanishing() or plain.is_certified_vanishing())
    lo = 0 if model.is_rooted else -4
    window = materialize_window(model, lo, 4)
    assert alpha_profile(lumped, window).records == alpha_profile(plain, window).records
    fast, slow = adjoint_profile(lumped, window), adjoint_profile(plain, window)
    assert fast.profile.records == slow.profile.records
    for lvl, h in fast.h_vectors.items():
        other = slow.h_vectors[lvl]
        rec, other_rec = (p.profile.record(window.vertices_at(lvl)[0]) for p in (fast, slow))
        assert (h.norm_sq, rec.status, rec.upper == rec.estimate) == \
            (other.norm_sq, other_rec.status, other_rec.upper == other_rec.estimate)
        assert h.coefficients.coeffs == other.coefficients.coeffs


def test_binary_constant_decay_is_c0dot_with_few_weight_calls():
    # lim (2 * 0.6^2)^n = 0; a descent stops at the frontier cap near n = 13
    # with an upper bound of about 0.014.  The family bound 2 * 0.6^2 < 1
    # proves the 0 with no descent and no adjoint sweep.
    model = make_family("rootless-binary")
    weights = CountingConstant(0.6)
    op = ShiftOperator(model, weights)
    window = materialize_window(model, -8, 8)
    profile = alpha_profile(op, window)
    assert all(repr(r) == repr(VertexEstimate(u, 0.0, 0.0, EXACT_ZERO, 0))
               for u, r in profile.records.items())
    cls = classify(profile, adjoint_profile(op, window))
    assert (cls.forward, cls.adjoint) == ("C0dot", "Cdot0")
    assert cls.forward_certified and cls.adjoint_certified
    # the norm's scan of the window, its children and the outside parents
    assert weights.calls <= 3 * len(window)


def test_frontier_cap_reports_depth_reached():
    # 2 * high^2 > 1: the family bound proves nothing, and the cone is walked
    op = ShiftOperator(make_family("rootless-binary"),
                       HashRandomWeights(3, 0.5, BINARY_ISOMETRY))
    evaluator = AlphaEvaluator(op)
    assert not evaluator.lumped
    rec = evaluator("0")
    assert rec.status == MAX_DEPTH
    assert rec.depth < 64
    # the descent stops at the first depth whose frontier 2^n exceeds the cap
    assert 2 ** (rec.depth - 1) <= FRONTIER_CAP < 2 ** rec.depth


# -- generations: Gen^n(u), the union over j <= n of Chi^j(Par^j(u)) ------------------

def generation(family, u, depth):
    """The members of the generation of u that the adjoint sweep builds, as a
    set, after checking that none repeats."""
    members, _ = _generation(ShiftOperator(make_family(family), ConstantWeights(0.5)), u, depth)
    assert len(set(members)) == len(members)
    return set(members)


def test_generation_on_a_chain_is_the_vertex_alone():
    assert generation("bilateral-path", "2", 5) == {"2"}


def test_generation_on_the_binary_tree_takes_the_sibling():
    assert generation("rootless-binary", "1", 1) == {"1", "0:1"}


@pytest.mark.parametrize("depth, members", [(3, {"3", "3'"}), (2, {"3"})])
def test_generation_on_tilde_takes_the_primed_ray_at_depth_3(depth, members):
    # 3' sits three levels below the branch vertex 0, the parent of 1 and 1'
    assert generation("tilde", "3", depth) == members


@pytest.mark.parametrize("u", ["2", "0:11", "1:1"])
@pytest.mark.parametrize("depth", [1, 2])
def test_generation_is_an_equivalence_on_each_level_of_leafless_binary_windows(depth, u):
    model = make_family("rootless-binary")
    block = generation("rootless-binary", u, depth)
    for w in block:
        assert model.level(w) == model.level(u)
        assert generation("rootless-binary", w, depth) == block


# -- level-law adjoint generations and the forward level table ------------------------

COUNTED_CASES = [
    pytest.param("rootless-binary", ConstantWeights(0.6), ("-1", "0:1", "-1:11"),
                 id="binary-constant"),
    pytest.param("rootless-binary", GeometricWeights(0.65, 0.9), ("-1", "0:1", "-1:11"),
                 id="binary-geometric"),
    pytest.param("rootless-binary", StepWeights(0.5, 0.7, cut=0), ("-1", "0:1", "-1:11"),
                 id="binary-step"),
    pytest.param("bilateral-path", ExpRayWeights(2.0, -3), ("-5", "-3", "0", "2"),
                 id="bilateral-exp-ray"),
]


@pytest.mark.parametrize("family,weights,vertices", COUNTED_CASES)
@pytest.mark.parametrize("cap", [1, 2, 3, 511, 512, 513, 1023, 1024])
def test_counted_generation_matches_the_walked_one(monkeypatch, family, weights, vertices,
                                                  cap):
    monkeypatch.setattr(asymptotics, "ADJOINT_GEN_CAP", cap)
    op = ShiftOperator(make_family(family), weights)
    for u in vertices:
        rec, h = _adjoint_level(op, u, DEFAULT_MAX_DEPTH, DEFAULT_TOL)
        est, upper, status, coeffs, gen_exact = ref_adjoint_level(op, u, frontier_cap=cap)
        assert repr(h.coefficients.coeffs) == repr(coeffs)
        # The record's upper is its estimate exactly when the generation was complete.
        assert (rec.status, rec.upper == rec.estimate) == (status, gen_exact)
        # The members' equal products added one by one, as the reference adds them.
        assert repr((rec.estimate, h.norm_sq, rec.upper)) == repr((est, est, upper))


@pytest.mark.parametrize("command,family,cls,doc,lo,hi", [
    ("analyze", "rootless-binary", ConstantWeights, {"kind": "constant", "value": 0.6}, 0, 2),
    ("asymptote", "bilateral-path", ExpRayWeights,
     {"kind": "family", "name": "exp-ray", "params": {"base": 2.0, "start_level": -3}}, -3, 3),
    ("analyze", "rooted-path", StepWeights,
     {"kind": "family", "name": "step", "params": {"low": 0.5, "high": 1.0}}, 0, 3),
], ids=["analyze-binary-constant", "asymptote-bilateral-exp-ray", "analyze-rooted-step"])
def test_lumped_runs_ask_for_the_weights_of_the_window_alone(
        tmp_path, monkeypatch, capsys, command, family, cls, doc, lo, hi):
    """Past the window a lumped chain reads the level law, and the family
    bound closes the binary case: the per-vertex weight queries do not grow
    with --depth, and stay within the window's vertices, their children and
    the top boundary's parents.  Ancestor chains walk each vertex's ancestors
    as for every other law, so the queries they make are not counted."""
    calls = []
    weight = cls.weight
    chain = ShiftOperator.ancestor_chain
    in_chain = []

    def counting(self, model, v):
        if not in_chain:
            calls.append(v)
        return weight(self, model, v)

    def uncounted_chain(*args, **kwargs):
        in_chain.append(True)
        try:
            return chain(*args, **kwargs)
        finally:
            in_chain.pop()

    monkeypatch.setattr(cls, "weight", counting)
    monkeypatch.setattr(ShiftOperator, "ancestor_chain", uncounted_chain)
    tree, weights = tmp_path / "tree.json", tmp_path / "weights.json"
    tree.write_text(json.dumps({"family": family, "params": {}}))
    weights.write_text(json.dumps(doc))
    counts = []
    for depth in ("64", "640"):
        calls.clear()
        assert main([command, "--tree", str(tree), "--weights", str(weights),
                     f"--levels={lo}:{hi}", "--depth", depth]) == 0
        counts.append(len(calls))
    assert "error" not in capsys.readouterr().err
    model = make_family(family)
    window = materialize_window(model, lo, hi)
    bound = (len(window) + sum(len(model.children(u)) for u in window)
             + len({model.parent(u) for u in window.top_boundary()} - {None}))
    assert counts[0] == counts[1] <= bound


def old_lumped_descend(op, u, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """The one-representative descent before the level table: it asks the
    model and the weights about the children of its own representatives."""
    model, weights = op.model, op.weights
    min_depth = CONSECUTIVE_SMALL + 5
    floor = reference_floor(weights, model)
    if floor is not None:
        min_depth = max(min_depth, floor - model.level(u) + CONSECUTIVE_SMALL + 2)
    frontier = {u: 1.0}
    s_prev = 1.0
    consecutive = 0
    n = 0
    for n in range(1, max_depth + 1):
        ((w, prod),) = frontier.items()
        kids = model.children(w)
        if not kids:
            return 0.0, 0.0, EXACT_ZERO, n
        nxt = {kids[0]: prod * sum(weights.weight(model, v) ** 2 for v in kids)}
        s = sum(nxt.values())
        if abs(s - s_prev) < tol:
            consecutive += 1
            if consecutive >= CONSECUTIVE_SMALL and n >= min_depth:
                return s, s, CONVERGED, n
        else:
            consecutive = 0
        frontier = nxt
        s_prev = s
    return s_prev, s_prev, MAX_DEPTH, n


# -- the level law -----------------------------------------------------------------------

# The paths carry all four level-only families and descend on the level law;
# on the rootless binary tree the adjoint side alone runs on it.
PATH_LAW_CASES = [
    pytest.param(family, w, 0 if family == "rooted-path" else -4, 4,
                 id=f"{family}-{_weights_id(w)}")
    for family in ("bilateral-path", "rooted-path")
    for w in (UnstatedBound(0.9), GeometricWeights(1.0, 0.9), StepWeights(0.5, 1.0, cut=0),
              ExpRayWeights(2.5, -2))
]
LAW_CASES = [
    pytest.param("rootless-binary", w, 0, 2, id=_weights_id(w)) for w in LEVEL_ONLY
] + PATH_LAW_CASES


@pytest.mark.parametrize("family,weights,lo,hi", PATH_LAW_CASES)
def test_level_table_records_do_not_depend_on_the_vertex_that_filled_it(family, weights, lo,
                                                                         hi):
    model = make_family(family)
    window = materialize_window(model, lo, hi)
    op = ShiftOperator(model, weights)
    assert AlphaEvaluator(op).lumped
    read_off = ref_read_off(ShiftOperator(model, weights), window, old_lumped_descend)
    assert repr(alpha_profile(op, window).records) == repr(read_off)
    want = repr({u: VertexEstimate(u, *old_lumped_descend(op, u)) for u in window.order})
    ev = AlphaEvaluator(ShiftOperator(model, weights))
    for u in window.order[::-1]:
        ev(u)
    assert repr({u: ev(u) for u in window.order}) == want


class OldLumpedAlpha:
    """Forward records of ``old_lumped_descend``, one per vertex id."""

    def __init__(self, op):
        self.op, self.cache = op, {}

    def __call__(self, u):
        if u not in self.cache:
            self.cache[u] = VertexEstimate(u, *old_lumped_descend(self.op, u))
        return self.cache[u]


def walked_cnu_level_value(op, alpha, members, depth, threshold):
    """``cnu_level_value`` as a loop over each member's own ancestor chain."""
    total = 0.0
    for v in members:
        prods, w = ancestor_products(op, v, depth)
        anchor = alpha(w if w is not None else op.model.root).estimate
        if anchor <= threshold:
            continue
        total += (prods[-1] if prods else 1.0) * alpha(v).estimate / anchor
    return total


# a rooted tree's adjoint is certified stable without a chain
@pytest.mark.parametrize("family,weights,lo,hi",
                         [case for case in LAW_CASES if case.values[0] != "rooted-path"])
def test_level_law_adjoint_equals_a_chain_of_ancestor_products(family, weights, lo, hi):
    model = make_family(family)
    window = materialize_window(model, lo, hi)
    adjoint = adjoint_profile(ShiftOperator(model, weights), window)
    walked = ShiftOperator(model, weights)
    for lvl in window.levels():
        rep = window.vertices_at(lvl)[0]
        norm_sq, _, status, coeffs, gen_exact = ref_adjoint_level(walked, rep)
        assert repr(adjoint.h_vectors[lvl].norm_sq) == repr(norm_sq)
        for u in window.vertices_at(lvl):
            rec = adjoint.profile.record(u)
            assert repr((rec.estimate, rec.upper, rec.status)) == \
                repr((norm_sq, norm_sq if gen_exact else 1.0, status))


@pytest.mark.parametrize("family,weights,lo,hi", PATH_LAW_CASES)
def test_level_law_cnu_value_equals_a_walk_of_every_member(family, weights, lo, hi):
    model = make_family(family)
    rooted = model.is_rooted
    # A rooted chain stops at the root, its anchor.
    window = materialize_window(model, lo, hi + (3 if rooted else 2))
    op = ShiftOperator(model, weights)
    alpha = AlphaEvaluator(op)
    reference = OldLumpedAlpha(ShiftOperator(model, weights))
    for lvl in window.levels():
        members = window.vertices_at(lvl)
        for depth in ((1, 3) if rooted else (1, 5)) + (DEFAULT_MAX_DEPTH,):
            for threshold in (1e-9, 0.5):
                want = walked_cnu_level_value(ShiftOperator(model, weights), reference,
                                              members, depth, threshold)
                assert repr(cnu_level_value(op, alpha, members, depth, threshold)) == \
                    repr(want)
