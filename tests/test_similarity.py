"""g-vector laws, leaf similarity, tilde quasiaffinity."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from treeshift import similarity
from treeshift.cli import main
from treeshift.cyclicity import ge_rank
from treeshift.errors import NotAContraction, ShapeMismatch
from treeshift.shifts import ShiftOperator
from treeshift.similarity import (
    build_leaf_similarity,
    build_tilde_quasiaffinity,
    g_norm,
    g_vector,
    ratio_bounded,
)
from treeshift.sparse import SparseVector
from treeshift.trees import make_family, materialize_window
from treeshift.weights import (
    ConstantWeights,
    HashRandomWeights,
    MapWeights,
    RayWeights,
    WeightAssignment,
    weights_from_json,
)

import dense_reference
from conftest import NaNAdjoint
from krylov_reference import krylov_rank, verify_krylov_span


def random_tilde_operator(seed):
    """Contractive random weights near the branch, unit padding beyond."""
    base = HashRandomWeights(seed, 0.55, 0.95)
    model = make_family("tilde")
    values = {}
    for k in range(1, 13):
        values[str(k)] = base.weight(model, str(k))
        values[f"{k}'"] = base.weight(model, f"{k}'")
    for k in range(0, -13, -1):
        values[str(k)] = base.weight(model, str(k))
    scale = math.hypot(values["1"], values["1'"])
    values["1"] *= 0.999 / scale
    values["1'"] *= 0.999 / scale
    return ShiftOperator(model, MapWeights(values, default=1.0))


# -- g vectors -----------------------------------------------------------------------

def test_g_vector_laws_random_families():
    for seed in range(6):
        op = random_tilde_operator(seed)
        for k in range(2, 9):
            assert (op.apply_adjoint(g_vector(op, k)) - g_vector(op, k - 1)).norm() <= 1e-12
        assert op.apply_adjoint(g_vector(op, 1)).norm() <= 1e-12
        for k in range(1, 8):
            for l in range(k + 1, 9):
                assert g_vector(op, k).dot(g_vector(op, l)) == 0.0


def test_g_norm_value():
    op = ShiftOperator(make_family("tilde"), ConstantWeights(1.0))
    assert g_norm(op, 4) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_unit_weight_g_vector_is_the_spine_minus_the_primed_basis_vector(k):
    op = ShiftOperator(make_family("tilde"), ConstantWeights(1.0))
    assert g_vector(op, k).coeffs == {str(k): 1.0, f"{k}'": -1.0}


def test_g_norm_is_the_norm_of_the_g_vector():
    for seed in range(6):
        op = random_tilde_operator(seed)
        for k in range(1, 9):
            assert g_norm(op, k) == pytest.approx(g_vector(op, k).norm(), rel=1e-14)


# -- leaf similarity -------------------------------------------------------------------

def target_weight(op, window, k):
    """The reference target's weight into k'."""
    return dense_reference.target_matrix(op, window)[window.index_of(f"{k}'"),
                                                     window.index_of(f"{k - 1}'")]


def test_leaf_similarity_unit_weights():
    model = make_family("comb", {"primed_leaf": 2})
    op = ShiftOperator(model, ConstantWeights(1.0))
    window = materialize_window(model, -6, 6)
    witness = build_leaf_similarity(op, window)
    assert witness.residual <= 1e-12
    assert target_weight(op, window, 2) == pytest.approx(1.0)
    assert witness.mode == "similar"


def test_leaf_similarity_lemma_values():
    model = make_family("comb", {"primed_leaf": 2, "unprimed_leaf": 4})
    op = ShiftOperator(model, RayWeights(spine=0.5, primed=1.0))
    window = materialize_window(model, -6, 4)
    witness = build_leaf_similarity(op, window)
    assert witness.residual <= 1e-12
    assert target_weight(op, window, 2) == pytest.approx(math.sqrt(5.0 / 17.0))
    assert g_vector(op, 1).coeffs == {"1": pytest.approx(2.0), "1'": pytest.approx(-1.0)}
    assert g_vector(op, 2).coeffs == {"2": pytest.approx(4.0), "2'": pytest.approx(-1.0)}


def test_leaf_similarity_rejects_wrong_shape():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(0.5))
    window = materialize_window(op.model, -4, 4)
    with pytest.raises(ShapeMismatch):
        build_leaf_similarity(op, window)
    tilde_op = ShiftOperator(make_family("tilde"), ConstantWeights(0.5))
    with pytest.raises(ShapeMismatch):
        build_leaf_similarity(tilde_op, materialize_window(tilde_op.model, -4, 4))


def test_block_determinants_and_inverse_norms_match_numpy():
    """The closed-form 2 x 2 block figures against numpy's LU determinant and
    SVD norm, on bounded and on blowing-up product ratios."""
    for op, build, levels in (
            (ShiftOperator(make_family("comb", {"primed_leaf": 6}),
                           RayWeights(spine=0.6, primed=0.55)), build_leaf_similarity, (-5, 6)),
            (random_tilde_operator(3), build_tilde_quasiaffinity, (-8, 12)),
            (ShiftOperator(make_family("tilde"), RayWeights(spine=0.5, primed=0.85)),
             build_tilde_quasiaffinity, (-6, 40))):
        witness = build(op, materialize_window(op.model, *levels))
        assert len(witness.blocks) >= 6
        for block in witness.blocks:
            k = block["k"]
            g, norm = g_vector(op, k), g_norm(op, k)
            mat = np.array([[1.0, g[str(k)] / norm], [0.0, g[f"{k}'"] / norm]])
            assert block["det"] == mat[1, 1]
            assert block["det"] == pytest.approx(np.linalg.det(mat), rel=1e-15)
            assert block["inverse_norm"] == pytest.approx(
                np.linalg.norm(np.linalg.inv(mat), 2), rel=1e-15)


def test_each_witness_build_reads_the_ray_products_once(monkeypatch):
    """One table of ray products serves the g vectors, their norms, the
    blocks and the residual of a witness; the blocks are read off the g
    vectors and the norms of ``g_vector`` and ``g_norm``, bit for bit."""
    calls = []
    original = similarity.ray_products

    def counted(operator, upto):
        calls.append(upto)
        return original(operator, upto)

    monkeypatch.setattr(similarity, "ray_products", counted)
    comb = make_family("comb", {"primed_leaf": 6, "unprimed_leaf": 8})
    for op, build, levels in (
            (ShiftOperator(comb, RayWeights(spine=0.6, primed=0.55)), build_leaf_similarity,
             (-5, 8)),
            # the window stops above the primed leaf
            (ShiftOperator(comb, RayWeights(spine=0.6, primed=0.55)), build_leaf_similarity,
             (-5, 4)),
            (random_tilde_operator(3), build_tilde_quasiaffinity, (-8, 12))):
        calls.clear()
        witness = build(op, materialize_window(op.model, *levels))
        assert len(calls) == 1
        for block in witness.blocks:
            k = block["k"]
            assert block["det"] == g_vector(op, k)[f"{k}'"] / g_norm(op, k)


def test_block_structure_invertible():
    model = make_family("comb", {"primed_leaf": 3})
    op = ShiftOperator(model, RayWeights(spine=0.6, primed=0.55))
    window = materialize_window(model, -5, 5)
    witness = build_leaf_similarity(op, window)
    for block in witness.blocks:
        assert abs(block["det"]) > 0.0
    x = dense_reference.x_matrix(op, window)
    assert ge_rank(x) == len(window)  # full column rank: injective on the window
    assert np.linalg.cond(x) < 1e3


# -- ratio certificates ------------------------------------------------------------------

def test_ratio_equal_rays_bounded_at_one():
    op = ShiftOperator(make_family("tilde"), ConstantWeights(0.7))
    cert = ratio_bounded(op)
    assert cert.status == "bounded"
    assert cert.sup == pytest.approx(1.0)
    assert cert.exact


def test_ratio_unbounded_powers_of_two():
    op = ShiftOperator(make_family("tilde"), RayWeights(spine=0.5, primed=1.0))
    cert = ratio_bounded(op)
    assert cert.status == "unbounded-evidence"
    assert cert.value == pytest.approx(2.0 ** cert.at)


@pytest.mark.parametrize("doc,sup", [
    ({"kind": "constant", "value": 0.5}, 1.0),
    ({"kind": "map", "values": {"5": 1e-7}, "default": 1.0}, 1.0),
    ({"kind": "map", "values": {"1": 0.5}, "default": 0.9}, 1.8)])
def test_ratio_stops_at_the_primed_leaf(doc, sup):
    """A comb's primed ray ends at 3': the walk reads k' for k <= 3 only, so
    no weight of a vertex outside the tree is asked for or read, and the sup
    of the three ratios is exact whatever the tail law."""
    model = make_family("comb", {"primed_leaf": 3})
    op = ShiftOperator(model, weights_from_json(doc))
    read, weight = [], op.weight
    op.weight = lambda v: read.append(v) or weight(v)
    cert = ratio_bounded(op)
    assert (cert.status, cert.sup, cert.exact, cert.at) == ("bounded", sup, True, None)
    assert sorted(read) == ["1", "1'", "2", "2'", "3", "3'"]


def walked_blow_up(op, blow_up, horizon=64):
    """(k, product) of the first partial product of lambda_k'/lambda_k above blow_up."""
    ratio = 1.0
    for k in range(1, horizon + 1):
        ratio *= op.weight(f"{k}'") / op.weight(str(k))
        if ratio > blow_up:
            return k, ratio
    return None


@pytest.mark.parametrize("spine,primed,blow_up", [
    (0.05, 0.5, 1e6), (0.001, 0.1, 1e6), (0.5, 1.0, 1e6), (0.5, 1.0, 2.0 ** 20),
    (0.3, 0.9, 1e6), (0.01, 0.5, 50.0)])
def test_geometric_ratio_passes_the_bound_where_the_walk_does(monkeypatch, spine, primed,
                                                              blow_up):
    """The closed form's ``at`` is the first k whose product exceeds the
    bound, as the walked ratios of the weights give it, not one that equals it."""
    monkeypatch.setattr(similarity, "BLOW_UP", blow_up)
    op = ShiftOperator(make_family("tilde"), RayWeights(spine=spine, primed=primed))
    assert op.weights.ratio_geometric() is not None
    cert = ratio_bounded(op)
    at, value = walked_blow_up(op, blow_up)
    assert (cert.status, cert.exact, cert.at) == ("unbounded-evidence", True, at)
    assert cert.value == pytest.approx(value, rel=1e-12) and cert.value > blow_up


@pytest.mark.parametrize("step", [1.0 + 1e-9, math.nextafter(1.0, 2.0)])
@pytest.mark.parametrize("first", [1.0, 2.0, 999_999.0])
def test_geometric_ratio_near_one_takes_the_least_k(first, step):
    """A step of 1 + 1e-9 passes 1e6 only after some 1e10 levels, one ulp
    above 1 after some 6e16, where the log estimate is several steps off:
    the closed form reads the least k with first * step^(k-1) above the bound."""
    op = ShiftOperator(make_family("tilde"),
                       RayWeights(spine=1.0, primed=step, branch_primed=first))
    assert op.weights.ratio_geometric() == (first, step)
    cert = ratio_bounded(op)
    assert cert.value == first * step ** (cert.at - 1)
    assert first * step ** (cert.at - 2) <= 1e6 < cert.value


def assert_least_finite_blow_up(cert, first, step, blow_up=1e6):
    """``at`` is the least k with first * step^(k-1) above the bound (exact
    rational powers, which cannot overflow), and the value is finite."""
    assert (cert.status, cert.exact) == ("unbounded-evidence", True)
    assert math.isfinite(cert.value) and cert.value > blow_up
    assert Fraction(first) * Fraction(step) ** (cert.at - 2) <= blow_up


@pytest.mark.parametrize("branch_primed", [1e-300, 5e-324])
def test_geometric_ratio_whose_power_overflows(branch_primed):
    """A first ratio of 2e-300 (or 1e-323) and a step of 1e10: step^(at-1)
    alone overflows, first * step^(at-1) does not."""
    op = ShiftOperator(make_family("tilde"), RayWeights(1e-10, 1.0, 0.5, branch_primed))
    first, step = op.weights.ratio_geometric()
    with pytest.raises(OverflowError):
        step ** 31
    assert_least_finite_blow_up(ratio_bounded(op), first, step)


def test_similarity_prints_a_ratio_whose_power_overflows(tmp_path, capsys):
    tree, weights = tmp_path / "tree.json", tmp_path / "weights.json"
    tree.write_text(json.dumps({"family": "tilde", "params": {}}))
    weights.write_text(json.dumps({"kind": "family", "name": "rays", "params": {
        "spine": 1e-10, "primed": 1.0, "branch_spine": 0.5, "branch_primed": 1e-300}}))
    assert main(["similarity", "--tree", str(tree), "--weights", str(weights),
                 "--levels=-2:2", "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    ratio = json.loads(out)["ratio"]
    first, step = 1e-300 / 0.5, 1.0 / 1e-10
    assert (ratio["at"], ratio["value"]) == (32, first * step ** 15 * step ** 16)
    cert = similarity.RatioCertificate(ratio["status"], ratio["sup"], ratio["exact"],
                                       ratio["at"], ratio["value"])
    assert_least_finite_blow_up(cert, first, step)


@pytest.mark.parametrize("tree", [{"family": "tilde", "params": {}},
                                  {"family": "comb", "params": {"primed_leaf": 3}}],
                         ids=["tilde", "comb"])
def test_similarity_prints_no_witness_from_products_without_a_finite_reciprocal(
        tmp_path, capsys, tree):
    """Tiny spine and primed products: each run prints finite numbers, or
    exits 2 with one WeightError line naming the level, never a NaN witness
    or a traceback."""
    tree_path, weights = tmp_path / "tree.json", tmp_path / "weights.json"
    tree_path.write_text(json.dumps(tree))
    codes = []
    for spine in (1e-10, 1e-100, 0.5):
        for branch_spine in (0.5, 1e-300):
            for branch_primed in (5e-324, 1e-310, 1e-300):
                weights.write_text(json.dumps({"kind": "family", "name": "rays", "params": {
                    "spine": spine, "primed": 1.0, "branch_spine": branch_spine,
                    "branch_primed": branch_primed}}))
                code = main(["similarity", "--tree", str(tree_path), "--weights", str(weights),
                             "--levels=-2:2", "--json"])
                out, err = capsys.readouterr()
                assert "NaN" not in out and "Infinity" not in out
                if code == 2:
                    assert out == ""
                    assert re.fullmatch(r"error: WeightError: the (spine|primed) weight product "
                                        r"down to level \d+ is \S+, too small for a finite "
                                        r"reciprocal\n", err)
                else:
                    assert (code, err) == (0, "")
                codes.append(code)
    assert codes.count(2) == 14 and codes.count(0) == 4


@pytest.mark.parametrize("tree,levels", [({"family": "tilde", "params": {}}, "-2:2"),
                                         ({"family": "comb", "params": {"primed_leaf": 3}},
                                          "-2:3")], ids=["tilde", "comb"])
def test_similarity_rejects_a_g_vector_whose_norm_overflows(tmp_path, capsys, tree, levels):
    """Branch weights of 7e-309 have finite reciprocals near 1.4e308, whose
    hypot overflows: one WeightError line naming level 1, no traceback."""
    tree_path, weights = tmp_path / "tree.json", tmp_path / "weights.json"
    tree_path.write_text(json.dumps(tree))
    weights.write_text(json.dumps({"kind": "family", "name": "rays", "params": {
        "spine": 1.0, "primed": 1.0, "branch_spine": 7e-309, "branch_primed": 7e-309}}))
    assert main(["similarity", "--tree", str(tree_path), "--weights", str(weights),
                 f"--levels={levels}"]) == 2
    assert capsys.readouterr() == ("", "error: WeightError: the g vector at level 1 has no "
                                       "finite norm: the weight products down to it are "
                                       "7e-309 and 7e-309\n")


@pytest.mark.parametrize("tree,params,message", [
    ({"family": "tilde"}, {"spine": 1.0, "primed": 0.999999, "branch_spine": 7e-309,
                           "branch_primed": 0.9}, "-7.777777777777777e-309"),
    ({"family": "comb", "params": {"primed_leaf": 1}},
     {"spine": 1.0, "primed": 1.0, "branch_spine": 7e-309, "branch_primed": 1e150}, "-0.0"),
], ids=["subnormal-det", "zero-det"])
def test_similarity_rejects_a_block_whose_inverse_norm_overflows(tmp_path, capsys, tree,
                                                                 params, message):
    """A block whose determinant is subnormal has an inverse norm of inf (it
    printed ``mode similar`` and ``block inverse bound: inf``), and one whose
    determinant underflows to 0 divided by it (a ZeroDivisionError traceback):
    each is one WeightError line naming level 1."""
    tree_path, weights = tmp_path / "tree.json", tmp_path / "weights.json"
    tree_path.write_text(json.dumps(tree))
    weights.write_text(json.dumps({"kind": "family", "name": "rays", "params": params}))
    assert main(["similarity", "--tree", str(tree_path), "--weights", str(weights),
                 "--levels=-2:2"]) == 2
    assert capsys.readouterr() == ("", "error: WeightError: the block at level 1 has no "
                                       f"finite inverse norm: its determinant is {message}\n")


def test_ratio_decreasing_products_bounded():
    class PrimedExp(WeightAssignment):
        def weight(self, model, v):
            if v.endswith("'"):
                return math.exp(-(2.0 ** (-int(v[:-1]))))
            return 1.0

        def max_weight(self):
            return 1.0

    op = ShiftOperator(make_family("tilde"), PrimedExp())
    cert = ratio_bounded(op)
    assert cert.status == "bounded"
    assert cert.sup <= 1.0


# -- tilde quasiaffinity -------------------------------------------------------------------

def test_tilde_unit_weights_similar():
    op = ShiftOperator(make_family("tilde"),
                       RayWeights(spine=1.0, primed=1.0,
                                  branch_spine=1 / math.sqrt(2),
                                  branch_primed=1 / math.sqrt(2)))
    window = materialize_window(op.model, -6, 6)
    witness = build_tilde_quasiaffinity(op, window)
    assert witness.residual <= 1e-12
    assert witness.mode == "similar"
    # w_{k'} = |g_{k-1}| / |g_k|, all norms equalish for unit rays
    for k in range(2, 7):
        assert 0.0 < target_weight(op, window, k) <= 1.0 + 1e-12


@pytest.mark.parametrize("family, build", [("tilde", build_tilde_quasiaffinity),
                                           ("comb", build_leaf_similarity)])
def test_witness_residual_keeps_a_nan(family, build):
    """``max(0.0, nan)`` is 0.0: a running max would report a NaN adjoint
    image as an exact intertwining."""
    model = make_family(family, {"primed_leaf": 2} if family == "comb" else None)
    op = NaNAdjoint(model, ConstantWeights(0.5))
    assert math.isnan(build(op, materialize_window(model, -6, 6)).residual)


def test_tilde_unbounded_ratio_quasiaffine_only():
    op = ShiftOperator(make_family("tilde"), RayWeights(spine=0.5, primed=0.85))
    bounds = []
    for half in (6, 12, 18):
        witness = build_tilde_quasiaffinity(op, materialize_window(op.model, -half, half))
        assert witness.mode == "quasiaffine-only"
        assert witness.residual <= 1e-12
        bounds.append(witness.block_inverse_bound())
    # the blocks' inverses are not uniformly bounded: their bound grows with
    # the primed-to-spine product ratio, by (0.85 / 0.5)^6 each six levels
    assert bounds[0] > 30.0
    for earlier, later in zip(bounds, bounds[1:]):
        assert later / earlier == pytest.approx((0.85 / 0.5) ** 6, rel=1e-2)


def test_tilde_requires_contraction():
    op = ShiftOperator(make_family("tilde"), ConstantWeights(1.0))
    window = materialize_window(op.model, -5, 5)
    with pytest.raises(NotAContraction):
        build_tilde_quasiaffinity(op, window)


def test_witness_transfer_preserves_krylov_rank():
    for seed in (1, 2):
        op = random_tilde_operator(seed)
        window = materialize_window(op.model, -5, 5)
        witness = build_tilde_quasiaffinity(op, window)
        assert witness.mode == "similar"
        x_mat = dense_reference.x_matrix(op, window)
        t_mat = dense_reference.target_matrix(op, window)
        s_mat = op.dense_truncation(window)
        assert np.linalg.norm(x_mat @ t_mat.T - s_mat.T @ x_mat) <= 1e-12
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(len(window))
        assert krylov_rank(t_mat.T, f) == krylov_rank(s_mat.T, x_mat @ f)


def test_two_leaf_shift_krylov_verified_cyclic():
    # the two-leaf shape is similar to a backward shift plus a nilpotent
    # block; composing the backward cyclic candidate (re-indexed onto the
    # spine) with the primed block's seed gives a window-verified cyclic
    # vector for the tree shift itself
    from treeshift.cyclicity import BackwardShiftSpec, construct_backward_cyclic
    from treeshift.shifts import vector_to_dense
    from treeshift.trees import materialize_window

    j0, k0 = 3, 2
    model = make_family("comb", {"primed_leaf": k0, "unprimed_leaf": j0})
    base = HashRandomWeights(31, 0.6, 0.95)
    op = ShiftOperator(model, base)

    spine = BackwardShiftSpec(1, lambda j, m: base.weight(model, str(j0 - m)))
    cand = construct_backward_cyclic(spine, 12)
    deepest = max(k for _, k in cand.schedule)

    big = materialize_window(model, -(deepest + j0 + 2), j0, breadth=8)
    mat = op.dense_truncation(big)
    f = SparseVector({str(j0 - k): xi for (_, k), xi in zip(cand.schedule, cand.xi)})
    f.coeffs["1'"] = 1.0
    dense_f = vector_to_dense(big, f)

    report = [u for u in big.order if model.level(u) >= -40]
    rows = np.array([big.index_of(u) for u in report])
    n_cols = deepest + j0 + 1
    cols = np.empty((len(report), n_cols))
    y = dense_f.copy()
    for k in range(n_cols):
        cols[:, k] = y[rows]
        if k + 1 < n_cols:
            y = mat @ y
    record = verify_krylov_span(cols, len(report), tol=1e-5)
    assert record.cyclic
    assert record.rank == record.dimension == len(report)
