"""Per-vertex memoization on ShiftOperator changes no number.

The reference functions below are the un-memoized descent, ancestor products,
adjoint level sweep, c.n.u. level sum and dense oracle residuals as they were
before the operator cached its weights and tree queries: every loop asks the
model and the weight assignment directly, once per visit.  The memoized code
must reproduce their results bit for bit (compared through ``repr``, which
round-trips every float exactly).
"""

import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from treeshift import cli
from treeshift.asymptote import cnu_level_value
from treeshift.asymptotics import (
    CONSECUTIVE_SMALL,
    CONVERGED,
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    EXACT_ZERO,
    FRONTIER_CAP,
    MAX_DEPTH,
    ADJOINT_GEN_CAP,
    AlphaEvaluator,
    VertexEstimate,
    adjoint_profile,
    alpha_profile,
    ancestor_products,
    classify,
)
from treeshift.cli import main
from treeshift.errors import NotAContraction, VertexNotFound, WeightError
from treeshift.shifts import ShiftOperator, vector_to_dense
from treeshift.sparse import SparseVector, nan_max
from treeshift.trees import (CombTree, load_tree, make_family, materialize_window,
                             validate_finite)
from treeshift.weights import (
    ConstantWeights,
    ExpRayWeights,
    GeometricWeights,
    HashRandomWeights,
    MapWeights,
    StepWeights,
)

from conftest import (BINARY_ISOMETRY, NaNAdjoint, NaNApply, UnstatedBound,
                      contractive_operator, full_window, random_finite_tree, reference_floor)


# -- the un-memoized reference --------------------------------------------------------

def ref_descend(op, u, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH,
                frontier_cap=FRONTIER_CAP):
    """Per-vertex partial sums s_n(u), asking the model and weights on every visit."""
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
        nxt = {}
        for w, prod in frontier.items():
            for v in model.children(w):
                nxt[v] = prod * weights.weight(model, v) ** 2
        if not nxt:
            return 0.0, 0.0, EXACT_ZERO, n
        s = sum(nxt.values())
        if s > s_prev + 1e-12:
            raise NotAContraction(s)
        if abs(s - s_prev) < tol:
            consecutive += 1
            if consecutive >= CONSECUTIVE_SMALL and n >= min_depth:
                return s, s, CONVERGED, n
        else:
            consecutive = 0
        frontier = nxt
        s_prev = s
        if len(frontier) > frontier_cap:
            break
    return s_prev, s_prev, MAX_DEPTH, n


def ref_read_off(op, window, descend, max_depth=DEFAULT_MAX_DEPTH):
    """Forward records of the window in window order, filled deepest level
    first and asking the model and the weights on every visit.  A vertex
    whose children all have records, the deepest at depth below
    ``max_depth``, gets the sums of lambda_v^2 times their estimates and
    uppers, added in children order, their weakest status and 1 + their
    deepest depth; every other vertex gets ``descend(op, u)``."""
    model, weights = op.model, op.weights
    weakest_first = (MAX_DEPTH, CONVERGED, EXACT_ZERO)
    records = {}
    for lvl in reversed(window.levels()):
        for u in window.vertices_at(lvl):
            kids = model.children(u)
            depth = max((records[v].depth for v in kids if v in records), default=0)
            if all(v in records for v in kids) and depth < max_depth:
                estimate = upper = 0.0
                for v in kids:
                    square = weights.weight(model, v) ** 2
                    estimate += square * records[v].estimate
                    upper += square * records[v].upper
                status = min((records[v].status for v in kids), key=weakest_first.index,
                             default=EXACT_ZERO)
                records[u] = VertexEstimate(u, estimate, upper, status, depth + 1)
            else:
                records[u] = VertexEstimate(u, *descend(op, u))
    return {u: records[u] for u in window.order}


class RefAlpha:
    def __init__(self, op):
        self.op = op
        self.cache = {}

    def __call__(self, u):
        if u not in self.cache:
            self.cache[u] = VertexEstimate(u, *ref_descend(self.op, u))
        return self.cache[u]


def ref_ancestor_products(op, v, depth):
    """(products, the ancestor the walk stopped at), walked up from v alone."""
    model, weights = op.model, op.weights
    prods = []
    prod = 1.0
    w = v
    for _ in range(depth):
        prod *= weights.weight(model, w) ** 2
        prods.append(prod)
        w = model.parent(w)
        if w is None:
            break
    return prods, w


def ref_adjoint_level(op, u, depth=DEFAULT_MAX_DEPTH, tol=DEFAULT_TOL,
                      frontier_cap=ADJOINT_GEN_CAP):
    """(estimate, upper, status, h coefficients, gen_exact) of the level of u."""
    model = op.model
    members = [u]
    anchor = u
    gen_exact = model.generation_complete(model.level(u))
    for d in range(1, depth + 1):
        parent = model.parent(anchor)
        if parent is None:
            break
        new = dict.fromkeys(v for v in model.children(parent) if v != anchor)
        for _ in range(d - 1):
            grown = {}
            for w in new:
                for v in model.children(w):
                    grown[v] = None
            new = grown
            if len(members) + len(new) > frontier_cap:
                break
        if len(members) + len(new) > frontier_cap:
            anchor = parent
            break
        members.extend(new)
        anchor = parent
        if model.generation_complete(model.level(anchor)):
            gen_exact = True
            break
    chains = {v: ref_ancestor_products(op, v, depth)[0] for v in members}
    sums = [sum(p[min(d, len(p) - 1)] for p in chains.values()) for d in range(depth)]
    # converged: the last CONSECUTIVE_SMALL decrements are small, and every
    # head weight lies on the chains (at most depth - 1 levels above u)
    small = [abs(sums[d] - sums[d - 1]) < tol for d in range(1, len(sums))]
    climbed = all(model.level(v) > model.level(u) - depth for v in op.weights.head if v in model)
    tail_ok = len(small) >= CONSECUTIVE_SMALL and all(small[-CONSECUTIVE_SMALL:]) and climbed
    estimate = sums[-1] if sums else 0.0
    status = CONVERGED if (gen_exact and tail_ok) else MAX_DEPTH
    coeffs = {v: math.sqrt(chains[v][-1]) for v in members}
    return estimate, (estimate if gen_exact else 1.0), status, coeffs, gen_exact


def ref_cnu_level_value(op, alpha, members, depth, threshold):
    model, weights = op.model, op.weights
    total = 0.0
    for v in members:
        prod = 1.0
        w = v
        for _ in range(depth):
            prod *= weights.weight(model, w) ** 2
            w = model.parent(w)
            if w is None:
                break
        anchor = alpha(w).estimate if w is not None else 1.0
        if anchor <= threshold:
            continue
        total += prod * alpha(v).estimate / anchor
    return total


def ref_oracle_residuals(op, window):
    """(apply, adjoint) residuals against the dense truncation, with a dense
    coordinate vector per basis image; NaN where an image has a NaN entry."""
    model, weights = op.model, op.weights
    mat = np.zeros((len(window), len(window)))
    for j, u in enumerate(window.order):
        for v in model.children(u):
            if v in window:
                mat[window.index_of(v), j] = weights.weight(model, v)
    worst_apply = 0.0
    for u in window.forward_interior():
        image = op.apply(SparseVector.basis(u))
        worst_apply = nan_max(worst_apply, float(np.max(np.abs(
            mat[:, window.index_of(u)] - vector_to_dense(window, image, strict=False)))))
    worst_adjoint = 0.0
    for u in window.order:
        image = op.apply_adjoint(SparseVector.basis(u))
        worst_adjoint = nan_max(worst_adjoint, float(np.max(np.abs(
            mat[window.index_of(u)] - vector_to_dense(window, image, strict=False)))))
    return worst_apply, worst_adjoint


# -- cases ------------------------------------------------------------------------------

def padded_map(rng, width, primed_upto):
    """Explicit weights on part of the window, padded with 1; the two children
    of the branch vertex share a squared sum below 1."""
    values = {str(n): rng.uniform(0.6, 1.0) for n in range(-width, width + 1)
              if rng.random() < 0.5}
    values.update({f"{k}'": rng.uniform(0.6, 1.0) for k in range(2, primed_upto + 1)
                   if rng.random() < 0.5})
    if primed_upto:
        theta = rng.uniform(0.2, math.pi / 2 - 0.2)
        values["1"] = 0.999 * math.cos(theta)
        values["1'"] = 0.999 * math.sin(theta)
    return MapWeights(values, default=1.0)


def window_cases():
    rng = random.Random(5150)
    tilde, bilateral = make_family("tilde"), make_family("bilateral-path")
    comb = make_family("comb", {"primed_leaf": 6})
    # Hash weights up to 1 (up to 1/sqrt(2) on the binary tree) keep the
    # family bound f * M^2 < 1 from proving the limits 0, so they descend.
    cases = [
        ("tilde-hash", tilde, HashRandomWeights(11, 0.2, 1.0), -9, 9),
        ("tilde-map", tilde, padded_map(rng, 10, 10), -10, 10),
        ("comb-hash", comb, HashRandomWeights(12, 0.3, 1.0), -6, 8),
        ("comb-map", comb, padded_map(rng, 8, 6), -8, 8),
        ("bilateral-hash", bilateral, HashRandomWeights(13, 0.4, 1.0), -8, 8),
        ("bilateral-map", bilateral, padded_map(rng, 12, 0), -12, 12),
        ("binary-hash", make_family("rootless-binary"),
         HashRandomWeights(14, 0.02, BINARY_ISOMETRY), 0, 2),
    ]
    for name, model, weights, lo, hi in cases:
        yield pytest.param(model, weights, lo, hi, id=name)


WINDOW_CASES = list(window_cases())


def finite_operators(count=6):
    rng = random.Random(77)
    for i in range(count):
        tree = random_finite_tree(rng, rng.randint(2, 120))
        yield contractive_operator(rng, tree)


# -- bit-equal records -------------------------------------------------------------------

def assert_forward_matches(op, window):
    assert not AlphaEvaluator(op).lumped and not op.is_certified_vanishing()
    profile = alpha_profile(op, window)
    reference = RefAlpha(ShiftOperator(op.model, op.weights))
    assert repr(profile.records) == repr({u: reference(u) for u in window.order})


def assert_adjoint_matches(op, window):
    assert not op.is_certified_vanishing()
    adjoint = adjoint_profile(op, window)
    for lvl in window.levels():
        est, upper, status, coeffs, gen_exact = ref_adjoint_level(op, window.vertices_at(lvl)[0])
        h, rep = adjoint.h_vectors[lvl], adjoint.profile.record(window.vertices_at(lvl)[0])
        assert repr((h.norm_sq, rep.status, rep.upper == rep.estimate, h.coefficients.coeffs)) \
            == repr((est, status, gen_exact, coeffs))
        for u in window.vertices_at(lvl):
            rec = adjoint.profile.record(u)
            assert repr((rec.estimate, rec.upper, rec.status)) == repr((est, upper, status))


@pytest.mark.parametrize("model,weights,lo,hi", WINDOW_CASES)
def test_window_alpha_records_bit_equal(model, weights, lo, hi):
    op = ShiftOperator(model, weights)
    assert not AlphaEvaluator(op).lumped and not op.is_certified_vanishing()
    window = materialize_window(model, lo, hi)
    reference = ref_read_off(ShiftOperator(model, weights), window, ref_descend)
    assert repr(alpha_profile(op, window).records) == repr(reference)


@pytest.mark.parametrize("model,weights,lo,hi", WINDOW_CASES)
def test_window_adjoint_records_and_h_vectors_bit_equal(model, weights, lo, hi):
    op = ShiftOperator(model, weights)
    assert_adjoint_matches(op, materialize_window(model, lo, hi))


@pytest.mark.parametrize("model,weights,lo,hi", WINDOW_CASES)
def test_cnu_level_value_bit_equal(model, weights, lo, hi):
    op = ShiftOperator(model, weights)
    window = materialize_window(model, lo, hi)
    alpha = AlphaEvaluator(op)
    reference = RefAlpha(ShiftOperator(model, weights))
    for lvl in window.levels():
        members = window.vertices_at(lvl)
        for depth in (1, 5, DEFAULT_MAX_DEPTH):
            got = cnu_level_value(op, alpha, members, depth, 1e-9)
            want = ref_cnu_level_value(op, reference, members, depth, 1e-9)
            assert repr(got) == repr(want)


def chain_cases():
    cases = [("tilde", make_family("tilde"), HashRandomWeights(41, 0.35, 0.65), -9, 9),
             ("comb", make_family("comb", {"primed_leaf": 6}), HashRandomWeights(42, 0.3, 0.7),
              -6, 8),
             ("bilateral", make_family("bilateral-path"), HashRandomWeights(43, 0.4, 0.95),
              -12, 12),
             ("binary", make_family("rootless-binary"), HashRandomWeights(44, 0.02, 0.1), -2, 3),
             # level laws: the squares come from the level, not the vertex
             ("bilateral-exp-ray", make_family("bilateral-path"), ExpRayWeights(2.0, -3),
              -12, 12),
             ("bilateral-step", make_family("bilateral-path"), StepWeights(0.5, 1.0, cut=0),
              -12, 12),
             ("binary-geometric", make_family("rootless-binary"),
              GeometricWeights(BINARY_ISOMETRY, 0.9), -2, 3),
             ("tilde-constant", make_family("tilde"), ConstantWeights(0.6), -9, 9),
             ("comb-geometric", make_family("comb", {"primed_leaf": 5}),
              GeometricWeights(0.9, 0.95), -6, 8)]
    for name, model, weights, lo, hi in cases:
        yield pytest.param(model, weights, lo, hi, id=name)


@pytest.mark.parametrize("model,weights,lo,hi", list(chain_cases()))
def test_ancestor_chains_bit_equal_in_any_query_order(model, weights, lo, hi):
    """Chains derived from a parent's chain equal a walk up from the vertex
    alone, whether parents or children are asked first, with two depths
    sharing one operator."""
    window = materialize_window(model, lo, hi, 1000)
    for order in (window.order, window.order[::-1]):  # parents first, children first
        op = ShiftOperator(model, weights)
        for v in order:
            for depth in (3, DEFAULT_MAX_DEPTH):
                assert repr(ancestor_products(op, v, depth)) == \
                    repr(ref_ancestor_products(op, v, depth))


def test_an_ancestor_chain_stops_at_the_root():
    """On a rooted tree the walk never asks for the root's weight: a chain
    that would pass the root ends there, with None as its stop, whether the
    chain is walked or derived from a parent's, and the root's own chain,
    ((), ("0", None)), holds no square."""
    for weights in (ConstantWeights(0.9), MapWeights({}, default=0.9)):
        for order in (range(7), range(6, -1, -1)):  # parents first, children first
            op = ShiftOperator(make_family("rooted-path"), weights)
            for level in order:
                for depth in (1, 2, level, level + 1, DEFAULT_MAX_DEPTH):
                    steps = min(depth, level)
                    walked = tuple(str(level - i) for i in range(steps + 1))
                    assert op.ancestor_chain(str(level), depth) == (
                        (0.9 ** 2,) * steps, walked + ((None,) if depth > level else ()))
    op = ShiftOperator(make_family("rooted-path"), UnstatedBound(0.9))
    alpha = AlphaEvaluator(op)
    prods, stop = ancestor_products(op, "3", DEFAULT_MAX_DEPTH)
    assert stop is None and len(prods) == 3
    # past the root the walk is anchored at the root itself
    assert cnu_level_value(op, alpha, ["3"], DEFAULT_MAX_DEPTH, 1e-9) == \
        prods[-1] * alpha("3").estimate / alpha("0").estimate
    assert cnu_level_value(op, alpha, ["3"], 2, 1e-9) == 0.6561000000000001


class CountingOperator(ShiftOperator):
    def __init__(self, *args):
        super().__init__(*args)
        self.weight_calls = 0

    def weight(self, v):
        self.weight_calls += 1
        return super().weight(v)


def test_adjoint_chains_of_consecutive_levels_share_one_walk():
    """On a bilateral window -W:W each level's chain extends the one below
    it: O(depth + W) weight queries, not (2W + 1) * depth."""
    width, depth = 40, DEFAULT_MAX_DEPTH
    model = make_family("bilateral-path")
    # weights up to 1: the family bound proves nothing and the chains are walked
    op = CountingOperator(model, HashRandomWeights(8, 0.4, 1.0))
    adjoint_profile(op, materialize_window(model, -width, width), depth=depth)
    levels = 2 * width + 1
    # the norm's scan (the window and the parent above it), one walk of
    # depth, then one new square per level
    assert op.weight_calls <= (levels + 1) + depth + levels
    assert op.weight_calls < levels * depth // 10


def test_random_finite_trees_bit_equal():
    for op in finite_operators():
        window = full_window(op.model)
        assert_forward_matches(op, window)
        assert op.model.is_rooted
        cls = classify(alpha_profile(op, window), adjoint_profile(op, window))
        assert "adjoint: Cdot0 (certified: rooted tree)" in cls.notes


# -- oracle residuals --------------------------------------------------------------------

class _WrongApply(ShiftOperator):
    """Images with a spurious entry 2 at the parent: the worst entry lies off
    the support of the matrix column."""

    def apply(self, x):
        out = super().apply(x)
        for u, c in x.items():
            p = self.model.parent(u)
            if p is not None:
                out.coeffs[p] = out.coeffs.get(p, 0.0) + 2.0 * c
        return out


class _WrongAdjoint(ShiftOperator):
    """Adjoint images that lose their entry and gain 0.125 at each child: the
    worst entry lies on the support of the matrix row."""

    def apply_adjoint(self, x):
        return SparseVector({v: 0.125 for u in x.coeffs for v in self.model.children(u)})


class _Swapping(ShiftOperator):
    """Swaps e_u and e_w in its argument, for u the first vertex of level 0
    and w its first child: both are interior, their children differ and so
    do their parents.  Each swapped image is a true column or row of the
    truncation, but the other vertex's, so only a check per vertex sees it:
    the sum of the two images is right."""

    def __init__(self, model, weights):
        super().__init__(model, weights)
        u = model.seeds(0)[0]
        w = model.children(u)[0]
        self.swap = {u: w, w: u}

    def swapped(self, x):
        return SparseVector({self.swap.get(u, u): c for u, c in x.items()})


class _SwappedApply(_Swapping):
    def apply(self, x):
        return super().apply(self.swapped(x))


class _SwappedAdjoint(_Swapping):
    def apply_adjoint(self, x):
        return super().apply_adjoint(self.swapped(x))


def _oracle_record(tmp_path, capsys, tree_doc, weights_doc, levels):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(tree_doc))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(weights_doc))
    argv = ["oracle", "--tree", str(tree), "--weights", str(weights), f"--levels={levels}",
            "--breadth", "1000", "--json"]
    assert main(argv) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return next(d for d in lines if d["record"] == "oracle")


def _oracle_cases():
    rng = random.Random(9)
    tree = random_finite_tree(rng, 60)
    op = contractive_operator(rng, tree)
    finite_doc = {"vertices": sorted(tree.vertices()),
                  "edges": [[tree.parent(v), v] for v in tree.vertices() if v != tree.root]}
    yield finite_doc, {"kind": "map", "values": op.weights.head}, f"0:{tree.depth()}"
    yield ({"family": "tilde", "params": {}},
           {"kind": "family", "name": "hash-random",
            "params": {"seed": 3, "low": 0.3, "high": 0.65}}, "-6:6")
    yield ({"family": "comb", "params": {"primed_leaf": 4}},
           {"kind": "map", "values": padded_map(rng, 6, 4).head, "default": 1.0}, "-6:6")


@pytest.mark.parametrize("operator_class", [ShiftOperator, _WrongApply, _WrongAdjoint,
                                            _SwappedApply, _SwappedAdjoint, NaNApply,
                                            NaNAdjoint],
                         ids=["exact", "wrong-apply", "wrong-adjoint", "swapped-apply",
                              "swapped-adjoint", "nan-apply", "nan-adjoint"])
def test_oracle_residuals_bit_equal(tmp_path, capsys, monkeypatch, operator_class):
    monkeypatch.setattr(cli, "ShiftOperator", operator_class)
    for tree_doc, weights_doc, levels in _oracle_cases():
        record = _oracle_record(tmp_path, capsys, tree_doc, weights_doc, levels)
        model = cli.load_tree(str(tmp_path / "tree.json"))
        op = operator_class(model, cli.load_weights(str(tmp_path / "weights.json")))
        lo, hi = (int(x) for x in levels.split(":"))
        window = materialize_window(model, lo, hi, 1000)
        want_apply, want_adjoint = ref_oracle_residuals(op, window)
        assert repr((record["apply_residual"], record["adjoint_residual"])) == \
            repr((want_apply, want_adjoint))
        if operator_class is _WrongApply:
            assert want_apply > 0.0 and want_adjoint == 0.0
        elif operator_class is _WrongAdjoint:
            assert want_adjoint > 0.0 and want_apply == 0.0
        elif operator_class is _SwappedApply:
            assert want_apply > 0.0 and want_adjoint == 0.0
        elif operator_class is _SwappedAdjoint:
            assert want_adjoint > 0.0 and want_apply == 0.0
        elif operator_class is NaNApply:
            assert math.isnan(want_apply) and want_adjoint == 0.0
        elif operator_class is NaNAdjoint:
            assert math.isnan(want_adjoint) and want_apply == 0.0
        else:
            assert want_apply == want_adjoint == 0.0


class _CountingChecks(ShiftOperator):
    """Records the argument of every ``apply`` and ``apply_adjoint`` call."""

    made = []

    def __init__(self, model, weights):
        super().__init__(model, weights)
        self.applied, self.adjoined = [], []
        self.made.append(self)

    def apply(self, x):
        self.applied.append(dict(x.coeffs))
        return super().apply(x)

    def apply_adjoint(self, x):
        self.adjoined.append(dict(x.coeffs))
        return super().apply_adjoint(x)


def test_oracle_checks_each_vertex_once(tmp_path, capsys, monkeypatch):
    """One walk of the columns: one ``apply(e_u)`` per interior vertex u, in
    window order, and one ``apply_adjoint(e_u)`` per window vertex; then the
    two applies of each power check, on the first 16 interior vertices.  The
    record's cokernel is ``window_cokernel``'s."""
    monkeypatch.setattr(cli, "ShiftOperator", _CountingChecks)
    monkeypatch.setattr(_CountingChecks, "made", [])
    for tree_doc, weights_doc, levels in _oracle_cases():
        _CountingChecks.made.clear()
        record = _oracle_record(tmp_path, capsys, tree_doc, weights_doc, levels)
        (op,) = _CountingChecks.made
        lo, hi = (int(x) for x in levels.split(":"))
        window = materialize_window(op.model, lo, hi, 1000)
        interior = window.forward_interior()
        assert op.applied[:len(interior)] == [{u: 1.0} for u in interior]
        assert len(op.applied) == len(interior) + 2 * min(16, len(interior))
        assert Counter(tuple(x.items()) for x in op.adjoined) == \
            Counter(((u, 1.0),) for u in window.order)
        assert record["cokernel"] == ShiftOperator(op.model, op.weights).window_cokernel(window)


@pytest.mark.parametrize("missing, named", [(("-3", "2"), "2"), (("-3",), "-3")],
                         ids=["deeper-first", "first-level-only"])
def test_oracle_names_the_weight_its_columns_miss_first(tmp_path, capsys, missing, named):
    """The columns are read first and the first level's adjoint checks after
    them, so a missing weight deeper in the window is named before a missing
    first-level one, as when the columns and the adjoint were separate passes."""
    vertices = [str(n) for n in range(-3, 5)] + [f"{k}'" for k in range(1, 5)]
    tree = tmp_path / "tilde.json"
    tree.write_text(json.dumps({"family": "tilde", "params": {}}))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"kind": "map", "values": {
        v: 0.5 for v in vertices if v not in missing}}))
    assert main(["oracle", "--tree", str(tree), "--weights", str(weights),
                 "--levels=-3:3"]) == 2
    assert capsys.readouterr().err == \
        f"error: WeightError: no weight assigned to vertex {named!r}\n"


# -- memo behaviour ----------------------------------------------------------------------

class CountingHash(HashRandomWeights):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = Counter()

    def weight(self, model, v):
        self.calls[v] += 1
        return super().weight(model, v)


def test_each_weight_evaluated_at_most_once_per_operator():
    model = make_family("tilde")
    weights = CountingHash(21, 0.35, 1.0)  # up to 1: the limits are walked
    op = ShiftOperator(model, weights)
    window = materialize_window(model, -8, 8)
    alpha_profile(op, window)
    adjoint_profile(op, window)
    op.operator_norm(window)
    op.dense_truncation(window)
    for u in window.order:
        op.apply(SparseVector.basis(u))
        op.apply_adjoint(SparseVector.basis(u))
    assert weights.calls and max(weights.calls.values()) == 1
    # a second operator on the same weights evaluates afresh
    fresh = ShiftOperator(model, weights)
    fresh.weight("3")
    assert weights.calls["3"] == 2


def test_unassigned_map_vertex_still_raises():
    model = make_family("tilde")
    op = ShiftOperator(model, MapWeights({"1": 0.6, "1'": 0.7}))
    for _ in range(2):  # a failed evaluation is not memoized
        with pytest.raises(WeightError, match="no weight assigned to vertex '2'"):
            op.weight("2")
    with pytest.raises(WeightError):
        alpha_profile(op, materialize_window(model, 0, 2))


def test_unassigned_map_vertex_exit_code(tmp_path, capsys):
    tree = tmp_path / "tilde.json"
    tree.write_text(json.dumps({"family": "tilde", "params": {}}))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"kind": "map", "values": {"1": 0.6, "1'": 0.7}}))
    assert main(["analyze", "--tree", str(tree), "--weights", str(weights),
                 "--levels=-2:2"]) == 2
    assert "no weight assigned" in capsys.readouterr().err


def test_norm_is_cached_per_window():
    model = make_family("bilateral-path")
    weights = MapWeights({"2": 0.5, "6": 0.9}, default=0.3)
    op = ShiftOperator(model, weights)
    low, high = materialize_window(model, -3, 0), materialize_window(model, 0, 6)
    a, b = op.operator_norm(low), op.operator_norm(high)
    assert (a.window_value, b.window_value) == (0.3, 0.9)
    for window, bound in ((low, a), (high, b)):
        assert op.operator_norm(window) is bound
        assert ShiftOperator(model, weights).operator_norm(window) == bound


def test_parent_memo_keeps_a_root_and_no_failure():
    """A root's None is memoized; a query that raises is not, and raises again."""
    calls = Counter()
    model = validate_finite(["r", "a"], [("r", "a")])
    orig = model.parent

    def parent(u):
        calls[u] += 1
        return orig(u)
    model.parent = parent
    op = ShiftOperator(model, MapWeights({"a": 0.5}))
    for _ in range(2):
        assert (op.parent("r"), op.parent("a")) == (None, "r")
        with pytest.raises(VertexNotFound):
            op.parent("x")
    assert calls == Counter({"r": 1, "a": 1, "x": 2})


def test_adjoint_asymptote_asks_each_parent_once(tmp_path, capsys, monkeypatch):
    """The climbs of the generations, the ancestor chains, the norm's scan
    and the asymptote's coefficients all read the operator's parent memo."""
    calls = Counter()
    orig = CombTree.parent

    def parent(self, u):
        calls[u] += 1
        return orig(self, u)
    monkeypatch.setattr(CombTree, "parent", parent)
    tree = tmp_path / "tilde.json"
    tree.write_text(json.dumps({"family": "tilde", "params": {}}))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"kind": "map", "default": 1.0, "values": {
        "1": 0.8, "1'": 0.55, "-4": 0.7, "3": 0.9, "5'": 0.75}}))
    assert main(["adjoint-asymptote", "--tree", str(tree), "--weights", str(weights),
                 "--levels=-12:12", "--json"]) == 0
    assert '"record": "adjoint-asymptote"' in capsys.readouterr().out
    assert len(calls) > 25 and max(calls.values()) == 1, calls.most_common(3)


# -- membership checks ----------------------------------------------------------------

def _counting_membership(model, counts):
    """``model`` with its ``__contains__`` and ``require_vertex`` calls counted."""
    cls = type(model)

    def counted(name):
        orig = getattr(cls, name)

        def method(self, *args):
            counts[name] += 1
            return orig(self, *args)
        return method

    model.__class__ = type(cls.__name__, (cls,),
                           {name: counted(name) for name in ("__contains__", "require_vertex")})
    return model


@pytest.mark.parametrize("command, size, most", [("analyze", 200, 0), ("oracle", 1000, 20)])
def test_finite_tree_queries_check_no_membership(tmp_path, capsys, monkeypatch, command, size,
                                                 most):
    """A query's own dict lookup is its membership check: ``analyze`` makes
    none, and ``oracle`` makes only those of ``power_closed`` (16 at most),
    whose vertex ids come from outside the tree."""
    rng = random.Random(size)
    tree = random_finite_tree(rng, size)
    op = contractive_operator(rng, tree)
    tree_path, weights_path = tmp_path / "tree.json", tmp_path / "weights.json"
    tree_path.write_text(json.dumps({
        "vertices": tree.vertices(),
        "edges": [[tree.parent(v), v] for v in tree.vertices() if v != tree.root]}))
    weights_path.write_text(json.dumps({"kind": "map", "values": op.weights.head}))
    counts = Counter()
    monkeypatch.setattr(cli, "load_tree",
                        lambda path: _counting_membership(load_tree(path), counts))
    assert main([command, "--tree", str(tree_path), "--weights", str(weights_path),
                 f"--levels=0:{tree.depth()}", "--breadth", str(size), "--json"]) == 0
    capsys.readouterr()
    assert counts["__contains__"] <= most and counts["require_vertex"] <= most, counts


@pytest.mark.parametrize("model, u, checks", [
    (validate_finite(["r", "a", "b"], [("r", "a"), ("a", "b")]), "a", 0),
    (make_family("rooted-path"), "3", 1),
    (make_family("bilateral-path"), "-3", 1),
    (make_family("tilde"), "2'", 1),
    (make_family("comb", {"primed_leaf": 2, "unprimed_leaf": 4}), "4", 1),
    (make_family("rootless-binary"), "0", 1),
    (make_family("rootless-binary"), "-2:101", 1),
])
def test_each_query_checks_its_id_once(model, u, checks):
    """A finite tree's query is one lookup and calls no ``__contains__``; a
    procedural family's query calls it once, as perfbench's tracer counts,
    and takes its parsed id from that call."""
    counts = Counter()
    _counting_membership(model, counts)
    parse = model._parse

    def counted_parse(v):
        counts["_parse"] += 1
        return parse(v)
    model._parse = counted_parse
    for query in (model.children, model.parent, model.level):
        counts.clear()
        query(u)
        assert counts == Counter({"__contains__": checks, "_parse": checks}), query.__name__


def test_an_analysis_reads_the_weight_head_once(tmp_path, capsys, monkeypatch):
    """The operator reads the level of each head key once, for the norm, the
    forward floor and the adjoint sweep together.  ``1'`` is not a vertex of
    the path, so that read is its only parse.  ``-3`` lies above the window:
    besides its level, the norm asks its parent (it is a head vertex) and its
    children (it is the parent of the window's top vertex)."""
    tree_path, weights_path = tmp_path / "tree.json", tmp_path / "weights.json"
    tree_path.write_text(json.dumps({"family": "bilateral-path"}))
    weights_path.write_text(json.dumps({"kind": "map", "values": {"1": 0.6, "-3": 0.5,
                                                                  "1'": 0.7}, "default": 1.0}))
    counts = Counter()

    def load(path):
        model = load_tree(path)
        cls = type(model)

        def parse(self, u):
            counts[u] += 1
            return cls._parse(self, u)
        model.__class__ = type(cls.__name__, (cls,), {"_parse": parse})
        return model
    monkeypatch.setattr(cli, "load_tree", load)
    assert main(["analyze", "--tree", str(tree_path), "--weights", str(weights_path),
                 "--levels=-2:2"]) == 0
    assert "error" not in capsys.readouterr().err
    assert (counts["1'"], counts["-3"]) == (1, 3)
