"""Family closed forms as hooks on the tree and weight classes.

The reference functions below are the module-level dispatch helpers the hooks
replaced, kept verbatim (``isinstance`` arms and all), with arms for the
``geometric`` and ``step`` laws written by hand from each law where the
derived level-law hooks close a question the old helpers left open, with the
isometry certificates decided on exact square-sums (``Fraction``), and with
the family bound f * M^2 < 1 (``ref_certified_vanishing``, written by hand
from each family) taking precedence where it proves every limit 0.  Every
hook must give the same answer on every built-in tree, a comb with leaves and
a finite tree, paired with every weight family and with the subclass patterns
the suite uses.  The one intended difference, the closed-form infimum of
``exp-ray`` weights on the rooted path below level 1, is tested on its own.
An AST check keeps concrete-class dispatch, by ``isinstance`` or by probing
an attribute only a family class has, from coming back outside ``trees`` and
``weights``.
"""

import ast
import inspect
import itertools
import json
import math
import os
import re
from collections import Counter
from fractions import Fraction
from itertools import groupby
from types import SimpleNamespace

import pytest

import treeshift
from treeshift import similarity, trees, weights
from treeshift.asymptote import SimilarityAnswer, similar_to_coisometry, similar_to_isometry
from treeshift.asymptotics import (
    EXACT_ZERO,
    AlphaEvaluator,
    _stable_branching,
    alpha_profile,
    stable_subtree,
)
from treeshift.cli import main
from treeshift.errors import VertexNotFound, WeightError
from treeshift.shifts import NormBound, ShiftOperator
from treeshift.similarity import RatioCertificate, ratio_bounded
from treeshift.trees import (
    BilateralPath,
    CombTree,
    FiniteTree,
    RootedPath,
    RootlessBinary,
    TreeWindow,
    make_family,
    materialize_window,
    validate_finite,
)
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


# -- the deleted dispatch helpers, verbatim ---------------------------------------------

def ref_max_children(model):
    """The deleted ``max_children`` methods, one arm per class."""
    if isinstance(model, FiniteTree):
        return max((len(c) for c in model._children.values()), default=0)
    if isinstance(model, (RootedPath, BilateralPath)):
        return 1
    return 2  # CombTree, RootlessBinary


def ref_level_homogeneous(model):
    """The deleted ``level_homogeneous`` class attributes."""
    return isinstance(model, (RootedPath, BilateralPath, RootlessBinary))


def ref_spine_vertex(model, lvl):
    """The deleted ``spine_vertex`` methods of the procedural families."""
    if isinstance(model, RootedPath):
        return str(lvl) if lvl >= 0 else None
    if isinstance(model, CombTree):
        if model.unprimed_leaf is not None and lvl > model.unprimed_leaf:
            return None
        return str(lvl)
    return str(lvl)


def ref_materialize_window(model, level_lo, level_hi, breadth=64):
    if level_lo > level_hi:
        raise ValueError("window level range is empty")
    if breadth < 1:
        raise ValueError("breadth cap must be positive")

    if isinstance(model, FiniteTree):
        lvl = max(level_lo, 0)
        current = []
        while lvl <= level_hi and not current:
            current = sorted(v for v in model.vertices() if model.level(v) == lvl)
            if not current:
                lvl += 1
    else:
        lvl = max(level_lo, 0) if model.is_rooted else level_lo
        seed = ref_spine_vertex(model, lvl)
        if seed is None or lvl > level_hi:
            raise VertexNotFound(f"window [{level_lo},{level_hi}] contains no vertices")
        current = [seed]

    collected = []
    current = current[:breadth]
    while current and lvl <= level_hi:
        collected.extend(current)
        nxt = []
        for u in current:
            nxt.extend(model.children(u))
        current = sorted(set(nxt))[:breadth]
        lvl += 1
    if not collected:
        raise VertexNotFound(f"window [{level_lo},{level_hi}] contains no vertices")
    collected.sort(key=lambda v: (model.level(v), v))
    kept = set(collected)
    interior = [u for u in collected if all(v in kept for v in model.children(u))]
    return TreeWindow(model, level_lo, level_hi,
                      {lvl: list(vs) for lvl, vs in groupby(collected, model.level)}, interior)


def ref_certified_vanishing(m, w):
    """f * M^2 < 1 in exact arithmetic, with f the children count past the
    branch points and M the largest weight outside a map's finitely many keys
    (its default), on an infinite tree whose every vertex carries a weight."""
    if isinstance(m, FiniteTree) or (isinstance(w, MapWeights) and w.default is None):
        return False
    top = w.default if isinstance(w, MapWeights) else w.max_weight()
    fan = 2 if isinstance(m, RootlessBinary) else 1
    return top is not None and math.isfinite(top) and Fraction(top) ** 2 * fan < 1


def ref_is_certified_isometry(m, w):
    """Family-level isometry certificates (children square-sums all exactly 1
    on the given doubles), never where the family bound proves the limits 0.
    ``binary-spine`` is an isometry by its family law."""
    if ref_certified_vanishing(m, w):
        return False
    if isinstance(w, ConstantWeights):
        if isinstance(m, RootlessBinary):
            return 2 * Fraction(w.value) ** 2 == 1
        if isinstance(m, (RootedPath, BilateralPath)):
            return Fraction(w.value) ** 2 == 1
    if isinstance(w, BinarySpineWeights) and isinstance(m, RootlessBinary):
        return True
    if isinstance(w, RayWeights) and isinstance(m, CombTree):
        if m.leaf_set():
            return False
        s1 = w.branch_spine if w.branch_spine is not None else w.spine
        p1 = w.branch_primed if w.branch_primed is not None else w.primed
        return (Fraction(w.spine) ** 2 == 1 and Fraction(w.primed) ** 2 == 1
                and Fraction(s1) ** 2 + Fraction(p1) ** 2 == 1)
    return False


def ref_operator_norm(op, window):
    if isinstance(op.model, FiniteTree):
        value = max(op._column_norm(u) for u in op.model.vertices())
        return NormBound(value, value, True)
    if ref_is_certified_isometry(op.model, op.weights):
        return NormBound(1.0, 1.0, True)
    scan = dict.fromkeys(window.order)
    for u in window.top_boundary():
        scan[op.model.parent(u)] = None
    if isinstance(op.model, CombTree):
        scan["0"] = None  # the branch vertex: every other vertex has one child
    window_value = max(op._column_norm(u) for u in scan)
    top = op.weights.max_weight()
    if isinstance(op.weights, MapWeights):  # the column of every key vertex's parent
        for v in op.weights.head:
            if v in op.model and op.model.parent(v) is not None:
                scan[op.model.parent(v)] = None
        top = op.weights.default
    value = max(op._column_norm(u) for u in scan)
    if top is None:
        return NormBound(value, window_value, False)
    outside = top * math.sqrt(2 if isinstance(op.model, RootlessBinary) else 1)
    return NormBound(max(value, outside), window_value, True)


def ref_has_last_level(model):
    if isinstance(model, CombTree):
        return model.unprimed_leaf is not None
    if isinstance(model, FiniteTree):
        return True
    return False


def ref_full_product_positive(weights, model):
    """Closed-form sign of the two-sided infinite weight product, or None."""
    if not isinstance(weights, MapWeights) and (weights.max_weight() or math.inf) < 1.0:
        return False  # infinitely many factors, each at most M < 1
    if isinstance(weights, ConstantWeights):
        return weights.value >= 1.0
    if isinstance(weights, ExpRayWeights):
        return True  # log-sum is a finite geometric series
    if isinstance(weights, StepWeights):
        return weights.low >= 1.0 and weights.high >= 1.0
    if isinstance(weights, GeometricWeights):
        # scale * ratio^|l|: the weights fall to 0 both ways when ratio < 1
        if weights.ratio != 1.0:
            return weights.ratio > 1.0
        return weights.scale >= 1.0
    if isinstance(weights, MapWeights) and weights.default is not None:
        if weights.default >= 1.0:
            return all(v > 0.0 for v in weights.head.values())
        return False
    return None


def ref_similar_to_coisometry(operator, window):
    model = operator.model
    if model.is_rooted:
        return SimilarityAnswer("no", "rooted tree cannot carry a co-isometry similarity")
    if any(len(model.children(u)) > 1 for u in window):
        return SimilarityAnswer("no", "branching vertex present: |Chi(u)| <= 1 fails")
    if model.branching_total() > 0:
        return SimilarityAnswer("no", "family has positive branching index")
    closed = ref_full_product_positive(operator.weights, model)
    if closed is True:
        return SimilarityAnswer("yes", "full weight product positive (closed form)")
    if closed is False:
        return SimilarityAnswer("no", "full weight product vanishes (closed form)")
    return SimilarityAnswer("undetermined", "no closed form for the full weight product")


def ref_similar_to_isometry(operator, profile):
    for u in profile.window.order:
        if profile.record(u).status == EXACT_ZERO:
            return SimilarityAnswer("no", f"forward limit vanishes exactly at {u}")
    if ref_is_certified_isometry(operator.model, operator.weights):
        return SimilarityAnswer("yes", "certified isometry: all forward limits are 1")
    model, w = operator.model, operator.weights
    if isinstance(w, ExpRayWeights) and isinstance(model, (RootedPath, BilateralPath)):
        inf_value = math.exp(2.0 * w.tail_log_sum(w.start_level - 1))
        return SimilarityAnswer("yes", f"closed-form infimum {inf_value:.6g} > 0")
    if isinstance(w, ConstantWeights) and isinstance(model, (RootedPath, BilateralPath)):
        if w.value < 1.0:
            return SimilarityAnswer("no", "constant weight < 1 on a chain: limits vanish")
    vanish = SimilarityAnswer("no", "closed form on a chain: the forward limits vanish")
    if isinstance(w, GeometricWeights) and isinstance(model, (RootedPath, BilateralPath)):
        if w.ratio < 1.0 or (w.ratio == 1.0 and w.scale < 1.0):
            return vanish  # the weights fall to 0 up the chain
        if w.ratio == 1.0 and w.scale == 1.0:
            return SimilarityAnswer("yes", "closed-form infimum 1 > 0")
    if (isinstance(w, StepWeights) and isinstance(model, (RootedPath, BilateralPath))
            and max(w.low, w.high) <= 1.0):
        # high above the cut, low at and below it: the limit at level l is the
        # product of the squared weights above l, least at the lowest level
        if w.high < 1.0:
            return vanish
        if w.low < 1.0 and not model.is_rooted:
            # 1 at and above the cut, falling to 0 with the level below it
            return SimilarityAnswer("no", "closed form on a chain: the forward limits "
                                          "fall to 0 as the level falls")
        inf_value = w.low ** (2 * max(w.cut, 0)) if model.is_rooted else 1.0
        return SimilarityAnswer("yes", f"closed-form infimum {inf_value:.6g} > 0")
    return SimilarityAnswer("undetermined", "no symbolic infimum for this family")


def ref_generation_complete(model, anchor_level):
    """True when no branch vertex can appear above the current anchor."""
    if isinstance(model, (RootedPath, BilateralPath)):
        return True
    if isinstance(model, CombTree):
        return anchor_level <= 0
    if isinstance(model, FiniteTree):
        return all(model._level[u] >= anchor_level
                   for u, kids in model._children.items() if len(kids) > 1)
    return False


def ref_stable_branching(profile, members):
    model = profile.window.model
    count = 0
    for u in members:
        kids = [v for v in model.children(u) if v in members]
        if len(kids) > 1:
            count += len(kids) - 1
    if isinstance(model, FiniteTree):
        return (count, True)
    if ref_certified_vanishing(model, profile.evaluator.operator.weights):
        return (0, True)  # every limit vanishes: T' is empty everywhere
    symbolic = (model.branching_total(), True)
    if members == set(profile.window.order) and symbolic is not None:
        if profile.all_settled() or symbolic[0] == 0:
            return symbolic
    if isinstance(model, (RootedPath, BilateralPath)):
        return (0, True)
    if isinstance(model, CombTree):
        if "0" in profile.window:
            return (count, True)
    return (count, False)


def ref_ratio_bounded(operator, horizon=64, blow_up=1e6):
    w, leaf = operator.weights, operator.model.primed_leaf
    if isinstance(w, RayWeights) and leaf is None:
        first = ((w.branch_primed if w.branch_primed is not None else w.primed)
                 / (w.branch_spine if w.branch_spine is not None else w.spine))
        step = w.primed / w.spine
        if step <= 1.0:
            return RatioCertificate("bounded", max(first, first * step), True)
        if first > blow_up:
            return RatioCertificate("unbounded-evidence", first, True, at=1, value=first)
        k = 1 + max(1, int(math.ceil(math.log(blow_up / first) / math.log(step))))
        while first * step ** (k - 1) <= blow_up:
            k += 1
        while k > 2 and first * step ** (k - 2) > blow_up:
            k -= 1
        return RatioCertificate("unbounded-evidence", first * step ** (k - 1), True,
                                at=k, value=first * step ** (k - 1))
    # a level law gives k and k' the same weight
    exact = isinstance(w, (ConstantWeights, ExpRayWeights, GeometricWeights, StepWeights))
    if isinstance(w, MapWeights) and w.default is not None:
        support = [abs(int(v[:-1] if v.endswith("'") else v)) for v in w.head]
        horizon = max(horizon, max(support, default=0) + 1)
        exact = True
    # a primed ray that ends within the horizon is walked to its leaf, and its sup is a max
    ends = leaf is not None and leaf <= horizon
    if ends:
        horizon, exact = leaf, True
    ratio = 1.0
    sup = 0.0
    for k in range(1, horizon + 1):
        ratio *= operator.weight(f"{k}'") / operator.weight(str(k))
        sup = max(sup, ratio)
        if ratio > blow_up and not ends:
            return RatioCertificate("unbounded-evidence", sup, exact, at=k, value=ratio)
    return RatioCertificate("bounded", sup, exact)


# -- the cases --------------------------------------------------------------------------

TREES = {
    "rooted-path": lambda: make_family("rooted-path"),
    "bilateral-path": lambda: make_family("bilateral-path"),
    "rootless-binary": lambda: make_family("rootless-binary"),
    "tilde": lambda: make_family("tilde"),
    "comb": lambda: make_family("comb", {"primed_leaf": 3}),
    "comb-two-leaves": lambda: make_family("comb", {"primed_leaf": 2, "unprimed_leaf": 4}),
    "finite": lambda: validate_finite(["0", "1", "1'", "2", "2'", "3"],
                                      [["0", "1"], ["0", "1'"], ["1", "2"], ["1'", "2'"],
                                       ["2", "3"]]),
}


class HalfConstant(ConstantWeights):
    def __init__(self):
        super().__init__(0.5)


class PaddedMap(MapWeights):
    def __init__(self):
        super().__init__({"1": 0.6, "1'": 0.7, "-2": 0.9}, default=1.0)


class Bare(WeightAssignment):
    def weight(self, model, v):
        self._check_non_root(model, v)
        return 0.6

    def max_weight(self):
        return 0.6


WEIGHTS = {
    "map": lambda: MapWeights({"1": 0.6, "1'": 0.7}, default=1.0),
    "map-decaying": lambda: MapWeights({"1": 0.6, "1'": 0.7}, default=0.5),
    "map-unpadded": lambda: MapWeights({"1": 0.6, "1'": 0.7, "2": 0.5, "2'": 0.4, "3": 0.3}),
    "constant-binary-isometry": lambda: ConstantWeights(1 / math.sqrt(2)),
    "constant-one": lambda: ConstantWeights(1.0),
    "constant-near-one": lambda: ConstantWeights(1.0 - 6e-13),
    "constant-half": lambda: ConstantWeights(0.5),
    "exp-ray": lambda: ExpRayWeights(2.0, 1),
    "exp-ray-deep": lambda: ExpRayWeights(2.5, 3),
    "geometric": lambda: GeometricWeights(0.9, 0.8),
    "step": lambda: StepWeights(0.5, 1.0, cut=0),
    "step-ones": lambda: StepWeights(1.0, 1.0, cut=0),
    "step-deep-cut": lambda: StepWeights(0.5, 1.0, cut=3),
    "step-mixed": lambda: StepWeights(1.5, 0.5, cut=0),
    "geometric-flat": lambda: GeometricWeights(1.0, 1.0),
    "geometric-growing": lambda: GeometricWeights(0.9, 1.2),
    "rays": lambda: RayWeights(0.7, 0.6),
    "rays-isometry": lambda: RayWeights(1.0, 1.0, branch_spine=0.6, branch_primed=0.8),
    "rays-growing": lambda: RayWeights(0.5, 0.9, branch_spine=0.4, branch_primed=0.3),
    "binary-spine": lambda: BinarySpineWeights(),
    "hash-random": lambda: HashRandomWeights(7, 0.5, 0.9),
    "constant-subclass": HalfConstant,
    "map-subclass": PaddedMap,
    "bare-subclass": Bare,
}

READABLE = {"rays": ("tilde", "comb"), "binary-spine": ("rootless-binary",)}


def readable(model, w):
    families = READABLE.get(getattr(w, "name", None))
    return families is None or model.family in families


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and text of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def windows_of(model):
    """A window around level 0, and one below it (a comb's branch vertex "0"
    lies outside it)."""
    return [materialize_window(model, -3, 3), materialize_window(model, 1, 3)]


# -- tree hooks -------------------------------------------------------------------------

@pytest.mark.parametrize("tree", TREES)
def test_tree_hooks_match_the_deleted_dispatch(tree):
    model = TREES[tree]()
    assert model.has_last_level == ref_has_last_level(model)
    assert (model.children_per_vertex is not None) == ref_level_homogeneous(model)
    if model.children_per_vertex is not None:
        assert model.children_per_vertex == ref_max_children(model)
    assert (model.vertices() is None) == (not isinstance(model, FiniteTree))
    for lvl in range(-6, 7):
        assert model.generation_complete(lvl) == ref_generation_complete(model, lvl)
    for lo, hi in ((-3, 3), (-6, -1), (0, 0), (2, 9), (3, 6), (4, 5), (5, 9), (-1, 0)):
        for breadth in (1, 64):
            old = outcome(ref_materialize_window, model, lo, hi, breadth)
            if old[0] == "raised":
                assert old[1] == "VertexNotFound"
                with pytest.raises(VertexNotFound) as caught:
                    materialize_window(model, lo, hi, breadth)
                assert str(caught.value) == f"window [{lo},{hi}] contains no vertices"
            else:
                assert materialize_window(model, lo, hi, breadth).order == old[1].order


def test_rooted_path_is_a_bilateral_path_with_a_root():
    rooted, bilateral = make_family("rooted-path"), make_family("bilateral-path")
    assert isinstance(rooted, BilateralPath)
    assert rooted.is_rooted and rooted.root == "0" and not bilateral.is_rooted
    assert rooted.parent("0") is None and bilateral.parent("0") == "-1"
    assert "-1" not in rooted and "-1" in bilateral and "a" not in rooted
    assert rooted.seeds(-1) == [] and bilateral.seeds(-1) == ["-1"]
    assert rooted.children("4") == bilateral.children("4") == ("5",)


@pytest.mark.parametrize("tree", TREES)
def test_a_tree_states_its_root_and_derives_rootedness(tree):
    """``root`` is the one fact (None when rootless); no tree class restates
    it or ``is_rooted``, which the base reads off it."""
    model = TREES[tree]()
    assert model.is_rooted == (model.root is not None) == (tree in ("rooted-path", "finite"))
    for cls in type(model).__mro__[:-2]:  # every class below DirectedTreeModel
        assert "is_rooted" not in vars(cls)
        assert vars(cls).get("root") in (None, "0")  # a stated id, not a method


@pytest.mark.parametrize("tree", ["rooted-path", "finite"])
def test_no_weight_law_weighs_the_root(tree):
    model = TREES[tree]()
    laws = {name: WEIGHTS[name]() for name in WEIGHTS}
    refused = {name for name, w in laws.items() if not readable(model, w)}
    assert refused == {"rays", "rays-isometry", "rays-growing", "binary-spine"}
    for name in laws.keys() - refused:
        with pytest.raises(WeightError, match="^the root '0' carries no weight$"):
            laws[name].weight(model, model.root)


# -- weight hooks -----------------------------------------------------------------------

@pytest.mark.parametrize("name", WEIGHTS)
@pytest.mark.parametrize("tree", TREES)
def test_weight_hooks_match_the_deleted_dispatch(monkeypatch, tree, name):
    model, w = TREES[tree](), WEIGHTS[name]()
    if not readable(model, w):
        with pytest.raises(WeightError):
            ShiftOperator(model, w)
        return
    op = ShiftOperator(model, w)
    assert op.is_certified_vanishing() == ref_certified_vanishing(model, w)
    assert op.is_certified_isometry() == ref_is_certified_isometry(model, w)
    assert AlphaEvaluator(op).lumped == (ref_level_homogeneous(model)
                                         and ref_max_children(model) == 1 and w.level_only)
    for window in windows_of(model):
        op = ShiftOperator(model, w)
        assert (outcome(op.operator_norm, window)
                == outcome(ref_operator_norm, ShiftOperator(model, w), window))
        assert similar_to_coisometry(op, window) == ref_similar_to_coisometry(op, window)
        profile = outcome(alpha_profile, op, window)
        if profile[0] == "raised":
            continue
        profile = profile[1]
        new, old = similar_to_isometry(op, profile), ref_similar_to_isometry(op, profile)
        if not (isinstance(w, ExpRayWeights) and model.is_rooted and w.start_level < 1):
            assert new == old
        members = {u for u in window.order if profile.estimate(u) > 1e-9}
        for subset in (members, set(window.order), set(window.order[:3]), set()):
            assert _stable_branching(profile, subset) == ref_stable_branching(profile, subset)
        stable = outcome(stable_subtree, profile)
        if stable[0] == "value":
            assert stable[1].branching == ref_stable_branching(profile, stable[1].members)
    if isinstance(model, CombTree):
        assert outcome(ratio_bounded, op) == outcome(ref_ratio_bounded, op)
        for horizon, blow_up in ((1, 1e6), (3, 2.0)):
            monkeypatch.setattr(similarity, "BLOW_UP", blow_up)
            assert (outcome(ratio_bounded, op, horizon)
                    == outcome(ref_ratio_bounded, ShiftOperator(model, w), horizon, blow_up))


# Every public method of the weights base class is a hook, apart from these.
# ``convergence_floor_level`` is exempt from the count: a weight map reads the
# level of each of its keys, one membership query per key, once per analysis.
NOT_HOOKS = {"weight", "level_weight", "to_json", "convergence_floor_level"}
# Every public method and property of the tree base class is a hook, apart
# from the queries (membership is ``__contains__``, which is not public).
TREE_QUERIES = {"children", "parent", "level", "require_vertex"}


def _public_hooks(cls, exempt):
    return sorted(name for name, attr in vars(cls).items()
                  if (inspect.isfunction(attr) or isinstance(attr, property))
                  and not name.startswith("_") and name not in exempt)


def test_hooks_make_no_counted_queries():
    """No hook asks the tree for children, parents or membership, or the
    weights for a weight, so the benchmark's traced counters are unchanged.
    The hooks are read off the base classes, so a new one is covered."""
    hooks = _public_hooks(WeightAssignment, NOT_HOOKS)
    assert hooks == ["isometry_on", "max_weight", "ratio_geometric", "tail", "tail_log_sum"]
    tree_hooks = _public_hooks(trees.DirectedTreeModel, TREE_QUERIES)
    assert tree_hooks == ["branch_points", "branching_in", "branching_total", "describe",
                          "eventual_fan", "generation_complete", "has_last_level", "is_rooted",
                          "leaf_set", "seeds", "vertices"]
    counts = Counter()

    def counting(cls, methods):
        def counted(orig, event):
            def method(obj, *args):
                counts[event] += 1
                return orig(obj, *args)
            return method
        return type(cls.__name__, (cls,), {m: counted(getattr(cls, m), m) for m in methods})

    for tree in TREES:
        for name in WEIGHTS:
            model, w = TREES[tree](), WEIGHTS[name]()
            if not readable(model, w):
                continue
            window = windows_of(model)[0]
            model.__class__ = counting(type(model), ("children", "parent", "__contains__"))
            w.__class__ = counting(type(w), ("weight",))
            counts.clear()
            op = ShiftOperator(model, w)
            AlphaEvaluator(op)
            arguments = {"model": [model], "from_level": [-math.inf, -3, 0, 2],
                         "window": [window], "lvl": range(-4, 5)}
            for obj, names in ((w, hooks), (model, tree_hooks)):
                for hook in names:
                    method = getattr(obj, hook)
                    if not callable(method):  # a property, or a map's tail
                        continue
                    params = list(inspect.signature(method).parameters)
                    for args in itertools.product(*(arguments[n] for n in params)):
                        method(*args)
            assert not counts, (tree, name, counts)


# -- weights only read the vertex ids of their tree families ----------------------------

FAMILY_DOCS = {
    "exp-ray": {"base": 2.0, "start_level": 1},
    "geometric": {"scale": 0.5, "ratio": 0.9},
    "step": {"low": 0.5, "high": 0.6, "cut": 0},
    "rays": {"spine": 0.7, "primed": 0.6},
    "binary-spine": {},
    "hash-random": {"seed": 7, "low": 0.3, "high": 0.6},
}
TREE_DOCS = {
    "rooted-path": {"family": "rooted-path"},
    "bilateral-path": {"family": "bilateral-path"},
    "rootless-binary": {"family": "rootless-binary"},
    "tilde": {"family": "tilde", "params": {}},
    "comb": {"family": "comb", "params": {"primed_leaf": 2, "unprimed_leaf": 4}},
    "finite": {"vertices": ["r", "a", "b", "c"], "edges": [["r", "a"], ["r", "b"], ["a", "c"]]},
}


@pytest.mark.parametrize("name", FAMILY_DOCS)
@pytest.mark.parametrize("tree", TREE_DOCS)
def test_weight_families_reject_trees_whose_ids_they_cannot_read(tree, name, tmp_path,
                                                                 capsys):
    doc = {"kind": "family", "name": name, "params": FAMILY_DOCS[name]}
    model, w = trees.tree_from_json(TREE_DOCS[tree]), weights.weights_from_json(doc)
    accepted = name not in READABLE or tree in READABLE[name]
    tree_path, weights_path = tmp_path / "tree.json", tmp_path / "weights.json"
    tree_path.write_text(json.dumps(TREE_DOCS[tree]))
    weights_path.write_text(json.dumps(doc))
    code = main(["analyze", "--tree", str(tree_path), "--weights", str(weights_path),
                 "--levels=0:2"])
    out, err = capsys.readouterr()
    if accepted:
        ShiftOperator(model, w)
        assert code in (0, 3) and "need a" not in err
        return
    with pytest.raises(WeightError) as caught:
        ShiftOperator(model, w)
    message = str(caught.value)
    assert message.startswith(f"{name} weights need a ") and model.describe() in message
    assert code == 2 and out == ""
    assert err == f"error: WeightError: {message}\n"


# -- the closed-form infimum of exp-ray weights on the rooted path ----------------------

@pytest.mark.parametrize("start_level", [-70, -3, 0, 1, 2, 3])
def test_rooted_path_exp_ray_infimum_is_the_root_limit(start_level):
    op = ShiftOperator(make_family("rooted-path"), ExpRayWeights(2.0, start_level))
    profile = alpha_profile(op, materialize_window(op.model, 0, 2))
    root_limit = profile.estimate("0")
    closed = math.exp(2.0 * op.weights.tail_log_sum(0))  # the weights above the root
    assert closed == pytest.approx(root_limit, rel=0, abs=1e-9)
    assert min(profile.estimate(u) for u in profile.window.order) == root_limit
    answer = similar_to_isometry(op, profile)
    assert answer.answer == "yes"
    assert answer.reason == f"closed-form infimum {closed:.6g} > 0"
    if start_level >= 1:  # unchanged from the bilateral formula
        assert answer == ref_similar_to_isometry(op, profile)


def test_rooted_path_exp_ray_infimum_through_the_cli(tmp_path, capsys):
    tree, weights_path = tmp_path / "rooted.json", tmp_path / "exp.json"
    tree.write_text(json.dumps({"family": "rooted-path", "params": {}}))
    weights_path.write_text(json.dumps({"kind": "family", "name": "exp-ray",
                                        "params": {"base": 2.0, "start_level": -3}}))
    assert main(["analyze", "--tree", str(tree), "--weights", str(weights_path),
                 "--levels=0:2"]) == 0
    out = capsys.readouterr().out
    alpha0 = float(re.search(r"alpha\[0\] = (\S+)", out).group(1))
    printed = float(re.search(r"closed-form infimum (\S+) > 0", out).group(1))
    assert alpha0 == pytest.approx(math.exp(-2.0), abs=1e-9)
    assert printed == float(f"{alpha0:.6g}")


def test_bilateral_path_exp_ray_infimum_is_below_start_level():
    op = ShiftOperator(make_family("bilateral-path"), ExpRayWeights(2.0, 0))
    profile = alpha_profile(op, materialize_window(op.model, -3, 1))
    closed = math.exp(2.0 * op.weights.tail_log_sum(-math.inf))
    assert closed == pytest.approx(math.exp(-4.0), rel=1e-12)
    for u in ("-3", "-2", "-1"):
        assert closed == pytest.approx(profile.estimate(u), rel=0, abs=1e-9)
    assert similar_to_isometry(op, profile) == ref_similar_to_isometry(op, profile)


# -- level laws: one tail log-sum, and the hooks derived from it ------------------------

LEVEL_LAWS = {
    "constant-half": lambda: ConstantWeights(0.5),
    "constant-one": lambda: ConstantWeights(1.0),
    "constant-big": lambda: ConstantWeights(1.5),
    "exp-ray": lambda: ExpRayWeights(2.0, 1),
    "exp-ray-deep": lambda: ExpRayWeights(2.5, 3),
    "exp-ray-negative-start": lambda: ExpRayWeights(2.0, -3),
    "geometric": lambda: GeometricWeights(0.9, 0.8),
    "geometric-flat-half": lambda: GeometricWeights(0.5, 1.0),
    "geometric-flat": lambda: GeometricWeights(1.0, 1.0),
    "geometric-growing": lambda: GeometricWeights(0.9, 1.2),
    "step": lambda: StepWeights(0.5, 1.0, cut=0),
    "step-ones": lambda: StepWeights(1.0, 1.0, cut=0),
    "step-deep-cut": lambda: StepWeights(0.5, 1.0, cut=3),
    "step-falling": lambda: StepWeights(1.0, 0.5, cut=-2),
    "step-mixed": lambda: StepWeights(1.5, 0.5, cut=0),
    "step-mixed-up": lambda: StepWeights(0.5, 1.5, cut=2),
}


def _limit(partial):
    """The limit of the partial sums ``partial(n)`` as n grows: a float, or
    -inf / +inf when they fall / rise without bound."""
    s100, s200, s400, s800 = (partial(n) for n in (100, 200, 400, 800))
    if abs(s800 - s400) <= 1e-13:
        return s800
    if s800 < s400 - 10.0 < s200 - 20.0 < s100 - 30.0:
        return -math.inf
    assert s800 > s400 + 10.0 > s200 + 20.0 > s100 + 30.0, (s100, s200, s400, s800)
    return math.inf


def _by_law(w, from_level):
    """sum over levels l > from_level of log lambda_l, from the partial sums
    of ``level_weight``: above level 0 and at or below it for -inf."""
    def above(start):
        return _limit(lambda n: math.fsum(math.log(w.level_weight(lvl))
                                          for lvl in range(start + 1, start + n + 1)))
    if from_level != -math.inf:
        return above(from_level)
    below = _limit(lambda n: math.fsum(math.log(w.level_weight(lvl))
                                       for lvl in range(-n + 1, 1)))
    return below + above(0)  # NaN when one side falls and the other rises


def test_every_level_law_is_covered():
    level_laws = {cls for cls in vars(weights).values()
                  if isinstance(cls, type) and issubclass(cls, WeightAssignment)
                  and cls.level_only}
    assert {type(make()) for make in LEVEL_LAWS.values()} == level_laws


@pytest.mark.parametrize("from_level", [-math.inf, -5, -1, 0, 2])
@pytest.mark.parametrize("name", LEVEL_LAWS)
def test_tail_log_sum_is_the_sum_of_the_level_law(name, from_level):
    w = LEVEL_LAWS[name]()
    got, want = w.tail_log_sum(from_level), _by_law(w, from_level)
    if math.isnan(want):
        assert math.isnan(got)
    elif math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=0, abs=1e-12)


# A profile with no records: ``similar_to_isometry`` then answers from the
# closed forms alone.
NO_RECORDS = SimpleNamespace(window=SimpleNamespace(order=()))


@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("name", LEVEL_LAWS)
def test_derived_hooks_never_return_nan(name, tree):
    """A level law has an empty head and is its own tail, and the answers
    derived from it are decided (the product's sign, a comb's exact ratio
    sup) or closed, with no NaN, and closed only on a chain."""
    w, model = LEVEL_LAWS[name](), TREES[tree]()
    assert w.head == {} and w.tail is w
    op = ShiftOperator(model, w)
    if isinstance(model, CombTree):
        assert ratio_bounded(op, 1).exact
    window = windows_of(model)[0]
    assert similar_to_coisometry(op, window).answer in ("yes", "no")
    answer = similar_to_isometry(op, NO_RECORDS)
    assert "nan" not in answer.reason
    if model.children_per_vertex != 1:
        assert not answer.reason.startswith("closed")


@pytest.mark.parametrize("low, high", [(1.5, 0.5), (0.5, 1.5)])
def test_a_tail_that_both_vanishes_and_diverges_has_no_infimum(low, high):
    w = StepWeights(low, high, cut=0)
    assert math.isnan(w.tail_log_sum(-math.inf))
    op = ShiftOperator(make_family("bilateral-path"), w)
    assert similar_to_coisometry(op, materialize_window(op.model, -2, 2)) == SimilarityAnswer(
        "no", "full weight product vanishes (closed form)")
    assert similar_to_isometry(op, NO_RECORDS) == SimilarityAnswer(
        "undetermined", "no symbolic infimum for this family")


@pytest.mark.parametrize("w, root_limit", [
    (StepWeights(0.5, 1.0, cut=3), 0.5 ** 6),  # three weights of 0.5 above the root
    (StepWeights(0.5, 1.0, cut=0), 1.0),
    (GeometricWeights(1.0, 1.0), 1.0),
])
def test_rooted_path_level_law_infimum_is_the_root_limit(w, root_limit):
    op = ShiftOperator(make_family("rooted-path"), w)
    profile = alpha_profile(op, materialize_window(op.model, 0, 5))
    closed = math.exp(2.0 * w.tail_log_sum(0))  # the weights above the root
    assert closed == pytest.approx(root_limit, rel=1e-12)
    assert profile.estimate("0") == pytest.approx(root_limit, rel=0, abs=1e-9)
    assert similar_to_isometry(op, profile) == SimilarityAnswer(
        "yes", f"closed-form infimum {closed:.6g} > 0")


@pytest.mark.parametrize("law, line", [
    ({"name": "geometric", "params": {"scale": 0.9, "ratio": 0.8}},
     "similar to co-isometry: no (full weight product vanishes (closed form))"),
    ({"name": "step", "params": {"low": 0.5, "high": 1.0, "cut": 0}},
     "similar to isometry: no (closed form on a chain: the forward limits fall to 0 as the "
     "level falls)"),
])
def test_level_laws_on_the_bilateral_path_get_closed_answers(law, line, tmp_path, capsys):
    tree, weights_path = tmp_path / "bilateral.json", tmp_path / "weights.json"
    tree.write_text(json.dumps({"family": "bilateral-path", "params": {}}))
    weights_path.write_text(json.dumps({"kind": "family", **law}))
    assert main(["analyze", "--tree", str(tree), "--weights", str(weights_path),
                 "--levels=-2:2"]) == 0
    assert line in capsys.readouterr().out.splitlines()


# -- no concrete-class dispatch outside trees and weights -------------------------------

# (module, enclosing function, class): no dispatch site is left.
ALLOWED_DISPATCH = set()


def _family_classes():
    names = {"BackwardShiftSpec"}
    for module, base in ((trees, trees.DirectedTreeModel), (weights, weights.WeightAssignment)):
        names |= {name for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, base)}
    return names


def _class_attributes(classdef):
    """Names a class body binds, and the ``self.<name>`` its methods assign."""
    names = set()
    for stmt in classdef.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _family_attributes(classes):
    """Attributes that a family class defines and the base class of its
    hierarchy does not: probing one of them is family dispatch too."""
    found = set()
    for module, base in ((trees, "DirectedTreeModel"), (weights, "WeightAssignment")):
        with open(module.__file__) as source:
            defs = {node.name: node for node in ast.parse(source.read()).body
                    if isinstance(node, ast.ClassDef)}
        common = _class_attributes(defs[base])
        for name in classes & defs.keys() - {base}:
            found |= _class_attributes(defs[name]) - common
    return found


def _dispatch_sites(path, classes, attributes):
    """(function, class or attribute, line) of every ``isinstance`` test
    against a family class and every ``getattr``/``hasattr`` probe of a
    family attribute in the module at ``path``."""
    with open(path) as source:
        tree = ast.parse(source.read())
    sites = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                target = child.args[1]
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                for name in names:
                    label = name.id if isinstance(name, ast.Name) else getattr(name, "attr", "")
                    if label in classes:
                        sites.add((function, label, child.lineno))
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("getattr", "hasattr") and len(child.args) >= 2
                    and isinstance(child.args[1], ast.Constant)
                    and child.args[1].value in attributes):
                sites.add((function, child.args[1].value, child.lineno))
            visit(child, function)

    visit(tree, None)
    return sites


def test_no_family_dispatch_outside_trees_and_weights():
    package = os.path.dirname(treeshift.__file__)
    classes = _family_classes()
    assert {"CombTree", "FiniteTree", "RootedPath", "ConstantWeights"} <= classes
    attributes = _family_attributes(classes)
    assert {"primed_leaf", "unprimed_leaf", "first"} <= attributes
    assert not {"children", "leaf_set", "has_last_level", "weight", "tail_log_sum"} & attributes
    found = set()
    for filename in sorted(os.listdir(package)):
        module = filename[:-3]
        if not filename.endswith(".py") or module in ("trees", "weights"):
            continue
        for function, label, line in _dispatch_sites(os.path.join(package, filename), classes,
                                                     attributes):
            found.add((module, function, label))
            assert (module, function, label) in ALLOWED_DISPATCH, f"{filename}:{line}"
    assert found == ALLOWED_DISPATCH
