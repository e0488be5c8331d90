"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 runs each |J| at the shortest schedule L >= 16 whose deepest
support point k_L = L(L+1)/2 leaves k_L + 1 >= |J|(K+1) Krylov columns for
the K = 50 window: fewer could not span it.  That is L = 16 for |J| = 1 and
2, and L = 17 for |J| = 3.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from treeshift.asymptote import intertwining_residual, isometric_asymptote
from treeshift.asymptotics import adjoint_profile, alpha_profile, classify, stable_subtree
from treeshift.cyclicity import (
    BackwardShiftSpec,
    CyclicCandidate,
    VERDICT_ANCHORS,
    backward_shift_verdict,
    cokernel_dimension,
    construct_backward_cyclic,
    cyclicity_verdict,
    sigma_m,
    uniform_weight_rule,
    verify_cyclic_candidate,
)
from treeshift.shifts import ShiftOperator
from treeshift.similarity import (
    build_leaf_similarity,
    build_tilde_quasiaffinity,
    g_vector,
    ratio_bounded,
)
from treeshift.sparse import SparseVector
from treeshift.trees import make_family, materialize_window, validate_finite
from treeshift.weights import (
    ConstantWeights,
    ExpRayWeights,
    HashRandomWeights,
    MapWeights,
    StepWeights,
)

import dense_reference
from conftest import (BINARY_ISOMETRY, contractive_operator, full_window, random_finite_tree,
                      random_weight_map)
from krylov_reference import candidate_span, dense_truncation, krylov_rank


def report(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def padded_tilde(seed):
    base = HashRandomWeights(seed, 0.55, 0.95)
    model = make_family("tilde")
    values = {}
    for k in range(1, 11):
        values[str(k)] = base.weight(model, str(k))
        values[f"{k}'"] = base.weight(model, f"{k}'")
    for k in range(0, -11, -1):
        values[str(k)] = base.weight(model, str(k))
    scale = math.hypot(values["1"], values["1'"])
    values["1"] *= 0.999 / scale
    values["1'"] *= 0.999 / scale
    return ShiftOperator(model, MapWeights(values, default=1.0))


def test_criterion_1_power_formula_oracle():
    rng = random.Random(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        tree = random_finite_tree(rng, rng.randint(20, 200))
        op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree, 0.01, 1.0)))
        verts = tree.vertices()
        sample = verts if len(verts) <= 60 else rng.sample(verts, 60)
        for u in sample:
            forward = SparseVector.basis(u)
            backward = SparseVector.basis(u)
            for n in range(1, 7):
                forward = op.apply(forward)
                backward = op.apply_adjoint(backward)
                worst = max(worst, (op.power_closed(u, n) - forward).norm())
                worst = max(worst, (op.adjoint_power_closed(u, n) - backward).norm())
    elapsed = time.perf_counter() - started
    report(1, f"50 random trees, n<=6: max diff {worst:.2e}, {elapsed:.1f}s",
           worst <= 1e-12 and elapsed < 5.0)


def test_criterion_2_alpha_recursion():
    rng = random.Random(202)
    instances = [contractive_operator(rng, random_finite_tree(rng, rng.randint(20, 80)))
                 for _ in range(12)]
    for base in (1.7, 2.0, 2.6):
        instances.append(ShiftOperator(make_family("rooted-path"), ExpRayWeights(base, 1)))
        instances.append(ShiftOperator(make_family("bilateral-path"), ExpRayWeights(base, 1)))
    instances.append(padded_tilde(7))
    instances.append(padded_tilde(8))
    assert len(instances) == 20
    worst = 0.0
    for op in instances:
        window = (full_window(op.model) if op.model.kind == "finite"
                  else materialize_window(op.model, -6, 6))
        profile = alpha_profile(op, window, tol=1e-10)
        for u in window.forward_interior():
            total = sum(op.weight(v) ** 2 * profile.estimate(v)
                        for v in op.model.children(u))
            worst = max(worst, abs(profile.estimate(u) - total))
    report(2, f"alpha recursion residual {worst:.2e} over 20 instances", worst <= 1e-9)


def test_criterion_3_isometry_identity_limit():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(BINARY_ISOMETRY))
    window = materialize_window(op.model, 0, 4)  # five levels
    profile = alpha_profile(op, window)
    alpha_ok = all(abs(profile.estimate(u) - 1.0) <= 1e-9 for u in window.order)
    stable = stable_subtree(profile)
    descriptor = isometric_asymptote(op, profile, stable, depth=64)
    cnu_ok = descriptor.cnu_value <= 2.0 ** -60
    cls_ok = descriptor.classification == "cnu-unilateral"
    report(3, f"binary isometry: alpha=1, cnu={descriptor.cnu_value:.2e}, "
              f"class={descriptor.classification}", alpha_ok and cnu_ok and cls_ok)


def test_criterion_4_bilateral_adjoint_limit_formula():
    rng = random.Random(404)
    values = {str(k): rng.uniform(0.5, 1.0) for k in range(-20, 21)}
    op = ShiftOperator(make_family("bilateral-path"), MapWeights(values, default=1.0))
    window = materialize_window(op.model, -20, 20)
    adjoint = adjoint_profile(op, window)
    worst = 0.0
    for k in range(-20, 21):
        want = math.prod(values[str(j)] ** 2 for j in range(-20, k + 1))
        worst = max(worst, abs(adjoint.profile.estimate(str(k)) - want))
    report(4, f"bilateral adjoint-limit product formula, max diff {worst:.2e}",
           worst <= 1e-10)


def test_criterion_5_corank_formula():
    rng = random.Random(505)
    ok = True
    for _ in range(10):
        tree = random_finite_tree(rng, rng.randint(10, 120))
        op = ShiftOperator(tree, MapWeights(random_weight_map(rng, tree, 0.1, 1.0)))
        mat = op.dense_truncation(full_window(tree))
        br = tree.branching_total()
        ok = ok and cokernel_dimension(mat) == 1 + br
    report(5, "cokernel = 1 + Br on 10 random finite rooted trees", ok)


def test_criterion_6_intertwining_and_isometry_law():
    instances = []
    for base in (1.5, 1.7, 2.0, 2.5, 3.0):
        instances.append(ShiftOperator(make_family("rooted-path"), ExpRayWeights(base, 1)))
        instances.append(ShiftOperator(make_family("bilateral-path"), ExpRayWeights(base, 1)))
    worst_residual = 0.0
    worst_isometry = 0.0
    for op in instances:
        lo = 0 if op.model.is_rooted else -6
        window = materialize_window(op.model, lo, 6)
        profile = alpha_profile(op, window)
        cls = classify(profile, adjoint_profile(op, window))
        assert cls.forward == "C1dot"
        stable = stable_subtree(profile)
        descriptor = isometric_asymptote(op, profile, stable)
        worst_residual = max(worst_residual,
                             intertwining_residual(op, descriptor, profile, window))
        for u in stable.members & set(window.forward_interior()):
            kids = [v for v in op.children(u) if v in descriptor.beta]
            if kids:
                total = sum(descriptor.beta[v] ** 2 for v in kids)
                worst_isometry = max(worst_isometry, abs(total - 1.0))
    report(6, f"10 C1. instances: intertwining {worst_residual:.2e}, "
              f"isometry law {worst_isometry:.2e}",
           worst_residual <= 1e-8 and worst_isometry <= 1e-8)


@pytest.mark.parametrize("branches", [1, 2, 3])
def test_criterion_7_constructive_cyclicity(branches):
    started = time.perf_counter()
    ok = True
    summary = []
    L = next(L for L in itertools.count(16) if L * (L + 1) // 2 + 1 >= branches * 51)
    for label, weights in (("w=1", 1.0),
                           ("w~U[0.5,1]", uniform_weight_rule(70 + branches, 0.5, 1.0))):
        spec = BackwardShiftSpec(branches, weights)
        candidate = construct_backward_cyclic(spec, L)
        sigma_ok = all(sigma_m(candidate, spec, m) <= 2.0 ** (-m) for m in range(1, L + 1))
        record = verify_cyclic_candidate(spec, candidate, 50)
        residual = candidate_span(spec, candidate, 50, tol=1e-5).max_residual
        summary.append(f"{label}: rank {record.rank}/{record.dimension} "
                       f"resid {residual:.1e}")
        ok = ok and sigma_ok and record.rank == record.dimension \
            and residual <= 1e-5
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(7, f"|J|={branches}, L={L}: {'; '.join(summary)} ({elapsed:.1f}s)", ok)


def test_criterion_8_zero_weight_characterization():
    base = uniform_weight_rule(808, 0.5, 1.0)
    # exactly one zero: split off the nilpotent block and compose candidates
    spec = BackwardShiftSpec(2, base, zeros=[(0, 3)])
    shifted = BackwardShiftSpec(2, lambda j, k: base(j, k + 4) if j == 0 else base(j, k))
    inner = construct_backward_cyclic(shifted, 14)
    composite = CyclicCandidate(
        schedule=[(j, k + 4 if j == 0 else k) for j, k in inner.schedule] + [(0, 3)],
        xi=list(inner.xi) + [1.0])
    record = verify_cyclic_candidate(spec, composite, 40)
    one_ok = record.certified

    # two zeros: adjusted co-rank 2, and no vector is Krylov-cyclic
    spec2 = BackwardShiftSpec(2, base, zeros=[(0, 2), (1, 4)])
    K = 30
    mat = dense_truncation(spec2, K)
    raw = cokernel_dimension(mat)
    adjusted = raw - spec2.branches  # the |J| top window rows are artificial
    rng = random.Random(809)
    dim = spec2.branches * (K + 1)
    trials_ok = all(
        krylov_rank(mat, np.array([rng.uniform(-1, 1) for _ in range(dim)])) < dim
        for _ in range(100))
    report(8, f"one zero: rank {record.rank}/{record.dimension}; "
              f"two zeros: adjusted co-rank {adjusted}, 100 deficient trials",
           one_ok and adjusted == 2 and trials_ok)


def test_criterion_9_similarity_witnesses():
    ok = True
    notes = []
    rng = random.Random(909)
    for i in range(10):
        if i < 5:
            k0 = rng.randint(2, 4)
            j0 = rng.choice([None, k0, k0 + 2])
            model = make_family("comb", {"primed_leaf": k0, "unprimed_leaf": j0})
            values = {}
            for k in range(1, (j0 or 10) + 1):
                values[str(k)] = rng.uniform(0.55, 0.95)
            for k in range(1, k0 + 1):
                values[f"{k}'"] = rng.uniform(0.55, 0.95)
            scale = math.hypot(values["1"], values["1'"])
            values["1"] *= 0.999 / scale
            values["1'"] *= 0.999 / scale
            op = ShiftOperator(model, MapWeights(values, default=1.0))
            window = materialize_window(model, -5, max(k0, j0 or 6) )
            witness = build_leaf_similarity(op, window)
        else:
            op = padded_tilde(900 + i)
            window = materialize_window(op.model, -5, 5)
            witness = build_tilde_quasiaffinity(op, window)
            cert = ratio_bounded(op)
            ok = ok and cert.status == "bounded" and witness.mode == "similar"
        ok = ok and witness.residual <= 1e-12
        ok = ok and all(abs(b["det"]) > 0.0 for b in witness.blocks)
        ok = ok and math.isfinite(witness.block_inverse_bound())
        # verdict transfer: Krylov rank is preserved under the witness X
        x_mat = dense_reference.x_matrix(op, window)
        t_mat = dense_reference.target_matrix(op, window)
        s_mat = op.dense_truncation(window)
        f = np.random.default_rng(i).standard_normal(len(window))
        transfer = krylov_rank(t_mat.T, f) == krylov_rank(s_mat.T, x_mat @ f)
        ok = ok and transfer
        notes.append(f"{witness.kind}:{witness.residual:.0e}")
    report(9, "10 witnesses, residual<=1e-12, blocks invertible, transfer exact", ok)


def test_criterion_10_g_vector_laws():
    ok = True
    for seed in range(10):
        op = padded_tilde(1000 + seed)
        for k in range(2, 10):
            ok = ok and (op.apply_adjoint(g_vector(op, k)) - g_vector(op, k - 1)).norm() <= 1e-12
        ok = ok and op.apply_adjoint(g_vector(op, 1)).norm() <= 1e-12
        for k in range(1, 9):
            for l in range(k + 1, 10):
                ok = ok and g_vector(op, k).dot(g_vector(op, l)) == 0.0
    report(10, "g-vector descent, kernel and orthogonality laws on 10 families", ok)


def _tree_fixture(op, lo, hi):
    window = materialize_window(op.model, lo, hi)
    profile = alpha_profile(op, window)
    adjoint = adjoint_profile(op, window)
    return cyclicity_verdict(op.model, classify(profile, adjoint))


def test_criterion_11_verdict_fixture_suite():
    star = validate_finite(["r", "a", "b"], [("r", "a"), ("r", "b")])
    fixtures = []

    fixtures.append(("R1 rooted star",
                     _tree_fixture(ShiftOperator(star, MapWeights({"a": 0.6, "b": 0.8})),
                                   0, 2),
                     ("non-cyclic", "R1")))
    fixtures.append(("R2 rootless binary",
                     _tree_fixture(ShiftOperator(make_family("rootless-binary"),
                                                 ConstantWeights(1 / math.sqrt(2))), 0, 4),
                     ("non-cyclic", "R2")))
    fixtures.append(("R3 one zero",
                     backward_shift_verdict(BackwardShiftSpec(2, 0.9, zeros=[(1, 3)])),
                     ("cyclic", "R3")))
    two_leaves = ShiftOperator(make_family("comb", {"primed_leaf": 2, "unprimed_leaf": 4}),
                               MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    fixtures.append(("R4 two leaves", _tree_fixture(two_leaves, -5, 5), ("cyclic", "R4")))
    one_leaf = ShiftOperator(make_family("comb", {"primed_leaf": 2}),
                             MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    fixtures.append(("R5 one leaf, adjoint orbits alive",
                     _tree_fixture(one_leaf, -5, 5), ("cyclic", "R5")))
    fixtures.append(("R5' unitary bilateral",
                     _tree_fixture(ShiftOperator(make_family("bilateral-path"),
                                                 ConstantWeights(1.0)), -5, 5),
                     ("cyclic", "R5'")))
    fixtures.append(("R6 leafless C1.",
                     _tree_fixture(padded_tilde(1111), -6, 6), ("non-cyclic", "R6")))
    fixtures.append(("R7 rooted C1.",
                     _tree_fixture(ShiftOperator(make_family("rooted-path"),
                                                 ExpRayWeights(2.0, 1)), 0, 8),
                     ("adjoint-cyclic", "R7")))
    fixtures.append(("R8 rootless C1. with dead adjoint",
                     _tree_fixture(ShiftOperator(make_family("bilateral-path"),
                                                 StepWeights(0.5, 1.0, cut=0)), -6, 6),
                     ("adjoint-cyclic", "R8")))
    fixtures.append(("negative: stable bilateral",
                     _tree_fixture(ShiftOperator(make_family("bilateral-path"),
                                                 ConstantWeights(0.5)), -5, 5),
                     ("unknown", None)))
    fixtures.append(("negative: one leaf, everything stable",
                     _tree_fixture(ShiftOperator(make_family("comb", {"primed_leaf": 2}),
                                                 ConstantWeights(0.6)), -5, 5),
                     ("unknown", None)))
    fixtures.append(("negative: two zeros",
                     backward_shift_verdict(BackwardShiftSpec(2, 0.9,
                                                              zeros=[(0, 2), (1, 5)])),
                     ("non-cyclic", "R3")))

    assert len(fixtures) == 12
    ok = True
    for name, verdict, (want_verdict, want_rule) in fixtures:
        hit = verdict.verdict == want_verdict and verdict.rule == want_rule
        if want_rule is not None:
            hit = hit and verdict.anchors == VERDICT_ANCHORS[want_rule]
        if not hit:
            print(f"  fixture {name}: got ({verdict.verdict}, {verdict.rule})"
                  f" want ({want_verdict}, {want_rule})")
        ok = ok and hit
    report(11, "12 verdict fixtures fire the expected rules with matching anchors", ok)
