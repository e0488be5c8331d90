"""Backward-shift cyclic construction, Krylov oracle, verdict engine."""

import copy
import hashlib
import math

import numpy as np
import pytest

from treeshift.asymptotics import adjoint_profile, alpha_profile, classify
from treeshift.cyclicity import (
    RANK_TOL,
    BackwardShiftSpec,
    VERDICT_ANCHORS,
    backward_shift_verdict,
    backward_spec_from_json,
    cokernel_dimension,
    construct_backward_cyclic,
    cyclicity_verdict,
    default_schedule,
    ge_rank,
    range_membership_report,
    sigma_m,
    uniform_weight_rule,
    verify_cyclic_candidate,
)
from treeshift.errors import (DimensionCap, ScheduleTooShort, StageUnderflow, WeightError,
                              ZeroWeight)
from treeshift.shifts import ShiftOperator
from treeshift.sparse import SparseVector
from treeshift.trees import make_family, materialize_window, validate_finite
from treeshift.weights import ConstantWeights, HashRandomWeights, MapWeights, unit_hasher

from conftest import full_window, random_finite_tree
from krylov_reference import (
    candidate_span,
    candidate_vector,
    dense_truncation,
    krylov_rank,
    verify_krylov_span,
)


# -- schedule and sigma ------------------------------------------------------------

def test_schedule_shape():
    sched = default_schedule(2, 8)
    ks = [k for _, k in sched]
    assert ks == [1, 3, 6, 10, 15, 21, 28, 36]
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    assert gaps == sorted(gaps) and gaps[0] > 0  # gaps strictly increase
    assert [j for j, _ in sched] == [0, 1] * 4


def test_sigma_one_geometric_value():
    L = 12
    spec = BackwardShiftSpec(1, 1.0)
    cand = construct_backward_cyclic(spec, L)
    # before any modification fires, xi_l = 2^-l and unit weights make
    # Sigma_1 = sum_{l>1} 4^{-(l-1)}; replay it on a fresh candidate
    from treeshift.cyclicity import CyclicCandidate
    fresh = CyclicCandidate(schedule=default_schedule(1, L),
                            xi=[2.0 ** (-l) for l in range(1, L + 1)])
    want = sum(4.0 ** (-(l - 1)) for l in range(2, L + 1))
    assert sigma_m(fresh, spec, 1) == pytest.approx(want, abs=1e-12)


def test_schedule_covers_every_branch():
    for branches, L in ((2, 16), (3, 12), (4, 16)):
        sched = default_schedule(branches, L)
        for j in range(branches):
            hits = sum(1 for jj, _ in sched if jj == j)
            assert hits >= math.ceil(L / (2 * branches))


def test_sigma_last_stage_empty_tail():
    spec = BackwardShiftSpec(1, 1.0)
    cand = construct_backward_cyclic(spec, 12)
    assert sigma_m(cand, spec, 12) == 0.0


def test_a_stage_bound_divisor_that_underflows_names_its_stage():
    """0.5^703 underflows to 0.0, so stage 38 of a 39-stage schedule divides
    by zero; 38 stages stay clear of it."""
    spec = BackwardShiftSpec(1, 0.5)
    with pytest.raises(StageUnderflow) as caught:
        construct_backward_cyclic(spec, 39)
    assert caught.value.stage == 38 and caught.value.exit_code == 5
    cand = construct_backward_cyclic(spec, 38)
    sigmas = [sigma_m(cand, spec, m) for m in range(1, 39)]
    assert all(s <= 2.0 ** -m for m, s in enumerate(sigmas, 1))
    tiny = CyclicCandidate(default_schedule(1, 39), [2.0 ** (-l - 400) for l in range(1, 40)])
    with pytest.raises(StageUnderflow):
        sigma_m(tiny, spec, 38)  # xi_38 * 0.5^703 = 2^-1141 is 0.0


def test_construction_postcondition_and_idempotence():
    for weights in (1.0, uniform_weight_rule(3, 0.5, 1.0)):
        spec = BackwardShiftSpec(2, weights)
        cand = construct_backward_cyclic(spec, 16)
        for m in range(1, 17):
            assert sigma_m(cand, spec, m) <= 2.0 ** (-m)
        # a second pass of the modification loop fires no rescaling
        again = copy.deepcopy(cand)
        for m in range(1, 17):
            assert sigma_m(again, spec, m) <= 2.0 ** (-m)
        assert all(x > 0.0 for x in cand.xi)


def test_rescaling_never_increases_earlier_sigmas():
    from treeshift.cyclicity import CyclicCandidate
    spec = BackwardShiftSpec(2, uniform_weight_rule(11, 0.5, 1.0))
    L = 12
    cand = CyclicCandidate(schedule=default_schedule(2, L),
                           xi=[2.0 ** (-l) for l in range(1, L + 1)])
    history = {}
    for m in range(1, L + 1):
        s = sigma_m(cand, spec, m)
        if s > 2.0 ** (-m):
            factor = math.sqrt(2.0 ** m * s) * (1.0 + 1e-12)
            for l in range(m + 1, L + 1):
                cand.xi[l - 1] /= factor
        for j in range(1, m + 1):
            now = sigma_m(cand, spec, j)
            assert now <= history.get(j, np.inf) * (1 + 1e-12) + 1e-15
            history[j] = now


def test_equation_identity_on_truncation():
    # B^k f rescaled by the stage coefficient lands on a basis vector plus a
    # tail whose squared norm is exactly the stage sum at that k
    spec = BackwardShiftSpec(2, uniform_weight_rule(5, 0.5, 1.0))
    cand = construct_backward_cyclic(spec, 10)
    depth = max(k for _, k in cand.schedule)
    big = dense_truncation(spec, depth)
    f = candidate_vector(spec, cand, depth)
    prefix = {j: spec.prefix_products(j, depth) for j in range(2)}
    for m in (1, 2, 3, 6):
        j_m, k_m = cand.schedule[m - 1]
        k_prev = cand.schedule[m - 2][1] if m >= 2 else -1
        for k in range(k_prev + 1, k_m + 1):
            y = f.copy()
            for _ in range(k):
                y = big @ y
            denom = cand.xi[m - 1] * prefix[j_m][k_m] / prefix[j_m][k_m - k]
            y /= denom
            e = np.zeros_like(y)
            e[j_m * (depth + 1) + (k_m - k)] = 1.0
            tail = 0.0
            for l in range(m + 1, len(cand.schedule) + 1):
                j_l, k_l = cand.schedule[l - 1]
                num = cand.xi[l - 1] * prefix[j_l][k_l] / prefix[j_l][k_l - k]
                tail += (num / denom) ** 2
            assert np.linalg.norm(y - e) ** 2 == pytest.approx(tail, abs=1e-12)


def test_construct_guards():
    with pytest.raises(ZeroWeight):
        construct_backward_cyclic(BackwardShiftSpec(1, 1.0, zeros=[(0, 4)]), 8)
    with pytest.raises(ScheduleTooShort):
        construct_backward_cyclic(BackwardShiftSpec(3, 1.0), 8)


def test_range_membership_report_finite():
    spec = BackwardShiftSpec(1, 0.9)
    cand = construct_backward_cyclic(spec, 8)
    value = range_membership_report(spec, cand, 3)
    assert 0.0 < value < math.inf


# -- rank oracles --------------------------------------------------------------------

def test_krylov_rank_jordan_block():
    mat = np.diag([1.0, 1.0, 1.0], k=1)  # nilpotent, shifts e_k -> e_{k-1}
    assert krylov_rank(mat, np.array([0.0, 0.0, 0.0, 1.0])) == 4


def test_krylov_rank_identity():
    assert krylov_rank(np.eye(5), np.ones(5)) == 1


def test_krylov_rank_two_block_nilpotent(rng):
    block = np.diag([1.0, 1.0], k=1)
    mat = np.block([[block, np.zeros((3, 3))], [np.zeros((3, 3)), block]])
    for _ in range(100):
        x = np.array([rng.uniform(-1, 1) for _ in range(6)])
        assert krylov_rank(mat, x) <= 3


def test_ge_rank_agrees_with_numpy(rng):
    for _ in range(10):
        a = np.array([[rng.gauss(0, 1) for _ in range(8)] for _ in range(8)])
        a[:, 3] = a[:, 1] * 2.0 - a[:, 0]
        assert ge_rank(a) == np.linalg.matrix_rank(a, tol=1e-8)


# Reference: elimination that updates every row below the pivot.
def _ge_rank_dense(matrix, rank_tol=RANK_TOL):
    a = np.array(matrix, dtype=float, copy=True)
    m, n = a.shape
    ref = np.max(np.abs(a)) if a.size else 0.0
    if ref == 0.0:
        return 0
    rank = 0
    for col in range(n):
        if rank == m:
            break
        pivot_row = rank + int(np.argmax(np.abs(a[rank:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= rank_tol * ref:
            continue
        if pivot_row != rank:
            a[[rank, pivot_row]] = a[[pivot_row, rank]]
        below = a[rank + 1:, col] / pivot
        a[rank + 1:, col:] -= np.outer(below, a[rank, col:])
        rank += 1
    return rank


def _assert_same_rank(mat, tols=(RANK_TOL,)):
    for tol in tols:
        assert ge_rank(mat, tol) == _ge_rank_dense(mat, tol)


def test_ge_rank_matches_dense_update_on_tree_truncations(rng):
    for n in (2, 17, 60, 150, 300):
        tree = random_finite_tree(rng, n)
        op = ShiftOperator(tree, MapWeights({v: rng.uniform(0.05, 1.0)
                                             for v in tree.vertices() if v != tree.root}))
        _assert_same_rank(op.dense_truncation(full_window(tree)), (RANK_TOL, 1e-3, 0.0))
        half = materialize_window(tree, 0, max(1, tree.depth() // 2), breadth=10 ** 6)
        _assert_same_rank(op.dense_truncation(half))
    for spec in ({"family": "tilde"}, {"family": "comb", "primed_leaf": 3},
                 {"family": "comb", "primed_leaf": 2, "unprimed_leaf": 5}):
        params = {k: v for k, v in spec.items() if k != "family"}
        model = make_family(spec["family"], params)
        op = ShiftOperator(model, HashRandomWeights(rng.randrange(1000), 0.3, 0.9))
        for width in (3, 12):
            _assert_same_rank(op.dense_truncation(materialize_window(model, -width, width)))


def test_ge_rank_matches_dense_update_on_krylov_blocks():
    for branches, L, K in ((1, 12, 40), (2, 16, 30), (3, 12, 20)):
        spec = BackwardShiftSpec(branches, uniform_weight_rule(branches, 0.5, 0.99))
        cand = construct_backward_cyclic(spec, L)
        depth = max(K, max(k for _, k in cand.schedule))
        big = dense_truncation(spec, depth)
        y = candidate_vector(spec, cand, depth)
        cols = []
        for _ in range(depth + 1):
            cols.append(y)
            y = big @ y
        block = np.array(cols).T
        norms = np.linalg.norm(block, axis=0)
        block[:, norms > 0] /= norms[norms > 0]
        _assert_same_rank(block, (RANK_TOL, 1e-12))
        _assert_same_rank(block[: K + 1])


def test_ge_rank_matches_dense_update_on_dense_and_degenerate(rng):
    def mat(m, n, draw):
        return np.array([[draw() for _ in range(n)] for _ in range(m)])

    cases = []
    for m, n in ((1, 1), (5, 5), (8, 12), (12, 8), (20, 20)):
        cases.append(mat(m, n, lambda: rng.gauss(0, 1)))
        # small integers: many tied pivot magnitudes and exact cancellations
        cases.append(mat(m, n, lambda: float(rng.randint(-2, 2))))
        low = mat(m, 2, lambda: float(rng.randint(-3, 3))) @ mat(2, n, lambda: float(rng.randint(-3, 3)))
        cases.append(low)
        holed = mat(m, n, lambda: rng.gauss(0, 1))
        holed[:, ::3] = 0.0  # exact-zero columns
        holed[m // 2:] = holed[: m - m // 2]  # repeated rows
        cases.append(holed)
    cases.append(np.zeros((4, 6)))
    cases.append(np.ones((6, 6)))
    for case in cases:
        _assert_same_rank(case, (RANK_TOL, 0.0, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ge_rank_rejects_non_finite_input(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(ValueError):
        ge_rank(a)
    for tol in (bad, -1e-8):
        with pytest.raises(ValueError):
            ge_rank(np.eye(3), tol)


def test_cokernel_formula_on_rooted_trees(rng):
    for _ in range(6):
        tree = random_finite_tree(rng, 40)
        op = ShiftOperator(tree, MapWeights({v: rng.uniform(0.1, 1.0)
                                             for v in tree.vertices() if v != tree.root}))
        window = full_window(tree)
        mat = op.dense_truncation(window)
        br = tree.branching_total()
        assert cokernel_dimension(mat) == 1 + br


def test_cokernel_bilateral_window_is_boundary_artifact():
    from treeshift.asymptote import boundary_deficiency
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(0.7))
    window = materialize_window(op.model, -5, 5)
    mat = op.dense_truncation(window)
    raw = cokernel_dimension(mat)
    assert raw == 1
    assert raw - boundary_deficiency(window) == 0


def test_dimension_cap():
    spec = BackwardShiftSpec(2, 1.0)
    cand = construct_backward_cyclic(spec, 16)
    with pytest.raises(DimensionCap):
        verify_cyclic_candidate(spec, cand, 3000)


def test_a_schedule_past_the_cap_fails_before_it_allocates(monkeypatch):
    """k_90 + 1 = 4096 is the cap: L = 91 and a schedule of 10^5 stages stop
    at the guard, before a prefix product is taken."""
    def refuse(self, j, upto):
        raise AssertionError("prefix products taken before the cap check")

    monkeypatch.setattr(BackwardShiftSpec, "prefix_products", refuse)
    for L, size in ((91, 4187), (100_000, 5_000_050_001)):
        with pytest.raises(DimensionCap) as caught:
            construct_backward_cyclic(BackwardShiftSpec(3, 0.9), L)
        assert (caught.value.size, caught.value.cap, caught.value.exit_code) == (size, 4096, 5)
    monkeypatch.undo()
    with pytest.raises(StageUnderflow):  # L = 90 is under the cap and runs as before
        construct_backward_cyclic(BackwardShiftSpec(1, 1.0), 90)


# -- candidate verification ------------------------------------------------------------

def test_verify_single_branch_reference_numbers():
    spec = BackwardShiftSpec(1, 1.0)
    cand = construct_backward_cyclic(spec, 12)
    record = verify_cyclic_candidate(spec, cand, 40)
    assert record.rank == record.dimension == 41
    assert candidate_span(spec, cand, 40).max_residual <= 1e-6
    assert record.certified


def test_certified_window_is_cyclic_whatever_its_residual():
    """The exact F_p rank proves full rank here, while the float span residual
    reads 1.0 (numerical rank 60 of 201): the certificate decides."""
    spec = BackwardShiftSpec(1, uniform_weight_rule(1, 0.5, 0.99))
    cand = construct_backward_cyclic(spec, 40)
    record = verify_cyclic_candidate(spec, cand, 200)
    assert record.certified and record.rank == record.dimension == 201
    floats = candidate_span(spec, cand, 200)
    assert floats.max_residual > 1e-5 and floats.numerical_rank < 201
    assert not floats.cyclic


def test_uncertified_record_keeps_the_float_cyclic_test():
    """The float reference's ``cyclic`` is full rank with a residual within tol."""
    columns = np.eye(4)[:, :3]  # rank 3 of 4: not cyclic
    record = verify_krylov_span(columns, 4, 1e-5)
    assert (record.rank, record.cyclic) == (3, False)
    record = verify_krylov_span(np.eye(4), 4, 1e-5)
    assert (record.rank, record.cyclic) == (4, True)


def test_verify_two_branch_reference_numbers():
    spec = BackwardShiftSpec(2, 0.9)
    cand = construct_backward_cyclic(spec, 16)
    record = verify_cyclic_candidate(spec, cand, 50)
    assert record.rank == record.dimension == 102
    assert candidate_span(spec, cand, 50).max_residual <= 1e-5


def test_verify_rank_only_at_deeper_window():
    spec = BackwardShiftSpec(2, 1.0)
    cand = construct_backward_cyclic(spec, 16)
    record = verify_cyclic_candidate(spec, cand, 60)
    assert record.rank == record.dimension == 122


def test_zeroed_coefficient_detected():
    spec = BackwardShiftSpec(1, 1.0)
    cand = construct_backward_cyclic(spec, 12)
    K = 78  # window reaching the deepest support point
    baseline = verify_cyclic_candidate(spec, cand, K)
    broken = copy.deepcopy(cand)
    broken.xi[-1] = 0.0
    record = verify_cyclic_candidate(spec, broken, K)
    assert record.rank < baseline.rank
    assert candidate_span(spec, cand, K).max_residual <= 1e-6
    assert candidate_span(spec, broken, K).max_residual > 1e-2


def _dense_iterate_verification(spec, cand, K, tol=1e-5, rank_tol=RANK_TOL):
    """The float span check with B applied as its dense truncation."""
    depth = max(K, max(k for _, k in cand.schedule))
    big = dense_truncation(spec, depth)
    rows = np.concatenate([np.arange(j * (depth + 1), j * (depth + 1) + K + 1)
                           for j in range(spec.branches)])
    y = candidate_vector(spec, cand, depth)
    cols = np.empty((len(rows), depth + 1))
    for k in range(depth + 1):
        cols[:, k] = y[rows]
        y = big @ y
    return verify_krylov_span(cols, len(rows), tol, rank_tol)


def test_verify_matches_dense_iterate():
    cases = []
    for branches, L, K in ((1, 12, 40), (1, 20, 64), (2, 16, 30), (3, 12, 0), (3, 16, 60)):
        spec = BackwardShiftSpec(branches, uniform_weight_rule(7 * branches, 0.5, 0.99))
        cases.append((spec, construct_backward_cyclic(spec, L), K))
    # zero weights only block some iterates; the candidate is built on a twin
    zeroed = BackwardShiftSpec(2, 0.9, zeros=[(0, 2), (1, 4)])
    cases.append((zeroed, construct_backward_cyclic(BackwardShiftSpec(2, 0.9), 16), 30))
    for spec, cand, K in cases:
        fast = verify_cyclic_candidate(spec, cand, K)
        slow = _dense_iterate_verification(spec, cand, K)
        assert (fast.rank, fast.dimension, fast.columns, fast.certified) == \
            (slow.rank, slow.dimension, slow.columns, slow.cyclic)
        assert candidate_span(spec, cand, K).max_residual == slow.max_residual


def _prefix_reference(spec, j, upto):
    out = [1.0]
    for k in range(upto):
        out.append(out[-1] * spec.weight(j, k))
    return out


def test_prefix_products_memo_is_order_free_and_private():
    rule = uniform_weight_rule(4, 0.5, 0.99)
    plain = BackwardShiftSpec(2, rule, zeros=[(1, 5)])
    for order in ([(0, 3), (0, 40), (0, 10), (1, 0), (1, 20), (1, 7)],
                  [(1, 20), (0, 40), (0, 3), (1, 7), (1, 0), (0, 10)]):
        spec = BackwardShiftSpec(2, rule, zeros=[(1, 5)])
        for j, upto in order:
            got = spec.prefix_products(j, upto)
            assert got == _prefix_reference(plain, j, upto)
            got[-1] = -1.0  # a caller mutating its copy
            got.append(7.0)
            assert spec.prefix_products(j, upto) == _prefix_reference(plain, j, upto)


def _membership_reference(spec, candidate, n):
    total = 0.0
    for (j, k), x in zip(candidate.schedule, candidate.xi):
        prod = 1.0
        for i in range(k, k + n):
            prod *= spec.weight(j, i)
        total += (x / prod) ** 2
    return total


def _read(spec, plain, reader, j, stop):
    """Read branch j up to index ``stop`` through one public reader of
    ``spec`` and compare with the per-index weights of ``plain``."""
    if reader == "prefix":
        assert spec.prefix_products(j, stop) == _prefix_reference(plain, j, stop)
    elif reader == "steps":
        assert spec.steps(stop)[j].tolist() == [plain.weight(j, k) for k in range(stop)]
    else:
        cand = CyclicCandidate(schedule=[(j, stop - 2), (j, stop // 2)], xi=[0.5, 0.25])
        if any((j, k + i) in plain.zero_positions for _, k in cand.schedule for i in (0, 1)):
            return  # the partial sum divides by the weights
        assert range_membership_report(spec, cand, 2) == _membership_reference(plain, cand, 2)


@pytest.mark.parametrize("weights", [uniform_weight_rule(0, 0.5, 0.99),
                                     uniform_weight_rule(97, 0.1, 1.0),
                                     uniform_weight_rule(929756531, 0.7, 0.7), 0.5, 1.0,
                                     lambda j, k: 0.5 + 0.4 * ((3 * j + k) % 7) / 7],
                         ids=["hash-0", "hash-97", "hash-flat", "const-0.5", "const-1",
                              "callable"])
@pytest.mark.parametrize("branches", [1, 2, 3])
@pytest.mark.parametrize("zeros", [(), ((0, 5),), ((0, 0), (0, 400))])
def test_weight_runs_equal_the_per_index_weights(weights, branches, zeros):
    """Weights evaluated in runs, read in uneven runs through every reader and
    in several orders, are the floats ``weight(j, k)`` gives, bit for bit."""
    plain = BackwardShiftSpec(branches, weights, zeros=zeros)
    readers = ("prefix", "steps", "membership")
    for shift in range(len(readers)):
        spec = BackwardShiftSpec(branches, weights, zeros=zeros)
        order = readers[shift:] + readers[:shift]
        for step, stop in enumerate((10, 37, 820)):
            for j in range(branches):
                _read(spec, plain, order[(step + j) % 3], j, stop)
            for j in reversed(range(branches)):
                _read(spec, plain, order[(step + j + 1) % 3], j, stop // 3)


def hash_unit(key: str) -> float:
    """The reference unit of a key: its 8-byte blake2b digest, one hash per
    key, read as a big-endian integer over 2^64."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def test_unit_hasher_gives_the_one_shot_units():
    keys = ["0", "1", "-3", "2'", "17'", "5:1", "-4:0", "v001", "root", ""]
    for prefix in ("0:", "929756531:", "3:1:", "-2:0:", ""):
        digests = unit_hasher(prefix)(key.encode() for key in keys)
        units = [int.from_bytes(digests[i:i + 8], "big") / 2.0 ** 64
                 for i in range(0, len(digests), 8)]
        assert units == [hash_unit(prefix + key) for key in keys]
    model = make_family("rootless-binary")
    weights = HashRandomWeights(3, 0.5, 0.7)
    for v in ("0", "-3", "2:0", "2:1", "-1:1"):
        assert weights.weight(model, v) == 0.5 + (0.7 - 0.5) * hash_unit(f"3:{v}")
    rule = uniform_weight_rule(929756531, 0.5, 0.99)
    assert rule.run(1, 3, 40) == [0.5 + (0.99 - 0.5) * hash_unit(f"929756531:1:{k}")
                                  for k in range(3, 40)]
    assert [rule(j, k) for j, k in ((0, 0), (1, 9), (1, 10), (2, 999))] == [
        0.5 + (0.99 - 0.5) * hash_unit(f"929756531:{j}:{k}")
        for j, k in ((0, 0), (1, 9), (1, 10), (2, 999))]


def test_a_batched_weight_run_is_bit_identical_to_one_key_at_a_time():
    """``rule.run`` converts a run's digests with numpy in one batch; each
    value must be the Python float that one ``hash_unit`` call gives, across
    digit-count boundaries and for digests above 2^63 (the uint64 cast)."""
    keys = top = 0
    for seed in (0, 1, 2 ** 31 - 1):
        for low, high in ((0.5, 0.99), (0.7, 0.7), (1e-300, 1.0)):
            rule = uniform_weight_rule(seed, low, high)
            for j in (0, 3):
                for start, stop in ((0, 13), (95, 106), (995, 1006), (9995, 10006)):
                    units = [hash_unit(f"{seed}:{j}:{k}") for k in range(start, stop)]
                    run = rule.run(j, start, stop)
                    assert all(type(x) is float for x in run)
                    assert [x.hex() for x in run] == [(low + (high - low) * u).hex()
                                                      for u in units]
                    keys += len(units)
                    top += sum(u >= 0.5 for u in units)  # the digest's top bit is set
    assert top >= keys / 3


def test_a_weight_out_of_range_is_named_by_its_position_in_a_run():
    spec = BackwardShiftSpec(1, lambda j, k: 1.5 if (j, k) == (0, 7) else 0.5)
    with pytest.raises(WeightError, match=r"\(0, 7\)"):
        spec.prefix_products(0, 20)
    assert spec.prefix_products(0, 7) == [0.5 ** t for t in range(8)]
    with pytest.raises(WeightError, match=r"\(0, 7\)"):
        spec.steps(20)
    # a batch rule past 1 fails at its first such index, in index order
    rule = uniform_weight_rule(5, 0.5, 1.5)
    first = next(k for k in range(100) if rule(1, k) > 1.0)
    with pytest.raises(WeightError, match=rf"\(1, {first}\)"):
        BackwardShiftSpec(2, rule).prefix_products(1, 100)
    with pytest.raises(ZeroWeight):
        BackwardShiftSpec(1, lambda j, k: 0.0 if k == 3 else 0.5).steps(10)


def test_a_screened_run_still_names_a_nan_and_spares_listed_zeros():
    """A run is screened by its min, max and sum: a NaN inside it (which min
    and max pass over) still fails at its own index, and a listed zero reads
    0.0 whatever the rule gives there, within the screen or without it."""
    def rule(j, k):
        return 0.5

    rule.run = lambda j, start, stop: [math.nan if k == 7 else 0.5 for k in range(start, stop)]
    with pytest.raises(WeightError, match=r"\(0, 7\)"):
        BackwardShiftSpec(1, rule).prefix_products(0, 20)
    for bad in (0.5, 1.5):
        rule.run = lambda j, start, stop: [bad if k == 3 else 0.5 for k in range(start, stop)]
        spec = BackwardShiftSpec(1, rule, zeros=[(0, 3)])
        assert spec.prefix_products(0, 5) == [1.0, 0.5, 0.25, 0.125, 0.0, 0.0]


# -- dense-range / direct-sum cyclicity laws -------------------------------------------

def _weighted_cycle(rng, n):
    """Invertible dense-range cyclic matrix: a weighted cyclic permutation."""
    mat = np.zeros((n, n))
    for k in range(n):
        mat[(k + 1) % n, k] = rng.uniform(0.5, 1.5)
    return mat


def test_image_of_cyclic_vector_is_cyclic(rng):
    n = 12
    mat = _weighted_cycle(rng, n)
    f = np.array([rng.uniform(0.5, 1.5) for _ in range(n)])
    assert krylov_rank(mat, f) == n
    assert krylov_rank(mat, mat @ f) == n


def test_direct_sum_with_nilpotent_block_is_cyclic(rng):
    n = 10
    t = _weighted_cycle(rng, n)
    f = np.zeros(n)
    f[0] = 1.0
    assert krylov_rank(t, f) == n
    jordan = np.diag([1.0] * 3, k=1)
    combined = np.block([[t, np.zeros((n, 4))], [np.zeros((4, n)), jordan]])
    e = np.zeros(4)
    e[-1] = 1.0
    assert krylov_rank(combined, np.concatenate([f, e])) == n + 4


def test_commuting_ray_swap_is_not_hyperinvariance(rng):
    # the unitary swapping the two rays of the leafless Br=1 tree commutes
    # with the equal-weight shift on the window interior
    model = make_family("tilde")
    op = ShiftOperator(model, ConstantWeights(0.7))
    window = materialize_window(model, -5, 5)

    def swap(x):
        out = SparseVector()
        for u, c in x.items():
            if u.endswith("'"):
                out.coeffs[u[:-1]] = c
            elif int(u) >= 1:
                out.coeffs[u + "'"] = c
            else:
                out.coeffs[u] = c
        return out

    for u in window.forward_interior():
        lhs = swap(op.apply(SparseVector.basis(u)))
        rhs = op.apply(swap(SparseVector.basis(u)))
        assert (lhs - rhs).norm() <= 1e-12


# -- verdict engine ---------------------------------------------------------------------

def _classify(op, lo, hi):
    window = materialize_window(op.model, lo, hi)
    profile = alpha_profile(op, window)
    adjoint = adjoint_profile(op, window)
    return classify(profile, adjoint)


def test_verdict_backward_shift_rules():
    cyclic = backward_shift_verdict(BackwardShiftSpec(2, 0.9, zeros=[(0, 3)]))
    assert (cyclic.verdict, cyclic.rule) == ("cyclic", "R3")
    assert cyclic.anchors == VERDICT_ANCHORS["R3"]
    blocked = backward_shift_verdict(BackwardShiftSpec(2, 0.9, zeros=[(0, 3), (1, 5)]))
    assert (blocked.verdict, blocked.rule) == ("non-cyclic", "R3")


def test_verdict_r1_rooted_branching(rng):
    tree = validate_finite(["r", "a", "b"], [("r", "a"), ("r", "b")])
    op = ShiftOperator(tree, MapWeights({"a": 0.6, "b": 0.8}))
    window = full_window(tree)
    cls = classify(alpha_profile(op, window), adjoint_profile(op, window))
    verdict = cyclicity_verdict(tree, cls)
    assert (verdict.verdict, verdict.rule) == ("non-cyclic", "R1")


def test_verdict_r2_rootless_binary():
    op = ShiftOperator(make_family("rootless-binary"), ConstantWeights(1 / math.sqrt(2)))
    cls = _classify(op, 0, 4)
    verdict = cyclicity_verdict(op.model, cls)
    assert (verdict.verdict, verdict.rule) == ("non-cyclic", "R2")


def test_verdict_r6_tilde_c1dot():
    op = ShiftOperator(make_family("tilde"), MapWeights({"1": 0.6, "1'": 0.7}, default=1.0))
    cls = _classify(op, -6, 6)
    assert cls.forward == "C1dot"
    verdict = cyclicity_verdict(op.model, cls)
    assert (verdict.verdict, verdict.rule) == ("non-cyclic", "R6")


def test_verdict_unknown_with_blockers():
    op = ShiftOperator(make_family("bilateral-path"), ConstantWeights(0.5))
    cls = _classify(op, -5, 5)
    verdict = cyclicity_verdict(op.model, cls)
    assert verdict.verdict == "unknown"
    assert verdict.blockers


def test_verdict_anchors_are_a_copy_of_the_anchor_table():
    spec = BackwardShiftSpec(2, 0.5)
    first = backward_shift_verdict(spec)
    first.anchors.append("changed")
    first.to_json()["anchors"].append("changed too")
    assert backward_shift_verdict(spec).anchors == VERDICT_ANCHORS["R3"] == ["Thm 5.4"]


def test_backward_spec_json():
    spec = backward_spec_from_json({"branches": 2,
                                    "weights": {"kind": "constant", "value": 0.9},
                                    "zeros": [[0, 3]]})
    assert spec.branches == 2
    assert spec.weight(0, 3) == 0.0
    assert spec.weight(1, 3) == 0.9


# -- exact Krylov rank over F_p ---------------------------------------------------------

from fractions import Fraction

from treeshift import cyclicity
from treeshift.cyclicity import MODULUS, CyclicCandidate, _field


def _window_cases():
    cases = []
    for branches, L, K in ((1, 12, 40), (1, 20, 64), (2, 16, 30), (2, 8, 0), (3, 12, 0),
                           (3, 16, 60), (1, 16, 200)):
        spec = BackwardShiftSpec(branches, uniform_weight_rule(3 * branches + L, 0.5, 0.99))
        cases.append((spec, construct_backward_cyclic(spec, L), K))
    zeroed = BackwardShiftSpec(2, 0.9, zeros=[(0, 2), (1, 4)])
    cases.append((zeroed, construct_backward_cyclic(BackwardShiftSpec(2, 0.9), 16), 30))
    # signed coefficients, a signed zero and a repeated position (last one wins)
    signed = CyclicCandidate(schedule=[(0, 1), (1, 3), (0, 6), (1, 10), (0, 6)],
                             xi=[-0.5, -0.0, 0.25, -1e-300, -0.125])
    cases.append((BackwardShiftSpec(2, 0.75, zeros=[(1, 2)]), signed, 8))
    return cases


def _field_reference(x):
    num, den = Fraction(x).as_integer_ratio()
    return num * pow(den, -1, MODULUS) % MODULUS


def test_field_is_the_dyadic_ring_map(rng):
    specials = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** 31, 2.0 ** -31, 3.0 * 2.0 ** 60,
                5e-324, -5e-324, 2.0 ** -1022, 1.7976931348623157e308, 0.1, 0.99]
    assert _field(specials).tolist() == [_field_reference(x) for x in specials]
    assert _field(2.0 ** 31) == 1 and _field(0.5) * 2 % MODULUS == 1
    pairs = [(3.0 * 2.0 ** -600, 5.0 * 2.0 ** -470), (5e-324, 2.0 ** 40),
             (2.0 ** -1022, 0.75), (-(2.0 ** -1060), 3.0)]
    for _ in range(300):
        a = rng.randrange(1, 2 ** 26) * 2.0 ** rng.randint(-560, 480)
        b = -rng.randrange(1, 2 ** 26) * 2.0 ** rng.randint(-560, 480)
        pairs.append((a, b))
    for a, b in pairs:
        if Fraction(a) * Fraction(b) != Fraction(a * b):
            continue  # the product rounded; the map is multiplicative on exact products
        assert _field(a * b) == _field(a) * _field(b) % MODULUS
        assert _field(a * b) == _field_reference(a * b)
    with pytest.raises(ValueError):
        _field([1.0, math.nan])


def _rank_mod_p_reference(rows):
    """Left-to-right Gauss-Jordan over F_p with modular inverses."""
    a = [[x % MODULUS for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, MODULUS)
        for r in range(rank + 1, len(a)):
            if a[r][col]:
                f = a[r][col] * inv % MODULUS
                a[r] = [(x - f * y) % MODULUS for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


# 1 - 2^-31 = p / 2^31 and p * 2^-40 are doubles whose residue mod p is zero.
RESIDUE_ZERO = (1.0 - 2.0 ** -31, MODULUS * 2.0 ** -40)


def _exact_window_rows(spec, cand, K):
    """The window Krylov matrix over F_p, each entry the field image of the
    exact chain product xi * w_{j,i} ... w_{j,s-1} in Fractions."""
    depth = max(max(k for _, k in cand.schedule), K)
    rows = [[0] * (depth + 1) for _ in range(spec.branches * (K + 1))]
    for (j, s), x in cyclicity._support(cand).items():
        value = Fraction(x)
        for i in range(s, -1, -1):
            if i <= K:
                rows[j * (K + 1) + i][s - i] = _field_reference(value)
            if i:
                value *= Fraction(spec.weight(j, i - 1))
    return rows


def _order_basis_rank(spec, cand, K):
    depth = max(max(k for _, k in cand.schedule), K)
    return cyclicity._rank_from_order_basis(cyclicity._support(cand), spec.steps(depth), K,
                                            depth)


def _rank_cases():
    """The window cases plus zero residues, zeros, K = 0 and K past the
    support, signed zeros, repeated positions, up to four branches and
    series that die in one scan."""
    cases = list(_window_cases())
    cut = {(0, 5), (0, 21), (1, 0), (1, 33)}
    patchy = BackwardShiftSpec(2, lambda j, k: RESIDUE_ZERO[k % 2] if (j, k) in cut else 0.9)
    cases.append((patchy, construct_backward_cyclic(patchy, 16), 30))
    for branches, L, K in ((2, 12, 20), (3, 12, 0), (1, 8, 40)):
        flat = BackwardShiftSpec(branches, RESIDUE_ZERO[0])  # every residue is zero
        cases.append((flat, construct_backward_cyclic(flat, L), K))
    zeroed = BackwardShiftSpec(3, 0.9, zeros=[(0, 2), (1, 30), (2, 7), (2, 50)])
    cases.append((zeroed, construct_backward_cyclic(BackwardShiftSpec(3, 0.9), 12), 30))
    for branches, L, K in ((2, 8, 60), (3, 12, 100), (4, 16, 0), (4, 16, 20), (4, 20, 40)):
        spec = BackwardShiftSpec(branches, uniform_weight_rule(branches + K, 0.5, 0.99))
        cases.append((spec, construct_backward_cyclic(spec, L), K))
    signed = CyclicCandidate(schedule=[(2, 1), (0, 3), (3, 3), (1, 6), (2, 1), (3, 10)],
                             xi=[-0.5, 0.25, -0.0, 0.0, 0.75, -2.0 ** -40])
    cases.append((BackwardShiftSpec(4, RESIDUE_ZERO[1] * 2.0 ** 8), signed, 5))
    cases.append((BackwardShiftSpec(4, 0.75, zeros=[(3, 4)]), signed, 12))
    # One point at the same index on three branches with equal weights: three
    # proportional series, so both non-pivots die in one scan (which reads a
    # copy of the live list they leave).  With the third point shallower, the
    # pivot is alone nonzero right after the removal, up to the third's wake.
    for schedule in ([(0, 6), (1, 6), (2, 6)], [(0, 9), (1, 9), (2, 4)]):
        same = CyclicCandidate(schedule=schedule, xi=[0.5, 0.25, 0.5])
        cases += [(BackwardShiftSpec(3, 0.75), same, K) for K in (0, 1, 3, 6, 12)]
    return cases


def _random_case(rng):
    """A small candidate on 1 to 4 branches: weights drawn from doubles that
    include zero residues and listed zeros, coefficients with signed zeros and
    repeated positions, and a window from K = 0 to past the support."""
    branches = rng.randint(1, 4)
    pool = RESIDUE_ZERO + (0.5, 0.75, 1.0, 0.9)
    table = {}

    def rule(j, k):
        if (j, k) not in table:
            table[(j, k)] = rng.choice(pool) if rng.random() < 0.3 else rng.uniform(0.5, 1.0)
        return table[(j, k)]

    zeros = [(rng.randrange(branches), rng.randrange(30)) for _ in range(rng.choice((0, 1, 3)))]
    schedule = [(rng.randrange(branches), rng.randrange(40)) for _ in range(rng.randint(1, 12))]
    xi = [rng.choice((0.0, -0.0, -1.0, 1.0)) * rng.uniform(0.1, 1.0) for _ in schedule]
    cand = CyclicCandidate(schedule=schedule, xi=xi)
    return BackwardShiftSpec(branches, rule, zeros=zeros), cand, rng.choice((0, 1, 3, 10, 25, 45))


def test_rank_mod_p_matches_reference(rng):
    deficient = 0
    for _ in range(150):
        spec, cand, K = _random_case(rng)
        want = _rank_mod_p_reference(_exact_window_rows(spec, cand, K))
        assert _order_basis_rank(spec, cand, K) == want, (cand, K)
        deficient += want < spec.branches * (K + 1)
    assert deficient >= 50


def test_exact_matrix_is_the_field_image_of_the_exact_chain_products():
    """The order-basis rank is the rank of the field image of the exact
    chain products, and ``verify_cyclic_candidate`` reports it."""
    for spec, cand, K in _rank_cases():
        want = _rank_mod_p_reference(_exact_window_rows(spec, cand, K))
        assert _order_basis_rank(spec, cand, K) == want, (spec.branches, cand.schedule, K)
        record = verify_cyclic_candidate(spec, cand, K)
        assert (record.rank, record.certified) == (want, want == spec.branches * (K + 1))


@pytest.mark.parametrize("branches,L,K", [(1, 40, 200), (2, 30, 150), (3, 36, 120)])
def test_exact_rank_certifies_where_the_float_rank_falls_short(branches, L, K):
    spec = BackwardShiftSpec(branches, uniform_weight_rule(1, 0.5, 0.99))
    record = verify_cyclic_candidate(spec, construct_backward_cyclic(spec, L), K)
    assert record.rank == record.dimension == branches * (K + 1)
    assert record.certified and record.modulus == MODULUS
    floats = candidate_span(spec, construct_backward_cyclic(spec, L), K)
    assert floats.numerical_rank < record.dimension  # the float spectrum alone is short


def test_exact_rank_with_zero_weights():
    spec = BackwardShiftSpec(2, 0.9, zeros=[(0, 2), (1, 4)])
    record = verify_cyclic_candidate(spec, construct_backward_cyclic(BackwardShiftSpec(2, 0.9),
                                                                     16), 30)
    assert (record.rank, record.dimension, record.certified) == (58, 62, False)


def test_zeroed_coefficient_lowers_the_certified_rank():
    spec = BackwardShiftSpec(1, 1.0)
    cand = construct_backward_cyclic(spec, 12)
    baseline = verify_cyclic_candidate(spec, cand, 78)
    assert baseline.certified and baseline.rank == baseline.dimension == 79
    broken = copy.deepcopy(cand)
    broken.xi[-1] = 0.0
    record = verify_cyclic_candidate(spec, broken, 78)
    assert record.rank < baseline.rank and not record.certified


def test_an_undecided_window_is_diagnosed_before_it_is_returned():
    """k_L + 1 = 79 columns still reach every row, so counting cannot decide
    the window: the returned record says that the exact rank falls short."""
    spec = BackwardShiftSpec(1, 1.0)
    broken = construct_backward_cyclic(spec, 12)
    broken.xi[-1] = 0.0
    record = verify_cyclic_candidate(spec, broken, 78)
    assert (record.rank, record.dimension, record.support_columns) == (67, 79, 79)
    assert not record.certified


def test_verify_cyclic_candidate_runs_no_float_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ge_rank called")

    monkeypatch.setattr(cyclicity, "ge_rank", refuse)
    for spec, cand, K in _window_cases():
        verify_cyclic_candidate(spec, cand, K)


def _noise_floor(s, shape):
    return s[0] * max(shape) * np.finfo(float).eps * 8.0


def test_noise_floor_scales_with_the_wide_side():
    """999 copies of e1 and one column tilted by 1e-12: the tilt is above the
    floor of a 2 x 2 matrix but below that of the 2 x 1000 one, so the float
    reference reads it as rounding noise and the e2 row stays out of the span."""
    columns = np.zeros((2, 1000))
    columns[0] = 1.0
    columns[:, 0] = (math.cos(1e-12), math.sin(1e-12))
    record = verify_krylov_span(columns, 2, tol=1e-5)
    assert record.max_residual == 1.0 and record.columns == 1000
    s = np.linalg.svd(columns, compute_uv=False)
    assert _noise_floor(s, (2, 2)) < s[1] < _noise_floor(s, columns.shape)


def test_verify_krylov_span_leaves_its_columns_alone():
    columns = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 1.0]])
    kept = columns.copy()
    record = verify_krylov_span(columns, 2, tol=1e-5)
    assert np.array_equal(columns, kept)
    assert (record.rank, record.numerical_rank, record.columns) == (2, 2, 3)


def _construct_reference(spec, L):
    """construct_backward_cyclic with Sigma_m recomputed from scratch per
    stage: the candidate and its final stage bounds."""
    def sigma(candidate, m):
        sched, xi = candidate.schedule, candidate.xi
        k_m, j_m = sched[m - 1][1], sched[m - 1][0]
        k_prev = sched[m - 2][1] if m >= 2 else -1
        prefix = {j: spec.prefix_products(j, sched[-1][1]) for j in set(j for j, _ in sched)}
        best = 0.0
        for k in range(k_prev + 1, k_m + 1):
            denom = xi[m - 1] * prefix[j_m][k_m] / prefix[j_m][k_m - k]
            total = 0.0
            for l in range(m + 1, L + 1):
                j_l, k_l = sched[l - 1]
                try:
                    num = xi[l - 1] * prefix[j_l][k_l] / prefix[j_l][k_l - k]
                    total += (num / denom) ** 2
                except ZeroDivisionError:
                    raise StageUnderflow(m) from None
            best = max(best, total)
        return best

    candidate = CyclicCandidate(schedule=default_schedule(spec.branches, L),
                                xi=[2.0 ** (-l) for l in range(1, L + 1)])
    for m in range(1, L + 1):
        s = sigma(candidate, m)
        if s > 2.0 ** (-m):
            factor = math.sqrt(2.0 ** m * s) * (1.0 + 1e-12)
            for l in range(m + 1, L + 1):
                candidate.xi[l - 1] /= factor
            candidate.modifications.append((m, s, factor))
    return candidate, [sigma(candidate, m) for m in range(1, L + 1)]


def _hoisted_cases():
    for seed in (1, 2, 7, 97, 113):
        yield 1, 44, uniform_weight_rule(seed, 0.5, 0.99)
        yield 2, 24, uniform_weight_rule(seed, 0.5, 0.99)
    yield from ((1, 4, 1.0), (1, 40, uniform_weight_rule(1, 0.5, 0.99)), (2, 16, 0.9),
                (3, 20, uniform_weight_rule(3, 0.1, 1.0)), (3, 12, 1e-3),
                (3, 16, uniform_weight_rule(5, 0.3, 0.6)))
    yield 1, 16, 0.9  # every k of a stage ties in the sweep
    # Near underflow: the last stages of L = 38 read products below the least
    # normal double and run over every k; the seed-929756531 spec at L = 40
    # has the subnormal stage bound of the `subnormal-sigma` known defect.
    yield 1, 38, 0.5
    yield 1, 40, uniform_weight_rule(929756531, 0.5, 0.99)


def test_hoisted_sigma_tables_give_bit_identical_candidates():
    """The sweep-guided construction gives the reference's candidate bit for
    bit: every xi, every modification and every final stage bound."""
    for branches, L, weights in _hoisted_cases():
        spec = BackwardShiftSpec(branches, weights)
        fast = construct_backward_cyclic(spec, L)
        slow, slow_sigmas = _construct_reference(BackwardShiftSpec(branches, weights), L)
        assert fast.schedule == slow.schedule
        assert repr(fast.xi) == repr(slow.xi)
        assert repr(fast.modifications) == repr(slow.modifications)
        assert repr([sigma_m(fast, spec, m) for m in range(1, L + 1)]) == repr(slow_sigmas)


@pytest.mark.parametrize("branches,L,weights", [(1, 39, 0.5), (1, 50, 0.5),
                                                (1, 44, uniform_weight_rule(929756531, 0.5, 0.99))])
def test_a_stage_underflow_names_the_reference_stage(branches, L, weights):
    with pytest.raises(StageUnderflow) as slow:
        _construct_reference(BackwardShiftSpec(branches, weights), L)
    with pytest.raises(StageUnderflow) as fast:
        construct_backward_cyclic(BackwardShiftSpec(branches, weights), L)
    assert fast.value.stage == slow.value.stage


def _visited(monkeypatch, spec, L):
    """{stage: the k at which the construction's exact pass evaluates it}."""
    visits = {}
    sigma = cyclicity._sigma

    def counting(schedule, xi, prefix, m, ks=None):
        k_prev = schedule[m - 2][1] if m >= 2 else -1
        visits[m] = list(range(k_prev + 1, schedule[m - 1][1] + 1) if ks is None else ks)
        return sigma(schedule, xi, prefix, m, ks)

    monkeypatch.setattr(cyclicity, "_sigma", counting)
    construct_backward_cyclic(spec, L)
    monkeypatch.undo()
    return visits


def test_the_exact_pass_visits_only_the_binding_indices(monkeypatch):
    """On a hash-random (1, 40) spec the sweep leaves one k per stage with a
    tail, out of the 821 of k_0 + 1 .. k_40; the last stage has an empty
    tail, so its bound is 0.0 with no k visited."""
    visits = _visited(monkeypatch, BackwardShiftSpec(1, uniform_weight_rule(1, 0.5, 0.99)), 40)
    assert sum(map(len, visits.values())) == 39
    assert visits[40] == []
    # Constant weights make every k of a stage tie, so every k is kept.
    visits = _visited(monkeypatch, BackwardShiftSpec(2, 0.9), 16)
    assert sum(map(len, visits.values())) == 137 - 16
    # Each stage decides for itself: past the least normal double, a stage
    # runs over every k of (k_{m-1}, k_m].
    visits = _visited(monkeypatch, BackwardShiftSpec(1, uniform_weight_rule(1, 0.5, 0.99)), 44)
    assert [m for m, ks in visits.items() if len(ks) > 1] == [41, 42, 43, 44]
    assert all(len(ks) == 1 for m, ks in visits.items() if m < 41)


def test_the_sweep_vouches_only_for_stage_totals_in_its_range():
    """A stage whose sweep totals underflow (one weight 2^-600 that only the
    last tail term reads) or overflow (one weight 2^-600 at k = 0, which
    every stage's k = k_m reads) gets None, every k; the others keep the k
    of their largest totals (here all of them: constant weights tie)."""
    def binding(weight, L):
        spec = BackwardShiftSpec(1, weight)
        schedule = default_schedule(1, L)
        return cyclicity._binding_indices(schedule, cyclicity._schedule_prefix(spec, schedule))

    under = binding(lambda j, k: 2.0 ** -600 if k == 35 else 0.9, 8)
    assert under == [[0], [2, 3], [4, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14, 15],
                     [16, 17, 18, 19, 20, 21], None, []]
    assert binding(lambda j, k: 2.0 ** -600 if k == 0 else 0.9, 8) == [None] * 7 + [[]]


def test_construction_makes_one_sigma_pass(monkeypatch):
    calls = []
    sigma = cyclicity._sigma
    monkeypatch.setattr(cyclicity, "_sigma", lambda *args: calls.append(args[3]) or sigma(*args))
    for branches, L in ((1, 40), (2, 24), (3, 12)):
        calls.clear()
        construct_backward_cyclic(
            BackwardShiftSpec(branches, uniform_weight_rule(branches, 0.5, 0.99)), L)
        assert calls == list(range(1, L + 1))


@pytest.mark.parametrize("branches,L,K,certified", [(1, 40, 200, True), (3, 36, 120, True),
                                                    (1, 16, 200, False), (2, 24, 150, False)])
def test_one_short_is_not_certified(branches, L, K, certified):
    """Certified exactly when k_L + 1 columns reach every row; (2, 24, 150)
    has k_L = 300, so 301 columns for 302 rows."""
    spec = BackwardShiftSpec(branches, uniform_weight_rule(1, 0.5, 0.99))
    cand = construct_backward_cyclic(spec, L)
    record = verify_cyclic_candidate(spec, cand, K)
    assert record.support_columns == max(k for _, k in cand.schedule) + 1
    assert record.certified == certified == (record.support_columns >= record.dimension)
    assert record.rank == min(record.support_columns, record.dimension)
