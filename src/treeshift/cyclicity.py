"""Constructive cyclic vectors for weighted backward shifts, a Krylov-rank
oracle for finite truncations, and the rule-based cyclicity verdict engine.

The constructor builds a candidate vector supported on a sparse schedule of
basis vectors and then rescales tail coefficients until every stage bound
Sigma_m drops below 2^-m; on the truncation the bounds are checked exactly
as computed, which certifies cyclicity of the truncated operator (the
infinite-dimensional statement is the theorem's job, not the artifact's).
Sigma_m is a max over the k of its stage; the exact loop runs only at the
k that one float sweep marks as binding, or at every k of a stage the sweep
cannot vouch for (``_binding_indices``), so the bounds, the rescales and the
errors are those of the full loop.

The candidate's Krylov matrix on a window is written down in closed form:
the entry at (j, i) in column k is xi * w_{j,i} ... w_{j,s-1} when
s = i + k is a support point on branch j, and 0 otherwise.  Every weight and
coefficient is a double, hence an exact dyadic rational, so the matrix has
an image over F_p (p = 2^31 - 1), whose rank is computed exactly without
forming it: each row is a shift of one polynomial series per branch, and the
rank is read off a shifted order basis of those series (per order: a slice
per waking series, four int64 ufuncs per series cleared).  Rank mod p never
exceeds the rank over Q, so full rank mod p is a proof of full rank;
anything less is "not certified", never "not cyclic".
That rank is the whole check: no floating-point Krylov matrix is built.
``ge_rank`` and ``cokernel_dimension`` are float rank helpers for library
callers; no backward-shift path calls them.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from itertools import accumulate
from operator import mul

from .errors import (DimensionCap, ScheduleTooShort, StageUnderflow, TreeSpecError, WeightError,
                     ZeroWeight, decoded, shown)
from .records import Record, json_value
from .trees import branching_index, count_text, leaves
from .weights import _integer, _required, hash_unit, unit_hasher

DIMENSION_CAP = 4096
RANK_TOL = 1e-8
# A Mersenne prime: 2^31 = 1 (mod p), so 2^-k = 2^(-k mod 31), and a product
# of two residues fits in an int64.
MODULUS = 2 ** 31 - 1
# ``_binding_indices``: a stage runs ``_sigma`` only at the k whose sweep total
# is within SWEEP_MARGIN of the stage's largest, while every factor it reads
# is at least SWEEP_FLOOR and that largest total lies in SWEEP_RANGE.
SWEEP_MARGIN = 1e-6
SWEEP_FLOOR = 2.0 ** -1022  # the least normal double
SWEEP_RANGE = (2.0 ** -900, 2.0 ** 900)

VERDICT_ANCHORS = {
    "R1": ["§6 co-rank"],
    "R2": ["§6 co-rank"],
    "R3": ["Thm 5.4"],
    "R4": ["Thm 6.2"],
    "R5": ["Thm 6.3"],
    "R5'": ["§2 C·1 bilateral"],
    "R6": ["§6 Thm"],
    "R7": ["§7 Thm (i)"],
    "R8": ["§7 Thm (ii)"],
}


def uniform_weight_rule(seed: int, low: float, high: float):
    """Deterministic pseudo-random weights in [low, high], keyed by (branch, index).

    ``rule(j, k)`` hashes one key; ``rule.run(j, start, stop)`` gives the
    same floats for k in [start, stop), hashing the key prefix once and
    converting the digests in one batch (numpy rounds as Python does).
    """

    def rule(j, k):
        return low + (high - low) * hash_unit(f"{seed}:{j}:{k}")

    def run(j, start, stop):
        import numpy as np
        digests = unit_hasher(f"{seed}:{j}:").digests(b"%d" % k for k in range(start, stop))
        units = np.frombuffer(digests, ">u8").astype(float) / 2.0 ** 64
        return (low + (high - low) * units).tolist()

    rule.run = run
    return rule


class BackwardShiftSpec:
    """Backward shift of finite multiplicity: B e_{j,0} = 0,
    B e_{j,k} = w_{j,k-1} e_{j,k-1}, weights in [0,1].

    `weights` is a constant or a rule (j, k) -> weight; a rule with a
    ``run(j, start, stop)`` method gives the weights of an index range in one
    call, and any other rule is run one index at a time.  `zeros` lists
    positions whose weight is forced to 0 (recorded, so the verdict engine
    and the split construction can see them).
    """

    def __init__(self, branches: int, weights=1.0, zeros=()):
        if branches < 1:
            raise TreeSpecError("need at least one branch")
        self.branches = int(branches)
        if callable(weights):
            self._run = getattr(weights, "run", None) or (
                lambda j, start, stop: [float(weights(j, k)) for k in range(start, stop)])
        else:
            c = float(weights)
            self._run = lambda j, start, stop: [c] * (stop - start)
        self.zero_positions = frozenset((int(j), int(k)) for j, k in zeros)
        for j, k in self.zero_positions:
            if not (0 <= j < self.branches) or k < 0:
                raise TreeSpecError(f"zero position {(j, k)} out of range")
        self._runs = {}  # branch -> ([w_{j,0}, ...], [P[0], P[1], ...]), extended on demand

    def weight(self, j: int, k: int) -> float:
        """w_{j,k}, read from the kept run of branch j (see ``_extend``)."""
        return self._extend(j, k + 1)[0][k]

    def _extend(self, j: int, stop: int) -> tuple:
        """The weights w_{j,k} for k < stop and the running products P[0..stop]
        of branch j, as the kept lists themselves (callers must not change
        them).  Each weight is evaluated and range-checked once, in index
        order; zero positions read 0.0.

        A run is screened as a whole (its min, max and sum); only a run that
        fails the screen is checked index by index, which names the first bad
        (j, k).  The products are formed left to right, as one at a time."""
        weights, prefix = self._runs.setdefault(j, ([], [1.0]))
        start = len(weights)
        if start < stop:
            run = list(self._run(j, start, stop))
            if 0.0 < min(run) and max(run) <= 1.0 and (total := sum(run)) == total:  # no NaN
                for zj, k in self.zero_positions:
                    if zj == j and start <= k < stop:
                        run[k - start] = 0.0
            else:
                run = [0.0 if (j, k) in self.zero_positions else _checked(j, k, w)
                       for k, w in enumerate(run, start)]
            weights += run
            prefix[-1:] = accumulate(run, mul, initial=prefix[-1])
        return weights, prefix

    def prefix_products(self, j: int, upto: int) -> list[float]:
        """P[t] = w_{j,0} * ... * w_{j,t-1} for t = 0..upto.

        The running product of each branch is kept and extended on demand, so
        repeated calls evaluate every weight once; the caller gets a copy.
        """
        return self._extend(j, upto)[1][: upto + 1]

    def steps(self, depth: int) -> np.ndarray:
        """steps[j, k] = w_{j,k} for k < depth (0.0 at zero positions): the
        branch-wise action (B y)[j, k] = steps[j, k] * y[j, k + 1] of the
        truncation to indices k <= depth."""
        import numpy as np
        return np.array([self._extend(j, depth)[0][:depth] for j in range(self.branches)])


def _checked(j: int, k: int, w: float) -> float:
    """``w`` when it is a weight in (0, 1]; else ZeroWeight or WeightError
    naming (j, k)."""
    if not (0.0 < w <= 1.0):
        raise ZeroWeight((j, k)) if w <= 0.0 else WeightError(f"weight {w} > 1 at {(j, k)}")
    return w


class CyclicCandidate(Record):
    """Support schedule, coefficients, and the rescaling history of the
    sequential Sigma_m modification loop."""

    # schedule: [(j_l, k_l)] for l = 1..L, stored 0-based in the list
    # xi: strictly positive coefficients, same indexing
    # modifications: [(m, sigma_before, factor)]
    __slots__ = _fields = ("schedule", "xi", "modifications")
    _defaults = {"modifications": []}

    def entries(self):
        """[(j, k, xi)] with 1-based stage order."""
        return [(j, k, x) for (j, k), x in zip(self.schedule, self.xi)]

    def to_json_lines(self) -> list:
        """One line per stage, the bytes ``json.dumps`` gives for ``{"stage",
        "branch", "index", "coefficient"}`` in that key order, written
        directly from the fields by ``json_value``."""
        return [f'{{"stage": {l}, "branch": {json_value(j, json.dumps)}, '
                f'"index": {json_value(k, json.dumps)}, '
                f'"coefficient": {json_value(x, json.dumps)}}}'
                for l, ((j, k), x) in enumerate(zip(self.schedule, self.xi), 1)]


def default_schedule(branches: int, L: int):
    """k_l = l(l+1)/2 (gaps strictly increase to infinity), branches round-robin."""
    return [((l - 1) % branches, l * (l + 1) // 2) for l in range(1, L + 1)]


def sigma_m(candidate: CyclicCandidate, spec: BackwardShiftSpec, m: int) -> float:
    """Stage-m bound: the max over k in (k_{m-1}, k_m] (k_0 = -1) of the tail
    sum of squared coefficient-times-weight-product ratios."""
    L = len(candidate.schedule)
    if not (1 <= m <= L):
        raise ValueError(f"m must be in 1..{L}")
    return _sigma(candidate.schedule, candidate.xi, _schedule_prefix(spec, candidate.schedule), m)


def _schedule_prefix(spec: BackwardShiftSpec, schedule) -> dict:
    """Prefix products up to the last stage's index on every scheduled branch."""
    kmax = schedule[-1][1]
    return {j: spec.prefix_products(j, kmax) for j in set(j for j, _ in schedule)}


def _sigma(schedule, xi, prefix, m: int, ks=None) -> float:
    """``sigma_m`` on precomputed prefix products, as the max over the k of
    ``ks`` (default: every k of the stage).  xi_l * P_{j_l}[k_l] is formed
    once per tail stage; every term is then the same chain of roundings as
    (xi_l * P[k_l] / P[k_l - k] / denom) ** 2.  A divisor that underflows to
    0.0 raises StageUnderflow."""
    j_m, k_m = schedule[m - 1]
    k_prev = schedule[m - 2][1] if m >= 2 else -1
    head, p_m = xi[m - 1] * prefix[j_m][k_m], prefix[j_m]
    tail = [(x * prefix[j][k], prefix[j], k) for (j, k), x in zip(schedule[m:], xi[m:])]
    best = 0.0
    try:
        for k in range(k_prev + 1, k_m + 1) if ks is None else ks:
            denom = head / p_m[k_m - k]
            total = 0.0
            for top, p, k_l in tail:
                total += (top / p[k_l - k] / denom) ** 2
            best = max(best, total)
    except ZeroDivisionError:
        raise StageUnderflow(m) from None
    return best


def _binding_indices(schedule, prefix) -> list:
    """Per stage m, the k at which ``_sigma`` can take its max: those whose
    float sweep total comes within SWEEP_MARGIN of the stage's largest, or
    None where the sweep cannot vouch for that (run every k).

    The sweep evaluates every stage total of Sigma_m on the initial
    coefficients xi_l = 2^-l in one vectorised pass.  A rescale at stage
    m' < m divides xi_m and every later xi_l by the same factor, so the
    ratios xi_l / xi_m that a stage total reads move by at most 2m roundings.
    While every factor of a term is a normal double (``construct_backward_cyclic``
    checks the floor on the current xi) and the stage's largest sweep total
    lies in SWEEP_RANGE (no term overflows its square; terms that underflow
    are far below it), the sweep total and the exact total agree to about
    1e-14 at every k, far inside the margin, so the exact max over the kept k
    is the exact max over all of them.  The last stage has no tail, so its
    total is 0.0 at every k and no k is kept.
    """
    import numpy as np
    branches = sorted(prefix)
    width = len(prefix[branches[0]])
    table = np.array([prefix[j] for j in branches]).ravel()
    row = {j: r * width for r, j in enumerate(branches)}
    ends = np.array([row[j] + k for j, k in schedule])  # the flat positions of P_{j_l}[k_l]
    top = 2.0 ** -np.arange(1.0, len(schedule) + 1) * table[ends]
    # ks: 0..k_{L-1}, each in the one stage m with k_{m-1} < k <= k_m (the
    # stages with a tail).  Term i is tail stage l > m at k = at[i]: stage l
    # contributes at every k <= k_{l-1}.
    stops = np.array([k for _, k in schedule[:-1]]) + 1
    ks = np.arange(stops[-1])
    stage = np.searchsorted(stops, ks, side="right")  # m - 1
    at = np.arange(stops.sum()) - np.repeat(np.cumsum(stops) - stops, stops)
    with np.errstate(all="ignore"):  # a zero, an overflow or a NaN only fails the range test
        denom = top[stage] / table[ends[stage] - ks]
        ratio = np.repeat(top[1:], stops) / table[np.repeat(ends[1:], stops) - at] / denom[at]
        totals = np.bincount(at, weights=ratio * ratio, minlength=ks.size)
        best = np.maximum.reduceat(totals, np.r_[0, stops[:-1]])
        kept = np.flatnonzero(totals >= (1.0 - SWEEP_MARGIN) * best[stage])
    low, high = SWEEP_RANGE
    binding = [[] if low <= b <= high else None for b in best.tolist()] + [[]]
    for k, m in zip(kept.tolist(), stage[kept].tolist()):
        if binding[m] is not None:
            binding[m].append(k)
    return binding


def construct_backward_cyclic(spec: BackwardShiftSpec, L: int) -> CyclicCandidate:
    """Build the truncated cyclic candidate and run the sequential rescaling
    loop until Sigma_m <= 2^-m holds for every m <= L (exactly as computed
    on the truncation).  The loop needs prefix products up to the deepest
    index k_L = L(L+1)/2 on every scheduled branch, so k_L + 1 above
    DIMENSION_CAP raises DimensionCap before anything is built."""
    if spec.zero_positions:
        raise ZeroWeight(min(spec.zero_positions))
    if L < 4 * spec.branches:
        raise ScheduleTooShort(f"need L >= {4 * spec.branches} for {spec.branches} branches")
    support_columns = L * (L + 1) // 2 + 1
    if support_columns > DIMENSION_CAP:
        raise DimensionCap(support_columns, DIMENSION_CAP)
    schedule = default_schedule(spec.branches, L)
    xi = [2.0 ** (-l) for l in range(1, L + 1)]
    modifications = []
    prefix = _schedule_prefix(spec, schedule)
    binding = _binding_indices(schedule, prefix)
    # floor[m - 1] = min over l >= m of P_{j_l}[k_l]; xi never grows along the
    # schedule, so xi_L * floor[m - 1] bounds every xi_l * P_{j_l}[k_l] that
    # stage m reads, and with them (the weights are at most 1) every prefix
    # entry it divides by.
    floor = list(accumulate(reversed([prefix[j][k] for j, k in schedule]), min))[::-1]
    for m in range(1, L + 1):
        ks = binding[m - 1] if xi[-1] * floor[m - 1] >= SWEEP_FLOOR else None
        s = _sigma(schedule, xi, prefix, m, ks)
        if s > 2.0 ** (-m):
            # The hair above the exact rescale keeps the recomputed Sigma_m
            # strictly below the bound despite round-off.
            factor = math.sqrt(2.0 ** m * s) * (1.0 + 1e-12)
            for l in range(m + 1, L + 1):
                xi[l - 1] /= factor
            modifications.append((m, s, factor))
    return CyclicCandidate(schedule, xi, modifications)


def range_membership_report(spec: BackwardShiftSpec, candidate: CyclicCandidate, n: int) -> float:
    """Partial sum of |xi|^2 / (w_{j,k} ... w_{j,k+n-1})^2 over the schedule:
    the truncated range-membership criterion for R(B^n).  Reported, not
    enforced."""
    total = 0.0
    for (j, k), x in zip(candidate.schedule, candidate.xi):
        prod = 1.0
        for w in spec._extend(j, k + n)[0][k: k + n]:
            prod *= w
        total += (x / prod) ** 2
    return total


def ge_rank(matrix, rank_tol: float = RANK_TOL) -> int:
    """Numerical rank by Gaussian elimination with partial pivoting; a pivot
    counts when it exceeds rank_tol times the largest entry of the input.  It
    is a floating-point figure, never a certificate: a small true pivot below
    the threshold is counted as zero.

    Each elimination step updates only the rows below the pivot that have a
    nonzero in the pivot column.  That is exact: on every other row the dense
    update would subtract (0 / pivot) * (pivot row), which is a signed zero
    when every entry is finite, so no entry, pivot choice or rank changes.
    The entries and the tolerance must therefore be finite (ValueError
    otherwise).  On a tree truncation (at most one nonzero per row) a step
    then touches only the children of one vertex, and the cost drops from
    O(n^3) to O(n^2): one column scan per pivot.
    """
    import numpy as np
    a = np.array(matrix, dtype=float, copy=True)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    if not 0.0 <= rank_tol < math.inf:  # also false for NaN
        raise ValueError(f"rank_tol must be finite and >= 0, got {rank_tol}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
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
        rows = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        a[rows, col:] -= np.outer(a[rows, col] / pivot, a[rank, col:])
        rank += 1
    return rank


def cokernel_dimension(matrix, rank_tol: float = RANK_TOL, cap: int = DIMENSION_CAP) -> int:
    """d - rank(matrix), with the numerical rank of ``ge_rank``: a numerical
    figure, never a certificate.  For the truncation of a tree window use
    ``ShiftOperator.window_cokernel``, which counts the same number exactly
    without the matrix.  On tree windows the top boundary rows are
    artificial deficiencies that callers subtract when reporting (window-edge
    analysis)."""
    import numpy as np
    mat = np.asarray(matrix, dtype=float)
    d = mat.shape[0]
    if d > cap:
        raise DimensionCap(d, cap)
    return d - ge_rank(mat, rank_tol)


class KrylovVerification(Record):
    """The exact record of a window Krylov check."""

    # rank: over F_p, p = `modulus`: at most the true rank
    # certified: rank equals dimension
    # support_columns: k_L + 1, the Krylov columns B^k f that can be nonzero
    __slots__ = _fields = ("rank", "dimension", "columns", "certified", "modulus",
                           "support_columns")


def _field(x):
    """Doubles as residues mod p, as an int64 array of the same shape.

    frexp writes x exactly as M * 2^(e - 53) with M an integer below 2^53
    (subnormals included), and x maps to M * 2^((e - 53) mod 31): the ring
    map from the dyadic rationals to F_p, since 2^31 = 1 (mod p).
    """
    import numpy as np
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("Krylov entries must be finite")
    mantissa, exponent = np.frexp(x)
    m = (mantissa * 2.0 ** 53).astype(np.int64) % MODULUS
    return (m << ((exponent.astype(np.int64) - 53) % 31)) % MODULUS


def _support(candidate: CyclicCandidate) -> dict:
    """{(j, s): xi}; a repeated position keeps its last coefficient."""
    return dict(zip(candidate.schedule, candidate.xi))


def _rank_from_order_basis(support: dict, steps, window_K: int, depth: int) -> int:
    """Rank over F_p of the window Krylov matrix, read off a shifted order
    basis of its row series; neither the basis nor the matrix is formed.

    Read column k as the coefficient of y^(D-k) (D = depth).  Row (j, i)
    scaled by P_j(i) = w_{j,0} ... w_{j,i-1} is then y^i R_j(y) mod y^(D+1),
    R_j = sum of xi_s P_j(s) y^(D-s) over the support points s of branch j.
    A weight w_{j,z} = 0 (mod p) cuts its branch: rows a..min(z, K) see only
    the support points in [a, z] and form a component c of d_c + 1 rows,
    whose rows may be scaled by any nonzero constant (so P reads a zero
    residue as 1).  The rank is the number of rows minus the dimension of
    {(Q_c): deg Q_c <= d_c, sum Q_c R_c = 0 mod y^(D+1)}; a component with
    no nonzero support point adds as much to both and is dropped.

    That dimension comes from the iterative sigma-basis of Beckermann and
    Labahn (SIAM J. Matrix Anal. Appl. 15, 1994) with shifted degrees
    delta_c = -d_c, kept as residual series only: at each order t the live
    series with the least delta (lowest index on ties) eliminates
    coefficient t from the others, is multiplied by y, and its delta grows
    by 1.  The relations within the bounds number sum max(0, 1 - delta_c).
    delta only grows, so the walk stops once every live delta is positive,
    and a pivot alone nonzero at t takes every order up to the next wake.
    """
    import numpy as np
    K, D = window_K, depth
    residues = _field(steps)
    # P mod p, the running products by doubling; a zero residue reads as 1.
    prefix = np.ones((residues.shape[0], D + 1), dtype=np.int64)
    prefix[:, 1:] = np.where(residues == 0, 1, residues)
    shift = 1
    while shift <= D:
        prefix[:, shift:] = prefix[:, shift:] * prefix[:, :-shift] % MODULUS
        shift *= 2
    cuts = [np.flatnonzero(r == 0).tolist() for r in residues]
    components = {}  # (j, a) -> (d_c, {exponent: coefficient})
    for (j, s), x in zip(support, _field(list(support.values())).tolist()):
        n = bisect_left(cuts[j], s)  # the cuts of branch j below s
        a = cuts[j][n - 1] + 1 if n else 0
        if x == 0 or a > K:
            continue  # a zero coefficient, or no window row reaches s
        end = min(cuts[j][n], K) if n < len(cuts[j]) else K
        terms = components.setdefault((j, a), (end - a, {}))[1]
        terms[D - s + a] = x * int(prefix[j, s]) % MODULUS
    keys = sorted(components)
    bounds = [components[key][0] for key in keys]
    wake = [min(components[key][1]) for key in keys]  # no live series is nonzero below wake
    rows = [np.zeros(D + 1, dtype=np.int64) for _ in keys]  # one array per series
    for row, key in zip(rows, keys):
        row[list(components[key][1])] = list(components[key][1].values())
    delta = [-d for d in bounds]
    shifted = [0] * len(keys)  # series c holds its coefficient t at t - shifted[c]
    live = list(range(len(keys)))
    needy = len(live)  # live series with delta < 1: every series starts at delta <= 0
    scratch = np.empty(D + 1, dtype=np.int64)
    t = min(wake, default=D + 1)
    while t <= D and needy:
        hot = []  # (delta, c, coefficient t of c, c from order t on)
        for c in [c for c in live if wake[c] == t]:  # a copy: a dead series leaves ``live``
            rest = rows[c][t - shifted[c]: D + 1 - shifted[c]]
            if x := rest.item(0):
                hot.append((delta[c], c, x, rest))
                continue
            nonzero = rest.nonzero()[0]
            if nonzero.size:
                wake[c] = t + nonzero.item(0)
            else:
                live.remove(c)
                needy -= delta[c] < 1
        if len(hot) == 1:  # the pivot of every order until another series wakes
            pivot, step = hot[0][1], min([wake[c] for c in live if wake[c] > t], default=D + 1) - t
        else:
            _, pivot, head, tail = min(hot)  # the least delta, then the least c
            product = scratch[: tail.size]
            for _, c, x, rest in hot:
                if c != pivot:
                    # residues are below 2^31: every step fits in int64
                    np.multiply(tail, x, out=product)
                    np.multiply(rest, head, out=rest)
                    np.subtract(rest, product, out=rest)
                    np.remainder(rest, MODULUS, out=rest)
                    wake[c] = t + 1
            step = 1
        shifted[pivot] += step
        delta[pivot] += step
        needy -= delta[pivot] - step < 1 <= delta[pivot]
        wake[pivot] = t = t + step
    return sum(bounds) + len(bounds) - sum(max(0, 1 - d) for d in delta)


def verify_cyclic_candidate(spec: BackwardShiftSpec, candidate: CyclicCandidate,
                            window_K: int) -> KrylovVerification:
    """Krylov witness on the K-window.

    B is truncated at the candidate's deepest support point (the action of B
    only moves support down, so the iterates B^k f are exact there).  The
    window projections {e_{j,k}: k <= K} of the iterates form a matrix known
    in closed form.  Its rank over F_p (``modulus``) is exact and comes from
    an order basis of its row series (``_rank_from_order_basis``), with no
    matrix built: rank mod p is at most the true rank, so a full rank is
    ``certified``, and anything less is "not certified", never "not cyclic".
    Only the k_L + 1 columns up to the deepest support point k_L can be
    nonzero (``support_columns``), so fewer of them than rows leaves the rank
    short by counting.
    """
    dim_window = spec.branches * (window_K + 1)
    if dim_window > DIMENSION_CAP:
        raise DimensionCap(dim_window, DIMENSION_CAP)
    deepest = max(k for _, k in candidate.schedule)
    depth = max(deepest, window_K)
    rank = _rank_from_order_basis(_support(candidate), spec.steps(depth), window_K, depth)
    return KrylovVerification(rank=rank, dimension=dim_window, columns=depth + 1,
                              certified=rank == dim_window, modulus=MODULUS,
                              support_columns=deepest + 1)


def _unit_interval(wdoc: dict, key: str) -> float:
    """A weight-rule number in (0, 1]; NaN and non-numbers are rejected."""
    value = wdoc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value <= 1.0:
        raise WeightError(f"backward {wdoc.get('kind')} weight {key} must be a number "
                          f"in (0, 1], got {shown(value)}")
    return float(value)


def backward_spec_from_json(doc) -> BackwardShiftSpec:
    """{"branches": k, "weights": {"kind": "constant"|"hash-random", ...},
    "zeros": [[j, k], ...]}

    Validated before anything runs: the rule must give weights in (0, 1] (a
    constant ``value`` in (0, 1]; a hash-random ``low`` <= ``high`` in (0, 1]
    and an integer ``seed``), so zero weights enter only as listed ``zeros``.
    Bad weights raise WeightError; bad JSON or a bad shape TreeSpecError.
    """
    doc = decoded(doc, TreeSpecError, "a backward shift spec")
    if not isinstance(doc, dict):
        raise TreeSpecError(f"a backward shift spec must be a JSON object, got {shown(doc)}")
    wdoc = doc.get("weights", {"kind": "constant", "value": 1.0})
    if not isinstance(wdoc, dict):
        raise WeightError(f"backward weights must be a JSON object, got {shown(wdoc)}")
    if wdoc.get("kind") == "constant":
        rule = _unit_interval(wdoc, "value")
    elif wdoc.get("kind") == "hash-random":
        low, high = _unit_interval(wdoc, "low"), _unit_interval(wdoc, "high")
        if low > high:
            raise WeightError(f"backward hash-random weights need low <= high, "
                              f"got {low} > {high}")
        rule = uniform_weight_rule(_integer(wdoc.get("seed", 0), "backward hash-random seed"),
                                   low, high)
    else:
        raise WeightError(f"unknown backward weight kind {shown(wdoc.get('kind'))}")
    branches = _integer(_required(doc, "branches", "a backward shift spec", TreeSpecError),
                        "backward branches", TreeSpecError)
    zeros = doc.get("zeros", [])
    if not isinstance(zeros, list) or not all(isinstance(z, list) and len(z) == 2
                                              for z in zeros):
        raise TreeSpecError(f"backward zeros must be a list of [branch, index] pairs, "
                            f"got {shown(zeros)}")
    zeros = [(_integer(j, "zero branch", TreeSpecError),
              _integer(k, "zero index", TreeSpecError)) for j, k in zeros]
    return BackwardShiftSpec(branches, rule, zeros=zeros)


class CyclicityVerdict(Record):
    # verdict: cyclic | non-cyclic | adjoint-cyclic | unknown
    __slots__ = _fields = ("verdict", "rule", "anchors", "reason", "blockers")
    _defaults = {"blockers": []}

    def to_json(self):
        doc = super().to_json()
        if not self.blockers:
            del doc["blockers"]
        return doc


def _verdict(verdict, rule, reason, blockers=()):
    return CyclicityVerdict(verdict=verdict, rule=rule,
                            anchors=list(VERDICT_ANCHORS.get(rule, ())), reason=reason,
                            blockers=list(blockers))


def backward_shift_verdict(spec: BackwardShiftSpec) -> CyclicityVerdict:
    """Zero-weight characterization: cyclic iff at most one zero weight."""
    zeros = len(spec.zero_positions)
    if zeros <= 1:
        return _verdict("cyclic", "R3", f"backward shift with {zeros} zero weight(s)")
    return _verdict("non-cyclic", "R3",
                    f"backward shift with {zeros} zero weights: range co-dimension >= 2")


def cyclicity_verdict(model, classification) -> CyclicityVerdict:
    """Verdict for a shift on a tree: the first matching structural/asymptotic
    rule wins; Unknown lists blockers.

    `classification` provides `.forward` and `.adjoint` in
    {C0dot, C1dot, Cdot0, Cdot1, mixed, undetermined}.
    """
    br = branching_index(model)
    nleaves = len(leaves(model))
    rooted = model.is_rooted
    fwd = classification.forward
    adj = classification.adjoint

    if rooted and br > 0:
        return _verdict("non-cyclic", "R1", f"rooted with Br={br}: co-rank of S exceeds 1")
    if not rooted and br > 1:
        return _verdict("non-cyclic", "R2",
                        f"rootless with Br={count_text(br)} > 1: co-rank exceeds 1")
    if not rooted and br == 1 and nleaves == 2:
        return _verdict("cyclic", "R4", "rootless, Br=1, two leaves: similar to a cyclic "
                                        "backward shift plus a nilpotent block")
    if not rooted and br == 1 and nleaves == 1 and adj in ("Cdot1", "mixed"):
        return _verdict("cyclic", "R5", "rootless, Br=1, one leaf, adjoint orbit limits "
                                        "nonvanishing: the bilateral part is cyclic")
    if not rooted and br == 0 and nleaves == 0 and adj == "Cdot1":
        return _verdict("cyclic", "R5'", "contractive bilateral shift of class C·1")
    if not rooted and br == 1 and fwd == "C1dot":
        return _verdict("non-cyclic", "R6", "rootless Br=1 of class C1·: the isometric "
                                            "asymptote is the non-cyclic bilateral+unilateral sum")
    if rooted and fwd == "C1dot":
        return _verdict("adjoint-cyclic", "R7", "rooted C1· shift: the adjoint is cyclic")
    if not rooted and br != math.inf and fwd == "C1dot":
        return _verdict("adjoint-cyclic", "R8", "rootless C1· shift with finite Br: the "
                                                "adjoint is cyclic")

    blockers = []
    if fwd == "undetermined" or adj == "undetermined":
        blockers.append("classification undetermined at this depth/threshold")
    if not rooted and br == 0 and nleaves == 0:
        blockers.append("rootless bilateral shift outside the C·1 sufficient condition: "
                        "no characterization is available")
    if not rooted and br == 1 and nleaves == 1:
        blockers.append("one-leaf Br=1 tree with stable adjoint orbits: cyclicity equals "
                        "that of the underlying bilateral shift, which is undecided")
    if not blockers:
        blockers.append("no rule matches this configuration")
    return _verdict("unknown", None, "no decisive rule", blockers)
