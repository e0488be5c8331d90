"""Explicit similarity and quasiaffinity witnesses for the Br=1 tree shapes.

Both constructions intertwine the adjoint of the shift with the adjoint of a
decoupled target operator (a spine shift plus an independent primed-ray
shift) through an operator X that fixes the spine basis vectors and sends
each primed basis vector to the normalized difference vector g_k.  X is
block-diagonal over the two-dimensional spaces spanned by {e_k, e_k'}, so
invertibility is certified block by block: the blocks have uniformly bounded
inverses exactly when the primed-to-spine weight-product ratios stay
bounded.
"""

from __future__ import annotations

import math

from .asymptotics import require_contraction
from .errors import ShapeMismatch, WeightError
from .records import Record
from .shifts import ShiftOperator
from .sparse import SparseVector, nan_max
from .trees import TreeWindow, _is_primed, _primed_id, _primed_index

BLOW_UP = 1e6  # a partial ratio product above this is evidence of unbounded ratios


def _require_comb(operator: ShiftOperator, need_leaf: bool):
    model = operator.model
    if not model.has_primed_ray:
        raise ShapeMismatch(f"expected a comb/tilde model, got {model.describe()}")
    if need_leaf and model.primed_leaf is None:
        raise ShapeMismatch("construction needs a primed leaf")
    if not need_leaf and model.leaf_set():
        raise ShapeMismatch("construction needs the leafless tilde shape")
    return model


def ray_products(operator: ShiftOperator, upto: int):
    """(spine, primed) cumulative weight products lambda_1..k and lambda_1'..k'.

    The g vectors need their reciprocals, so a product that is 0, or so small
    that its reciprocal overflows, raises WeightError.
    """
    spine, primed = [1.0], [1.0]
    for j in range(1, upto + 1):
        spine.append(spine[-1] * operator.weight(str(j)))
        primed.append(primed[-1] * operator.weight(_primed_id(j)))
        for name, product in (("spine", spine[-1]), ("primed", primed[-1])):
            if product == 0.0 or math.isinf(1.0 / product):
                raise WeightError(f"the {name} weight product down to level {j} is {product!r}, "
                                  "too small for a finite reciprocal")
    return spine, primed


def _g_table(operator: ShiftOperator, upto: int) -> tuple:
    """({k: g_k}, {k: |g_k|}) for k = 1..upto, with |g_0| = 1, from one walk
    of the ray products; a norm that overflows raises WeightError."""
    spine, primed = ray_products(operator, upto)
    g, norms = {}, {0: 1.0}
    for k in range(1, upto + 1):
        g[k] = SparseVector({str(k): 1.0 / spine[k], _primed_id(k): -1.0 / primed[k]})
        norms[k] = math.hypot(1.0 / spine[k], 1.0 / primed[k])
        if math.isinf(norms[k]):
            raise WeightError(f"the g vector at level {k} has no finite norm: the weight "
                              f"products down to it are {spine[k]!r} and {primed[k]!r}")
    return g, norms


def g_vector(operator: ShiftOperator, k: int) -> SparseVector:
    """g_k = (prod 1/lambda_j) e_k - (prod 1/lambda_j') e_k'."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _g_table(operator, k)[0][k]


def g_norm(operator: ShiftOperator, k: int) -> float:
    return _g_table(operator, k)[1][k]


class RatioCertificate(Record):
    """Boundedness report for the primed-to-spine product ratios."""

    # status: bounded | unbounded-evidence
    __slots__ = _fields = ("status", "sup", "exact", "at", "value")
    _defaults = {"at": None, "value": None}

    def to_json(self):
        doc = super().to_json()
        if self.at is None:  # no partial product passed the blow-up bound
            del doc["at"], doc["value"]
        return doc


def _geometric_term(first: float, step: float, n: int) -> float:
    """first * step^n; when step^n alone overflows, the power is split in two
    factors applied one after the other, so a finite product stays finite."""
    try:
        return first * step ** n
    except OverflowError:
        return first * step ** (n // 2) * step ** (n - n // 2)


def ratio_bounded(operator: ShiftOperator, horizon: int = 64) -> RatioCertificate:
    """Track partial maxima of prod_{j<=k} lambda_j'/lambda_j.

    On an endless primed ray, a geometric ratio law (the weights'
    ``ratio_geometric``) is decided in closed form.  Otherwise the partial
    maxima run to the horizon, with an evidence certificate as soon as a
    partial product exceeds ``BLOW_UP``.  When the tail is a level law, which
    gives k and k' the same weight, the ratios settle at 1 past the head's
    levels: the run goes at least that far, and the sup is exact.  A primed
    ray that ends at a leaf within the horizon is walked to its leaf and no
    further: its sup is a maximum, exact and bounded whatever the law.
    """
    w, leaf = operator.weights, operator.model.primed_leaf
    law = w.ratio_geometric() if leaf is None else None
    if law is not None:
        first, step = law
        if step <= 1.0:
            return RatioCertificate("bounded", first, True)
        if first > BLOW_UP:
            return RatioCertificate("unbounded-evidence", first, True, at=1, value=first)
        # the least k with first * step^(k-1) > BLOW_UP; the log estimate may be a few off
        k = 1 + max(1, math.ceil((math.log(BLOW_UP) - math.log(first)) / math.log(step)))
        while _geometric_term(first, step, k - 1) <= BLOW_UP:
            k += 1
        while k > 2 and _geometric_term(first, step, k - 2) > BLOW_UP:
            k -= 1
        value = _geometric_term(first, step, k - 1)
        return RatioCertificate("unbounded-evidence", value, True, at=k, value=value)
    exact = w.tail is not None and w.tail.level_only
    if exact:
        model = operator.model
        horizon = max([horizon] + [abs(model.level(v)) + 1 for v in w.head if v in model])
    ends = leaf is not None and leaf <= horizon
    if ends:
        horizon, exact = leaf, True
    ratio = 1.0
    sup = 0.0
    for k in range(1, horizon + 1):
        ratio *= operator.weight(_primed_id(k)) / operator.weight(str(k))
        sup = max(sup, ratio)
        if ratio > BLOW_UP and not ends:
            return RatioCertificate("unbounded-evidence", sup, exact, at=k, value=ratio)
    return RatioCertificate("bounded", sup, exact)


class SimilarityWitness(Record):
    """Intertwining operator X plus the decoupled target it conjugates to."""

    # kind: leaf-similarity | tilde-quasiaffinity
    # mode: similar | quasiaffine-only
    # blocks: per-k block reports
    # target_primed_weights: k -> weight into k'
    # g_vectors: k -> g_k, for the primed columns of X
    __slots__ = _fields = ("kind", "mode", "blocks", "residual", "ratio", "window", "operator",
                           "target_primed_weights", "g_norms", "g_vectors")
    _unshown = ("operator",)

    def block_inverse_bound(self) -> float:
        return max((b["inverse_norm"] for b in self.blocks), default=1.0)

    def to_json(self):
        return {"kind": self.kind, "mode": self.mode, "residual": self.residual,
                "blocks": self.blocks,
                "ratio": self.ratio.to_json() if self.ratio else None,
                "block_inverse_bound": self.block_inverse_bound()}

    # -- dense window realizations (oracle food) --

    def x_matrix(self) -> np.ndarray:
        """X on the window basis, column by column from ``_x_apply``."""
        import numpy as np
        win = self.window
        mat = np.zeros((len(win), len(win)))
        for j, u in enumerate(win.order):
            for v, c in _x_apply(self.g_vectors, self.g_norms, SparseVector.basis(u)).items():
                mat[win.index_of(v), j] = c
        return mat

    def target_matrix(self) -> np.ndarray:
        """W + N (or the tilde analogue) on the window basis: the transpose of
        the window compression of ``_target_adjoint``."""
        import numpy as np
        win = self.window
        mat = np.zeros((len(win), len(win)))
        for j, u in enumerate(win.order):
            for v, c in _target_adjoint(self.operator, self.target_primed_weights, u).items():
                if v in win:
                    mat[j, win.index_of(v)] = c
        return mat


def _x_apply(g: dict, norms: dict, x: SparseVector) -> SparseVector:
    """X x, with X e_k' = g_k / |g_k| for the k in ``g`` and X e_u = e_u otherwise."""
    out = SparseVector()
    for u, c in x.items():
        if _is_primed(u) and _primed_index(u) in g:
            k = _primed_index(u)
            out.add_scaled(g[k], c / norms[k])
        else:
            out.coeffs[u] = out.coeffs.get(u, 0.0) + c
    out.coeffs = {k: c for k, c in out.coeffs.items() if c != 0.0}
    return out


def _target_adjoint(operator: ShiftOperator, target_primed: dict, u: str) -> SparseVector:
    """T* e_u for the decoupled target T: the spine shifts with the original
    weights, the primed ray with the weights ``target_primed`` (k -> weight
    into k'), and the branch edge into 1' carries nothing."""
    if not _is_primed(u):
        return SparseVector({str(int(u) - 1): operator.weight(u)})
    k = _primed_index(u)
    return SparseVector({_primed_id(k - 1): target_primed[k]}) if k > 1 else SparseVector()


def _witness(operator, window, kind, mode, ratio, primed_max) -> SimilarityWitness:
    """Assemble the g vectors and their norms, blocks, target weights, and the
    adjoint intertwining residual, all from one table of ray products.

    Block k is B = [[1, a], [0, b]], the coordinates of e_k and the
    normalized g_k (a = p/|g_k| and b = -q/|g_k|, with p and q the reciprocal
    spine and primed weight products), so det B = b exactly, and B^-1 = [[1, x], [0, y]] (x = -a/b, y = 1/b) has
    the 2-norm (hypot(1 + |y|, x) + hypot(1 - |y|, x)) / 2, the largest
    singular value of a 2 x 2 matrix in closed form: no cancellation, and
    no weight ratio is squared.  A block whose inverse norm overflows raises
    WeightError, as ``_g_table`` does for a g norm.
    """
    g, norms = _g_table(operator, primed_max)
    blocks = []
    for k in range(1, primed_max + 1):
        a, b = g[k][str(k)] / norms[k], g[k][_primed_id(k)] / norms[k]
        x, y = (-a / b, abs(1.0 / b)) if b else (math.inf, math.inf)  # b underflowed to 0
        inverse_norm = (math.hypot(1.0 + y, x) + math.hypot(1.0 - y, x)) / 2.0
        if math.isinf(inverse_norm):
            raise WeightError(f"the block at level {k} has no finite inverse norm: its "
                              f"determinant is {b!r}")
        blocks.append({"k": k, "det": b, "inverse_norm": inverse_norm})
    target_primed = {k: norms[k - 1] / norms[k] for k in range(2, primed_max + 1)}
    residual = 0.0
    for u in window.order:
        p = operator.parent(u)
        if p is None or p not in window:
            continue
        lhs = _x_apply(g, norms, _target_adjoint(operator, target_primed, u))
        rhs = operator.apply_adjoint(_x_apply(g, norms, SparseVector.basis(u)))
        residual = nan_max(residual, (lhs - rhs).norm())

    return SimilarityWitness(kind=kind, mode=mode, blocks=blocks, residual=residual,
                             ratio=ratio, window=window, operator=operator,
                             target_primed_weights=target_primed, g_norms=norms,
                             g_vectors=g)


def build_leaf_similarity(operator: ShiftOperator, window: TreeWindow) -> SimilarityWitness:
    """Similarity of a Br=1 shift with a primed leaf to the direct sum of a
    spine shift and a nilpotent block on the primed ray."""
    model = _require_comb(operator, need_leaf=True)
    return _witness(operator, window, "leaf-similarity", "similar", None, model.primed_leaf)


def build_tilde_quasiaffinity(operator: ShiftOperator, window: TreeWindow) -> SimilarityWitness:
    """Quasiaffinity (always) or similarity (bounded ratios) of a leafless
    Br=1 shift to the direct sum of a bilateral and a unilateral shift."""
    _require_comb(operator, need_leaf=False)
    require_contraction(operator, window)
    primed_max = max((lvl for lvl in window.levels() if _primed_id(lvl) in window), default=0)
    if primed_max < 1:
        raise ShapeMismatch("window does not reach the primed ray")
    cert = ratio_bounded(operator, horizon=max(64, primed_max))
    mode = "similar" if cert.status == "bounded" else "quasiaffine-only"
    return _witness(operator, window, "tilde-quasiaffinity", mode, cert, primed_max)


class Decomposition(Record):
    __slots__ = _fields = ("e_part", "g_part", "mu", "nu", "residual")


def direct_sum_decomposition(x: SparseVector, operator: ShiftOperator) -> Decomposition:
    """Split x into a spine part and a g-span part on the tilde shape.

    mu_k is the coefficient against the normalized g_k; nu_n the remaining
    spine coefficient.  Reconstruction is exact on finite supports.
    """
    model = _require_comb(operator, need_leaf=False)
    levels = {u: model.level(u) for u in x.coeffs}
    g, norms = _g_table(operator, max((abs(lvl) for lvl in levels.values()), default=0))

    mu, nu = {}, {}
    g_part = SparseVector()
    e_part = SparseVector()
    for k in g:
        # g_k = p e_k - q e_k', so mu_k matches x's e_k' coefficient and
        # nu_k is what that leaves of x's e_k coefficient
        p, q = g[k][str(k)], -g[k][_primed_id(k)]
        xi_p = x[_primed_id(k)]
        mu_k = -xi_p * norms[k] / q
        nu_k = x[str(k)] + (p / q) * xi_p
        if mu_k != 0.0:
            mu[k] = mu_k
            g_part.add_scaled(g[k], mu_k / norms[k])
        if nu_k != 0.0:
            nu[k] = nu_k
            e_part.coeffs[str(k)] = nu_k
    for u, lvl in levels.items():
        if lvl <= 0:
            nu[lvl] = x[u]
            e_part.coeffs[u] = x[u]
    residual = (x - (e_part + g_part)).norm()
    return Decomposition(e_part, g_part, mu, nu, residual)
