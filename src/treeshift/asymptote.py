"""Isometric asymptotes of a contractive shift and of its adjoint.

The asymptote of the shift is itself a weighted shift on the stable subtree,
with weights rescaled by square roots of consecutive forward limits; it is
classified as a unilateral shift, a completely-non-unitary unilateral shift,
or a bilateral-plus-unilateral sum, depending on rootedness and on whether
the generation sums of its infinite weight products vanish.
"""

from __future__ import annotations

import math

from .errors import AdjointStable, StableSubtreeEmpty
from .asymptotics import (
    AdjointAsymptotics,
    AlphaEvaluator,
    AsymptoticProfile,
    CONVERGED,
    DEFAULT_MAX_DEPTH,
    DEFAULT_ZERO_THRESHOLD,
    EXACT_ONE,
    EXACT_ZERO,
    StableSubtree,
    ancestor_products,
)
from .records import Record
from .shifts import ShiftOperator
from .sparse import SparseVector, nan_max
from .trees import TreeWindow, count_text

UNILATERAL = "unilateral"
CNU_UNILATERAL = "cnu-unilateral"
BILATERAL_PLUS = "bilateral-plus-unilateral"

_USABLE = (CONVERGED, EXACT_ONE)


def _beta(weight: float, alpha_child: float, alpha_parent: float) -> float:
    """beta_v = lambda_v sqrt(alpha(v) / alpha(parent v)), the asymptote's weight."""
    return weight * math.sqrt(alpha_child / alpha_parent)


class AsymptoteDescriptor(Record):
    """Weights and classification of the isometric asymptote U = S_beta."""

    # beta: vertex -> weight, on stable-subtree interior window vertices
    # multiplicity: count or math.inf
    __slots__ = _fields = ("beta", "classification", "multiplicity", "cnu_value", "stable",
                           "operator", "alpha")
    _unshown = ("operator", "alpha")

    def to_json(self):
        return {"beta": {k: v for k, v in sorted(self.beta.items())},
                "class": self.classification, "multiplicity": count_text(self.multiplicity),
                "cnu_test": self.cnu_value}

    def dense_truncation(self, window: TreeWindow):
        """Matrix of U compressed to the stable members of the window; returns
        (matrix, member order)."""
        import numpy as np
        members = [u for u in window.order if u in self.stable.members]
        index = {u: i for i, u in enumerate(members)}
        mat = np.zeros((len(members), len(members)))
        for j, u in enumerate(members):
            for v in self.stable.children_in(u):
                if v in index:
                    mat[index[v], j] = self.beta[v] if v in self.beta else self._beta_at(v)
        return mat, members

    def _beta_at(self, v):
        return _beta(self.operator.weight(v), self.alpha(v).estimate,
                     self.alpha(self.operator.parent(v)).estimate)


def cnu_level_value(operator: ShiftOperator, alpha: AlphaEvaluator, members, depth: int,
                    threshold: float) -> float:
    """Truncated generation sum of the asymptote's squared weight products
    over ``members``, stable vertices of one level.

    The product of beta^2 along the chain from the depth-D ancestor down to a
    member telescopes to (product of lambda^2) * alpha(member)/alpha(anchor),
    so no per-ancestor beta values are needed.  Each member adds the term of
    its own ancestor chain, in member order; a rooted chain stops at the
    root, its anchor.
    """
    total = 0.0
    for v in members:
        prods, w = ancestor_products(operator, v, depth)
        anchor = alpha(w if w is not None else operator.model.root).estimate
        if anchor <= threshold:
            continue
        total += (prods[-1] if prods else 1.0) * alpha(v).estimate / anchor
    return total


def isometric_asymptote(operator: ShiftOperator, profile: AsymptoticProfile,
                        stable: StableSubtree,
                        depth: int = DEFAULT_MAX_DEPTH) -> AsymptoteDescriptor:
    """Construct U = S_beta on the stable subtree and classify it; the c.n.u.
    test reads the subtree's own zero threshold."""
    if not stable.members:
        raise StableSubtreeEmpty("the shift is stable; no isometric asymptote of interest")
    zero_threshold = stable.zero_threshold
    alpha = profile.evaluator
    model = operator.model

    beta = {}
    for v in stable.members:
        p = operator.parent(v)
        if p is None or p not in stable.members:
            continue
        rv, rp = profile.record(v), profile.record(p)
        if rv.status in _USABLE and rp.status in _USABLE:
            beta[v] = _beta(operator.weight(v), rv.estimate, rp.estimate)

    br = stable.branching[0]
    if model.is_rooted:
        mult = br + 1 if br != math.inf else math.inf
        cls, cnu_value = UNILATERAL, None
    else:
        # The sum is level-independent in the limit; it is taken at the top
        # window level that holds stable members.
        members = next(filter(None, map(stable.members_at, stable.window.levels())))
        cnu_value = cnu_level_value(operator, alpha, members, depth, zero_threshold)
        cls = CNU_UNILATERAL if cnu_value <= zero_threshold else BILATERAL_PLUS
        mult = br
    return AsymptoteDescriptor(beta, cls, mult, cnu_value, stable, operator, alpha)


class AdjointAsymptoteDescriptor(Record):
    """The adjoint's asymptote acts level-to-level on the h eigenvectors."""

    # shift_type: simple-unilateral | simple-bilateral
    # coefficients: level -> sqrt(a_level / a_parent_level)
    __slots__ = _fields = ("shift_type", "coefficients", "h_vectors")

    def to_json(self):
        return {"type": self.shift_type,
                "coefficients": {str(k): v for k, v in sorted(self.coefficients.items())}}


def adjoint_isometric_asymptote(operator: ShiftOperator,
                                adjoint: AdjointAsymptotics,
                                zero_threshold: float = DEFAULT_ZERO_THRESHOLD
                                ) -> AdjointAsymptoteDescriptor:
    if operator.model.is_rooted:
        raise AdjointStable("rooted tree: the adjoint orbits are stable")
    levels = sorted(adjoint.h_vectors)
    if all(adjoint.h_vectors[lvl].norm_sq <= zero_threshold for lvl in levels):
        raise AdjointStable("all adjoint limit eigenvalues vanish at this threshold")
    coefficients = {}
    for lvl in levels:
        a = adjoint.h_vectors[lvl].norm_sq
        below = adjoint.h_vectors.get(lvl - 1)
        if below is not None and below.norm_sq > zero_threshold:
            coefficients[lvl] = math.sqrt(a / below.norm_sq)
    shift_type = "simple-unilateral" if operator.model.has_last_level else "simple-bilateral"
    return AdjointAsymptoteDescriptor(shift_type, coefficients, dict(adjoint.h_vectors))


def intertwining_residual(operator: ShiftOperator, descriptor: AsymptoteDescriptor,
                          profile: AsymptoticProfile, window: TreeWindow) -> float:
    """max over stable interior basis vectors of || A^(1/2) S e_u - U A^(1/2) e_u ||."""
    worst = 0.0
    interior = set(window.forward_interior())
    for u in descriptor.stable.members & interior:
        lhs = SparseVector()
        for v in operator.children(u):
            rec = profile.record(v) if v in window else descriptor.alpha(v)
            lhs.coeffs[v] = operator.weight(v) * math.sqrt(max(rec.estimate, 0.0))
        rhs = SparseVector()
        root_a = math.sqrt(profile.record(u).estimate)
        for v in descriptor.stable.children_in(u):
            if v in descriptor.beta:
                rhs.coeffs[v] = root_a * descriptor.beta[v]
        worst = nan_max(worst, (lhs - rhs).norm())
    return worst


def adjoint_intertwining_residual(operator: ShiftOperator,
                                  descriptor: AdjointAsymptoteDescriptor) -> float:
    """max over levels of || A_*^(1/2) S* h_l - U_* A_*^(1/2) h_l ||.

    Per level, A_*^(1/2) projects onto the h vector and scales by its norm, so
    the residual reduces to |<S* h_l, h_(l-1)> - a_l| / sqrt(a_(l-1)).
    """
    worst = 0.0
    for lvl, h in descriptor.h_vectors.items():
        below = descriptor.h_vectors.get(lvl - 1)
        if below is None or below.norm_sq <= 0.0:
            continue
        image = operator.apply_adjoint(h.coefficients)
        inner = image.dot(below.coefficients)
        worst = nan_max(worst, abs(inner - h.norm_sq) / math.sqrt(below.norm_sq))
    return worst


class SimilarityAnswer(Record):
    # answer: yes | no | undetermined
    __slots__ = _fields = ("answer", "reason")


def similar_to_isometry(operator: ShiftOperator, profile: AsymptoticProfile,
                        zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> SimilarityAnswer:
    """Similarity to an isometry holds iff the forward limits are bounded away
    from zero; Yes needs a symbolic global infimum, No a vanishing limit."""
    for u in profile.window.order:
        rec = profile.record(u)
        if rec.status == EXACT_ZERO:
            return SimilarityAnswer("no", f"forward limit vanishes exactly at {u}")
        if rec.status == CONVERGED and rec.estimate <= zero_threshold:
            return SimilarityAnswer("no", f"forward limit below {zero_threshold} at {u}")
    if operator.is_certified_isometry():
        return SimilarityAnswer("yes", "certified isometry: all forward limits are 1")
    log_infimum = operator.weights.chain_log_infimum(operator.model)
    if log_infimum == -math.inf:
        if math.isfinite(operator.weights.tail_log_sum(0)):
            return SimilarityAnswer("no", "closed form on a chain: the forward limits "
                                          "fall to 0 as the level falls")
        return SimilarityAnswer("no", "closed form on a chain: the forward limits vanish")
    if log_infimum is not None:
        return SimilarityAnswer("yes", f"closed-form infimum {math.exp(log_infimum):.6g} > 0")
    return SimilarityAnswer("undetermined", "no symbolic infimum for this family")


def similar_to_coisometry(operator: ShiftOperator, window: TreeWindow) -> SimilarityAnswer:
    """Structural gate (rootless, no branching) and then positivity of the
    full weight product from the family's closed form."""
    model = operator.model
    if model.is_rooted:
        return SimilarityAnswer("no", "rooted tree cannot carry a co-isometry similarity")
    if any(len(operator.children(u)) > 1 for u in window):
        return SimilarityAnswer("no", "branching vertex present: |Chi(u)| <= 1 fails")
    if model.branching_total() > 0:
        return SimilarityAnswer("no", "family has positive branching index")
    closed = operator.weights.full_product_positive()
    if closed is True:
        return SimilarityAnswer("yes", "full weight product positive (closed form)")
    if closed is False:
        return SimilarityAnswer("no", "full weight product vanishes (closed form)")
    return SimilarityAnswer("undetermined", "no closed form for the full weight product")


def boundary_deficiency(window: TreeWindow, members=None) -> int:
    """Rows of a window truncation unreachable only because their parent lies
    outside the window: the artificial part of a window cokernel."""
    return sum(members is None or u in members for u in window.top_boundary())
