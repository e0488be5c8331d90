"""The forward fixed point S*AS = A on random windows.

``alpha_profile`` reads a window vertex off its children by
alpha(u)^2 = sum of lambda_v^2 alpha(v)^2 when they all lie in the window,
and descends from every other vertex.  Windows are drawn on tilde, comb and
the bilateral path with explicit weight maps padded with 1, and on the two
paths with the step, geometric and exp-ray level laws.  Every law has
largest weight 1, so the family bound closes none of them.
"""

import math
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeshift.asymptotics import (
    CONVERGED,
    DEFAULT_MAX_DEPTH,
    EXACT_ZERO,
    MAX_DEPTH,
    AlphaEvaluator,
    VertexEstimate,
    alpha_profile,
)
from treeshift.shifts import ShiftOperator
from treeshift.trees import make_family, materialize_window
from treeshift.weights import ExpRayWeights, GeometricWeights, MapWeights, StepWeights

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
WEIGHTS = st.floats(0.3, 1.0)
# perfbench's slack on the forward upper bound s_4
UPPER_BOUND_SLACK = 1e-12


@st.composite
def map_cases(draw):
    """A window on tilde, comb or the bilateral path with some of its
    weights (and some just past it) drawn, the rest 1; the two children of
    tilde's and comb's branch vertex share a squared sum of at most 1."""
    family = draw(st.sampled_from(["tilde", "comb", "bilateral-path"]))
    params = {"primed_leaf": draw(st.integers(1, 6))} if family == "comb" else {}
    lo = draw(st.integers(-6, 3))
    hi = draw(st.integers(lo, lo + 8))
    values = {str(n): draw(WEIGHTS) for n in range(lo - 2, hi + 4) if draw(st.booleans())}
    if family != "bilateral-path":
        values.update({f"{k}'": draw(WEIGHTS) for k in range(2, hi + 4) if draw(st.booleans())})
        theta = draw(st.floats(0.1, math.pi / 2 - 0.1))
        scale = draw(st.floats(0.5, 1.0))
        values["1"], values["1'"] = scale * math.cos(theta), scale * math.sin(theta)
    return make_family(family, params), MapWeights(values, default=1.0), lo, hi


@st.composite
def law_cases(draw):
    """A window on the bilateral or the rooted path under a level law whose
    largest weight is 1."""
    family = draw(st.sampled_from(["bilateral-path", "rooted-path"]))
    kind = draw(st.sampled_from(["step", "geometric", "exp-ray"]))
    if kind == "step":
        other = draw(WEIGHTS)
        low, high = (1.0, other) if draw(st.booleans()) else (other, 1.0)
        weights = StepWeights(low, high, cut=draw(st.integers(-4, 4)))
    elif kind == "geometric":
        weights = GeometricWeights(1.0, draw(st.floats(0.5, 1.0)))
    else:
        weights = ExpRayWeights(draw(st.floats(1.5, 4.0)), draw(st.integers(-4, 4)))
    lo = 0 if family == "rooted-path" else draw(st.integers(-6, 3))
    hi = draw(st.integers(lo, lo + 8))
    return make_family(family), weights, lo, hi


def partial_sum(model, weights, u, depth):
    """s_depth(u), walked from the model and the weights alone."""
    frontier = {u: 1.0}
    for _ in range(depth):
        frontier = {v: prod * weights.weight(model, v) ** 2
                    for w, prod in frontier.items() for v in model.children(w)}
    return sum(frontier.values())


def test_window_records_satisfy_the_forward_fixed_point():
    weakest_first = (MAX_DEPTH, CONVERGED, EXACT_ZERO)
    seen = Counter()

    @FUZZ
    @given(case=st.one_of(map_cases(), law_cases()))
    def check(case):
        model, weights, lo, hi = case
        window = materialize_window(model, lo, hi)
        profile = alpha_profile(ShiftOperator(model, weights), window)
        assert profile.evaluator.closed is None
        records = profile.records
        for u in window.order:
            rec = records[u]
            kids = model.children(u)
            depth = max((records[v].depth for v in kids if v in window), default=0)
            if all(v in window for v in kids) and depth < DEFAULT_MAX_DEPTH:
                terms = [(weights.weight(model, v) ** 2, records[v]) for v in kids]
                status = min((r.status for _, r in terms), key=weakest_first.index,
                             default=EXACT_ZERO)
                want = VertexEstimate(u, sum((sq * r.estimate for sq, r in terms), 0.0),
                                      sum((sq * r.upper for sq, r in terms), 0.0), status,
                                      depth + 1)
                how = "read off"
            else:
                want = AlphaEvaluator(ShiftOperator(model, weights))(u)
                how = "descended"
            assert repr(rec) == repr(want)
            assert rec.estimate <= partial_sum(model, weights, u, 4) + UPPER_BOUND_SLACK
            seen[how, rec.status] += 1

    check()
    # Not vacuous: hundreds of records are read off converged children, and
    # many converged ones descend.
    assert seen["read off", CONVERGED] >= 200 and seen["descended", CONVERGED] >= 50
