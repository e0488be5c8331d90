"""The adjoint fixed point S A_+ S* = A_+ on random path windows.

On a path each level holds one vertex, so the adjoint limit a of a vertex v
is lambda_v^2 times the limit of its parent: a(v) = lambda_v^2 a(parent v).
``adjoint_profile`` computes every level from its own truncated products, so
the identity ties neighbouring levels together.  Windows are drawn on the
bilateral path with explicit weight maps padded with 1, and with exp-ray
laws; both have largest weight 1, so the family bound closes none of them.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeshift.asymptotics import EXACT_ONE, EXACT_ZERO, adjoint_profile
from treeshift.shifts import ShiftOperator
from treeshift.trees import make_family, materialize_window
from treeshift.weights import ExpRayWeights, MapWeights, StepWeights

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
WEIGHTS = st.floats(0.3, 1.0)
REL_TOL = 1e-12


@st.composite
def path_cases(draw):
    """A bilateral-path window under a ``map`` (default 1.0) whose keys
    include levels above the window, or under an exp-ray law."""
    lo = draw(st.integers(-6, 3))
    hi = draw(st.integers(lo, lo + 8))
    if draw(st.booleans()):
        weights = MapWeights({str(n): draw(WEIGHTS) for n in range(lo - 6, hi + 1)
                              if draw(st.booleans())}, default=1.0)
    else:
        weights = ExpRayWeights(draw(st.floats(1.5, 4.0)), draw(st.integers(-4, 4)))
    return weights, lo, hi


def fixed_point_errors(weights, lo, hi):
    """{v: |a(v) - lambda_v^2 a(parent v)| / a(v)} over the window vertices
    whose record is not exact and whose parent lies in the window."""
    model = make_family("bilateral-path")
    window = materialize_window(model, lo, hi)
    profile = adjoint_profile(ShiftOperator(model, weights), window).profile
    errors = {}
    for v in window.order:
        rec, parent = profile.record(v), model.parent(v)
        if rec.status in (EXACT_ZERO, EXACT_ONE) or parent not in window:
            continue
        want = weights.weight(model, v) ** 2 * profile.record(parent).estimate
        errors[v] = abs(rec.estimate - want) / rec.estimate if rec.estimate else abs(want)
    return errors


def test_path_adjoint_records_satisfy_the_fixed_point():
    checked = []

    @FUZZ
    @given(case=path_cases())
    def check(case):
        errors = fixed_point_errors(*case)
        assert all(err <= REL_TOL for err in errors.values()), errors
        checked.extend(errors)

    check()
    # Not vacuous: hundreds of non-exact levels are checked against their parent.
    assert len(checked) >= 200


@pytest.mark.parametrize("weights,lo,hi", [
    (ExpRayWeights(2.0, -1), -3, 3),
    (ExpRayWeights(3.0, 1), -3, 3),
    (MapWeights({"0": 0.8, "-1": 0.9, "2": 0.7}, default=1.0), -3, 3),
    pytest.param(StepWeights(0.5, 1.0, cut=0), -3, 3, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 5: the truncated step-law adjoint reads a false `converged` "
               "value; its levels differ by lambda_1^2 / lambda_-63^2")),
], ids=["exp-ray-2-from-minus-1", "exp-ray-3-from-1", "map", "step"])
def test_named_path_laws_satisfy_the_fixed_point(weights, lo, hi):
    errors = fixed_point_errors(weights, lo, hi)
    assert len(errors) == 6
    assert max(errors.values()) <= REL_TOL
