"""The line contract of ``--json``: each per-vertex ``alpha`` or ``a`` line,
which ``VertexEstimate.json_line`` writes without ``json``, must be the very
bytes ``json.dumps(..., sort_keys=True)`` gives, and each stage line of
``cyclic --backward --json`` (``CyclicCandidate.to_json_lines``) is
``json.dumps`` in field order, for any field values.  The runs are
derandomized and bounded, as in ``test_input_fuzz``."""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeshift.asymptotics import VertexEstimate
from treeshift.cyclicity import CyclicCandidate
from treeshift.records import json_value

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 2.225073858507201e-308, 1e16, 1e-7,
                     0.1 + 0.2, 1.7976931348623157e308]))
INTS = st.one_of(st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
                 st.sampled_from([0, -1, 2 ** 53 + 1, 2 ** 63, -2 ** 63, 10 ** 400]))
# Quotes, backslashes, control characters, DEL, non-ASCII, astral characters
# and lone surrogates, mixed with ordinary id characters.
AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x08", "\t", "\n", "\x1f", "\x7f", "é", " ",
                           "€", "\U0001F600", "\U0010FFFF", "\ud800", "\udbff", "\udc00",
                           "\udfff", "a", "'", "1", "-"])
TEXTS = st.one_of(st.text(), st.text(alphabet=AWKWARD),
                  st.text(alphabet=st.characters(exclude_categories=())))
# Values of no field type the records declare: they go to the generic encoder.
OTHERS = st.one_of(st.none(), st.booleans(), st.lists(INTS, max_size=3),
                   st.dictionaries(TEXTS, INTS, max_size=3))
ANY = st.one_of(FLOATS, INTS, TEXTS, OTHERS)


@FUZZ
@given(vertex=TEXTS, estimate=FLOATS, upper=FLOATS, status=TEXTS, depth=INTS,
       kind=st.one_of(st.sampled_from(["alpha", "a"]), TEXTS))
def test_vertex_line_is_json_dumps_sorted(vertex, estimate, upper, status, depth, kind):
    rec = VertexEstimate(vertex, estimate, upper, status, depth)
    assert rec.json_line(kind) == json.dumps({"record": kind, **rec.to_json()}, sort_keys=True)


@FUZZ
@given(fields=st.tuples(ANY, ANY, ANY, ANY, ANY), kind=ANY)
def test_vertex_line_is_json_dumps_sorted_for_any_field_type(fields, kind):
    rec = VertexEstimate(*fields)
    assert rec.json_line(kind) == json.dumps({"record": kind, **rec.to_json()}, sort_keys=True)


@FUZZ
@given(stages=st.lists(st.tuples(st.one_of(INTS, ANY), st.one_of(INTS, ANY), FLOATS),
                       max_size=6))
def test_stage_lines_are_json_dumps_in_field_order(stages):
    candidate = CyclicCandidate([(j, k) for j, k, _ in stages], [x for _, _, x in stages])
    assert candidate.to_json_lines() == [
        json.dumps({"stage": l, "branch": j, "index": k, "coefficient": x})
        for l, (j, k, x) in enumerate(stages, 1)]


@FUZZ
@given(value=ANY)
def test_json_value_is_the_encoder_it_stands_for(value):
    assert json_value(value) == json.dumps(value, sort_keys=True)


def test_subclasses_of_the_field_types_take_the_generic_encoder():
    class Vertex(str):
        pass

    class Depth(int):
        pass

    class Estimate(float):
        pass

    rec = VertexEstimate(Vertex('v"1'), Estimate(math.inf), Estimate(0.5), Vertex("s"), Depth(4))
    assert rec.json_line("a") == json.dumps({"record": "a", **rec.to_json()}, sort_keys=True)
    assert json_value(True) == "true" and json_value(None) == "null"


def test_stage_lines_pin_awkward_coefficients():
    """Signed zeros, subnormals, NaN, infinities and numpy floats as stage
    coefficients, and a str branch and a big index, in the bytes of
    ``json.dumps``."""
    import numpy as np

    xs = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, math.nan, -math.nan, math.inf,
          -math.inf, 1e16, 0.1 + 0.2, np.float64(-0.0), np.float64(5e-324),
          np.float64(math.nan), np.float64(-math.inf), np.float64(0.5), True, None]
    schedule = [(l % 3, l * (l + 1) // 2) for l in range(1, len(xs) + 1)]
    schedule[-1] = ("1'", 2 ** 70)
    candidate = CyclicCandidate(schedule, xs)
    assert candidate.to_json_lines() == [
        json.dumps({"stage": l, "branch": j, "index": k, "coefficient": x})
        for l, ((j, k), x) in enumerate(zip(schedule, xs), 1)]
