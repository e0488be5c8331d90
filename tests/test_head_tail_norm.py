"""The operator norm and the family bound of a ``map`` law, by brute force.

A map names finitely many weights (its head) and pads every other vertex
with its default (its tail).  On the bilateral path, the rooted path and the
rootless binary tree every vertex has f = 1, 1 or 2 children, so a column
whose children are all unnamed has square-root exactly default * sqrt(f), and
every column with a named child is the parent of a key vertex.  The norm is
therefore the largest column over the window, the top boundary's parents and
the key vertices' parents, together with default * sqrt(f); with no default
it is not certified.  The family bound f * default^2 < 1 proves every limit 0
whatever the keys, and nothing without a default.

Keys are drawn among vertices near the window, vertices far outside it, the
rooted path's root, and ids that are not vertices of the tree.
"""

import math
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeshift.errors import WeightError
from treeshift.shifts import NormBound, ShiftOperator
from treeshift.trees import make_family, materialize_window
from treeshift.weights import MapWeights

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

FAN = {"bilateral-path": 1, "rooted-path": 1, "rootless-binary": 2}
KEYS = {
    "bilateral-path": ["-3", "-2", "-1", "0", "1", "2", "3", "40", "-40", "1'", "x", "0:1"],
    "rooted-path": ["0", "1", "2", "3", "40", "-1", "-40", "1'", "x"],
    "rootless-binary": ["-2", "0", "1", "2", "0:1", "-1:10", "1:11", "2:1", "40", "40:1",
                        "-40:101", "0:2", "1'", "x", "0:"],
}


@st.composite
def cases(draw):
    family = draw(st.sampled_from(sorted(FAN)))
    model = make_family(family)
    keys = draw(st.lists(st.sampled_from(KEYS[family]), max_size=6, unique=True))
    values = {key: draw(st.floats(0.01, 2.0)) for key in keys}
    edge = 1 / math.sqrt(FAN[family])  # the family bound's threshold
    default = draw(st.one_of(st.none(), st.floats(0.05, 1.5),
                             st.sampled_from([edge, math.nextafter(edge, 0.0),
                                              math.nextafter(edge, 2.0)])))
    window = materialize_window(model, draw(st.integers(-2, 1)), 2)
    if default is None:
        # weigh the window's columns, so that the scan reaches the keys' parents
        for u in window.order:
            for v in model.children(u):
                values.setdefault(v, 0.5)
        for u in window.top_boundary():
            values.setdefault(u, 0.5)
    return model, values, default, window


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def brute_norm(model, values, default, window):
    def column(u):
        squares = []
        for v in model.children(u):
            if values.get(v, default) is None:
                raise WeightError(f"no weight assigned to vertex {v!r}")
            squares.append(values.get(v, default) ** 2)
        return math.sqrt(sum(squares))

    scanned = list(window.order) + [model.parent(u) for u in window.top_boundary()]
    window_value = max(map(column, scanned))
    keyed = [model.parent(v) for v in values if v in model and v != model.root]
    value = max([window_value] + [column(u) for u in keyed])
    if default is None:
        return NormBound(value, window_value, False)
    return NormBound(max(value, default * math.sqrt(FAN[model.family])), window_value, True)


@FUZZ
@given(case=cases())
def test_norm_and_family_bound_read_the_head_and_the_tail(case):
    model, values, default, window = case
    op = ShiftOperator(model, MapWeights(values, default))
    assert outcome(op.operator_norm, window) == outcome(brute_norm, model, values, default,
                                                        window)
    assert op.is_certified_vanishing() == (
        default is not None and Fraction(default) ** 2 * FAN[model.family] < 1)
