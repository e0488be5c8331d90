"""Weight assignments over the non-root vertices of a directed tree.

Two representations: an explicit per-vertex map (finite trees, or padded with
a default for procedural ones), and named parametric rules evaluated from the
vertex level, so infinite trees never need materialized weights.  All weights
are strictly positive; zero weights live only in the standalone backward-shift
type of the cyclicity module.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import cache

from .errors import WeightError, decoded, read_input, shown
from .trees import _is_primed, _primed_index


# The largest weight whose square is a finite double; every analysis squares
# weights, and a square that overflows raises instead of giving inf.
MAX_WEIGHT = math.sqrt(sys.float_info.max)


def _positive(value, what: str, top: float = sys.float_info.max, key=None) -> float:
    """``value`` as a float in (0, top]; NaN, infinities, non-positive values
    and non-numbers (booleans and numeric strings among them) are rejected.
    An error names ``what``, and ``at key`` for a map's value at ``key``."""
    # an in-range float first, as maps call this per value; the ABC check is slow
    if type(value) is float and 0.0 < value <= top:
        return value
    if key is not None:  # formatted only here: maps hold a value per vertex
        what = f"{what} at {key!r}"
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise WeightError(f"{what} must be a number, got {shown(value)}")
    x = float(value)
    if not 0.0 < x < math.inf:  # also false for NaN
        raise WeightError(f"{what} must be finite and strictly positive, got {x}")
    if x > top:
        raise WeightError(f"{what} must be at most {top:.6g}, so that its square is finite, "
                          f"got {x}")
    return x


def _integer(value, what: str, error=WeightError) -> int:
    """``value`` as an int.  Ints and integral floats are accepted; booleans,
    fractions, NaN, infinities and non-numbers raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise error(f"{what} must be an integer, got {shown(value)}")
    return int(value)


@cache
def _parameters(family: type) -> tuple:
    """(names, required names) of a weight family's constructor parameters,
    read once per class from the code of its ``__init__``; a family that
    defines none takes no parameters."""
    init = family.__init__
    if init is object.__init__:
        return (), ()
    code = init.__code__
    names = code.co_varnames[1:code.co_argcount]
    return names, names[:len(names) - len(init.__defaults__ or ())]


def _computed(rule, family: str, lvl: int) -> float:
    """Weight ``rule()`` of a level formula at level ``lvl``; a value that
    overflows, or underflows to 0, is not a usable weight and raises
    WeightError."""
    try:
        w = rule()
    except OverflowError:
        w = math.inf
    if not 0.0 < w <= MAX_WEIGHT:
        raise WeightError(f"{family} weight at level {lvl} is out of range ({w})")
    return w


def _copies(count: float, term: float) -> float:
    """The sum of ``count`` copies of ``term``; ``count`` may be infinite."""
    return count * term if term else 0.0


def unit_hasher(prefix: str):
    """The function ``keys -> bytes`` that joins the 8-byte digests of
    ``prefix + key`` (bytes keys); a digest read as a big-endian integer
    over 2^64 is the key's uniform value in [0, 1).

    blake2b is a streaming hash: a copy of the state fed ``prefix``, fed
    ``key``, has the digest of ``prefix + key``.  So the prefix is hashed
    once, here, and each digest costs one state copy.
    """
    import hashlib  # loads OpenSSL, which only hashed weights need
    copy = hashlib.blake2b(prefix.encode(), digest_size=8).copy

    def digests(keys) -> bytes:
        out = []
        for key in keys:
            (h := copy()).update(key)
            out.append(h.digest())
        return b"".join(out)

    return digests


class WeightAssignment:
    # The weight of a vertex is a function of its level alone.
    level_only = False
    # Family hooks answer family-specific questions in closed form; the
    # defaults (None, False) mean "no closed form".  The tree families whose
    # vertex ids the weights read (None: any tree):
    tree_families = None
    # The weights the law names one vertex at a time (vertex id -> weight);
    # every other vertex follows ``tail``.
    head = {}

    @property
    def tail(self):
        """The law every vertex outside ``head`` follows: the law itself when
        the head is empty, None when those vertices carry no weight.  A closed
        form the tail states (``max_weight`` among them) holds outside the head."""
        return self

    def isometry_on(self, model) -> bool:
        """True when every children square-sum on ``model`` is exactly 1,
        decided on the given doubles with no tolerance."""
        return False

    def tail_log_sum(self, from_level: float):
        """sum over levels l > from_level (-inf: every level) of log lambda_l for
        a level law: -inf when the product vanishes, +inf when it diverges, NaN
        when both; None when unknown."""
        return None

    def ratio_geometric(self):
        """(first, step): a comb's primed-to-spine weight ratio at level 1 and
        at every deeper level, when that is the whole law; else None."""
        return None

    def weight(self, model, v: str) -> float:
        """lambda_v.  A ``level_only`` law states ``level_weight`` alone."""
        self._check_non_root(model, v)
        return self.level_weight(model.level(v))

    def level_weight(self, lvl: int) -> float:
        """lambda at every non-root vertex of level ``lvl`` (``level_only``)."""
        raise NotImplementedError

    def max_weight(self):
        """Upper bound on every weight of a law with an empty head, so the bound
        outside the head is ``tail.max_weight()``: inf when unbounded, None when
        unknown."""
        return None

    def convergence_floor_level(self):
        """Deepest level a descent must pass before flat partial sums are
        trusted: unit-weight prefixes produce exactly-zero decrements that a
        difference test cannot tell from convergence.  Where a law states
        none and every tail weight is exactly 1, the floor is one past the
        deepest level the head names (``AlphaEvaluator``)."""
        return None

    def _check_non_root(self, model, v):
        if v == model.root:
            raise WeightError(f"the root {v!r} carries no weight")


class MapWeights(WeightAssignment):
    """Explicit map (the head), optionally padded with a default beyond it."""

    tail = None  # per map: ConstantWeights(default), or None without a default

    def __init__(self, values: dict, default: float | None = None):
        self.head = {k: _positive(c, "weight", MAX_WEIGHT, k) for k, c in values.items()}
        self.default = (None if default is None
                        else _positive(default, "default weight", MAX_WEIGHT))
        self.tail = None if self.default is None else ConstantWeights(self.default)

    def weight(self, model, v):
        self._check_non_root(model, v)
        w = self.head.get(v, self.default)
        if w is None:
            raise WeightError(f"no weight assigned to vertex {v!r}")
        return w


class ConstantWeights(WeightAssignment):
    level_only = True

    def __init__(self, value: float):
        self.value = _positive(value, "constant weight", MAX_WEIGHT)

    def level_weight(self, lvl):
        return self.value

    def max_weight(self):
        return self.value

    def isometry_on(self, model):
        return model.children_per_vertex == 1 and self.value == 1.0

    def tail_log_sum(self, from_level):
        return _copies(math.inf, math.log(self.value))


class ExpRayWeights(WeightAssignment):
    """lambda_v = exp(-base^(-level v)) for levels >= start_level, 1 below.

    On a single-child chain the forward limits have closed geometric-series
    exponents, so these weights make convenient certified C_{1.} instances.
    """

    name = "exp-ray"
    level_only = True

    def __init__(self, base: float = 2.0, start_level: int = 1):
        self.base = _positive(base, "exp-ray base")
        if self.base <= 1.0:
            raise WeightError("exp-ray base must exceed 1")
        self.start_level = _integer(start_level, "exp-ray start_level")

    def level_weight(self, lvl):
        if lvl < self.start_level:
            return 1.0
        return _computed(lambda: math.exp(-self.base ** (-lvl)), self.name, lvl)

    def max_weight(self):
        return 1.0

    def convergence_floor_level(self):
        return self.start_level

    def tail_log_sum(self, from_level):
        # a finite geometric series: the weights are 1 below start_level
        m = max(from_level + 1, self.start_level)
        return -(self.base ** (-m)) * self.base / (self.base - 1.0)


class GeometricWeights(WeightAssignment):
    """lambda_v = scale * ratio^{|level v|}: geometric decay away from the base."""

    name = "geometric"
    level_only = True

    def __init__(self, scale: float, ratio: float):
        self.scale = _positive(scale, "geometric scale")
        self.ratio = _positive(ratio, "geometric ratio")

    def level_weight(self, lvl):
        return _computed(lambda: self.scale * self.ratio ** abs(lvl), self.name, lvl)

    def max_weight(self):
        return self.scale if self.ratio <= 1.0 else math.inf

    def tail_log_sum(self, from_level):
        # log lambda_l = log scale + |l| log ratio, above from_level without end
        return _copies(math.inf, math.log(self.ratio) or math.log(self.scale))


class StepWeights(WeightAssignment):
    """lambda_v = high for levels above the cut, low at and below it."""

    name = "step"
    level_only = True

    def __init__(self, low: float, high: float, cut: int = 0):
        self.low = _positive(low, "step low", MAX_WEIGHT)
        self.high = _positive(high, "step high", MAX_WEIGHT)
        self.cut = _integer(cut, "step cut")

    def level_weight(self, lvl):
        return self.high if lvl > self.cut else self.low

    def max_weight(self):
        return max(self.low, self.high)

    def convergence_floor_level(self):
        return self.cut + 1 if abs(self.low - 1.0) <= 1e-15 else None

    def tail_log_sum(self, from_level):
        return (_copies(max(self.cut - from_level, 0), math.log(self.low))
                + _copies(math.inf, math.log(self.high)))


class RayWeights(WeightAssignment):
    """Per-ray constants for the tilde/comb shape, with optional overrides for
    the two children of the branching vertex."""

    name = "rays"
    tree_families = ("tilde", "comb")

    def __init__(self, spine: float, primed: float,
                 branch_spine: float | None = None, branch_primed: float | None = None):
        self.spine = _positive(spine, "rays spine", MAX_WEIGHT)
        self.primed = _positive(primed, "rays primed", MAX_WEIGHT)
        self.branch_spine = (None if branch_spine is None
                             else _positive(branch_spine, "rays branch_spine", MAX_WEIGHT))
        self.branch_primed = (None if branch_primed is None
                              else _positive(branch_primed, "rays branch_primed", MAX_WEIGHT))
        # The weights of "1" and "1'", the two children of the branch vertex.
        self.first = (self.spine if self.branch_spine is None else self.branch_spine,
                      self.primed if self.branch_primed is None else self.branch_primed)

    def weight(self, model, v):
        self._check_non_root(model, v)
        if _is_primed(v):
            return self.first[1] if _primed_index(v) == 1 else self.primed
        return self.first[0] if int(v) == 1 else self.spine

    def max_weight(self):
        return max(self.spine, self.primed, *self.first)

    def ratio_geometric(self):
        return self.first[1] / self.first[0], self.primed / self.spine


class BinarySpineWeights(WeightAssignment):
    """Isometric weights on the rootless binary tree with a distinguished spine.

    Spine vertices get exp(-1/(|l|+1)^2); the sibling of each spine child gets
    the complementary weight so every children-square-sum of the law is 1; all
    deeper off-spine vertices get 1/sqrt(2).  This isometry has a nontrivial
    unitary part because the spine products stay positive.
    """

    name = "binary-spine"
    tree_families = ("rootless-binary",)

    def weight(self, model, v):
        self._check_non_root(model, v)
        if ":" not in v:
            l = int(v)
            return math.exp(-1.0 / (abs(l) + 1) ** 2)
        m, w = v.split(":", 1)
        if w == "1":
            spine_child = math.exp(-1.0 / (abs(int(m) + 1) + 1) ** 2)
            return math.sqrt(1.0 - spine_child * spine_child)
        return 1.0 / math.sqrt(2.0)

    def max_weight(self):
        return 1.0

    def isometry_on(self, model):
        """True by the family law, not on the doubles: the sibling weights are
        computed as sqrt(1 - x^2), so their square-sums are 1 only to rounding."""
        return True


class HashRandomWeights(WeightAssignment):
    """Deterministic pseudo-random weight per vertex, uniform in [low, high].

    The value is derived from a keyed blake2b digest of the vertex id, so it
    is reproducible across runs and independent of materialization order.
    """

    name = "hash-random"

    def __init__(self, seed: int, low: float, high: float):
        self.seed = _integer(seed, "hash-random seed")
        self.low = _positive(low, "hash-random low", MAX_WEIGHT)
        self.high = _positive(high, "hash-random high", MAX_WEIGHT)
        if self.low > self.high:
            raise WeightError("need 0 < low <= high")
        self._digests = None  # unit_hasher of f"{seed}:", made on first use

    def weight(self, model, v):
        self._check_non_root(model, v)
        if self._digests is None:
            self._digests = unit_hasher(f"{self.seed}:")
        unit = int.from_bytes(self._digests((str(v).encode(),)), "big") / 2.0 ** 64
        return self.low + (self.high - self.low) * unit

    def max_weight(self):
        return self.high


_FAMILIES = {
    cls.name: cls
    for cls in (ExpRayWeights, GeometricWeights, StepWeights, RayWeights,
                BinarySpineWeights, HashRandomWeights)
}


def _required(doc: dict, key: str, what: str, error=WeightError):
    if key not in doc:
        raise error(f"{what} needs a {key!r} field")
    return doc[key]


def weights_from_json(doc) -> WeightAssignment:
    """Build a weight assignment from its JSON doc (or JSON text); bad JSON,
    a doc of the wrong shape, a missing field or a bad value raises WeightError."""
    doc = decoded(doc, WeightError, "a weight spec")
    kind = doc.get("kind")
    if kind == "map":
        values = _required(doc, "values", "map weights")
        if not isinstance(values, dict):
            raise WeightError(f"map weight values must be an object, got {shown(values)}")
        return MapWeights(values, doc.get("default"))
    if kind == "constant":
        return ConstantWeights(_required(doc, "value", "constant weights"))
    if kind == "family":
        name = doc.get("name")
        if not isinstance(name, str) or name not in _FAMILIES:
            raise WeightError(f"unknown weight family {shown(name)}")
        family = _FAMILIES[name]
        params = doc.get("params", {})
        names, required = _parameters(family)
        if not (isinstance(params, dict) and params.keys() <= set(names)
                and params.keys() >= set(required)):  # non-object, unknown or missing params
            raise WeightError(f"weight family {name!r} takes params {list(names)}, "
                              f"got {shown(params)}")
        return family(**params)
    raise WeightError(f"unknown weight kind {shown(kind)}")


def load_weights(path) -> WeightAssignment:
    return weights_from_json(read_input(path, WeightError))
