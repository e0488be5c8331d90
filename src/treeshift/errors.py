"""Exception hierarchy shared by all treeshift modules, and the input readers that raise it."""

import json


def shown(value) -> str:
    """An offending input value for an error message: as JSON (``null``,
    ``true``), or its repr when it is not JSON, cut to 60 characters."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def read_input(path, error) -> str:
    """The text of the file at ``path``; an unreadable one raises ``error`` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise error(f"cannot read {str(path)!r}: {reason}") from None


def decoded(doc, error, what: str) -> dict:
    """``doc`` decoded when it is JSON text, else ``doc``; bad JSON, or a doc
    that is not a JSON object, raises ``error``."""
    try:
        doc = json.loads(doc) if isinstance(doc, str) else doc
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {shown(doc)}")
    return doc


class TreeShiftError(Exception):
    """Base class for all treeshift errors; ``exit_code`` is the CLI's exit status."""
    exit_code = 2


class DisconnectedGraph(TreeShiftError):
    pass


class MultipleParents(TreeShiftError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} has more than one parent")
        self.vertex = vertex


class CircuitFound(TreeShiftError):
    def __init__(self, cycle):
        super().__init__(f"directed circuit: {' -> '.join(map(str, cycle))}")
        self.cycle = list(cycle)


class RootMismatch(TreeShiftError):
    def __init__(self, declared, inferred):
        super().__init__(f"declared root {declared!r} but inferred {inferred!r}")
        self.declared = declared
        self.inferred = inferred


class VertexNotFound(TreeShiftError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} is not part of the model")
        self.vertex = vertex


class EmptyWindow(VertexNotFound):
    def __init__(self, level_lo, level_hi):
        TreeShiftError.__init__(self, f"window [{level_lo},{level_hi}] contains no vertices")
        self.vertex = None


class WindowTooLarge(TreeShiftError):
    exit_code = 5

    def __init__(self, size, cap):
        """``size`` None: the window was stopped as it passed the cap, so its
        full size is unknown."""
        super().__init__(f"window has {size} vertices, cap is {cap}" if size is not None
                         else f"window has more than the cap of {cap} vertices")
        self.size = size
        self.cap = cap


class NotAContraction(TreeShiftError):
    """``seen`` says what showed it: an operator norm above 1, or partial
    sums of S*^n S^n that rose."""
    exit_code = 3

    def __init__(self, seen: str):
        super().__init__(f"not a contraction: {seen}")


class StructuralViolation(TreeShiftError):
    def __init__(self, prop, vertex):
        super().__init__(f"stable subtree property {prop!r} violated at {vertex!r}")
        self.prop = prop
        self.vertex = vertex


class StableSubtreeEmpty(TreeShiftError):
    exit_code = 4


class AdjointStable(TreeShiftError):
    exit_code = 4


class ZeroWeight(TreeShiftError):
    def __init__(self, position):
        super().__init__(f"zero weight at {position!r}; constructor requires positivity")
        self.position = position


class ScheduleTooShort(TreeShiftError):
    pass


class DimensionCap(TreeShiftError):
    exit_code = 5

    def __init__(self, size, cap):
        super().__init__(f"dimension {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class StageUnderflow(TreeShiftError):
    exit_code = 5

    def __init__(self, stage):
        super().__init__(f"stage {stage}: a divisor of the bound Sigma_{stage} underflows "
                         f"to 0.0 in double precision")
        self.stage = stage


class ShapeMismatch(TreeShiftError):
    exit_code = 6


class WeightError(TreeShiftError):
    pass


class TreeSpecError(TreeShiftError, ValueError):
    """A tree family name or parameter that the input spec gets wrong."""
