"""Exception hierarchy shared by all treeshift modules."""


class TreeShiftError(Exception):
    """Base class for all treeshift errors."""


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


class UnknownVertex(VertexNotFound):
    pass


class WindowTooLarge(TreeShiftError):
    def __init__(self, size, cap):
        super().__init__(f"window has {size} vertices, cap is {cap}")
        self.size = size
        self.cap = cap


class NotAContraction(TreeShiftError):
    def __init__(self, norm):
        super().__init__(f"operator norm {norm} exceeds 1")
        self.norm = norm


class StructuralViolation(TreeShiftError):
    def __init__(self, prop, vertex):
        super().__init__(f"stable subtree property {prop!r} violated at {vertex!r}")
        self.prop = prop
        self.vertex = vertex


class StableSubtreeEmpty(TreeShiftError):
    pass


class AdjointStable(TreeShiftError):
    pass


class ZeroWeight(TreeShiftError):
    def __init__(self, position):
        super().__init__(f"zero weight at {position!r}; constructor requires positivity")
        self.position = position


class ScheduleTooShort(TreeShiftError):
    pass


class DimensionCap(TreeShiftError):
    def __init__(self, size, cap):
        super().__init__(f"dimension {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class ShapeMismatch(TreeShiftError):
    pass


class WeightError(TreeShiftError):
    pass


class TreeSpecError(TreeShiftError, ValueError):
    """A tree family name or parameter that the input spec gets wrong."""
