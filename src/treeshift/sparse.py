"""Finitely supported vectors over the vertex set, stored as id -> coefficient."""

from __future__ import annotations

import math


class SparseVector:
    """Real-coefficient vector with finite support; zero entries are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: float(c) for k, c in dict(coeffs or {}).items() if c != 0.0}

    @classmethod
    def wrap(cls, coeffs: dict):
        """The vector whose ``coeffs`` is ``coeffs`` itself, a dict of nonzero
        floats, taken without a copy or the constructor's filter."""
        v = cls.__new__(cls)
        v.coeffs = coeffs
        return v

    @classmethod
    def basis(cls, u):
        v = cls.__new__(cls)
        v.coeffs = {u: 1.0}
        return v

    def copy(self):
        return SparseVector.wrap(dict(self.coeffs))

    def __getitem__(self, u):
        return self.coeffs.get(u, 0.0)

    def __len__(self):
        return len(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def items(self):
        return self.coeffs.items()

    def support(self):
        return set(self.coeffs)

    def add_scaled(self, other: "SparseVector", factor: float = 1.0):
        """In-place self += factor * other, pruning exact zeros."""
        for k, c in other.coeffs.items():
            val = self.coeffs.get(k, 0.0) + factor * c
            if val == 0.0:
                self.coeffs.pop(k, None)
            else:
                self.coeffs[k] = val
        return self

    def __sub__(self, other):
        return self.copy().add_scaled(other, -1.0)

    def scaled(self, factor: float):
        return SparseVector({k: factor * c for k, c in self.coeffs.items()})

    def dot(self, other: "SparseVector") -> float:
        if len(other.coeffs) < len(self.coeffs):
            self, other = other, self
        return sum(c * other.coeffs.get(k, 0.0) for k, c in self.coeffs.items())

    def norm_sq(self) -> float:
        return sum(c * c for c in self.coeffs.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __repr__(self):
        body = ", ".join(f"{k}: {c:.6g}" for k, c in sorted(self.coeffs.items()))
        return f"SparseVector({{{body}}})"


def nan_max(worst: float, x: float) -> float:
    """max(worst, x), but NaN when either is NaN: ``max(0.0, nan)`` is 0.0,
    so a running ``max`` of residuals would hide a NaN one."""
    return x if x > worst or x != x else worst
