"""Shared helpers: seeded random finite trees and contractive weight maps."""

import math
import random

import pytest

from treeshift.shifts import ShiftOperator
from treeshift.sparse import SparseVector
from treeshift.trees import FiniteTree, materialize_window, validate_finite
from treeshift.weights import ConstantWeights, MapWeights

# The constant weight of the binary-tree isometry fixtures.  No double c has
# 2c^2 = 1: 1 / math.sqrt(2) has 2c^2 < 1, so the family bound proves every
# limit 0, and the next double up, this one, has 2c^2 > 1 by 1.4e-16, inside
# the tolerance of the constant family's isometry certificate.
BINARY_ISOMETRY = math.sqrt(0.5)


class UnstatedBound(ConstantWeights):
    """A constant law that does not state its largest weight.  No constant
    contraction descends otherwise: below the isometry, f * M^2 < 1 proves
    every limit 0 with no descent."""

    def max_weight(self):
        return None


class NaNApply(ShiftOperator):
    """``apply`` images with NaN in place of every coefficient."""

    def apply(self, x):
        return SparseVector({v: math.nan for v in super().apply(x).coeffs})


class NaNAdjoint(ShiftOperator):
    """``apply_adjoint`` images with NaN in place of every coefficient."""

    def apply_adjoint(self, x):
        return SparseVector({v: math.nan for v in super().apply_adjoint(x).coeffs})


def random_finite_tree(rng: random.Random, n: int) -> FiniteTree:
    """Random rooted tree on n vertices: each vertex hangs off an earlier one."""
    vertices = [f"v{i:03d}" for i in range(n)]
    edges = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    return validate_finite(vertices, edges)


def random_weight_map(rng: random.Random, tree: FiniteTree, lo=0.05, hi=1.0) -> dict:
    return {v: rng.uniform(lo, hi) for v in tree.vertices() if v != tree.root}


def full_window(tree: FiniteTree):
    return materialize_window(tree, 0, tree.depth(), breadth=10 ** 6)


def contractive_operator(rng: random.Random, tree: FiniteTree) -> ShiftOperator:
    """Random weights rescaled so the operator norm sits just under 1."""
    values = random_weight_map(rng, tree, 0.2, 1.0)
    op = ShiftOperator(tree, MapWeights(values))
    norm = op.operator_norm(full_window(tree)).value
    scale = 0.999 / norm
    return ShiftOperator(tree, MapWeights({k: v * scale for k, v in values.items()}))


@pytest.fixture
def rng():
    return random.Random(20240817)
