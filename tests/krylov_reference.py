"""Floating-point Krylov references for the tests.

The program decides a backward-shift Krylov check exactly over F_p and
builds no float Krylov matrix.  This module is the numerical side the tests
hold it against: the dense truncation of a backward shift, the window
Krylov matrix from steps of B, a numerical Krylov rank, and a span check
with one direct SVD.  None of these figures is a certificate.
"""

from dataclasses import dataclass

import numpy as np

from treeshift.cyclicity import RANK_TOL, ge_rank


def dense_truncation(spec, depth):
    """The truncation of B to indices k <= depth, basis order branch-major."""
    n = spec.branches * (depth + 1)
    mat = np.zeros((n, n))
    steps = spec.steps(depth)
    for j in range(spec.branches):
        base = j * (depth + 1)
        for k in range(1, depth + 1):
            mat[base + k - 1, base + k] = steps[j, k - 1]
    return mat


def candidate_vector(spec, candidate, depth):
    """Dense coordinates of a candidate on the branch-major truncation; a
    repeated position keeps its last coefficient."""
    out = np.zeros(spec.branches * (depth + 1))
    for (j, k), x in zip(candidate.schedule, candidate.xi):
        if k <= depth:
            out[j * (depth + 1) + k] = x
    return out


def window_matrix(spec, candidate, K):
    """Window rows (j, i <= K), branch-major, of [f, Bf, ..., B^depth f] with
    depth = max(k_L, K), from depth steps of B applied branch by branch."""
    depth = max(max(k for _, k in candidate.schedule), K)
    steps = spec.steps(depth)
    grid = candidate_vector(spec, candidate, depth).reshape(spec.branches, depth + 1)
    cols = np.empty((spec.branches * (K + 1), depth + 1))
    for k in range(depth + 1):
        cols[:, k] = grid[:, : K + 1].ravel()
        if k + 1 < depth + 1:
            nxt = np.zeros_like(grid)
            nxt[:, :-1] = steps * grid[:, 1:]
            grid = nxt
    return cols


def _normalized(columns):
    """A copy of the columns, each nonzero one scaled to unit norm."""
    mat = np.array(columns, dtype=float)
    norms = np.linalg.norm(mat, axis=0)
    mat[:, norms > 0.0] /= norms[norms > 0.0]
    return mat


def krylov_rank(matrix, vector, rank_tol=RANK_TOL):
    """Numerical rank (``ge_rank``) of [x, Mx, ..., M^(d-1) x].  Columns are
    normalized first so the pivot threshold is scale-free."""
    mat = np.asarray(matrix, dtype=float)
    d = mat.shape[0]
    cols = np.empty((d, d))
    y = np.asarray(vector, dtype=float).copy()
    for k in range(d):
        cols[:, k] = y
        y = mat @ y
    return ge_rank(_normalized(cols), rank_tol)


@dataclass
class SpanCheck:
    rank: int  # ge_rank pivots at rank_tol
    dimension: int
    max_residual: float  # worst distance of a unit basis vector from the span
    columns: int
    cyclic: bool  # full rank and residual within tol
    numerical_rank: int  # singular values above rank_tol * the largest


def verify_krylov_span(columns, dimension, tol=1e-5, rank_tol=RANK_TOL):
    """Rank and worst basis-projection residual of a set of span columns.

    The projector keeps every singular direction above the double-precision
    noise floor, which scales with the larger side of the matrix: weak
    directions are part of the true span, only rounding artifacts are
    dropped.
    """
    normalized = _normalized(columns)
    u, s, _ = np.linalg.svd(normalized, full_matrices=False)
    floor = s[0] * max(normalized.shape) * np.finfo(float).eps * 8.0 if s.size else 0.0
    basis = u[:, s > floor]
    residual = float(np.max(np.sqrt(np.clip(1.0 - np.sum(basis ** 2, axis=1), 0.0, None))))
    rank = ge_rank(normalized, rank_tol)
    return SpanCheck(rank=rank, dimension=dimension, max_residual=residual,
                     columns=normalized.shape[1], cyclic=rank == dimension and residual <= tol,
                     numerical_rank=int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0)


def candidate_span(spec, candidate, K, tol=1e-5):
    """``verify_krylov_span`` of a candidate's window Krylov matrix."""
    return verify_krylov_span(window_matrix(spec, candidate, K), spec.branches * (K + 1), tol)
