"""Dense window matrices of operators that treeshift applies only to sparse
vectors: the similarity witness X, its decoupled target T, and the isometric
asymptote U on the stable window members.

Each is written out column by column from the public API (``g_vector``,
``g_norm``, the operator and a forward profile's evaluator), not from a
witness or descriptor, so a test can hold the sparse code to it.
"""

import math

import numpy as np

from treeshift.similarity import g_norm, g_vector


def x_matrix(operator, window):
    """X on the window of a comb or tilde shape: X e_k' = g_k / |g_k| for
    every primed window vertex k', and X e_u = e_u for every other."""
    mat = np.zeros((len(window), len(window)))
    for j, u in enumerate(window.order):
        if u.endswith("'"):
            k = int(u[:-1])
            for v, c in g_vector(operator, k).scaled(1.0 / g_norm(operator, k)).items():
                mat[window.index_of(v), j] = c
        else:
            mat[j, j] = 1.0
    return mat


def target_matrix(operator, window):
    """T = W + N (or the tilde analogue) written forward, column by column:
    the spine shifts with the original weights up to an unprimed leaf, the
    primed ray with the weight |g_(k-1)| / |g_k| into k', and the branch edge
    into 1' carries nothing."""
    unprimed_leaf = window.model.unprimed_leaf
    mat = np.zeros((len(window), len(window)))
    for j, u in enumerate(window.order):
        if u.endswith("'"):
            k = int(u[:-1]) + 1
            if f"{k}'" in window:
                mat[window.index_of(f"{k}'"), j] = g_norm(operator, k - 1) / g_norm(operator, k)
        else:
            nxt = str(int(u) + 1)
            if nxt in window and (unprimed_leaf is None or int(u) < unprimed_leaf):
                mat[window.index_of(nxt), j] = operator.weight(nxt)
    return mat


def asymptote_matrix(operator, profile, members, window):
    """(U, order): the asymptote U = S_beta compressed to the ``members`` of
    the window, in window order, with beta_v = lambda_v sqrt(alpha(v) /
    alpha(u)) on the edge from u to its child v, the alphas read from the
    forward profile's evaluator."""
    alpha = profile.evaluator
    order = [u for u in window.order if u in members]
    index = {u: i for i, u in enumerate(order)}
    mat = np.zeros((len(order), len(order)))
    for j, u in enumerate(order):
        for v in operator.children(u):
            if v in index:
                mat[index[v], j] = operator.weight(v) * math.sqrt(
                    alpha(v).estimate / alpha(u).estimate)
    return mat, order
