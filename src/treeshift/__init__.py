"""Weighted shifts on directed trees: asymptotics, asymptotes, cyclicity, similarity."""

from . import errors
from .asymptote import (
    adjoint_isometric_asymptote,
    intertwining_residual,
    isometric_asymptote,
    similar_to_coisometry,
    similar_to_isometry,
)
from .asymptotics import adjoint_profile, alpha_profile, classify, stable_subtree
from .cyclicity import (
    BackwardShiftSpec,
    backward_shift_verdict,
    cokernel_dimension,
    construct_backward_cyclic,
    cyclicity_verdict,
    sigma_m,
    verify_cyclic_candidate,
)
from .similarity import (
    build_leaf_similarity,
    build_tilde_quasiaffinity,
    direct_sum_decomposition,
    g_vector,
    ratio_bounded,
)
from .sparse import SparseVector
from .shifts import ShiftOperator
from .trees import (
    branching_index,
    chi_n,
    gen_n,
    leaves,
    load_tree,
    make_family,
    materialize_window,
    tree_from_json,
    validate_finite,
)
from .weights import load_weights, weights_from_json

__all__ = [
    "errors",
    "SparseVector",
    "ShiftOperator",
    "BackwardShiftSpec",
    "adjoint_isometric_asymptote",
    "adjoint_profile",
    "alpha_profile",
    "backward_shift_verdict",
    "branching_index",
    "build_leaf_similarity",
    "build_tilde_quasiaffinity",
    "chi_n",
    "classify",
    "cokernel_dimension",
    "construct_backward_cyclic",
    "cyclicity_verdict",
    "direct_sum_decomposition",
    "g_vector",
    "gen_n",
    "intertwining_residual",
    "isometric_asymptote",
    "leaves",
    "load_tree",
    "load_weights",
    "make_family",
    "materialize_window",
    "ratio_bounded",
    "sigma_m",
    "similar_to_coisometry",
    "similar_to_isometry",
    "stable_subtree",
    "tree_from_json",
    "validate_finite",
    "verify_cyclic_candidate",
    "weights_from_json",
]
