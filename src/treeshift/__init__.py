"""Weighted shifts on directed trees: asymptotics, asymptotes, cyclicity, similarity.

``import treeshift`` loads ``errors`` alone.  Every other public name is
listed once, under its home module, in ``_EXPORTS``; the module
``__getattr__`` imports that module and binds the name here on first access,
so ``from treeshift import X`` loads X's layer and nothing it does not need.
"""

import importlib

from . import errors

# home module -> the public names it gives the package
_EXPORTS = {
    "asymptote": ("adjoint_isometric_asymptote", "intertwining_residual", "isometric_asymptote",
                  "similar_to_coisometry", "similar_to_isometry"),
    "asymptotics": ("adjoint_profile", "alpha_profile", "classify", "stable_subtree"),
    "cyclicity": ("BackwardShiftSpec", "backward_shift_verdict", "cokernel_dimension",
                  "construct_backward_cyclic", "cyclicity_verdict", "sigma_m",
                  "verify_cyclic_candidate"),
    "similarity": ("build_leaf_similarity", "build_tilde_quasiaffinity", "g_vector",
                   "ratio_bounded"),
    "sparse": ("SparseVector",),
    "shifts": ("ShiftOperator",),
    "trees": ("branching_index", "leaves", "load_tree", "make_family", "materialize_window",
              "tree_from_json", "validate_finite"),
    "weights": ("load_weights", "weights_from_json"),
}

__all__ = ["errors", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
