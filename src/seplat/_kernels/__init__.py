"""Kernel backend selection.

The compiled extension is used when the build produced it; otherwise the
pure-Python twins take over with identical semantics.  `BACKEND` reports
which one is active, and setting the environment variable
SEPLAT_FORCE_PURE (to any nonempty value) before import skips the
compiled extension.  The compiled kernels work on 64-bit masks, so
instances wider than 64 atoms are always routed to the pure versions.
"""

import os

from . import pure
from .pure import _mask_action  # one permutation's mask action, for seplat.perm

_compiled = None
if not os.environ.get("SEPLAT_FORCE_PURE"):
    try:
        from . import _speedups as _compiled
    except ImportError:
        _compiled = None

BACKEND = "pure" if _compiled is None else "compiled"

_impl = _compiled if _compiled is not None else pure


def close_under_intersection(seeds, universe):
    if universe.bit_length() > 64:
        return pure.close_under_intersection(seeds, universe)
    return _impl.close_under_intersection(seeds, universe)


def invariant_subsets(perms, n_atoms):
    if n_atoms > 31:
        return pure.invariant_subsets(perms, n_atoms)
    return _impl.invariant_subsets(perms, n_atoms)


def family_preserved(perm, family, n_atoms):
    if n_atoms > 64:
        return pure.family_preserved(perm, family, n_atoms)
    return _impl.family_preserved(perm, family, n_atoms)


__all__ = [
    "BACKEND",
    "close_under_intersection",
    "invariant_subsets",
    "family_preserved",
    "pure",
]
