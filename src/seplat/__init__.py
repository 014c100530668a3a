"""Finite complete atomistic lattices and their separated products.

The package models a finite atomistic lattice as the family of its
closed atom sets (bitmask integers), equips it with optional
orthocomplementations, and builds the separated product of two such
lattices by two independent routes: closing the generator family of
crossed subsets under intersection, and biorthogonal closure of the
component-wise orthogonality relation between atom pairs.  On top of
that sit exhaustive checkers for the product axioms, automorphism
machinery, and the constructive characterization of orthocomplemented
products as separated products of orthocomplemented factors.
"""

from ._kernels import BACKEND
from .axioms import (
    Covering,
    check_sproduct,
    classify_invariant_subsets,
    connected_covering,
    induced_pair_group,
    laterally_connected,
    strongly_transitive,
    weakly_connected,
)
from .bitset import atoms_of, mask_of, popcount
from .builders import (
    build_boolean,
    build_mo,
    build_subspace_lattice,
    build_two,
)
from .errors import (
    CharacterizationError,
    CoveringError,
    FactorizationError,
    ForeignElementError,
    OrthoViolation,
    RelationError,
    SeplatError,
    SizeCapError,
    ValidationError,
)
from .io import (
    LatticeDocument,
    dump_lattice,
    dump_product,
    load_lattice_file,
    load_product,
    to_dot,
)
from .lattice import Lattice
from .morphisms import (
    characterize,
    enumerate_automorphisms,
    enumerate_orthocomplementations,
    factor_automorphism,
    isomorphic,
)
from .ortho import (
    AtomOrthogonality,
    OrthoMap,
    closure_from_orthogonality,
    is_orthomodular,
    validate_ortho,
)
from .perm import Automorphism, AutoGroup
from .product import (
    ProductLattice,
    aerts_product_general,
    aerts_product_sharp,
    lateral_join_check,
    sharp_relation,
    sproduct_join_lemma_check,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Automorphism",
    "AutoGroup",
    "AtomOrthogonality",
    "CharacterizationError",
    "Covering",
    "CoveringError",
    "FactorizationError",
    "ForeignElementError",
    "Lattice",
    "LatticeDocument",
    "OrthoMap",
    "OrthoViolation",
    "ProductLattice",
    "RelationError",
    "SeplatError",
    "SizeCapError",
    "ValidationError",
    "aerts_product_general",
    "aerts_product_sharp",
    "atoms_of",
    "build_boolean",
    "build_mo",
    "build_subspace_lattice",
    "build_two",
    "characterize",
    "check_sproduct",
    "classify_invariant_subsets",
    "closure_from_orthogonality",
    "connected_covering",
    "dump_lattice",
    "dump_product",
    "enumerate_automorphisms",
    "enumerate_orthocomplementations",
    "factor_automorphism",
    "induced_pair_group",
    "is_orthomodular",
    "isomorphic",
    "lateral_join_check",
    "laterally_connected",
    "load_lattice_file",
    "load_product",
    "mask_of",
    "popcount",
    "sharp_relation",
    "sproduct_join_lemma_check",
    "strongly_transitive",
    "to_dot",
    "validate_ortho",
    "weakly_connected",
]
