"""Orthocomplementations and atom orthogonality relations.

An orthocomplementation is stored element-wise: a map from every closed
set to its orthocomplement.  `validate_ortho` is the single gatekeeper:
it checks totality, involution, order reversal and both complement laws,
naming the first violated law with a witness.

`closure_from_orthogonality` runs the biorthogonal closure construction:
given a symmetric, anti-reflexive, separating relation on atoms, the
subsets equal to their double polar form a complete atomistic lattice and
the polar map is an orthocomplementation of it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from . import _kernels
from .bitset import atoms_of, full_mask, is_subset, iter_atoms, popcount
from .errors import OrthoViolation, RelationError
from .lattice import Lattice


class OrthoMap:
    """Element-wise orthocomplementation of a lattice.

    Construct via :func:`validate_ortho` (validating) or the bare
    constructor (trusted data, e.g. the polar map of a closure).
    """

    __slots__ = ("lattice", "images")

    def __init__(self, lattice: Lattice, images: Mapping[int, int]):
        self.lattice = lattice
        self.images = dict(images)

    def __call__(self, mask: int) -> int:
        self.lattice.require(mask)
        return self.images[mask]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrthoMap)
            and self.lattice == other.lattice
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.lattice, tuple(sorted(self.images.items()))))

    def __repr__(self):
        return f"OrthoMap({self.lattice!r})"

    def atom_table(self) -> dict[int, int]:
        """Atom mask -> orthocomplement mask, for the atoms only."""
        return {p: self.images[p] for p in self.lattice.atoms()}

    @classmethod
    def from_atom_images(
        cls, lattice: Lattice, atom_images: Mapping[int, int]
    ) -> "OrthoMap":
        """Extend an atom-level candidate to all elements by meets:
        the image of x is the intersection of the images of its atoms,
        and the bottom maps to the top.  Not validated."""
        images = {}
        top = lattice.top
        for x in lattice.closed_sets:
            acc = top
            for a in iter_atoms(x):
                acc &= atom_images[1 << a]
            images[x] = acc
        return cls(lattice, images)


def validate_ortho(lattice: Lattice, candidate) -> OrthoMap:
    """Check a candidate orthocomplementation and return it as an OrthoMap.

    `candidate` is a mapping from element masks to element masks (an
    OrthoMap is accepted).  Raises OrthoViolation naming the first violated
    law: totality, involution, order-reversal, complement-meet,
    complement-join.

    A candidate passing the first three laws is an order anti-automorphism,
    which makes the two complement laws equivalent (apply the map to
    x v x' = top).  The join law is still checked so that every stated law
    is verified directly rather than by appeal to that argument.
    """
    images = candidate.images if isinstance(candidate, OrthoMap) else dict(candidate)
    fam = lattice.closed_sets
    for x in fam:
        if x not in images:
            raise OrthoViolation("totality: every element has an image", atoms_of(x))
        if images[x] not in lattice:
            raise OrthoViolation(
                "totality: images are lattice elements",
                (atoms_of(x), atoms_of(images[x])),
            )
    for x in fam:
        if images[images[x]] != x:
            raise OrthoViolation(
                "involution", (atoms_of(x), atoms_of(images[x]))
            )
    # An involution of an atomistic lattice reverses order exactly when
    # x' = ⋀_{p ≤ x} p' for every x: the meet is antitone in x, and an
    # order anti-automorphism sends the join of x's atoms to the meet of
    # their images.  Only a failed comparison, which guarantees a violating
    # pair, pays for the pair loop that finds the witness.
    meets = OrthoMap.from_atom_images(lattice, images).images
    if any(images[x] != meets[x] for x in fam):
        for x in fam:
            ix = images[x]
            for y in fam:
                if is_subset(x, y) and not is_subset(images[y], ix):
                    raise OrthoViolation("order-reversal", (atoms_of(x), atoms_of(y)))
    for x in fam:
        if x & images[x]:
            raise OrthoViolation("complement-meet", atoms_of(x))
    top = lattice.top
    for x in fam:
        if lattice.join((x, images[x])) != top:
            raise OrthoViolation("complement-join", atoms_of(x))
    return OrthoMap(lattice, images)


def atom_perp(ortho: OrthoMap, p: int, q: int) -> bool:
    """True iff atom p lies below the orthocomplement of atom q."""
    return is_subset(p, ortho(q))


def is_orthomodular(lattice: Lattice, ortho: OrthoMap) -> bool:
    """Orthomodular law: x <= y implies y = x v (x' ^ y)."""
    fam = lattice.closed_sets
    for x in fam:
        ox = ortho.images[x]
        for y in fam:
            if is_subset(x, y) and lattice.join((x, ox & y)) != y:
                return False
    return True


def commutes(ortho: OrthoMap, a: int, b: int) -> bool:
    """True iff a = (a ^ b) v (a ^ b')."""
    lat = ortho.lattice
    lat.require(a)
    lat.require(b)
    return lat.join((a & b, a & ortho.images[b])) == a


class AtomOrthogonality:
    """Symmetric, anti-reflexive, separating relation on atom indices.

    Stored as one polar mask per atom: bit q of polars[p] is set iff
    p and q are orthogonal.
    """

    __slots__ = ("atom_count", "polars")

    def __init__(self, atom_count: int, polars: Sequence[int]):
        self.atom_count = atom_count
        self.polars = tuple(polars)
        if len(self.polars) != atom_count:
            raise RelationError("one polar per atom", len(self.polars))

    @classmethod
    def from_pairs(cls, atom_count: int, pairs: Iterable[tuple[int, int]]):
        polars = [0] * atom_count
        for p, q in pairs:
            polars[p] |= 1 << q
            polars[q] |= 1 << p
        return cls(atom_count, polars)

    def related(self, p: int, q: int) -> bool:
        return bool(self.polars[p] >> q & 1)

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for p in range(self.atom_count):
            m = self.polars[p] >> (p + 1) << (p + 1)
            out.extend((p, q) for q in iter_atoms(m))
        return out

    def polar_of(self, subset: int) -> int:
        """Atoms orthogonal to every atom of `subset`."""
        acc = full_mask(self.atom_count)
        for p in iter_atoms(subset):
            acc &= self.polars[p]
        return acc

    def validate(self) -> None:
        """Raise RelationError on the first violation of symmetry,
        anti-reflexivity or separation."""
        n = self.atom_count
        for p in range(n):
            if self.polars[p] >> p & 1:
                raise RelationError("anti-reflexivity", (p,))
            for q in iter_atoms(self.polars[p]):
                if not self.polars[q] >> p & 1:
                    raise RelationError("symmetry", (p, q))
        for p in range(n):
            for q in range(n):
                if p != q and self.polars[p] & ~self.polars[q] == 0:
                    raise RelationError(
                        "separation: some atom is orthogonal to p but not q",
                        (p, q),
                    )


def closure_from_orthogonality(
    atom_count: int,
    relation: AtomOrthogonality,
    atom_labels: Optional[Sequence[str]] = None,
) -> tuple[Lattice, OrthoMap]:
    """Biorthogonal closure of a valid atom orthogonality.

    The closed sets are exactly the polars of arbitrary atom subsets: the
    full set (polar of nothing), the atom polars, and their intersections.
    Separation makes every singleton closed, and the polar map restricted
    to the closed sets is an orthocomplementation.
    """
    if relation.atom_count != atom_count:
        raise RelationError("relation matches atom count", relation.atom_count)
    relation.validate()
    top = full_mask(atom_count)
    seeds = list(relation.polars)
    family = _kernels.close_under_intersection(seeds, top)
    lat = Lattice.from_closed_family(
        atom_count, family, mode="validate", atom_labels=atom_labels
    )
    images = {s: relation.polar_of(s) for s in lat.closed_sets}
    return lat, OrthoMap(lat, images)
