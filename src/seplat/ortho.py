"""Orthocomplementations and atom orthogonality relations.

An orthocomplementation is stored as its atom table, the orthocomplement
of each atom; every other element goes to the meet of its atoms' images.
`validate_ortho` is the single gatekeeper for element maps from outside:
it checks totality, involution, order reversal and both complement laws,
naming the first violated law with a witness.

`closure_from_orthogonality` runs the biorthogonal closure construction:
given a symmetric, anti-reflexive, separating relation on atoms, the
subsets equal to their double polar form a complete atomistic lattice and
the polar map is an orthocomplementation of it.
"""

from __future__ import annotations

from itertools import compress
from operator import ne, not_
from typing import Iterable, Mapping, Optional, Sequence

from .bitset import atoms_of, holding, is_subset, iter_atoms
from .errors import OrthoViolation, RelationError, ValidationError
from .lattice import Lattice


class OrthoMap:
    """An orthocomplementation of a lattice, held as its atom table.

    `table` maps each atom mask p to the mask of its orthocomplement c_p.
    Every element goes to the meet of its atoms' images (the bottom to the
    top); `images` builds that meet extension on first use.  The bare
    constructor trusts its table; :func:`validate_ortho` checks an element
    map law by law and returns it in this form.
    """

    __slots__ = ("lattice", "table", "_images")

    def __init__(self, lattice: Lattice, table: Mapping[int, int]):
        self.lattice = lattice
        self.table = dict(table)
        self._images: Optional[dict[int, int]] = None

    @property
    def images(self) -> dict[int, int]:
        """Element mask -> orthocomplement mask, for every element."""
        if self._images is None:
            n = self.lattice.atom_count
            by_atom = [self.table[1 << a] for a in range(n)]
            self._images = {x: holding(by_atom, x, n) for x in self.lattice.closed_sets}
        return self._images

    def __call__(self, mask: int) -> int:
        self.lattice.require(mask)
        return self.images[mask]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrthoMap)
            and self.lattice == other.lattice
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.lattice, tuple(sorted(self.table.items()))))

    def __repr__(self):
        return f"OrthoMap({self.lattice!r})"


def validate_ortho(lattice: Lattice, candidate) -> OrthoMap:
    """Check a candidate orthocomplementation and return it as an OrthoMap.

    `candidate` is a mapping from element masks to element masks, or an
    OrthoMap, which is returned itself when it belongs to this lattice.
    Raises OrthoViolation naming the first violated law: totality,
    involution, order-reversal, complement-meet, complement-join.

    A candidate passing the first three laws is an order anti-automorphism,
    which makes the two complement laws equivalent (apply the map to
    x v x' = top).  The join law is still checked so that every stated law
    is verified directly rather than by appeal to that argument.

    Each law but order reversal is decided by one pass over the whole
    family, which yields the elements that break it; the first of them is
    the witness, the first in family order.  Order reversal is decided by
    comparing the candidate with its meet extension, which names no pair,
    so a failed comparison runs a loop over the element pairs for the
    witness.

    Totality reads the member set as the keys of the signature map (see
    `Lattice.signatures`).  Complement-join is read off the signatures of
    `meet_irreducibles`: x v x' = top exactly when sig(x) & sig(x') = 0,
    so that AND is the check and no join is taken.  The join is the
    member whose signature is sig(x) & sig(x') (see `Lattice.join`), and
    top's signature is 0, as no meet-irreducible lies above top.  A
    nonzero selection names a member, or on a bare unvalidated `Lattice`
    a meet of meet-irreducibles, that lies below some meet-irreducible,
    which is not top; so that join is not top.
    """
    own = isinstance(candidate, OrthoMap) and candidate.lattice == lattice
    images = candidate.images if isinstance(candidate, OrthoMap) else dict(candidate)
    fam = lattice.closed_sets
    img = list(map(images.get, fam))
    sig, _ = lattice.signatures()  # keyed by the members
    # a missing image reads None, which is no member either
    x = next(compress(fam, map(not_, map(sig.__contains__, img))), None)
    if x is not None:
        if x not in images:
            raise OrthoViolation("totality: every element has an image", atoms_of(x))
        raise OrthoViolation(
            "totality: images are lattice elements", (atoms_of(x), atoms_of(images[x]))
        )
    x = next(compress(fam, map(ne, map(images.__getitem__, img), fam)), None)
    if x is not None:
        raise OrthoViolation("involution", (atoms_of(x), atoms_of(images[x])))
    # An involution of an atomistic lattice reverses order exactly when
    # x' = ⋀_{p ≤ x} p' for every x: the meet is antitone in x, and an
    # order anti-automorphism sends the join of x's atoms to the meet of
    # their images.  An OrthoMap of this lattice is that meet extension
    # already.  The comparison cannot name a violating pair, so only a
    # failed comparison, which guarantees one, pays for the pair loop
    # that finds it.
    omap = candidate if own else OrthoMap(lattice, {p: images[p] for p in lattice.atoms()})
    if not own and list(map(omap.images.__getitem__, fam)) != img:
        for x in fam:
            ix = images[x]
            for y in fam:
                if is_subset(x, y) and not is_subset(images[y], ix):
                    raise OrthoViolation("order-reversal", (atoms_of(x), atoms_of(y)))
    x = next(compress(fam, map(int.__and__, fam, img)), None)
    if x is not None:
        raise OrthoViolation("complement-meet", atoms_of(x))
    x = next(
        compress(fam, map(int.__and__, map(sig.__getitem__, fam), map(sig.__getitem__, img))),
        None,
    )
    if x is not None:
        raise OrthoViolation("complement-join", atoms_of(x))
    return omap


def is_orthomodular(lattice: Lattice, ortho: OrthoMap) -> bool:
    """Orthomodular law: x <= y implies y = x v (x' ^ y).

    Checked on the cover pairs: the law holds iff x' ^ y != 0 for every
    cover x < y.  If it holds, a cover with x' ^ y = 0 would give
    y = x v 0 = x.  If it fails at x <= y, then z = x v (x' ^ y) < y, and
    z' ^ y = x' ^ (x v y') ^ y lies below x' ^ y, which lies below z, so
    z' ^ y <= z ^ z' = 0; every cover w of z below y then has z' ^ w = 0.
    ValidationError for a map of another lattice.
    """
    if ortho.lattice != lattice:
        raise ValidationError("ortho map belongs to the lattice")
    return all(ortho.images[x] & y for x, y in lattice.covers())


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
        """The relation holding exactly the given pairs, each in both
        directions; RelationError, witness (p, q), for a pair whose
        indices are not both ints in 0..atom_count-1."""
        polars = [0] * atom_count
        for p, q in pairs:
            if not all(type(a) is int and 0 <= a < atom_count for a in (p, q)):
                raise RelationError("pairs use atoms 0..atom_count-1", (p, q))
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
        """Atoms orthogonal to every atom of `subset`; RelationError for a
        subset holding an atom outside 0..atom_count-1."""
        if subset >> self.atom_count > 0:
            raise RelationError("subsets use atoms 0..atom_count-1", atoms_of(subset))
        return holding(self.polars, subset, self.atom_count)

    def validate(self) -> None:
        """Raise RelationError on the first polar holding an atom outside
        0..atom_count-1 (a negative mask included), then on the first
        violation of symmetry, anti-reflexivity or separation.

        Separation fails at (p, q), q != p, when polars[p] ⊆ polars[q].
        Once the relation is symmetric, the atoms q with polars[p] ⊆
        polars[q] are those orthogonal to every atom of polars[p], the
        double polar `polar_of(polars[p])`, so each p costs one pass over
        its polar rather than one comparison per atom; the first witness
        (p, q), in lexicographic order, is that of the all-pairs scan."""
        n = self.atom_count
        for p in range(n):
            if self.polars[p] >> n:  # also -1 for a negative polar
                raise RelationError("polars hold atoms 0..atom_count-1", (p,))
        for p in range(n):
            if self.polars[p] >> p & 1:
                raise RelationError("anti-reflexivity", (p,))
            for q in iter_atoms(self.polars[p]):
                if not self.polars[q] >> p & 1:
                    raise RelationError("symmetry", (p, q))
        for p in range(n):
            unseparated = self.polar_of(self.polars[p]) & ~(1 << p)
            if unseparated:
                q = (unseparated & -unseparated).bit_length() - 1
                raise RelationError(
                    "separation: some atom is orthogonal to p but not q", (p, q)
                )


def closure_from_orthogonality(
    atom_count: int,
    relation: AtomOrthogonality,
    atom_labels: Optional[Sequence[str]] = None,
) -> tuple[Lattice, OrthoMap]:
    """Biorthogonal closure of a valid atom orthogonality.

    The closed sets are exactly the polars of arbitrary atom subsets: the
    full set (polar of nothing), the atom polars, and their intersections,
    so the atom polars go to `Lattice.from_closed_family` in complete
    mode.  The bottom and singletons that mode adds are closed sets
    already: separation makes every singleton {p} the intersection of the
    polars of the atoms in polars[p], and bottom is the polar of all
    atoms.  The polar map restricted to the closed sets is an
    orthocomplementation.
    """
    if relation.atom_count != atom_count:
        raise RelationError("relation matches atom count", relation.atom_count)
    relation.validate()
    lat = Lattice.from_closed_family(
        atom_count, relation.polars, mode="complete", atom_labels=atom_labels
    )
    return lat, OrthoMap(lat, {1 << p: c for p, c in enumerate(relation.polars)})
