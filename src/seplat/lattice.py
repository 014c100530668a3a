"""Finite complete atomistic lattices as intersection-closed set families.

A lattice is stored as the family of its closed atom sets (one mask per
element).  Meets are intersections; the join of a collection is the
smallest closed superset of its union.  The family always contains the
empty set (bottom) and the full set (top), and every singleton is closed,
which makes the lattice atomistic with the singletons as its atoms.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import _kernels
from .bitset import (
    atoms_of,
    canonical_family,
    full_mask,
    is_subset,
    popcount,
)
from .errors import ForeignElementError, ValidationError


class Lattice:
    """A finite complete atomistic lattice.

    Elements are atom-set masks; the family of closed sets is kept in
    canonical order (sorted by ascending atom tuple).  Construct through
    :meth:`from_closed_family`; the bare constructor canonicalizes but does
    not validate.
    """

    __slots__ = (
        "atom_count",
        "closed_sets",
        "atom_labels",
        "_index",
        "_covers",
        "_meet_irreducibles",
    )

    def __init__(
        self,
        atom_count: int,
        closed_sets: Iterable[int],
        atom_labels: Optional[Sequence[str]] = None,
    ):
        self.atom_count = atom_count
        self.closed_sets = canonical_family(closed_sets)
        if atom_labels is not None:
            atom_labels = tuple(atom_labels)
            if len(atom_labels) != atom_count:
                raise ValidationError("atom labels match atom count", atom_labels)
        self.atom_labels = atom_labels
        self._index = {m: i for i, m in enumerate(self.closed_sets)}
        self._covers = None
        self._meet_irreducibles = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_closed_family(
        cls,
        atom_count: int,
        sets: Iterable[int],
        mode: str = "validate",
        atom_labels: Optional[Sequence[str]] = None,
    ) -> "Lattice":
        """Build a lattice from a family of atom-set masks.

        mode="validate" requires the family to already satisfy every
        invariant (top, bottom and all singletons present, closed under
        pairwise intersection) and raises ValidationError naming the first
        violated invariant otherwise.  mode="complete" adds the missing
        sets and closes under intersection.
        """
        if atom_count < 0:
            raise ValidationError("atom count is nonnegative", atom_count)
        masks = list(sets)
        if mode not in ("validate", "complete"):
            raise ValueError(f"unknown mode: {mode!r}")
        if not masks and mode == "validate":
            raise ValidationError("family is nonempty", ())
        top = full_mask(atom_count)
        for m in masks:
            if m & ~top:
                raise ValidationError(
                    "members use atoms 0..atom_count-1", atoms_of(m)
                )
        if mode == "complete":
            seeds = set(masks)
            seeds.add(0)
            seeds.update(1 << a for a in range(atom_count))
            masks = _kernels.close_under_intersection(sorted(seeds), top)
            return cls(atom_count, masks, atom_labels)
        lat = cls(atom_count, masks, atom_labels)
        lat.validate()
        return lat

    def validate(self) -> None:
        """Check every structural invariant, raising ValidationError with
        the first violated law and a witness."""
        top = full_mask(self.atom_count)
        fam = self.closed_sets
        index = self._index
        if top not in index:
            raise ValidationError("full atom set is closed", atoms_of(top))
        if 0 not in index:
            raise ValidationError("empty set is closed", ())
        for a in range(self.atom_count):
            if (1 << a) not in index:
                raise ValidationError("every singleton is closed", (a,))
        for i, x in enumerate(fam):
            for y in fam[i + 1 :]:
                z = x & y
                if z not in index:
                    raise ValidationError(
                        "family is closed under intersection",
                        (atoms_of(x), atoms_of(y)),
                        f"missing {atoms_of(z)}",
                    )

    # -- basic structure ----------------------------------------------

    @property
    def top(self) -> int:
        return full_mask(self.atom_count)

    @property
    def bottom(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.closed_sets)

    def __iter__(self):
        return iter(self.closed_sets)

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.atom_count == other.atom_count
            and self.closed_sets == other.closed_sets
        )

    def __hash__(self):
        return hash((self.atom_count, self.closed_sets))

    def __repr__(self):
        return f"Lattice({self.atom_count} atoms, {len(self.closed_sets)} elements)"

    def element_index(self, mask: int) -> int:
        try:
            return self._index[mask]
        except KeyError:
            raise ForeignElementError(mask) from None

    def require(self, mask: int) -> int:
        if mask not in self._index:
            raise ForeignElementError(mask)
        return mask

    def label_of(self, mask: int) -> str:
        if self.atom_labels is None:
            names = [str(a) for a in atoms_of(mask)]
        else:
            names = [self.atom_labels[a] for a in atoms_of(mask)]
        return "{" + ",".join(names) + "}"

    # -- order and operations -------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        self.require(x)
        self.require(y)
        return is_subset(x, y)

    def meet(self, xs: Iterable[int]) -> int:
        """Meet of any collection of elements; empty collection gives top."""
        acc = self.top
        for x in xs:
            acc &= self.require(x)
        return acc

    def join(self, xs: Iterable[int]) -> int:
        """Join of any collection: the smallest closed superset of the
        union.  Empty collection gives bottom."""
        u = 0
        for x in xs:
            u |= self.require(x)
        return self.closure(u)

    def closure(self, raw: int) -> int:
        """Smallest closed superset of an arbitrary atom set."""
        if raw in self._index:
            return raw
        acc = self.top
        for s in self.closed_sets:
            if raw & ~s == 0:
                acc &= s
        return acc

    def atoms(self) -> tuple[int, ...]:
        return tuple(1 << a for a in range(self.atom_count))

    def coatoms(self) -> tuple[int, ...]:
        """Maximal proper elements."""
        top = self.top
        proper = [s for s in self.closed_sets if s != top]
        out = []
        for s in proper:
            if not any(t != s and is_subset(s, t) for t in proper):
                out.append(s)
        return tuple(out)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All cover pairs (x, y) with y covering x, in family order."""
        if self._covers is None:
            fam = self.closed_sets
            out = []
            for x in fam:
                ups = [y for y in fam if y != x and is_subset(x, y)]
                ups.sort(key=popcount)
                minimal = []
                for y in ups:
                    if not any(is_subset(z, y) for z in minimal):
                        minimal.append(y)
                out.extend((x, y) for y in minimal)
            self._covers = tuple(out)
        return self._covers

    def meet_irreducibles(self) -> tuple[int, ...]:
        """The members other than top that are not the intersection of
        their strict supersets (those with exactly one upper cover), in
        family order.

        They determine the lattice: every member is the intersection of
        the meet-irreducibles above it.  (Top is the empty intersection; a
        member that is not meet-irreducible is the intersection of its
        strict supersets, each of which is such an intersection already.)
        So a bijection u from these atoms onto the atoms of a lattice M,
        which keeps intersections and top, sends every member into M
        exactly when it sends every meet-irreducible into M, as M is
        closed under intersection; u is injective on masks, so it then
        maps the family onto M when M has as many members.  In particular
        an atom permutation preserves the family exactly when it maps the
        meet-irreducibles into themselves: if it does, the family maps
        onto itself, and conversely an automorphism keeps the order, so it
        maps meet-irreducibles to meet-irreducibles.

        Computed in one pass in descending popcount order: a member is
        meet-irreducible exactly when the meet-irreducibles found before
        it that contain it do not intersect to it.  Cost O(N·|MI|).
        """
        if self._meet_irreducibles is None:
            top = self.top
            found: list[int] = []
            for x in sorted(self.closed_sets, key=popcount, reverse=True):
                acc = top
                for m in found:
                    if x & ~m == 0:
                        acc &= m
                if acc != x:
                    found.append(x)
            keep = set(found)
            self._meet_irreducibles = tuple(
                s for s in self.closed_sets if s in keep
            )
        return self._meet_irreducibles

    def upper_covers(self, x: int) -> tuple[int, ...]:
        self.require(x)
        return tuple(y for (a, y) in self.covers() if a == x)

    def covers_pair(self, x: int, y: int) -> bool:
        """True iff y covers x: x < y with no closed set strictly between."""
        self.require(x)
        self.require(y)
        if x == y or not is_subset(x, y):
            return False
        for z in self.closed_sets:
            if z != x and z != y and is_subset(x, z) and is_subset(z, y):
                return False
        return True

    # -- derived properties -------------------------------------------

    def is_coatomistic(self) -> bool:
        """True iff every element is a meet of coatoms."""
        cos = self.coatoms()
        for x in self.closed_sets:
            acc = self.top
            for c in cos:
                if is_subset(x, c):
                    acc &= c
            if acc != x:
                return False
        return True

    def has_covering_property(self) -> bool:
        """True iff for every atom p and element a with p not below a,
        the join a v p covers a."""
        for p in self.atoms():
            for a in self.closed_sets:
                if is_subset(p, a):
                    continue
                j = self.join((a, p))
                if not self.covers_pair(a, j):
                    return False
        return True
