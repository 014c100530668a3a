"""Finite complete atomistic lattices as intersection-closed set families.

A lattice is stored as the family of its closed atom sets (one mask per
element).  Meets are intersections; the join of a collection is the
smallest closed superset of its union.  The family always contains the
empty set (bottom) and the full set (top), and every singleton is closed,
which makes the lattice atomistic with the singletons as its atoms.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from . import _kernels
from .bitset import (
    atoms_of,
    canonical_family,
    full_mask,
    holding,
    is_subset,
    iter_atoms,
    popcount,
)
from .errors import ForeignElementError, ValidationError


def _require_atoms(mask: int, top: int) -> None:
    """Raise ValidationError unless `mask` is a set of the atoms in `top`."""
    if mask < 0:
        raise ValidationError("members use atoms 0..atom_count-1", mask)
    if mask & ~top:
        raise ValidationError("members use atoms 0..atom_count-1", atoms_of(mask))


class _BySignature(dict):
    """Signature -> member, the inverse of the signature map of
    `Lattice.meet_irreducibles`.  A signature that no member has, which
    only arises on a bare `Lattice` that was never validated, reads as the
    meet of the meet-irreducibles whose found-order indices are its bits
    (top for none)."""

    __slots__ = ("found", "atom_count")

    def __init__(self, sig: dict[int, int], found: tuple[int, ...], atom_count: int):
        super().__init__((v, k) for k, v in sig.items())
        self.found = found
        self.atom_count = atom_count

    def __missing__(self, sig: int) -> int:
        return holding(self.found, sig, self.atom_count)


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
        "_mi_found",
        "_atom_rows",
        "_sig",
        "_by_sig",
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
        self._mi_found = None
        self._atom_rows = None
        self._sig = None
        self._by_sig = None

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
        violated invariant otherwise; it is for families from outside.

        mode="complete" treats `sets` as generators: one kernel call
        closes them under intersection together with top, bottom and the
        singletons, which the kernel adds itself.  This is how every
        lattice seplat constructs is built.  The result meets every law
        `validate` checks, so it is not checked again: the kernel's
        closure is closed under intersection and holds top, bottom and
        every singleton.  Whether bottom and the singletons were already
        in the closure of the generators alone is the caller's own
        mathematics, which its docstring states.
        """
        if atom_count < 0:
            raise ValidationError("atom count is nonnegative", atom_count)
        masks = list(sets)
        if mode not in ("validate", "complete"):
            raise ValueError(f"unknown mode: {mode!r}")
        if not masks and mode == "validate":
            raise ValidationError("family is nonempty", ())
        top = full_mask(atom_count)
        # a mask holds only atoms of top exactly when 0 <= mask <= top
        if masks and not (0 <= min(masks) and max(masks) <= top):
            for m in masks:
                _require_atoms(m, top)
        if mode == "complete":
            masks = _kernels.close_under_intersection(masks, top)
            return cls(atom_count, masks, atom_labels)
        lat = cls(atom_count, masks, atom_labels)
        lat.validate()
        return lat

    def validate(self) -> None:
        """Check every structural invariant, raising ValidationError with
        the first violated law and a witness.

        Closure under intersection is checked by closing the
        meet-irreducibles (MI) inside the family.  The descending pass of
        `meet_irreducibles` makes every member of a family with top the
        intersection of the candidates found above it, so the family lies
        inside the closure of top and the MI, and it is closed exactly
        when that closure lies inside it.  The closure is built one MI m
        at a time as in `_kernels.close_under_intersection`, C grows by
        {m ∩ c : c ∈ C}, and the first step that leaves the family is
        reported with the witness (c, m), c the first member of C in
        family order with c ∩ m missing.  C never leaves the family, so
        even a malformed family costs at most |family| · |MI| ANDs.

        Only the members of C with three atoms or more are kept and
        intersected with m.  Bottom and the singletons are checked first,
        and a member c of at most two atoms has only bottom, its
        singletons and itself below it, so c ∩ m is a member and c is
        never a witness.  A member of C with three atoms or more is m ∩ c
        for a c at least as large, so the kept part of C is the same at
        every step, and the step that fails and its witness are those of
        the whole C."""
        top = full_mask(self.atom_count)
        index = self._index
        if top not in index:
            raise ValidationError("full atom set is closed", atoms_of(top))
        if 0 not in index:
            raise ValidationError("empty set is closed", ())
        for a in range(self.atom_count):
            if (1 << a) not in index:
                raise ValidationError("every singleton is closed", (a,))
        wide = {top} if top.bit_count() > 2 else set()
        for m in self.meet_irreducibles():
            new = set(map(m.__and__, wide))
            if not index.keys() >= new:
                c = next(c for c in self.closed_sets if c in wide and c & m not in index)
                raise ValidationError(
                    "family is closed under intersection",
                    (atoms_of(c), atoms_of(m)),
                    f"missing {atoms_of(c & m)}",
                )
            wide.update([c for c in new if c.bit_count() > 2])

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
        _require_atoms(mask, self.top)
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
        union.  Empty collection gives bottom.

        Read off the signatures of `meet_irreducibles`: the
        meet-irreducibles above the union are those above every x, the
        AND of the signatures, and the member that is their meet, the
        join, has exactly that signature.  A signature that no member has
        only arises on a bare `Lattice` that was never validated; the
        join is then the meet of those meet-irreducibles (`_BySignature`)."""
        sig, member = self.signatures()
        sel = (1 << len(self._mi_found)) - 1
        for x in xs:
            try:
                sel &= sig[x]
            except KeyError:
                raise ForeignElementError(x) from None
        return member[sel]

    def closure(self, raw: int) -> int:
        """Smallest closed superset of an arbitrary set of the lattice's
        atoms; ValidationError for any other int.

        The closure is a member, hence the meet of the meet-irreducibles
        above it, and those are exactly the meet-irreducibles above `raw`:
        the AND of the incidence rows of raw's atoms, which is the
        closure's signature.  Cost O(|raw|) ANDs and one lookup."""
        if raw in self._index:
            return raw
        _require_atoms(raw, self.top)
        if self._atom_rows is None:
            self.meet_irreducibles()
        return self._by_sig[holding(self._atom_rows, raw, len(self._mi_found))]

    def atoms(self) -> tuple[int, ...]:
        return tuple(1 << a for a in range(self.atom_count))

    def coatoms(self) -> tuple[int, ...]:
        """Maximal proper elements, in family order.

        These are the meet-irreducibles whose signature (see
        `meet_irreducibles`) is their own bit alone.  A coatom is
        meet-irreducible, and no other meet-irreducible lies above it, as
        its only strict superset is top.  Conversely, a member z with
        m ⊊ z ⊊ top is the meet of the meet-irreducibles above it, at
        least one, and each lies strictly above m."""
        sig, _ = self.signatures()
        return tuple(m for m in self.meet_irreducibles() if popcount(sig[m]) == 1)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All cover pairs (x, y) with y covering x, in family order: by x,
        then by y's popcount, then by y's family index.

        Read off the signatures of `meet_irreducibles`: x is a lower
        cover of the member y exactly when x ≠ y and
        #{m ∈ MI : y ∩ m = x} = |sig(x)| − |sig(y)|.  For x < y the m with
        y ∩ m = x lie in sig(x) − sig(y) (m ⊇ x, m ⊉ y), and sig(y) ⊆
        sig(x).  If y covers x, every m of sig(x) − sig(y) has
        x ⊆ y ∩ m ⊊ y, so y ∩ m = x and the count is the difference.  If
        some z lies strictly between, signatures are distinct, so sig(z) −
        sig(y) holds some m, and y ∩ m ⊇ z ≠ x for that m of sig(x) −
        sig(y): the count falls short.  Every lower cover x is some y ∩ m,
        as sig(x) − sig(y) is nonempty.  So each y costs one AND per
        meet-irreducible and a count of the results.  The members y are
        visited by popcount, then family index, and appended to a bucket
        per x, which gives the order above.

        A member y of at most two atoms takes no count: the lattice holds
        bottom and every singleton, so the lower covers of an atom are
        bottom alone, and those of {p, q} are {p} and {q}, y less one
        atom either way."""
        if self._covers is None:
            sig, _ = self.signatures()
            found = self._mi_found
            below: dict[int, list[int]] = {x: [] for x in self.closed_sets}
            for y in sorted(self.closed_sets, key=int.bit_count):
                if y.bit_count() < 3:
                    rest = y
                    while rest:
                        low = rest & -rest
                        below[y ^ low].append(y)
                        rest ^= low
                    continue
                rank = popcount(sig[y])
                for x, count in Counter(map(y.__and__, found)).items():
                    if x != y and count == popcount(sig[x]) - rank:
                        below[x].append(y)
            self._covers = tuple((x, y) for x, ups in below.items() for y in ups)
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
        it that contain it do not intersect to it.  The pass keeps one
        incidence row per atom p, whose bit k is set when the k-th
        meet-irreducible found holds p, so the ones above x are the AND of
        the rows of x's atoms.  Cost O(Σ_x (|x| + #MI above x)).

        The pass keeps, besides the rows and the meet-irreducibles in the
        order found, each member's signature: the mask over found-order
        indices of the meet-irreducibles above it, its own bit included
        when it is one.  Every meet-irreducible strictly above x has more
        atoms, so it was found before x, and the mask the pass computes
        for x is already complete.  The meet of a member's signature is
        the member, so signatures are distinct, and `join` reads the
        member back from the inverse dict.
        """
        if self._meet_irreducibles is None:
            top = self.top
            found: list[int] = []
            rows = [0] * self.atom_count
            sig: dict[int, int] = {}
            for x in sorted(self.closed_sets, key=int.bit_count, reverse=True):
                # the two loops are `holding` inline: calling it made this pass ~15 % slower
                above = (1 << len(found)) - 1
                rest = x
                while rest and above:
                    low = rest & -rest
                    above &= rows[low.bit_length() - 1]
                    rest ^= low
                # every meet-irreducible above x holds x, so acc stays x once it is
                acc, rest = top, above
                while rest and acc != x:
                    low = rest & -rest
                    acc &= found[low.bit_length() - 1]
                    rest ^= low
                if acc != x:
                    bit = 1 << len(found)
                    above |= bit
                    rest = x
                    while rest:
                        low = rest & -rest
                        rows[low.bit_length() - 1] |= bit
                        rest ^= low
                    found.append(x)
                sig[x] = above
            keep = set(found)
            self._meet_irreducibles = tuple(s for s in self.closed_sets if s in keep)
            self._mi_found = tuple(found)
            self._atom_rows = rows
            self._sig = sig
            self._by_sig = _BySignature(sig, self._mi_found, self.atom_count)
        return self._meet_irreducibles

    def signatures(self) -> tuple[dict[int, int], dict[int, int]]:
        """(sig, member): each member's signature (see
        `meet_irreducibles`), and the member with a given signature.

        The join of members is the member whose signature is the AND of
        theirs (see `join`), so a caller reads joins off these two maps
        with ANDs and lookups.  When the family is closed under
        intersection, as every lattice `from_closed_family` builds is,
        every AND of signatures is a member's signature.  The maps are the
        lattice's own and must not be changed."""
        if self._sig is None:
            self.meet_irreducibles()
        return self._sig, self._by_sig

    def is_closure_of(self, seeds: Iterable[int]) -> bool:
        """True iff closing `seeds` under intersection, with top added,
        gives exactly this family.

        The family is closed and holds top, so that closure lies inside
        it exactly when every seed is a member.  It lies inside that
        closure exactly when every meet-irreducible is a seed: each member
        is the meet of the meet-irreducibles above it, and a
        meet-irreducible, which is not top, is never the intersection of
        strictly larger members, so it is one of the seeds it is an
        intersection of."""
        seeds = set(seeds)
        return all(s in self._index for s in seeds) and all(
            m in seeds for m in self.meet_irreducibles()
        )

    def covers_pair(self, x: int, y: int) -> bool:
        """True iff y covers x: x < y with no closed set strictly between."""
        self.require(x)
        self.require(y)
        if x == y or not is_subset(x, y):
            return False
        # A member strictly between holds some atom p of y − x, and then so
        # does closure(x | p), which lies between x and y as well.
        return all(self.closure(x | 1 << p) == y for p in iter_atoms(y & ~x))

    # -- derived properties -------------------------------------------

    def is_coatomistic(self) -> bool:
        """True iff every element is a meet of coatoms, that is, iff every
        meet-irreducible is a coatom (every element is the meet of the
        meet-irreducibles above it, and a meet-irreducible that is not a
        coatom is not the meet of the coatoms above it)."""
        return len(self.coatoms()) == len(self.meet_irreducibles())

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
