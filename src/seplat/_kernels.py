"""The hot loops over atom masks.

Masks are plain ints, so the kernels take any atom count.

`close_under_intersection` adds one seed at a time: the closure of the
universe and s1..sk is the closure of the first k−1 seeds together with
the intersections of sk with its members, so each seed costs one pass of
set-builtin ANDs over the members found so far that hold three atoms or
more; bottom and the singletons, which are below everything else of at
most two atoms, are added at the end.

Every kernel that applies a permutation goes through `_mask_action`,
which maps a mask through the list of atom images one set bit at a
time, so a call costs what its masks hold rather than a lookup table per
permutation: callers check automorphisms on a lattice's few
meet-irreducibles, and the invariant-subset sweep drops masks after the
first permutations.
"""

from __future__ import annotations

from typing import Container, Iterable, Sequence

BACKEND = "pure"


def close_under_intersection(seeds: Iterable[int], universe: int) -> set[int]:
    """Smallest family containing `seeds`, `universe`, bottom and every
    singleton of `universe` that is closed under pairwise intersection,
    for seeds that are subsets of `universe`.  Returns the members as a
    set (callers sort into canonical family order).

    Seeds are added one at a time, in the caller's order and at their
    first occurrence, and bottom and the singletons after them; the
    result does not depend on that order, only the cost does.  Let C be
    the closure of the universe and the seeds added so far, and s the
    next seed.  Every member of the closure with s added is an
    intersection of some of these sets, so it is c or s ∩ c for some c
    in C, and C ∪ {s ∩ c : c ∈ C} is closed under intersection, as
    (s ∩ c) ∩ c' = s ∩ (c ∩ c').  That union is therefore the new
    closure; it holds s = s ∩ universe, and a seed that is already a
    member changes nothing and costs one lookup.

    Only the members c of three atoms or more are intersected with s.
    A new member of three atoms or more is s ∩ c for a c at least as
    large, so every such member is still found.  A member c of at most
    two atoms has only bottom, its singletons and itself below it, so
    s ∩ c is bottom, a singleton, or c, which is found already; for the
    same reason a seed of at most two atoms is added with no pass.  Bottom
    and the singletons are added at the end and meet every member in one
    of themselves, so the family with them is the closure.  Cost
    O(wide · seeds) ANDs, wide the members of three atoms or more, each
    pass one `map` over those found so far."""
    found = {universe}
    wide = [universe] if universe.bit_count() > 2 else []
    for s in dict.fromkeys(seeds):
        if s in found or s.bit_count() < 3:
            found.add(s)
            continue
        new = set(map(s.__and__, wide)) - found
        new.add(s)
        found |= new
        wide += [c for c in new if c.bit_count() > 2]
    found.add(0)
    found.update(1 << a for a in range(universe.bit_length()) if universe >> a & 1)
    return found


def _mask_action(perm: Sequence[int]):
    """The mask action of an atom permutation: a function sending an atom
    mask to the mask of its image, built from the list of atom images and
    applied one set bit at a time."""
    imgs = [1 << p for p in perm]

    def act(mask: int) -> int:
        img = 0
        while mask:
            low = mask & -mask
            img |= imgs[low.bit_length() - 1]
            mask ^= low
        return img

    return act


def invariant_subsets(perms: Sequence[Sequence[int]], n_atoms: int) -> list[int]:
    """All nonempty atom subsets A with u(A) ∩ A ∈ {u(A), ∅} for every u.

    The condition says each permutation either maps A into itself (hence,
    bijectivity, onto itself) or clean off itself.  Exhaustive sweep over
    2**n_atoms − 1 masks, filtered one permutation at a time, so each
    permutation only sees the masks every earlier one let through."""
    survivors = range(1, 1 << n_atoms)
    for perm in perms:
        act = _mask_action(perm)
        survivors = [a for a in survivors if ((img := act(a)) & a) in (img, 0)]
    return list(survivors)


def family_preserved(perm: Sequence[int], family: Iterable[int], target: Container[int]) -> bool:
    """True iff the atom map sends every mask of `family` into `target`.

    This is the one atom-map check: with `family` the meet-irreducibles of
    a lattice L and `target` a lattice M, a bijection of atoms passes
    exactly when it carries L into M (see `Lattice.meet_irreducibles`), so
    onto M when both have as many members; with M = L it is an
    automorphism test."""
    act = _mask_action(perm)
    return all(act(mask) in target for mask in family)
