"""The hot loops over atom masks.

Masks are plain ints, so the kernels take any atom count.

`close_under_intersection` intersects each new member with the seeds
only, never with the members found so far, since every member of the
closure is an intersection of seeds.

Every kernel that applies a permutation goes through `_mask_action`,
which maps a mask through the list of atom images one set bit at a
time, so a call costs what its masks hold rather than a lookup table per
permutation: callers check automorphisms on a lattice's few
meet-irreducibles, and the invariant-subset sweep drops masks after the
first permutations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

BACKEND = "pure"


def close_under_intersection(seeds: Iterable[int], universe: int) -> list[int]:
    """Smallest family containing `seeds` and `universe` that is closed
    under pairwise intersection.  Returns the members in ascending int
    order (callers re-sort into canonical family order).

    Each new member is intersected with the seeds only: every member of
    the closure is the universe or an intersection of seeds, and
    s1 ∩ … ∩ sk is reached from s1 one seed at a time.  Cost
    O(members · seeds)."""
    seeds = set(seeds)
    found = seeds | {universe}
    work = list(found)
    while work:
        x = work.pop()
        for s in seeds:
            z = x & s
            if z not in found:
                found.add(z)
                work.append(z)
    return sorted(found)


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
    permutation only sees the masks every earlier one let through;
    identity permutations are skipped since they satisfy the condition
    for every A."""
    survivors = range(1, 1 << n_atoms)
    for perm in perms:
        if all(perm[i] == i for i in range(n_atoms)):
            continue
        act = _mask_action(perm)
        survivors = [a for a in survivors if ((img := act(a)) & a) in (img, 0)]
    return list(survivors)


def family_preserved(perm: Sequence[int], family: Sequence[int], n_atoms: int) -> bool:
    """True iff the atom permutation maps every member of `family` to a
    member of `family`.  Members hold atoms below `n_atoms`; any other
    atom maps to nothing."""
    act = _mask_action(perm)
    full = (1 << n_atoms) - 1
    members = set(family)
    return all(act(mask & full) in members for mask in family)
