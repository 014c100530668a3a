"""Pure-Python kernels.

These are the reference implementations of the hot loops; the compiled
twin in _speedups.pyx has identical signatures and semantics.  Masks are
plain ints over at most 64 atom bits.
"""

from __future__ import annotations

from typing import Iterable, Sequence

BACKEND = "pure"


def close_under_intersection(seeds: Iterable[int], universe: int) -> list[int]:
    """Smallest family containing `seeds` and `universe` that is closed
    under pairwise intersection.  Returns the members in ascending int
    order (callers re-sort into canonical family order)."""
    found = set(seeds)
    found.add(universe)
    work = list(found)
    while work:
        x = work.pop()
        new = []
        for y in found:
            z = x & y
            if z not in found:
                new.append(z)
        for z in new:
            found.add(z)
            work.append(z)
    return sorted(found)


def _byte_tables(perm: Sequence[int], n_atoms: int) -> list[list[int]]:
    """Per-byte lookup tables for applying an atom permutation to a mask.

    tables[c][b] is the image of byte value b placed at chunk c.  Built by
    dynamic programming on the lowest set bit, so construction is O(256)
    per chunk."""
    n_chunks = (n_atoms + 7) // 8
    tables = []
    for c in range(n_chunks):
        base = 8 * c
        tab = [0] * 256
        for b in range(1, 256):
            low = b & -b
            atom = base + low.bit_length() - 1
            img = 1 << perm[atom] if atom < n_atoms else 0
            tab[b] = tab[b ^ low] | img
        tables.append(tab)
    return tables


def _mask_action(perm: Sequence[int]):
    """The mask action of an atom permutation: a function sending an atom
    mask to the mask of its image."""
    tables = _byte_tables(perm, len(perm))

    def act(mask: int) -> int:
        img = 0
        c = 0
        while mask:
            img |= tables[c][mask & 0xFF]
            mask >>= 8
            c += 1
        return img

    return act


def invariant_subsets(perms: Sequence[Sequence[int]], n_atoms: int) -> list[int]:
    """All nonempty atom subsets A with u(A) ∩ A ∈ {u(A), ∅} for every u.

    The condition says each permutation either maps A into itself (hence,
    bijectivity, onto itself) or clean off itself.  Exhaustive sweep over
    2**n_atoms − 1 masks; identity permutations are skipped since they
    satisfy the condition for every A.

    The byte loop of `_mask_action` is inlined here and in
    `family_preserved`: these two sweeps touch millions of masks per
    certification, and a function call per mask would dominate them."""
    tablist = [
        _byte_tables(p, n_atoms) for p in perms if any(p[i] != i for i in range(n_atoms))
    ]
    out = []
    for a in range(1, 1 << n_atoms):
        ok = True
        for tables in tablist:
            img = 0
            m = a
            c = 0
            while m:
                img |= tables[c][m & 0xFF]
                m >>= 8
                c += 1
            overlap = img & a
            if overlap != img and overlap != 0:
                ok = False
                break
        if ok:
            out.append(a)
    return out


def family_preserved(perm: Sequence[int], family: Sequence[int], n_atoms: int) -> bool:
    """True iff the atom permutation maps every member of `family` to a
    member of `family`."""
    tables = _byte_tables(perm, n_atoms)
    members = set(family)
    for mask in family:
        img = 0
        m = mask
        c = 0
        while m:
            img |= tables[c][m & 0xFF]
            m >>= 8
            c += 1
        if img not in members:
            return False
    return True
