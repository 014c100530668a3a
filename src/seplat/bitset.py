"""Atom sets as integer bitmasks.

Every element of a finite atomistic lattice is identified with its set of
atoms, stored as a Python int with bit i set iff atom i belongs to the set.
Meets of closed sets are then plain bitwise ANDs.  Python ints are
unbounded, so no atom count is too wide for a mask.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(atoms: Iterable[int]) -> int:
    m = 0
    for a in atoms:
        m |= 1 << a
    return m


def atoms_of(mask: int) -> tuple[int, ...]:
    """Atom indices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_atoms(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def family_key(mask: int) -> tuple[int, ...]:
    """Sort key giving the canonical family order.

    Families are stored sorted by the ascending atom tuple of each member,
    compared lexicographically, so the bottom (empty set) always comes first.
    """
    return atoms_of(mask)


def canonical_family(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=family_key))
