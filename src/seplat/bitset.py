"""Atom sets as integer bitmasks.

Every element of a finite atomistic lattice is identified with its set of
atoms, stored as a Python int with bit i set iff atom i belongs to the set.
Meets of closed sets are then plain bitwise ANDs.  Python ints are
unbounded, so no atom count is too wide for a mask.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import ValidationError


def mask_of(atoms: Iterable[int]) -> int:
    m = 0
    for a in atoms:
        m |= 1 << a
    return m


def _require_nonnegative(mask: int) -> None:
    # a negative int has infinitely many set bits: `mask & -mask` never
    # clears the sign, so the loops below would never end
    if mask < 0:
        raise ValidationError("atom masks are nonnegative", mask)


def atoms_of(mask: int) -> tuple[int, ...]:
    """Atom indices of a mask, ascending."""
    _require_nonnegative(mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_atoms(mask: int) -> Iterator[int]:
    _require_nonnegative(mask)
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


def incidence_rows(masks: Sequence[int], n: int) -> list[int]:
    """One row per atom p < n, as a mask over the indices of `masks`:
    bit k of row p is set when masks[k] holds p."""
    rows = [0] * n
    for k, m in enumerate(masks):
        for p in iter_atoms(m):
            rows[p] |= 1 << k
    return rows


def holding(rows: Sequence[int], raw: int, width: int) -> int:
    """The AND of rows[k] over the set bits k of `raw`, starting from the
    `width`-bit full mask; the one routine for an AND of selected masks.
    With `rows` the incidence rows of some masks, it gives the indices
    k < width of the masks that hold every atom of `raw`; with `rows` a
    list of masks of `width` atoms, their meet."""
    _require_nonnegative(raw)
    sel = (1 << width) - 1
    while raw and sel:
        low = raw & -raw
        sel &= rows[low.bit_length() - 1]
        raw ^= low
    return sel


def canonical_family(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks in canonical family order: by the ascending atom
    tuple of each member, compared lexicographically, so the bottom
    (empty set) always comes first.

    The sort key writes a nonzero mask's bits from atom 0 up, with "a"
    for a held atom and "b" for a missing one, and gives 0 the empty
    string.  The keys sort as the atom tuples do.  Let A ≠ B be nonempty
    and d the lowest atom of A △ B, say d ∈ A; the two tuples and the
    two keys agree below d.  If B has an atom above d, B's tuple holds a
    larger atom at the position where A's holds d, and B's key holds "b"
    where A's holds "a", so A comes first both ways.  If it does not, B's
    tuple is a prefix of A's and B's key, which ends below d, a prefix
    of A's, so B comes first both ways.  The empty tuple and the empty
    key come before all others.  Built by `bin` and `str.translate`, the
    key costs no Python loop over the atoms."""
    distinct = set(masks)
    if distinct:
        _require_nonnegative(min(distinct))
    letters = str.maketrans("10", "ab")
    return tuple(
        sorted(distinct, key=lambda m: bin(m)[:1:-1].translate(letters) if m else "")
    )
