"""Atom permutations acting on lattices.

A lattice automorphism of an atomistic lattice is determined by its atom
permutation; the element action applies the permutation to atom masks.
AutoGroup is the group such permutations generate, stored as a
stabilizer chain (typically the full automorphism group of a lattice, or
a chosen subgroup like the identity alone).
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from . import _kernels
from .errors import SizeCapError, ValidationError
from .lattice import Lattice


class Automorphism:
    """Atom permutation with a fast mask action, built on first use."""

    __slots__ = ("perm", "_act")

    def __init__(self, perm: Sequence[int]):
        self.perm = tuple(perm)
        if set(self.perm) != set(range(len(self.perm))) or not all(
            type(p) is int for p in self.perm
        ):
            raise ValidationError("automorphism is a permutation of the atoms", self.perm)
        self._act = None

    @classmethod
    def _of_permutation(cls, perm: tuple[int, ...]) -> "Automorphism":
        """The Automorphism of `perm`, a tuple already known to be a
        permutation of the atoms, built without checking it again."""
        u = cls.__new__(cls)
        u.perm, u._act = perm, None
        return u

    @classmethod
    def identity(cls, n: int) -> "Automorphism":
        return cls(range(n))

    def __call__(self, mask: int) -> int:
        if self._act is None:
            self._act = _kernels._mask_action(self.perm)
        return self._act(mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, Automorphism) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"Automorphism{self.perm}"

    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.perm))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        if len(other.perm) != len(self.perm):
            raise ValidationError(
                "composed permutations act on the same atoms", (self.perm, other.perm)
            )
        return Automorphism(_compose(self.perm, other.perm))

    def preserves(self, lattice: Lattice) -> bool:
        """True iff the induced mask action carries the closed family onto
        itself, that is, maps its meet-irreducibles into the lattice
        (`_kernels.family_preserved`; see `Lattice.meet_irreducibles`)."""
        if len(self.perm) != lattice.atom_count:
            return False
        return _kernels.family_preserved(self.perm, lattice.meet_irreducibles(), lattice)


def _compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """g after h, on permutation tuples."""
    return tuple(map(g.__getitem__, h))


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(g)
    for i, p in enumerate(g):
        inv[p] = i
    return tuple(inv)


def _schreier_sims(n: int, gens: Iterable[tuple[int, ...]]) -> list[dict]:
    """Transversals of the stabilizer chain of the group generated by
    `gens`, with base 0, 1, …, n−1: level k maps each atom x of the orbit
    of k under the pointwise stabilizer G_k of 0, …, k−1 to a member that
    fixes 0, …, k−1 and sends k to x.

    Deterministic Schreier–Sims (Seress, *Permutation Group Algorithms*,
    2003, ch. 4): a strong generator belongs to every level up to its first
    moved atom.  Levels are settled from the last one up; level k is
    settled when every Schreier generator t_{s(x)}⁻¹ s t_x of G_k sifts to
    the identity through the levels below.  A nontrivial residue fixes
    0, …, k, becomes a strong generator, and the levels it moves are
    settled again."""
    ident = tuple(range(n))
    strong: list[tuple[int, tuple[int, ...]]] = []  # (first moved atom, perm)
    levels = [{k: ident} for k in range(n)]
    inverses = [{k: ident} for k in range(n)]

    def first_moved(g):
        return next(i for i, p in enumerate(g) if i != p)

    def rebuild(k):
        gens_k = [s for j, s in strong if j >= k]
        level, order = {k: ident}, [k]
        for y in order:
            for s in gens_k:
                z = s[y]
                if z not in level:
                    level[z] = _compose(s, level[y])
                    order.append(z)
        levels[k] = level
        inverses[k] = {x: _inverse(t) for x, t in level.items()}

    def sift(g, k):
        for j in range(k, n):
            x = g[j]
            if x != j:
                inv = inverses[j].get(x)
                if inv is None:
                    return g
                g = _compose(inv, g)
        return g

    def add(g, k):
        """Add the strong generator g, which fixes 0, …, k−1; return the
        deepest level it moves."""
        j = first_moved(g)
        strong.append((j, g))
        for m in range(k, j + 1):
            rebuild(m)
        return j

    k = -1
    for g in gens:
        g = sift(tuple(g), 0)
        if g != ident:
            k = max(k, add(g, 0))
    while k >= 0:
        gens_k = [s for j, s in strong if j >= k]
        level, inverse = levels[k], inverses[k]
        residue = None
        for x, t in level.items():
            for s in gens_k:
                st = _compose(s, t)
                y = st[k]
                if st == level[y]:
                    continue
                residue = sift(_compose(inverse[y], st), k + 1)
                if residue != ident:
                    break
                residue = None
            if residue is not None:
                break
        if residue is None:
            k -= 1
        else:
            k = add(residue, k + 1)
    return levels


class AutoGroup:
    """The group of automorphisms of one lattice generated by `gens`.

    It is stored as a stabilizer chain with base 0, 1, …, n−1 (see
    `_schreier_sims`), so a generated group is a group and holds the
    identity.  `order` and `len()` give its order (`len()` raises
    SizeCapError past `sys.maxsize`), `generators` its strong generators
    (the members other than the identity that the chain's transversals
    hold), and iteration lists every member, built from the
    chain, in lexicographic order of the permutation tuples.  Every
    generator must permute exactly the lattice's atoms and be an
    automorphism of the lattice (`Automorphism.preserves`);
    ValidationError otherwise.
    """

    __slots__ = ("lattice", "generators", "order", "_levels")

    def __init__(self, lattice: Lattice, gens: Iterable[Automorphism]):
        perms = []
        for u in gens:
            if len(u.perm) != lattice.atom_count:
                raise ValidationError(
                    "group members permute the lattice's atoms", u.perm
                )
            # the identity preserves every lattice, and `_schreier_sims` sifts it away
            if not u.is_identity() and not u.preserves(lattice):
                raise ValidationError("group members are automorphisms of the lattice", u.perm)
            perms.append(u.perm)
        self._set_chain(lattice, _schreier_sims(lattice.atom_count, perms))

    @classmethod
    def _from_transversals(cls, lattice: Lattice, levels: list[dict]) -> "AutoGroup":
        """The group whose stabilizer chain with base 0, 1, …, n−1 has the
        transversals `levels` (as `_schreier_sims` returns them), taken as
        they are."""
        group = cls.__new__(cls)
        group._set_chain(lattice, levels)
        return group

    def _set_chain(self, lattice: Lattice, levels: list[dict]) -> None:
        self.lattice = lattice
        self._levels = levels
        self.order = 1
        for level in levels:
            self.order *= len(level)
        self.generators = tuple(
            Automorphism(t) for k, level in enumerate(levels)
            for x, t in sorted(level.items()) if x != k
        )

    @classmethod
    def identity_only(cls, lattice: Lattice) -> "AutoGroup":
        return cls(lattice, (Automorphism.identity(lattice.atom_count),))

    def transversal(self, k: int) -> dict[int, Automorphism]:
        """Atom x -> a member fixing atoms 0, …, k−1 and sending k to x, for
        every x in the orbit of k under the members fixing 0, …, k−1."""
        return {x: Automorphism(t) for x, t in sorted(self._levels[k].items())}

    def __len__(self):
        if self.order > sys.maxsize:
            raise SizeCapError(
                f"group order {self.order} exceeds sys.maxsize, which caps len(); read .order"
            )
        return self.order

    def __iter__(self):
        """Every member, in lexicographic order of the permutation tuples.

        The members agreeing with g on 0, …, k−1 are g∘G_k, and g∘t_x
        sends k to g(x); visiting x by g(x) gives lexicographic order.
        Each member is a composite of transversal permutations, which were
        checked when the generators were built, so it is a permutation of
        the atoms too and is not checked again."""
        moving = [(k, level) for k, level in enumerate(self._levels) if len(level) > 1]

        def walk(i, g):
            if i == len(moving):
                yield Automorphism._of_permutation(g)
                return
            k, level = moving[i]
            for x in sorted(level, key=g.__getitem__):
                yield from walk(i + 1, _compose(g, level[x]))

        return walk(0, tuple(range(self.lattice.atom_count)))
