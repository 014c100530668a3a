"""Atom permutations acting on lattices.

A lattice automorphism of an atomistic lattice is determined by its atom
permutation; the element action applies the permutation to atom masks.
AutoGroup bundles a lattice with a set of such permutations (typically its
full automorphism group, or a chosen subgroup like the identity alone).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import _kernels
from .errors import ValidationError
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
        return Automorphism(tuple(self.perm[p] for p in other.perm))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return Automorphism(inv)

    def preserves(self, lattice: Lattice) -> bool:
        """True iff the induced mask action carries the closed family onto
        itself, checked on its meet-irreducibles (see
        `Lattice.meet_irreducibles`)."""
        if len(self.perm) != lattice.atom_count:
            return False
        return _kernels.family_preserved(
            self.perm, lattice.meet_irreducibles(), lattice.atom_count
        )


class AutoGroup:
    """A set of automorphisms of one lattice.

    `verify_group` checks closure under composition and inverse plus the
    identity.  Every member must permute exactly the lattice's atoms.
    """

    __slots__ = ("lattice", "members")

    def __init__(self, lattice: Lattice, members: Iterable[Automorphism]):
        self.lattice = lattice
        self.members = tuple(members)
        for u in self.members:
            if len(u.perm) != lattice.atom_count:
                raise ValidationError(
                    "group members permute the lattice's atoms", u.perm
                )

    @classmethod
    def identity_only(cls, lattice: Lattice) -> "AutoGroup":
        return cls(lattice, (Automorphism.identity(lattice.atom_count),))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def contains_identity(self) -> bool:
        return any(u.is_identity() for u in self.members)

    def verify_group(self) -> None:
        """Raise ValidationError if the member set is not a group."""
        if not self.contains_identity():
            raise ValidationError("group contains the identity")
        seen = {u.perm for u in self.members}
        for u in self.members:
            if u.inverse().perm not in seen:
                raise ValidationError("group closed under inverse", u.perm)
        for u in self.members:
            for v in self.members:
                if u.compose(v).perm not in seen:
                    raise ValidationError(
                        "group closed under composition", (u.perm, v.perm)
                    )
