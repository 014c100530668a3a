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
from dataclasses import dataclass
from typing import Optional

from .bitset import full_mask, mask_of
from .errors import SizeCapError, ValidationError
from .lattice import Lattice
from .ortho import OrthoMap

BOOLEAN_CAP = 10


def build_two() -> Lattice:
    """The two-element lattice 0 < 1 (one atom, which is the top)."""
    return Lattice(1, (0, 1), atom_labels=("a",))


def build_mo(n: int) -> tuple[Lattice, OrthoMap]:
    """MO(n): bottom, 2n atoms, top; atom 2k is orthogonal to atom 2k+1.

    MO(1) is the Boolean square.  Raises on n < 1.
    """
    if n < 1:
        raise ValidationError("MO(n) requires n >= 1", n)
    count = 2 * n
    labels = []
    for k in range(n):
        labels += [f"a{k}", f"a{k}'"]
    fam = [0, full_mask(count)] + [1 << a for a in range(count)]
    lat = Lattice(count, fam, atom_labels=labels)
    top = lat.top
    images = {0: top, top: 0}
    for k in range(n):
        images[1 << (2 * k)] = 1 << (2 * k + 1)
        images[1 << (2 * k + 1)] = 1 << (2 * k)
    return lat, OrthoMap(lat, images)


def build_boolean(n: int, cap: int = BOOLEAN_CAP) -> tuple[Lattice, OrthoMap]:
    """Boolean lattice of all subsets of n atoms, with set complement."""
    if n < 0:
        raise ValidationError("boolean lattice needs n >= 0", n)
    if n > cap:
        raise SizeCapError(f"boolean lattice on {n} atoms exceeds cap {cap}")
    top = full_mask(n)
    fam = range(1 << n)
    lat = Lattice(n, fam, atom_labels=tuple(f"e{i}" for i in range(n)))
    images = {s: top & ~s for s in fam}
    return lat, OrthoMap(lat, images)


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
        self.inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul_table[a][b] == 1:
                    self.inv_table[a] = b

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

    def vec_add(self, u, v):
        add = self.add_table
        return tuple(add[a][b] for a, b in zip(u, v))

    def vec_scale(self, c, v):
        mul = self.mul_table[c]
        return tuple(mul[a] for a in v)

    def normalize(self, v):
        """Scale so the first nonzero coordinate is 1."""
        for a in v:
            if a:
                return self.vec_scale(self.inv_table[a], v)
        return None


def build_subspace_lattice(q: int, d: int) -> Lattice:
    """Lattice of linear subspaces of GF(q)^d, ordered by inclusion.

    Atoms are the one-dimensional subspaces, labelled by the coordinates of
    their normalized representative.  Supports q in {2,3,4,5} and d <= 4.
    The widest cases are slow: GF(4)^4 (85 points) and GF(5)^4 (156
    points) take about 10 s and 70 s on a 2-vCPU x86-64 machine.
    """
    if d < 1 or d > 4:
        raise ValidationError("supported dimensions are 1..4", d)
    field = _Field(q)
    zero = tuple([0] * d)
    points = sorted(
        {
            field.normalize(v)
            for v in itertools.product(range(q), repeat=d)
            if v != zero
        }
    )
    pt_index = {p: i for i, p in enumerate(points)}

    def atoms_mask(vectors) -> int:
        return mask_of(pt_index[field.normalize(v)] for v in vectors if v != zero)

    def extend(vectors: frozenset, p) -> frozenset:
        """Span of a subspace and one extra point: add all multiples of p
        to every vector already present."""
        out = set(vectors)
        for c in range(1, q):
            cp = field.vec_scale(c, p)
            out.update(field.vec_add(v, cp) for v in vectors)
        return frozenset(out)

    seen = {0: frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        fresh = []
        for vs in frontier:
            for p in points:
                if p in vs:
                    continue
                span = extend(vs, p)
                key = atoms_mask(span)
                if key not in seen:
                    seen[key] = span
                    fresh.append(span)
        frontier = fresh
    labels = tuple("".join(str(c) for c in p) for p in points)
    return Lattice.from_closed_family(
        len(points), seen.keys(), mode="validate", atom_labels=labels
    )


@dataclass(frozen=True)
class LatticeSpec:
    """Recipe for a lattice: a builder name with parameters, or a file."""

    kind: str
    params: tuple = ()
    path: Optional[str] = None

    def build(self) -> tuple[Lattice, Optional[OrthoMap]]:
        if self.kind == "mo":
            return build_mo(*self.params)
        if self.kind == "boolean":
            return build_boolean(*self.params)
        if self.kind == "subspace":
            return build_subspace_lattice(*self.params), None
        if self.kind == "two":
            return build_two(), None
        if self.kind == "file":
            from .io import load_lattice_file

            return load_lattice_file(self.path)
        raise ValidationError("unknown lattice kind", self.kind)
