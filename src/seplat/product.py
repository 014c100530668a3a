"""Separated products of two lattices, by both constructions.

Pair atoms are linearized as left_index * right_atom_count + right_index.
The generator route closes the sets A(a1) x A(L2) u A(L1) x A(a2) under
pairwise intersection; the orthogonality route declares two pair atoms
orthogonal when their left components are orthogonal or their right
components are, and takes the biorthogonally closed sets.  Route
equivalence on orthocomplemented factors is checked by the test suite
rather than assumed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from . import _kernels
from .bitset import atoms_of, full_mask, is_subset, iter_atoms
from .errors import ValidationError
from .lattice import Lattice
from .ortho import AtomOrthogonality, OrthoMap, closure_from_orthogonality


def _pair_labels(left: Lattice, right: Lattice) -> tuple[str, ...]:
    def name(lat, i):
        return lat.atom_labels[i] if lat.atom_labels else str(i)

    out = []
    for i in range(left.atom_count):
        for j in range(right.atom_count):
            out.append(f"({name(left, i)},{name(right, j)})")
    return tuple(out)


def _rect(left_atoms: int, right_atoms: int, n2: int) -> int:
    """Raw pair-atom set A1 x A2 over a right factor with n2 atoms."""
    out = 0
    for i in iter_atoms(left_atoms):
        out |= right_atoms << (i * n2)
    return out


def _cross(left: Lattice, right: Lattice, left_atoms: int, right_atoms: int) -> int:
    """Pair-atom set A1 x A(L2) u A(L1) x A2."""
    n2 = right.atom_count
    return _rect(left_atoms, right.top, n2) | _rect(left.top, right_atoms, n2)


@dataclass
class ProductLattice:
    """A lattice presented as a product of two factors.

    h1 and h2 map every factor element (atom-set mask of the factor) to
    the base element it embeds to; `route` records how the base family was
    obtained ("generators", "sharp", or "external" for loaded data).
    The orthocomplementation is present iff the sharp route built it or a
    caller attached one.
    """

    base: Lattice
    left: Lattice
    right: Lattice
    h1: dict[int, int]
    h2: dict[int, int]
    route: str
    ortho: Optional[OrthoMap] = None

    # -- pair-atom indexing -------------------------------------------

    @property
    def pair_count(self) -> int:
        return self.left.atom_count * self.right.atom_count

    def pair_index(self, i: int, j: int) -> int:
        return i * self.right.atom_count + j

    def pair_of(self, idx: int) -> tuple[int, int]:
        n2 = self.right.atom_count
        return divmod(idx, n2)

    def rect(self, left_atoms: int, right_atoms: int) -> int:
        """Raw pair-atom set A1 x A2 (not necessarily closed)."""
        return _rect(left_atoms, right_atoms, self.right.atom_count)

    def cross(self, left_atoms: int, right_atoms: int) -> int:
        """Pair-atom set A1 x A(L2) u A(L1) x A2."""
        return _cross(self.left, self.right, left_atoms, right_atoms)

    def row(self, i: int) -> int:
        return self.rect(1 << i, self.right.top)

    def col(self, j: int) -> int:
        return self.rect(self.left.top, 1 << j)

    def singleton(self, i: int, j: int) -> int:
        return 1 << self.pair_index(i, j)

    def with_ortho(self, ortho: OrthoMap) -> "ProductLattice":
        if ortho.lattice != self.base:
            raise ValidationError("ortho map belongs to the product base")
        return replace(self, ortho=ortho)


def otimes(product: ProductLattice, a1: int, a2: int) -> int:
    """Embedded meet h1(a1) ^ h2(a2); for factor atoms this is the
    singleton of the pair atom."""
    product.left.require(a1)
    product.right.require(a2)
    return product.h1[a1] & product.h2[a2]


def obar(product: ProductLattice, a1: int, a2: int) -> int:
    """Raw atom set {(p1, p2) : p1 in A(a1), p2 in A(a2)}; not closed in
    general."""
    product.left.require(a1)
    product.right.require(a2)
    return product.rect(a1, a2)


def _attach_embeddings(prod: ProductLattice) -> None:
    for a1 in prod.left.closed_sets:
        prod.h1[a1] = prod.base.require(prod.rect(a1, prod.right.top))
    for a2 in prod.right.closed_sets:
        prod.h2[a2] = prod.base.require(prod.rect(prod.left.top, a2))


def aerts_product_general(left: Lattice, right: Lattice) -> ProductLattice:
    """Generator route: close the crosses A(a1) x A(L2) u A(L1) x A(a2)
    over all element pairs (a1, a2) under pairwise intersection.

    Works for arbitrary factors; every singleton pair atom is closed
    (it is the intersection of its row and its column).
    """
    n = left.atom_count * right.atom_count
    seeds = {
        _cross(left, right, a1, a2)
        for a1 in left.closed_sets
        for a2 in right.closed_sets
    }
    family = _kernels.close_under_intersection(sorted(seeds), full_mask(n))
    base = Lattice.from_closed_family(
        n, family, mode="validate", atom_labels=_pair_labels(left, right)
    )
    prod = ProductLattice(
        base=base, left=left, right=right, h1={}, h2={}, route="generators"
    )
    _attach_embeddings(prod)
    return prod


def sharp_relation(
    left: Lattice, ortho1: OrthoMap, right: Lattice, ortho2: OrthoMap
) -> AtomOrthogonality:
    """Pair atoms are orthogonal iff their left components are orthogonal
    in the left factor or their right components are in the right factor.
    The result is validated: it is symmetric, anti-reflexive and
    separating whenever the factor maps are valid orthocomplementations."""
    n1, n2 = left.atom_count, right.atom_count
    polars = []
    for i in range(n1):
        perp1 = ortho1(1 << i)
        for j in range(n2):
            perp2 = ortho2(1 << j)
            polars.append(_cross(left, right, perp1, perp2))
    rel = AtomOrthogonality(n1 * n2, polars)
    rel.validate()
    return rel


def aerts_product_sharp(
    left: Lattice,
    ortho1: OrthoMap,
    right: Lattice,
    ortho2: OrthoMap,
) -> ProductLattice:
    """Orthogonality route: biorthogonal closure of the sharp relation.
    The resulting product carries the polar orthocomplementation."""
    n = left.atom_count * right.atom_count
    rel = sharp_relation(left, ortho1, right, ortho2)
    base, omap = closure_from_orthogonality(
        n, rel, atom_labels=_pair_labels(left, right)
    )
    prod = ProductLattice(
        base=base, left=left, right=right, h1={}, h2={}, route="sharp", ortho=omap
    )
    _attach_embeddings(prod)
    return prod


# -- structural checks --------------------------------------------------


# The subset pools on which P0 and `lateral_join_check` test that the
# embeddings keep meets and joins: every subset of at most SUBSET_CAP
# elements, then SUBSET_SAMPLES random larger ones from a generator seeded
# with SUBSET_SEED.  The verdicts are exact all the same: the pool holds
# the empty subset and every pair, and in a finite lattice binary and
# empty meets and joins determine all others by associativity, so a map
# that passes them passes every subset and the draws never change a verdict.
SUBSET_CAP = 3
SUBSET_SAMPLES = 20
SUBSET_SEED = 7


def _subset_pools(*families: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """One subset pool per family, the random draws of each following
    those of the family before it from one seeded generator."""
    rng = random.Random(SUBSET_SEED)
    out = []
    for elems in families:
        pool = []
        for r in range(SUBSET_CAP + 1):
            pool.extend(itertools.combinations(elems, r))
        for _ in range(SUBSET_SAMPLES):
            r = rng.randint(SUBSET_CAP + 1, max(SUBSET_CAP + 1, len(elems)))
            pool.append(tuple(rng.sample(elems, min(r, len(elems)))))
        out.append(pool)
    return out


@dataclass
class CheckReport:
    """Outcome of an exhaustive verification; failures carry witnesses."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed

    def record(self, ok: bool, witness):
        self.checked += 1
        if not ok:
            self.failures.append(witness)


def lateral_join_check(product: ProductLattice) -> CheckReport:
    """Verify the lateral join formulas on every atom pair and join
    preservation of the embeddings on element subsets.

    Lateral joins: for atoms p1 and distinct atoms p2, q2 of the right
    factor, (p1 x p2) v (p1 x q2) = {p1} x A(p2 v q2); symmetrically on
    the left.  Embedding joins: h(join of a subset) = join of the images,
    exhaustively up to `SUBSET_CAP` elements and on `SUBSET_SAMPLES`
    seeded random larger subsets.  The verdict holds for every subset:
    the empty join and binary joins determine all others (associativity),
    so the random draws can never change it.
    """
    report = CheckReport("lateral-join")
    base, left, right = product.base, product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    for i in range(n1):
        for j in range(n2):
            for k in range(j + 1, n2):
                got = base.join(
                    (product.singleton(i, j), product.singleton(i, k))
                )
                want = product.rect(1 << i, right.join(((1 << j), (1 << k))))
                report.record(got == want, ("right", i, j, k, atoms_of(got)))
    for j in range(n2):
        for i in range(n1):
            for k in range(i + 1, n1):
                got = base.join(
                    (product.singleton(i, j), product.singleton(k, j))
                )
                want = product.rect(left.join(((1 << i), (1 << k))), 1 << j)
                report.record(got == want, ("left", j, i, k, atoms_of(got)))

    left_pool, right_pool = _subset_pools(left.closed_sets, right.closed_sets)

    def check_embedding(lat, h, side, pool):
        for omega in pool:
            got = base.join([h[x] for x in omega])
            want = h[lat.join(omega)]
            report.record(got == want, (side, [atoms_of(x) for x in omega]))

    check_embedding(left, product.h1, "h1", left_pool)
    check_embedding(right, product.h2, "h2", right_pool)
    return report


def sproduct_join_lemma_check(product: ProductLattice) -> CheckReport:
    """Two exhaustive join identities on the product.

    First: the join of two pair atoms differing in both components
    contains exactly those two atoms.  Second: for factor atoms p1 <= a1
    and p2 <= a2, (p1 x a2) v (a1 x p2) has atom set
    {p1} x A(a2) u A(a1) x {p2}.
    """
    report = CheckReport("join-lemma")
    base, left, right = product.base, product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    for i in range(n1):
        for k in range(n1):
            if i == k:
                continue
            for j in range(n2):
                for l in range(n2):
                    if j == l:
                        continue
                    got = base.join(
                        (product.singleton(i, j), product.singleton(k, l))
                    )
                    want = product.singleton(i, j) | product.singleton(k, l)
                    report.record(
                        got == want, ("two-atoms", (i, j), (k, l), atoms_of(got))
                    )
    for i in range(n1):
        for a1 in left.closed_sets:
            if not is_subset(1 << i, a1):
                continue
            for j in range(n2):
                for a2 in right.closed_sets:
                    if not is_subset(1 << j, a2):
                        continue
                    lhs = base.join(
                        (product.rect(1 << i, a2), product.rect(a1, 1 << j))
                    )
                    rhs = product.rect(1 << i, a2) | product.rect(a1, 1 << j)
                    report.record(
                        lhs == rhs,
                        ("atom-sets", i, atoms_of(a1), j, atoms_of(a2)),
                    )
    return report
