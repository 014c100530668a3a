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

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .bitset import atoms_of, iter_atoms
from .errors import ForeignElementError, ValidationError
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


def _pair_perm(u1: tuple[int, ...], u2: tuple[int, ...]) -> tuple[int, ...]:
    """The pair-atom permutation (p1, p2) -> (u1 p1, u2 p2), pair (i, j)
    being atom i * n2 + j."""
    n2 = len(u2)
    return tuple(a * n2 + b for a in u1 for b in u2)


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
    # (step, map) -> verdict of `factor_automorphism`'s factor-map steps
    _factor_verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _generator_seeds(left: Lattice, right: Lattice) -> set[int]:
    """The crosses cross(m1, m2) for m1 in MI(L1) u {top} and m2 in
    MI(L2) u {top}, which close under intersection to the generated
    family (see `aerts_product_general`)."""
    return {
        _cross(left, right, m1, m2)
        for m1 in left.meet_irreducibles() + (left.top,)
        for m2 in right.meet_irreducibles() + (right.top,)
    }


def aerts_product_general(left: Lattice, right: Lattice) -> ProductLattice:
    """Generator route: close the crosses A(a1) x A(L2) u A(L1) x A(a2)
    over all element pairs (a1, a2) under pairwise intersection.

    Works for arbitrary factors.  The seeds go to
    `Lattice.from_closed_family` in complete mode, whose closure is the
    base, not validated again.  The bottom and singletons that mode
    adds are in the closure of the seeds already, which holds the
    cross of every element pair (below): bottom is cross(bottom, bottom),
    the empty set, and the singleton (p1, p2) is the intersection of its
    row cross(p1, bottom) and its column cross(bottom, p2).

    Only the crosses of m1 in MI(L1) u {top} and m2 in MI(L2) u {top} are
    seeded, which closes to the same family.  Every element is top or
    the intersection of the meet-irreducibles above it (see
    `Lattice.meet_irreducibles`), and crosses distribute over
    intersections: a pair (p1, p2) lies in every cross(m_k, n_l) iff for
    all k and l, p1 in m_k or p2 in n_l, iff p1 lies in every m_k or p2
    in every n_l.  So cross(m_1 ∩ … ∩ m_r, n_1 ∩ … ∩ n_s) is the
    intersection of the cross(m_k, n_l), and every other cross is
    reached by the closure.
    """
    base = Lattice.from_closed_family(
        left.atom_count * right.atom_count,
        _generator_seeds(left, right),
        mode="complete",
        atom_labels=_pair_labels(left, right),
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
    The relation is symmetric, anti-reflexive and separating whenever the
    factor maps are valid orthocomplementations.  It is not validated
    here: `closure_from_orthogonality`, which `aerts_product_sharp` builds
    the product with, validates it and raises RelationError.
    ValidationError, witness the side, for a map of another lattice."""
    for lat, ortho, side in ((left, ortho1, "left"), (right, ortho2, "right")):
        if ortho.lattice != lat:
            raise ValidationError("ortho maps belong to their factors", side)
    n1, n2 = left.atom_count, right.atom_count
    polars = []
    for i in range(n1):
        perp1 = ortho1(1 << i)
        for j in range(n2):
            perp2 = ortho2(1 << j)
            polars.append(_cross(left, right, perp1, perp2))
    return AtomOrthogonality(n1 * n2, polars)


def aerts_product_sharp(
    left: Lattice,
    ortho1: OrthoMap,
    right: Lattice,
    ortho2: OrthoMap,
) -> ProductLattice:
    """Orthogonality route: biorthogonal closure of the sharp relation,
    which `closure_from_orthogonality` builds from the atom polars in one
    complete-mode call, as the generator route builds from its crosses.
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
# So the subsets are drawn only for the witnesses of a law that fails
# (`_SubsetPool`); a law that passes counts the pool by its length.
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


class _SubsetPool:
    """The subset pool of `families[k]` as `_subset_pools` draws it, drawn
    only when iterated.  A law that every subset keeps needs only the
    pool's length, Σ_{r ≤ SUBSET_CAP} C(n, r) + SUBSET_SAMPLES for n
    elements; a law that fails iterates the pool for its witnesses, and
    each iteration draws every pool up to k again from the seeded
    generator, so the draws are those of `_subset_pools`."""

    __slots__ = ("families", "k")

    def __init__(self, families: tuple[tuple[int, ...], ...], k: int):
        self.families = families
        self.k = k

    def __len__(self) -> int:
        n = len(self.families[self.k])
        return sum(math.comb(n, r) for r in range(SUBSET_CAP + 1)) + SUBSET_SAMPLES

    def __iter__(self):
        return iter(_subset_pools(*self.families)[self.k])


def _lazy_pools(*families: tuple[int, ...]) -> list[_SubsetPool]:
    """The pools of `_subset_pools`, each drawn only when iterated."""
    return [_SubsetPool(families, k) for k in range(len(families))]


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
        """Count one check and keep its witness when it fails.  A callable
        `witness` is called only then, so a passing check builds none."""
        self.checked += 1
        if not ok:
            self.failures.append(witness() if callable(witness) else witness)


def _embedding_verdicts(
    base: Lattice, factor: Lattice, h: dict, pool: list[tuple[int, ...]]
) -> tuple[Optional[list[bool]], Optional[list[bool]]]:
    """Whether the embedding h of `factor` into `base` keeps the meet of
    each subset in `pool`, and whether it keeps its join: two lists of
    verdicts in pool order, either one None when h keeps that law on
    every subset.

    Each element x gets one code per law, and a subset's code is the AND
    of its elements' codes, all ones for the empty subset.  The meet code
    is x | h(x) << w, w the factor's atom count, so a subset's code holds
    its meet and the meet of its images, and h keeps that meet exactly
    when the code is an element's code.  The join code is
    sig(x) | sig(h(x)) << v, v the number of the factor's
    meet-irreducibles, so a subset's code holds the signatures of its join
    and of the join of its images (see `Lattice.signatures`), and h keeps
    that join exactly when the code is an element's code.

    The empty subset and the pairs determine every other meet and join
    by associativity, so a law that they all keep holds on every subset
    and its subsets are not evaluated.  The images are read first, in
    family order, and the first element x that h misses raises
    ValidationError with witness atoms_of(x), the first image outside
    the base ForeignElementError, whichever comes first."""
    sig, _ = base.signatures()
    fsig, _ = factor.signatures()
    w, v = factor.atom_count, len(factor.meet_irreducibles())
    meet_code, join_code = {}, {}
    for x in factor.closed_sets:
        if x not in h:
            raise ValidationError("embedding maps every factor element", atoms_of(x))
        y = h[x]
        if y not in sig:
            raise ForeignElementError(y)
        meet_code[x] = x | y << w
        join_code[x] = fsig[x] | sig[y] << v
    widths = (w + base.atom_count, v + len(base.meet_irreducibles()))
    out = []
    for code, width in zip((meet_code, join_code), widths):
        empty = (1 << width) - 1
        codes = set(code.values())
        pairs = itertools.starmap(int.__and__, itertools.combinations(code.values(), 2))
        if empty in codes and codes.issuperset(pairs):
            out.append(None)
        else:
            out.append(
                [functools.reduce(int.__and__, map(code.__getitem__, omega), empty) in codes
                 for omega in pool]
            )
    return out[0], out[1]


def lateral_join_check(product: ProductLattice) -> CheckReport:
    """Verify the lateral join formulas on every atom pair and join
    preservation of the embeddings on element subsets.

    Lateral joins: for atoms p1 and distinct atoms p2, q2 of the right
    factor, (p1 x p2) v (p1 x q2) = {p1} x A(p2 v q2); symmetrically on
    the left.  Each factor join is taken once per atom pair, and each
    base join is read off the signatures of the two pair atoms (see
    `Lattice.signatures`).  A pair atom outside the base raises
    ForeignElementError for the first such atom in index order, which is
    the first one that the atom pairs meet in loop order.

    Embedding joins: h(join of a subset) = join of the images, on the
    P0 subset pools, evaluated by `_embedding_verdicts`: exhaustively up
    to `SUBSET_CAP` elements and on `SUBSET_SAMPLES` seeded random larger
    subsets.  The verdict holds for every subset: the empty join and
    binary joins determine all others (associativity), so the random
    draws can never change it.
    """
    report = CheckReport("lateral-join")
    base, left, right = product.base, product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    sig, member = base.signatures()
    atom_sigs = [sig.get(1 << k) for k in range(n1 * n2)]
    # with at most one atom on each side no atom pair is joined
    if None in atom_sigs and max(n1, n2) > 1:
        raise ForeignElementError(1 << atom_sigs.index(None))
    right_joins = [
        (j, k, right.join((1 << j, 1 << k))) for j in range(n2) for k in range(j + 1, n2)
    ]
    # the column {p1 v q1} x {0}, shifted by j below
    left_joins = [
        (i, k, _rect(left.join((1 << i, 1 << k)), 1, n2))
        for i in range(n1)
        for k in range(i + 1, n1)
    ]
    failures = report.failures
    for i in range(n1):
        row = atom_sigs[i * n2 : (i + 1) * n2]
        for j, k, want in right_joins:
            got = member[row[j] & row[k]]
            if got != want << (i * n2):
                failures.append(("right", i, j, k, atoms_of(got)))
    for j in range(n2):
        column = atom_sigs[j::n2]
        for i, k, want in left_joins:
            got = member[column[i] & column[k]]
            if got != want << j:
                failures.append(("left", j, i, k, atoms_of(got)))
    report.checked = n1 * len(right_joins) + n2 * len(left_joins)

    pools = _lazy_pools(left.closed_sets, right.closed_sets)
    for lat, h, side, pool in zip((left, right), (product.h1, product.h2), ("h1", "h2"), pools):
        _, joins = _embedding_verdicts(base, lat, h, pool)
        if joins is None:
            report.checked += len(pool)
            continue
        for omega, ok in zip(pool, joins):
            report.record(ok, lambda: (side, [atoms_of(x) for x in omega]))
    return report


def sproduct_join_lemma_check(product: ProductLattice) -> CheckReport:
    """Two exhaustive join identities on the product.

    First: the join of two pair atoms differing in both components
    contains exactly those two atoms.  Second: for factor atoms p1 <= a1
    and p2 <= a2, (p1 x a2) v (a1 x p2) has atom set
    {p1} x A(a2) u A(a1) x {p2}.

    The checks are listed once, as operand pairs: the two-atom checks as
    ordered pairs (i, j), (k, l) with i != k and j != l, by i, k, j and
    l, then the atom-set checks by i, a1 ∋ i, j and a2 ∋ j, whose
    (i, a1, j, a2) are kept for the witnesses; `checked` is their number.
    Each check says that the join of its two operands is their union.
    The join is the smallest member holding the union, so it is the union
    exactly when the union is a member, and one membership pass over the
    unions decides every check.  Every operand is itself one of the
    unions, so when they are all members, so is every operand.  Only a
    failed pass walks the same list with `Lattice.join`, which records
    each failure, its two-atom witness read off the operands' bits, and
    raises ForeignElementError for the first operand outside the base.
    """
    report = CheckReport("join-lemma")
    base, left, right = product.base, product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    lines = [[1 << (i * n2 + j) for j in range(n2)] for i in range(n1)]
    # the two-atom checks: the pairs of atoms of lines i != k, off the
    # diagonal j == l of each line pair's product
    off_diagonal = [j != l for j in range(n2) for l in range(n2)]
    checks = []
    for line_i, line_k in itertools.permutations(lines, 2):
        checks += itertools.compress(itertools.product(line_i, line_k), off_diagonal)
    two_atom = len(checks)
    # the atom-set checks: row {i} x A(a2) and column A(a1) x {j}.  The
    # factors hold their singletons, so every operand of a check is itself
    # a union tested here: the atom (i, j), the row and the column are the
    # unions with a1 = {i} and a2 = {j}, with a1 = {i}, and with a2 = {j}.
    ups1 = [[a1 for a1 in left.closed_sets if a1 >> i & 1] for i in range(n1)]
    ups2 = [[a2 for a2 in right.closed_sets if a2 >> j & 1] for j in range(n2)]
    column0 = {a1: _rect(a1, 1, n2) for a1 in left.closed_sets}
    cells = [
        (i, a1, j, a2)
        for i, a1s in enumerate(ups1)
        for a1 in a1s
        for j, a2s in enumerate(ups2)
        for a2 in a2s
    ]
    checks += [(a2 << (i * n2), column0[a1] << j) for i, a1, j, a2 in cells]
    report.checked = len(checks)
    sig, _ = base.signatures()  # keyed by the members
    if all(map(sig.__contains__, itertools.starmap(operator.or_, checks))):
        return report
    for k, (x, y) in enumerate(checks):
        got = base.join((x, y))
        if got == x | y:
            continue
        if k < two_atom:
            pairs = (product.pair_of(m.bit_length() - 1) for m in (x, y))
            report.failures.append(("two-atoms", *pairs, atoms_of(got)))
        else:
            i, a1, j, a2 = cells[k - two_atom]
            report.failures.append(("atom-sets", i, atoms_of(a1), j, atoms_of(a2)))
    return report
