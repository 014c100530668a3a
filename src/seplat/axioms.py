"""Connectivity, product axioms, and transitivity checks.

All checkers are exhaustive over the finite instance and report the first
witness on failure.  Coverings are caller-supplied (the single block of
all atoms is the default used throughout for MO-type lattices); a greedy
`find_connected_covering` heuristic exists but its failure is never
treated as a refutation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import _kernels
from .bitset import atoms_of, full_mask, is_subset, iter_atoms, mask_of, popcount
from .errors import CoveringError, SizeCapError
from .lattice import Lattice
from .perm import Automorphism, AutoGroup
from .product import CheckReport, ProductLattice, _subset_pools, otimes

TRANSITIVITY_ATOM_CAP = 20
CLASSIFY_ATOM_CAP = 16


@dataclass(frozen=True)
class Covering:
    """Blocks of atoms, each an atom mask."""

    blocks: tuple[int, ...]

    @classmethod
    def single_block(cls, lattice: Lattice) -> "Covering":
        return cls((lattice.top,))

    @classmethod
    def from_lists(cls, blocks: Iterable[Iterable[int]]) -> "Covering":
        return cls(tuple(mask_of(b) for b in blocks))

    def validate_shape(self, lattice: Lattice) -> None:
        if not self.blocks:
            raise CoveringError("covering has at least one block")
        top = lattice.top
        for b in self.blocks:
            if b == 0:
                raise CoveringError("blocks are nonempty")
            if b & ~top:
                raise CoveringError("blocks use atoms of the lattice", atoms_of(b))


@dataclass
class ConnectivityResult:
    """Outcome of a connectivity check with a certificate: the name of
    the first failed condition and a concrete witness."""

    ok: bool
    condition: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def _third_atom(lattice: Lattice, p: int, q: int) -> bool:
    """True iff the join of distinct atoms p, q holds a third atom."""
    return popcount(lattice.join((p, q))) >= 3


def weakly_connected(lattice: Lattice, covering: Covering) -> ConnectivityResult:
    """A lattice is weakly connected when it is not the two-element
    lattice and the covering is connected: blocks of at least two atoms
    exhausting the atom set, a third atom under the join of any two atoms
    of a block, and any two atoms linked by a chain of blocks whose
    consecutive members share at least two atoms."""
    covering.validate_shape(lattice)
    n = lattice.atom_count
    if n < 2:
        return ConnectivityResult(False, "lattice is the two-element lattice or below", n)
    blocks = covering.blocks
    union = 0
    for b in blocks:
        union |= b
        if popcount(b) < 2:
            return ConnectivityResult(False, "blocks have at least two atoms", atoms_of(b))
    if union != lattice.top:
        return ConnectivityResult(
            False, "blocks cover every atom", atoms_of(lattice.top & ~union)
        )
    for b in blocks:
        idx = atoms_of(b)
        for i, p in enumerate(idx):
            for q in idx[i + 1 :]:
                if not _third_atom(lattice, 1 << p, 1 << q):
                    return ConnectivityResult(
                        False, "a third atom below the join of any block pair", (p, q)
                    )
    # chain condition: components of the block graph with overlap >= 2
    k = len(blocks)
    comp = list(range(k))

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if popcount(blocks[i] & blocks[j]) >= 2:
                ci, cj = find(i), find(j)
                if ci != cj:
                    comp[ci] = cj
    atom_comps = [0] * n
    for bi, b in enumerate(blocks):
        c = find(bi)
        for a in iter_atoms(b):
            atom_comps[a] |= 1 << c
    for p in range(n):
        for q in range(p + 1, n):
            if atom_comps[p] & atom_comps[q] == 0:
                return ConnectivityResult(
                    False, "atoms joined by a chain of overlapping blocks", (p, q)
                )
    return ConnectivityResult(True)


def refute_weak_connectedness(lattice: Lattice) -> bool:
    """Sound refutation: True means no connected covering can exist, for
    any choice of blocks.  This holds when the lattice has fewer than two
    atoms, or when no atom pair at all has a third atom under its join
    (so no block of two or more atoms can satisfy the join condition).
    False is inconclusive."""
    n = lattice.atom_count
    if n < 2:
        return True
    for p in range(n):
        for q in range(p + 1, n):
            if _third_atom(lattice, 1 << p, 1 << q):
                return False
    return True


def find_connected_covering(lattice: Lattice) -> Optional[Covering]:
    """Greedy heuristic: grow blocks as cliques of the third-atom graph.
    Returns a covering that passes `weakly_connected`, or None.  A None
    is never a refutation; use `refute_weak_connectedness` for that."""
    n = lattice.atom_count
    if n < 2:
        return None
    adj = [0] * n
    for p in range(n):
        for q in range(n):
            if p != q and _third_atom(lattice, 1 << p, 1 << q):
                adj[p] |= 1 << q
    single = Covering.single_block(lattice)
    if weakly_connected(lattice, single):
        return single
    blocks = set()
    for p in range(n):
        block = 1 << p
        for q in range(n):
            if q != p and (block & ~adj[q]) == 0:
                block |= 1 << q
        if popcount(block) >= 2:
            blocks.add(block)
    if not blocks:
        return None
    cov = Covering(tuple(sorted(blocks)))
    return cov if weakly_connected(lattice, cov) else None


def laterally_connected(
    product: ProductLattice,
    cov1: Covering,
    cov2: Covering,
    check_coverings: bool = True,
) -> ConnectivityResult:
    """Lateral connectivity of a product with respect to factor coverings.

    Main clause: for every pair of distinct atoms q1, r1 inside a block
    of the left covering and q2, r2 inside a block of the right covering,
    some pair atom (p1, p2) must give both lateral joins a third atom:
    (p1 x q2) v (p1 x r2) and (q1 x p2) v (r1 x p2).

    A factor with exactly two atoms is handled like the rank-two
    projective geometry it stands in for: it cannot be weakly connected,
    so its covering is exempt from the connectivity precheck, its side of
    the main clause is waived (the original clause is vacuous for a
    geometry whose atom pairs always join to an atom-rich top), and it
    instead contributes the two-atom clause: for each of its atoms p,
    some atom q of the other factor puts a third atom under
    (p x q) v (p' x q) with p' the other atom.  At two atoms that join
    never holds more than two atoms, so the clause is unsatisfiable; the
    false certificate records this rather than raising.
    """
    base, left, right = product.base, product.left, product.right
    cov1.validate_shape(left)
    cov2.validate_shape(right)
    if check_coverings:
        for lat, cov, side in ((left, cov1, "left"), (right, cov2, "right")):
            if lat.atom_count == 2:
                continue
            res = weakly_connected(lat, cov)
            if not res:
                raise CoveringError(
                    f"{side} covering is not connected: {res.condition}", res.witness
                )
    n1, n2 = left.atom_count, right.atom_count

    def lateral_right(p1: int, j: int, k: int) -> bool:
        j_join = base.join((product.singleton(p1, j), product.singleton(p1, k)))
        return popcount(j_join) >= 3

    def lateral_left(i: int, k: int, p2: int) -> bool:
        j_join = base.join((product.singleton(i, p2), product.singleton(k, p2)))
        return popcount(j_join) >= 3

    skip_left, skip_right = n1 == 2, n2 == 2
    for b1 in cov1.blocks:
        left_pairs = [None] if skip_left else list(
            itertools.combinations(atoms_of(b1), 2)
        )
        for b2 in cov2.blocks:
            right_pairs = [None] if skip_right else list(
                itertools.combinations(atoms_of(b2), 2)
            )
            for lp in left_pairs:
                for rp in right_pairs:
                    hit = False
                    for p1 in range(n1):
                        if rp is not None and not lateral_right(p1, rp[0], rp[1]):
                            continue
                        if lp is None:
                            hit = True
                            break
                        for p2 in range(n2):
                            if lateral_left(lp[0], lp[1], p2):
                                hit = True
                                break
                        if hit:
                            break
                    if not hit:
                        return ConnectivityResult(
                            False,
                            "a pair atom giving both lateral joins a third atom",
                            (lp, rp),
                        )
    if skip_left:
        for p1 in range(2):
            if not any(lateral_left(p1, 1 - p1, q) for q in range(n2)):
                return ConnectivityResult(
                    False, "two-atom left factor lateral clause", p1
                )
    if skip_right:
        for p2 in range(2):
            if not any(lateral_right(q, p2, 1 - p2) for q in range(n1)):
                return ConnectivityResult(
                    False, "two-atom right factor lateral clause", p2
                )
    return ConnectivityResult(True)


# -- the product axioms --------------------------------------------------


@dataclass
class SProductReport:
    """Per-axiom reports; `passed` requires every axiom to hold."""

    reports: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports.values())

    def __bool__(self) -> bool:
        return self.passed

    def lines(self) -> list[str]:
        out = []
        for name in sorted(self.reports):
            r = self.reports[name]
            status = "pass" if r.passed else f"FAIL {r.failures[0]}"
            out.append(f"{name}: {status} ({r.checked} checks)")
        return out


def _check_embedding_morphism(
    report: CheckReport,
    base: Lattice,
    factor: Lattice,
    h: dict,
    side: str,
    subset_cap: int,
    samples: int,
    rng: random.Random,
) -> None:
    values = list(h.values())
    report.record(len(set(values)) == len(values), (side, "injective"))
    report.record(set(h.keys()) == set(factor.closed_sets), (side, "total"))
    for omega in _subset_pools(factor.closed_sets, subset_cap, samples, rng):
        want_meet = h[factor.meet(omega)]
        got_meet = base.meet([h[x] for x in omega])
        report.record(
            want_meet == got_meet, (side, "meet", [atoms_of(x) for x in omega])
        )
        want_join = h[factor.join(omega)]
        got_join = base.join([h[x] for x in omega])
        report.record(
            want_join == got_join, (side, "join", [atoms_of(x) for x in omega])
        )


def _pair_perm(u1: Automorphism, u2: Automorphism, n1: int, n2: int) -> tuple[int, ...]:
    """The pair-atom permutation (p1, p2) -> (u1 p1, u2 p2)."""
    return tuple(u1.perm[i] * n2 + u2.perm[j] for i in range(n1) for j in range(n2))


def check_sproduct(
    product: ProductLattice,
    t1: AutoGroup,
    t2: AutoGroup,
    cov1: Optional[Covering] = None,
    cov2: Optional[Covering] = None,
    subset_cap: int = 3,
    samples: int = 20,
    seed: int = 7,
) -> SProductReport:
    """Exhaustive verification of the product axioms.

    P0: the embeddings are injective and preserve arbitrary meets and
        joins (exhaustive on small subsets, seeded random on larger).
    P1: the embedded meet of two factor atoms is an atom of the base.
    P2: that atom lies under h1(a1) v h2(a2) iff p1 <= a1 or p2 <= a2.
    P3: laterally connected with respect to the coverings.
    P4: every pair of factor automorphisms from t1 x t2 induces an atom
        permutation of the base that preserves the closed family, checked
        on the base's meet-irreducibles, which the permutation must map
        into themselves (equivalent; see `Lattice.meet_irreducibles`).
    P5: the atoms of the base are exactly the embedded atom meets.
    """
    base, left, right = product.base, product.left, product.right
    cov1 = cov1 or Covering.single_block(left)
    cov2 = cov2 or Covering.single_block(right)
    rng = random.Random(seed)
    rep = SProductReport()

    p0 = CheckReport("P0")
    _check_embedding_morphism(p0, base, left, product.h1, "h1", subset_cap, samples, rng)
    _check_embedding_morphism(p0, base, right, product.h2, "h2", subset_cap, samples, rng)
    rep.reports["P0"] = p0

    p1 = CheckReport("P1")
    atom_set = set(base.atoms())
    for i in range(left.atom_count):
        for j in range(right.atom_count):
            m = otimes(product, 1 << i, 1 << j)
            p1.record(m in atom_set, (i, j, atoms_of(m)))
    rep.reports["P1"] = p1

    p2 = CheckReport("P2")
    join_cache = {}
    for a1 in left.closed_sets:
        for a2 in right.closed_sets:
            join_cache[(a1, a2)] = base.join((product.h1[a1], product.h2[a2]))
    for i in range(left.atom_count):
        for j in range(right.atom_count):
            atom = otimes(product, 1 << i, 1 << j)
            for a1 in left.closed_sets:
                below1 = is_subset(1 << i, a1)
                for a2 in right.closed_sets:
                    want = below1 or is_subset(1 << j, a2)
                    got = is_subset(atom, join_cache[(a1, a2)])
                    p2.record(got == want, (i, j, atoms_of(a1), atoms_of(a2)))
    rep.reports["P2"] = p2

    p3 = CheckReport("P3")
    lat_res = laterally_connected(product, cov1, cov2)
    p3.record(lat_res.ok, (lat_res.condition, lat_res.witness))
    rep.reports["P3"] = p3

    p4 = CheckReport("P4")
    n1, n2 = left.atom_count, right.atom_count
    fam = base.meet_irreducibles()
    for u1 in t1:
        for u2 in t2:
            pair_perm = _pair_perm(u1, u2, n1, n2)
            ok = _kernels.family_preserved(pair_perm, fam, base.atom_count)
            p4.record(ok, (u1.perm, u2.perm))
    rep.reports["P4"] = p4

    p5 = CheckReport("P5")
    embedded = {
        otimes(product, 1 << i, 1 << j)
        for i in range(left.atom_count)
        for j in range(right.atom_count)
    }
    p5.record(embedded == atom_set, sorted(atoms_of(m) for m in atom_set - embedded))
    rep.reports["P5"] = p5
    return rep


# -- transitivity ---------------------------------------------------------


@dataclass
class TransitivityResult:
    ok: bool
    mode: str
    condition: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def _block_condition(img: int, mask: int) -> bool:
    """u(A) ∩ A equals u(A) or is empty, for img = u(A)."""
    overlap = img & mask
    return overlap == img or overlap == 0


def strongly_transitive(
    lattice: Lattice,
    group: AutoGroup,
    atom_cap: int = TRANSITIVITY_ATOM_CAP,
    mode: str = "exact",
    samples: int = 2000,
    seed: int = 11,
) -> TransitivityResult:
    """Check that a set of automorphisms acts strongly transitively.

    Requires the identity, atom transitivity, the fix-one-move-another
    condition (for p != q some member fixes p and moves q), and the
    subset condition: any nonempty atom subset A with u(A) ∩ A ∈
    {u(A), ∅} for every member u is the full set or a singleton.  The
    subset condition sweeps all subsets in exact mode (capped); sample
    mode only looks for refuting subsets at random, so a passing sampled
    result is not a proof.
    """
    n = lattice.atom_count
    perms = [u.perm for u in group]
    if not group.contains_identity():
        return TransitivityResult(False, mode, "identity is a member", None)
    for p in range(n):
        for q in range(n):
            if not any(perm[p] == q for perm in perms):
                return TransitivityResult(
                    False, mode, "atom transitivity", (p, q)
                )
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if not any(perm[p] == p and perm[q] != q for perm in perms):
                return TransitivityResult(
                    False, mode, "some member fixes p and moves q", (p, q)
                )
    full = full_mask(n)
    if mode == "exact":
        if n > atom_cap:
            raise SizeCapError(
                f"invariant-subset sweep over {n} atoms exceeds cap {atom_cap}; "
                "use mode='sample' for refutation-only checking"
            )
        for m in _kernels.invariant_subsets(perms, n):
            if m != full and popcount(m) != 1:
                return TransitivityResult(
                    False, mode, "only trivial invariant subsets", atoms_of(m)
                )
        return TransitivityResult(True, mode)
    if mode != "sample":
        raise ValueError(f"unknown mode: {mode!r}")
    rng = random.Random(seed)
    movers = [u for u in group if not u.is_identity()]
    for _ in range(samples):
        m = rng.getrandbits(n)
        if m == 0 or m == full or popcount(m) == 1:
            continue
        if all(_block_condition(u(m), m) for u in movers):
            return TransitivityResult(
                False, mode, "only trivial invariant subsets", atoms_of(m)
            )
    return TransitivityResult(True, mode)


# -- invariant subsets of a product under a group -------------------------


@dataclass
class ClassificationResult:
    """Invariant atom subsets with their structural tags.

    In exact mode `entries` lists every invariant nonempty subset, tagged
    full/singleton/row/column/unexpected.  In sample mode the expected
    shapes are verified directly and `entries` holds those that are in
    fact invariant, while random other subsets are checked to refute
    invariance; any sampled invariant subset appears tagged unexpected.
    """

    entries: list
    mode: str
    sampled: int = 0

    def tags(self) -> dict:
        out = {}
        for mask, tag in self.entries:
            out.setdefault(tag, []).append(mask)
        return out

    @property
    def unexpected(self) -> list:
        return [m for m, tag in self.entries if tag == "unexpected"]


def induced_pair_group(product: ProductLattice, t1: AutoGroup, t2: AutoGroup) -> AutoGroup:
    """The pair-atom permutations (p1, p2) -> (u1 p1, u2 p2) for all
    (u1, u2) from t1 x t2, as an automorphism group of the product base.

    On a square product this is the index-two subgroup of the full
    automorphism group that excludes the factor-swapping maps.
    """
    n1, n2 = product.left.atom_count, product.right.atom_count
    members = [Automorphism(_pair_perm(u1, u2, n1, n2)) for u1 in t1 for u2 in t2]
    return AutoGroup(product.base, members)


def classify_invariant_subsets(
    product: ProductLattice,
    group: AutoGroup,
    atom_cap: int = CLASSIFY_ATOM_CAP,
    mode: Optional[str] = None,
    samples: int = 4000,
    seed: int = 13,
) -> ClassificationResult:
    """Classify the atom subsets R of the product base that satisfy
    u(R) ∩ R ∈ {u(R), ∅} for every member u of `group` into full set,
    singletons, rows {p1} x A(L2) and columns A(L1) x {p2}.

    With `group` the pair maps induced by strongly transitive factor
    groups (see `induced_pair_group`), those four shapes are the only
    ones that can occur; anything else is tagged unexpected.  Note that
    on a square product the *full* automorphism group also contains the
    factor swap, which rules the rows and columns out as well (a swap
    sends a row to a column, overlapping it in exactly one pair atom).
    """
    base = product.base
    n = base.atom_count
    n1, n2 = product.left.atom_count, product.right.atom_count
    if mode is None:
        mode = "exact" if n <= atom_cap else "sample"
    full = base.top
    rows = {product.row(i): i for i in range(n1)}
    cols = {product.col(j): j for j in range(n2)}

    def tag(mask: int) -> str:
        if mask == full:
            return "full"
        if popcount(mask) == 1:
            return "singleton"
        if mask in rows:
            return "row"
        if mask in cols:
            return "column"
        return "unexpected"

    if mode == "exact":
        if n > atom_cap:
            raise SizeCapError(
                f"exhaustive sweep over {n} atoms exceeds cap {atom_cap}; "
                "use mode='sample'"
            )
        invariant = _kernels.invariant_subsets([u.perm for u in group], n)
        return ClassificationResult([(m, tag(m)) for m in invariant], "exact")
    if mode != "sample":
        raise ValueError(f"unknown mode: {mode!r}")
    movers = [u for u in group if not u.is_identity()]

    def invariant_under_all(mask: int) -> bool:
        return all(_block_condition(u(mask), mask) for u in movers)

    entries = []
    candidates = [full] + [1 << a for a in range(n)] + list(rows) + list(cols)
    seen = set()
    for m in candidates:
        if m and m not in seen and invariant_under_all(m):
            seen.add(m)
            entries.append((m, tag(m)))
    rng = random.Random(seed)
    tried = 0
    for _ in range(samples):
        m = rng.getrandbits(n)
        if m == 0 or m in seen:
            continue
        tried += 1
        if invariant_under_all(m):
            seen.add(m)
            entries.append((m, "unexpected"))
    return ClassificationResult(entries, "sample", sampled=tried)
