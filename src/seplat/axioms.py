"""Connectivity, product axioms, and transitivity checks.

All checkers are exhaustive over the finite instance and report the first
witness on failure.  Coverings are caller-supplied (the single block of
all atoms is the default used throughout for MO-type lattices); a greedy
`find_connected_covering` heuristic exists but its failure is never
treated as a refutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import _kernels
from .bitset import atoms_of, full_mask, is_subset, iter_atoms, mask_of, popcount
from .errors import CoveringError, SizeCapError
from .lattice import Lattice
from .perm import Automorphism, AutoGroup
from .product import CheckReport, ProductLattice, _subset_pools, otimes

SWEEP_ATOM_CAP = 20


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
    pool: list[tuple[int, ...]],
) -> None:
    values = list(h.values())
    report.record(len(set(values)) == len(values), (side, "injective"))
    report.record(set(h.keys()) == set(factor.closed_sets), (side, "total"))
    for omega in pool:
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


def _pair_perm(u1: tuple[int, ...], u2: tuple[int, ...]) -> tuple[int, ...]:
    """The pair-atom permutation (p1, p2) -> (u1 p1, u2 p2), pair (i, j)
    being atom i * n2 + j."""
    n2 = len(u2)
    return tuple(a * n2 + b for a in u1 for b in u2)


def check_sproduct(
    product: ProductLattice,
    t1: AutoGroup,
    t2: AutoGroup,
    cov1: Optional[Covering] = None,
    cov2: Optional[Covering] = None,
) -> SProductReport:
    """Exhaustive verification of the product axioms.

    P0: the embeddings are injective and preserve arbitrary meets and
        joins.  Tested on every subset of at most `SUBSET_CAP` elements
        plus seeded random larger ones; the verdict is exact, because the
        pool holds the empty subset and every pair, and in a finite
        lattice binary and empty meets and joins determine all others
        (associativity), so the random draws can never change it.
    P1: the embedded meet of two factor atoms is an atom of the base.
    P2: that atom lies under h1(a1) v h2(a2) iff p1 <= a1 or p2 <= a2.
    P3: laterally connected with respect to the coverings.
    P4: every pair (u1, u2) from t1 x t2 induces an atom permutation
        (p1, p2) -> (u1 p1, u2 p2) of the base that preserves the closed
        family, checked on the base's meet-irreducibles, which the
        permutation must map into themselves (equivalent; see
        `Lattice.meet_irreducibles`).  Only the pairs (g, id) and (id, g)
        are evaluated, for g a strong generator of t1 or t2: when the pair
        maps permute every base atom, those that pass are automorphisms
        of the base, which form a group, and every pair is a product of
        them, so every pair passes.  `checked` counts the pairs certified,
        |t1|·|t2|, not the maps evaluated.  When the base has other atoms
        than the pairs, or a generator pair fails, every pair of members
        is evaluated in lexicographic order, so the failures and their
        witnesses are those of the all-pairs loop; a base with atoms
        beyond the pairs fails every pair, as its top holds an atom no
        pair map reaches.
    P5: the atoms of the base are exactly the embedded atom meets.
    """
    base, left, right = product.base, product.left, product.right
    cov1 = cov1 or Covering.single_block(left)
    cov2 = cov2 or Covering.single_block(right)
    rep = SProductReport()

    p0 = CheckReport("P0")
    left_pool, right_pool = _subset_pools(left.closed_sets, right.closed_sets)
    _check_embedding_morphism(p0, base, left, product.h1, "h1", left_pool)
    _check_embedding_morphism(p0, base, right, product.h2, "h2", right_pool)
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
    beyond = base.atom_count > n1 * n2

    def preserved(u1: tuple[int, ...], u2: tuple[int, ...]) -> bool:
        if beyond:
            return False
        return _kernels.family_preserved(_pair_perm(u1, u2), fam, base.atom_count)

    id1, id2 = tuple(range(n1)), tuple(range(n2))
    certified = (
        base.atom_count == n1 * n2
        and all(preserved(g.perm, id2) for g in t1.generators)
        and all(preserved(id1, g.perm) for g in t2.generators)
    )
    if certified:
        p4.checked = t1.order * t2.order
    else:
        members2 = tuple(t2)
        for u1 in t1:
            for u2 in members2:
                p4.record(preserved(u1.perm, u2.perm), (u1.perm, u2.perm))
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
    condition: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def _invariant_subsets(perms: list[tuple[int, ...]], n: int) -> list[int]:
    """Every nonempty atom subset A with u(A) ∩ A ∈ {u(A), ∅} for every
    permutation u, by the exhaustive sweep, which is capped at
    `SWEEP_ATOM_CAP` atoms."""
    if n > SWEEP_ATOM_CAP:
        raise SizeCapError(
            f"invariant-subset sweep over {n} atoms exceeds cap {SWEEP_ATOM_CAP}"
        )
    return _kernels.invariant_subsets(perms, n)


def _block_of(perms: list[tuple[int, ...]], n: int, atoms: int) -> int:
    """The smallest block holding the atoms of the mask `atoms`: the class
    holding them in the finest partition that the permutations map onto
    itself (Atkinson, Math. Comp. 29 (1975) 911–913).  Union-find: each
    merge of two classes queues the merged pair, whose images under every
    permutation are merged in turn, so at most n − 1 pairs are queued."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        return ra != rb

    listed = atoms_of(atoms)
    queue = [(listed[0], b) for b in listed[1:] if union(listed[0], b)]
    for a, b in queue:
        for perm in perms:
            if union(perm[a], perm[b]):
                queue.append((perm[a], perm[b]))
    root = find(listed[0])
    return mask_of(p for p in range(n) if find(p) == root)


def strongly_transitive(lattice: Lattice, group: AutoGroup) -> TransitivityResult:
    """Check that a group of automorphisms acts strongly transitively.

    Requires atom transitivity, the fix-one-move-another condition (for
    p != q some member fixes p and moves q), and the subset condition:
    any nonempty atom subset A with u(A) ∩ A ∈ {u(A), ∅} for every
    member u is the full set or a singleton.  Each condition is read off
    the group's stabilizer chain and generators, and the first witness is
    the one a scan of every pair (p, q), then of every subset in mask
    order, would report.

    - Atom transitivity: the orbit of atom 0 is every atom, or (0, q)
      fails for the smallest atom q outside it.
    - Fix-one-move-another: the members fixing p are t_p G_0 t_p⁻¹, with
      t_p a member sending 0 to p, so the atoms they move are the t_p
      images of the atoms that the generators fixing 0 move.
    - Subset condition: for a transitive group, the subsets A are its
      blocks, so it holds exactly when the group is primitive, that is
      when the smallest block holding {0, q} is every atom for each q.
      When some block is smaller, the witness is the first block in mask
      order: the sweep over the generators keeps every block, and each
      survivor is a block exactly when it is its own smallest block.
      Above `SWEEP_ATOM_CAP` atoms, where the sweep is refused, the
      witness is the smallest block holding {0, q} for the first such q.
    """
    n = lattice.atom_count
    if n == 0:
        return TransitivityResult(True)
    full = full_mask(n)
    transversal = group.transversal(0)
    outside = full & ~mask_of(transversal)
    if outside:
        return TransitivityResult(False, "atom transitivity", (0, atoms_of(outside)[0]))
    moved_by_stabilizer = 0
    for g in group.generators:
        if g.perm[0] == 0:
            moved_by_stabilizer |= mask_of(p for p, image in enumerate(g.perm) if p != image)
    for p in range(n):
        unmoved = full & ~transversal[p](moved_by_stabilizer) & ~(1 << p)
        if unmoved:
            return TransitivityResult(
                False, "some member fixes p and moves q", (p, atoms_of(unmoved)[0])
            )
    perms = [g.perm for g in group.generators]
    for q in range(1, n):
        block = _block_of(perms, n, 1 | 1 << q)
        if block == full:
            continue
        if n <= SWEEP_ATOM_CAP:
            block = next(
                m
                for m in _invariant_subsets(perms, n)
                if m != full and popcount(m) > 1 and _block_of(perms, n, m) == m
            )
        return TransitivityResult(False, "only trivial invariant subsets", atoms_of(block))
    return TransitivityResult(True)


# -- invariant subsets of a product under a group -------------------------


@dataclass
class ClassificationResult:
    """Every invariant nonempty atom subset, tagged
    full/singleton/row/column/unexpected."""

    entries: list

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
    (u1, u2) from t1 x t2, as an automorphism group of the product base,
    generated by the pairs (g, id) and (id, g) for the strong generators
    g of t1 and t2.

    On a square product this is the index-two subgroup of the full
    automorphism group that excludes the factor-swapping maps.
    """
    id1 = tuple(range(product.left.atom_count))
    id2 = tuple(range(product.right.atom_count))
    gens = [Automorphism(_pair_perm(g.perm, id2)) for g in t1.generators]
    gens += [Automorphism(_pair_perm(id1, g.perm)) for g in t2.generators]
    return AutoGroup(product.base, gens)


def classify_invariant_subsets(
    product: ProductLattice, group: AutoGroup, mode: str = "exact"
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

    The sweep is exhaustive and raises SizeCapError above
    `SWEEP_ATOM_CAP` atoms; `mode` accepts only "exact".
    """
    if mode != "exact":
        raise ValueError(f"unknown mode: {mode!r}")
    full = product.base.top
    rows = {product.row(i) for i in range(product.left.atom_count)}
    cols = {product.col(j) for j in range(product.right.atom_count)}

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

    invariant = _invariant_subsets([u.perm for u in group], product.base.atom_count)
    return ClassificationResult([(m, tag(m)) for m in invariant])
