"""Connectivity, product axioms, and transitivity checks.

All checkers are exhaustive over the finite instance and report the first
witness on failure.  Coverings are caller-supplied (the single block of
all atoms is the default used throughout for MO-type lattices);
`connected_covering` decides exactly whether any connected covering
exists, and its None is a refutation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import _kernels
from .bitset import atoms_of, full_mask, is_subset, iter_atoms, mask_of, popcount
from .errors import CoveringError, ForeignElementError, SizeCapError, ValidationError
from .lattice import Lattice
from .perm import Automorphism, AutoGroup
from .product import (
    CheckReport,
    ProductLattice,
    _embedding_verdicts,
    _lazy_pools,
    _pair_perm,
    otimes,
)

SWEEP_ATOM_CAP = 20


@dataclass(frozen=True)
class Covering:
    """Blocks of atoms, each an atom mask."""

    blocks: tuple[int, ...]

    @classmethod
    def single_block(cls, lattice: Lattice) -> "Covering":
        return cls((lattice.top,))

    @classmethod
    def from_lists(cls, lattice: Lattice, blocks: Iterable[Iterable[int]]) -> "Covering":
        """The covering whose blocks list atom indices of `lattice`; every
        index is checked before any mask is built."""
        blocks = [list(b) for b in blocks]
        n = lattice.atom_count
        for b in blocks:
            if any(type(a) is not int or not 0 <= a < n for a in b):
                raise CoveringError("blocks use atoms of the lattice", b)
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
    """Outcome of a connectivity or transitivity check with a
    certificate: the name of the first failed condition and a concrete
    witness."""

    ok: bool
    condition: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def _third_atom(lattice: Lattice, p: int, q: int) -> bool:
    """True iff the join of distinct atoms p, q holds a third atom.

    The join is the member whose signature is the AND of theirs (see
    `Lattice.signatures`).  ForeignElementError, as from `Lattice.join`,
    for the first of p and q that is no member."""
    sig, member = lattice.signatures()
    try:
        return popcount(member[sig[p] & sig[q]]) >= 3
    except KeyError as err:
        raise ForeignElementError(err.args[0]) from None


def _third_atom_graph(lattice: Lattice) -> list[int]:
    """The third-atom graph as one adjacency mask per atom: bit q of the
    p-th mask is set iff q != p and `_third_atom` holds for p and q.
    The pairs are tested in lexicographic order."""
    adj = [0] * lattice.atom_count
    for p, q in itertools.combinations(range(lattice.atom_count), 2):
        if _third_atom(lattice, 1 << p, 1 << q):
            adj[p] |= 1 << q
            adj[q] |= 1 << p
    return adj


def _find(parent: list[int], a: int) -> int:
    """The root of a's class in the union-find forest `parent`, halving
    the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent: list[int], a: int, b: int) -> bool:
    """Merge the classes of a and b; True iff they were distinct."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb
    return ra != rb


def weakly_connected(
    lattice: Lattice, covering: Covering, adj: Optional[list[int]] = None
) -> ConnectivityResult:
    """A lattice is weakly connected when it is not the two-element
    lattice and the covering is connected: blocks of at least two atoms
    exhausting the atom set, a third atom under the join of any two atoms
    of a block, and any two atoms linked by a chain of blocks whose
    consecutive members share at least two atoms.

    The join condition reads the third-atom graph `adj`
    (`_third_atom_graph`, built here over every atom pair unless the
    caller has built it): block by block and atom p by atom p, in
    ascending order, the first missing pair is (p, q) for the lowest
    atom q > p of the block that is no neighbour of p, the witness that a
    scan of the block's pairs would report first.  Two blocks share two
    atoms exactly when they share an atom pair, so the chain condition
    merges each block with the first block that holds each of its atom
    pairs, at Σ C(|b|, 2) lookups rather than a test of every block
    pair."""
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
    if adj is None:
        adj = _third_atom_graph(lattice)
    for b in blocks:
        for p in iter_atoms(b):
            missing = b >> (p + 1) << (p + 1) & ~adj[p]
            if missing:
                q = (missing & -missing).bit_length() - 1
                return ConnectivityResult(
                    False, "a third atom below the join of any block pair", (p, q)
                )
    # chain condition: components of the blocks linked by a shared atom pair
    comp = list(range(len(blocks)))
    holder: dict[tuple[int, int], int] = {}
    for i, b in enumerate(blocks):
        for pair in itertools.combinations(iter_atoms(b), 2):
            _union(comp, i, holder.setdefault(pair, i))
    atom_comps = [0] * n
    for bi, b in enumerate(blocks):
        c = _find(comp, bi)
        for a in iter_atoms(b):
            atom_comps[a] |= 1 << c
    for p in range(n):
        for q in range(p + 1, n):
            if atom_comps[p] & atom_comps[q] == 0:
                return ConnectivityResult(
                    False, "atoms joined by a chain of overlapping blocks", (p, q)
                )
    return ConnectivityResult(True)


def connected_covering(
    lattice: Lattice, adj: Optional[list[int]] = None
) -> Optional[Covering]:
    """A covering that passes `weakly_connected`, or None when no
    connected covering exists: the decision is exact.

    Call two edges of the third-atom graph `adj` (`_third_atom_graph`,
    built here unless the caller has built it) linked when they lie in a
    common triangle.  A connected covering exists exactly when there are
    two atoms or more and every atom pair touches a common class of
    linked edges.  Every block of a connected covering is a clique of at
    least two atoms, its edges are linked through its triangles, and
    blocks sharing two atoms share an edge, so each chain of blocks keeps
    its edges in one class, which touches every atom of the chain.
    Conversely the triangles that merge two edge classes in a union-find
    span each class's links and chain its atoms, and an edge in no
    triangle is a class of its own, so these triangles and those edges
    form a connected covering.  The single block of all atoms is returned
    when the graph is complete, else those blocks in ascending order."""
    n, top = lattice.atom_count, lattice.top
    if adj is None:
        adj = _third_atom_graph(lattice)
    if n < 2:
        return None
    if all(a | 1 << p == top for p, a in enumerate(adj)):
        return Covering.single_block(lattice)
    edge = {}
    for p, a in enumerate(adj):
        for q in iter_atoms(a >> (p + 1) << (p + 1)):
            edge[p, q] = len(edge)
    parent, blocks = list(range(len(edge))), []
    for (p, q), e in edge.items():
        if not adj[p] & adj[q]:
            blocks.append(1 << p | 1 << q)
        for r in iter_atoms(adj[p] & adj[q] >> (q + 1) << (q + 1)):
            if _union(parent, e, edge[p, r]) | _union(parent, e, edge[q, r]):
                blocks.append(1 << p | 1 << q | 1 << r)
    classes = [0] * n
    for (p, q), e in edge.items():
        root = 1 << _find(parent, e)
        classes[p] |= root
        classes[q] |= root
    if any(not classes[p] & classes[q] for p, q in itertools.combinations(range(n), 2)):
        return None
    return Covering(tuple(sorted(blocks)))


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
        return _third_atom(base, product.singleton(p1, j), product.singleton(p1, k))

    def lateral_left(i: int, k: int, p2: int) -> bool:
        return _third_atom(base, product.singleton(i, p2), product.singleton(k, p2))

    # The clause asks for p1 serving rp and p2 serving lp, two conditions
    # that share no atom, so it holds exactly when each side has its own
    # witness; each pair's side is worked out once, on first use.
    @functools.cache
    def right_served(rp: Optional[tuple[int, int]]) -> bool:
        return rp is None or any(lateral_right(p1, *rp) for p1 in range(n1))

    @functools.cache
    def left_served(lp: Optional[tuple[int, int]]) -> bool:
        return lp is None or any(lateral_left(*lp, p2) for p2 in range(n2))

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
                    if not (right_served(rp) and left_served(lp)):
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
    """P0 on one side: h is injective and total, then keeps the meet and
    the join of each subset in `pool`, recorded meet first, subset by
    subset, off `_embedding_verdicts`, which raises ValidationError for
    the first factor element that h misses."""
    values = list(h.values())
    report.record(len(set(values)) == len(values), (side, "injective"))
    report.record(set(h.keys()) == set(factor.closed_sets), (side, "total"))
    meets, joins = _embedding_verdicts(base, factor, h, pool)
    if meets is None and joins is None:
        report.checked += 2 * len(pool)
        return
    for k, omega in enumerate(pool):
        for verdicts, law in ((meets, "meet"), (joins, "join")):
            report.record(
                verdicts is None or verdicts[k],
                lambda: (side, law, [atoms_of(x) for x in omega]),
            )


def _spanning_pairs(
    product: ProductLattice, t1: AutoGroup, t2: AutoGroup
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs that generate t1 x t2, as permutation tuples: (g, id) for
    each strong generator g of t1, then (id, g) for each of t2."""
    id1 = tuple(range(product.left.atom_count))
    id2 = tuple(range(product.right.atom_count))
    return [(g.perm, id2) for g in t1.generators] + [(id1, g.perm) for g in t2.generators]


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
        (associativity), so the random draws can never change it.  The
        meets and joins are ANDs of element codes that hold the masks and
        the meet-irreducible signatures (`_embedding_verdicts`): a law
        that the empty subset and every pair keep is recorded as kept on
        the whole pool, whose subsets are then never drawn, and only a
        law that fails is evaluated subset by subset, meet before join,
        for the witnesses.
    P1: the embedded meet of two factor atoms is an atom of the base.
    P2: that atom lies under h1(a1) v h2(a2) iff p1 <= a1 or p2 <= a2.
        Each join h1(a1) v h2(a2) is the member with the AND of the two
        images' signatures.  When every embedded atom meet of (p1, p2) is
        the pair atom p1·n2 + p2, the checks of one pair (a1, a2) all
        pass exactly when the pair atoms under that join are the cross
        A(a1) x A(L2) u A(L1) x A(a2), the union of two rectangles taken
        once per factor element, so one mask comparison per pair
        (a1, a2) decides them; `checked` then counts the checks
        certified, n1·n2·|L1|·|L2|.  Otherwise every check is evaluated,
        atom pair by atom pair, so the failures and their witnesses are
        those of the per-atom loop.
    P3: laterally connected with respect to the coverings.
    P4: every pair (u1, u2) from t1 x t2 induces an atom permutation
        (p1, p2) -> (u1 p1, u2 p2) of the base that preserves the closed
        family, checked by `_kernels.family_preserved` on the base's
        meet-irreducibles, which the permutation must map into the base
        (equivalent; see `Lattice.meet_irreducibles`).  Only the spanning
        pairs (g, id) and (id, g) are evaluated, for g a strong generator
        of t1, then of t2: those that pass are automorphisms of the base,
        which form a group, and every pair is a product of spanning pairs,
        so P4 holds exactly when every spanning pair passes.  On a pass,
        `checked` counts the pairs certified, |t1|·|t2|; on a failure, the
        spanning pairs evaluated, and the failures are the failing
        spanning pairs, in that order, each a member pair of t1 x t2.  A
        base whose atom count is not n1·n2 fails with the one witness
        (id, id) and no map evaluated, as no pair map permutes its atoms.
    P5: the atoms of the base are exactly the embedded atom meets.
    """
    base, left, right = product.base, product.left, product.right
    _require_group_of(t1, left, "t1")
    _require_group_of(t2, right, "t2")
    cov1 = cov1 or Covering.single_block(left)
    cov2 = cov2 or Covering.single_block(right)
    rep = SProductReport()

    p0 = CheckReport("P0")
    left_pool, right_pool = _lazy_pools(left.closed_sets, right.closed_sets)
    _check_embedding_morphism(p0, base, left, product.h1, "h1", left_pool)
    _check_embedding_morphism(p0, base, right, product.h2, "h2", right_pool)
    rep.reports["P0"] = p0

    # the embedded atom meets, pair (i, j) at index i * n2 + j
    n1, n2 = left.atom_count, right.atom_count
    meets = [otimes(product, 1 << i, 1 << j) for i in range(n1) for j in range(n2)]

    p1 = CheckReport("P1")
    atom_set = set(base.atoms())
    for k, m in enumerate(meets):
        p1.record(m in atom_set, lambda: (*divmod(k, n2), atoms_of(m)))
    rep.reports["P1"] = p1

    p2 = CheckReport("P2")
    # h1(a1) v h2(a2) off the signatures, a1 major, and the cross of (a1, a2)
    sig, member = base.signatures()
    sigs1 = [sig[product.h1[a1]] for a1 in left.closed_sets]
    sigs2 = [sig[product.h2[a2]] for a2 in right.closed_sets]
    joins = [member[s1 & s2] for s1 in sigs1 for s2 in sigs2]
    rects1 = [product.rect(a1, right.top) for a1 in left.closed_sets]
    rects2 = [product.rect(left.top, a2) for a2 in right.closed_sets]
    pairs = full_mask(n1 * n2)
    certified = all(m == 1 << k for k, m in enumerate(meets)) and [
        join & pairs for join in joins
    ] == [r1 | r2 for r1 in rects1 for r2 in rects2]
    if certified:
        p2.checked = n1 * n2 * len(joins)
    else:
        for i in range(n1):
            for j in range(n2):
                atom = meets[i * n2 + j]
                cells = iter(joins)
                for a1 in left.closed_sets:
                    below1 = is_subset(1 << i, a1)
                    for a2 in right.closed_sets:
                        want = below1 or is_subset(1 << j, a2)
                        got = is_subset(atom, next(cells))
                        p2.record(got == want, lambda: (i, j, atoms_of(a1), atoms_of(a2)))
    rep.reports["P2"] = p2

    p3 = CheckReport("P3")
    lat_res = laterally_connected(product, cov1, cov2)
    p3.record(lat_res.ok, (lat_res.condition, lat_res.witness))
    rep.reports["P3"] = p3

    p4 = CheckReport("P4")
    if base.atom_count != n1 * n2:
        p4.record(False, (tuple(range(n1)), tuple(range(n2))))
    else:
        mi = base.meet_irreducibles()
        for u1, u2 in _spanning_pairs(product, t1, t2):
            p4.record(_kernels.family_preserved(_pair_perm(u1, u2), mi, base), (u1, u2))
        if p4.passed:
            p4.checked = t1.order * t2.order
    rep.reports["P4"] = p4

    p5 = CheckReport("P5")
    embedded = set(meets)
    p5.record(embedded == atom_set, sorted(atoms_of(m) for m in atom_set - embedded))
    rep.reports["P5"] = p5
    return rep


# -- transitivity ---------------------------------------------------------


def _block_of(perms: list[tuple[int, ...]], n: int, atoms: int) -> int:
    """The smallest block holding the atoms of the mask `atoms`: the class
    holding them in the finest partition that the permutations map onto
    itself (Atkinson, Math. Comp. 29 (1975) 911–913).  Union-find: each
    merge of two classes queues the merged pair, whose images under every
    permutation are merged in turn, so at most n − 1 pairs are queued."""
    parent = list(range(n))
    listed = atoms_of(atoms)
    queue = [(listed[0], b) for b in listed[1:] if _union(parent, listed[0], b)]
    for a, b in queue:
        for perm in perms:
            if _union(parent, perm[a], perm[b]):
                queue.append((perm[a], perm[b]))
    root = _find(parent, listed[0])
    return mask_of(p for p in range(n) if _find(parent, p) == root)


def _blocks(group: AutoGroup, transversal: dict[int, Automorphism]) -> list[int]:
    """Every block of the group, in ascending mask order: the nonempty
    atom subsets A with u(A) ∩ A ∈ {u(A), ∅} for every member u.
    `transversal` is `group.transversal(0)`, or empty for no atoms.

    A transitive group's blocks holding atom 0 are reached from {0} by
    adding one atom q and taking the smallest block (`_block_of`): each
    step stays inside any block holding the set and q, so every such block
    is reached, and every block is the image of one of them under the
    transversal of atom 0.  An intransitive group goes through the sweep
    over its generators, capped at `SWEEP_ATOM_CAP` atoms, and a survivor
    is a block exactly when it is its own smallest block.

    One atom q per orbit of the stabilizer G_0 of atom 0 is enough.  A
    block B holding 0 is G_0-invariant: for g in G_0, g(B) ∩ B holds 0,
    so g(B) = B.  Hence each G_0-orbit lies inside B or outside it, and
    for g in G_0 the smallest block of b ∪ {g(q)} is g of the smallest
    block of b ∪ {q}, which holds 0, so it is that block itself.  The
    strong generators fixing 0 generate G_0, as the chain has base
    0, 1, …, n−1, and the orbits are walked from them.
    """
    n = group.lattice.atom_count
    perms = [g.perm for g in group.generators]
    if n and len(transversal) == n:
        stabilizer = [g for g in perms if g[0] == 0]
        reps, seen = [], 1
        for q in range(1, n):
            if not seen >> q & 1:
                reps.append(q)
                seen |= 1 << q
                orbit = [q]
                for y in orbit:
                    for g in stabilizer:
                        if not seen >> g[y] & 1:
                            seen |= 1 << g[y]
                            orbit.append(g[y])
        holding_0 = [1]
        for b in holding_0:
            for q in reps:
                if not b >> q & 1:
                    c = _block_of(perms, n, b | 1 << q)
                    if c not in holding_0:
                        holding_0.append(c)
        return sorted({t(b) for t in transversal.values() for b in holding_0})
    if n > SWEEP_ATOM_CAP:
        raise SizeCapError(
            f"intransitive group's subset sweep over {n} atoms exceeds cap {SWEEP_ATOM_CAP}"
        )
    swept = _kernels.invariant_subsets(perms, n)
    return [m for m in swept if _block_of(perms, n, m) == m] if perms else swept


def _require_group_of(group: AutoGroup, lattice: Lattice, name: str) -> None:
    if group.lattice != lattice:
        raise ValidationError("group acts on the lattice", name)


def strongly_transitive(lattice: Lattice, group: AutoGroup) -> ConnectivityResult:
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
      blocks (`_blocks`, in mask order), and the witness is the first
      block that is neither a singleton nor every atom.
    """
    _require_group_of(group, lattice, "group")
    n = lattice.atom_count
    if n == 0:
        return ConnectivityResult(True)
    full = full_mask(n)
    transversal = group.transversal(0)
    outside = full & ~mask_of(transversal)
    if outside:
        return ConnectivityResult(False, "atom transitivity", (0, atoms_of(outside)[0]))
    moved_by_stabilizer = 0
    for g in group.generators:
        if g.perm[0] == 0:
            moved_by_stabilizer |= mask_of(p for p, image in enumerate(g.perm) if p != image)
    for p in range(n):
        unmoved = full & ~transversal[p](moved_by_stabilizer) & ~(1 << p)
        if unmoved:
            return ConnectivityResult(
                False, "some member fixes p and moves q", (p, atoms_of(unmoved)[0])
            )
    for block in _blocks(group, transversal):
        if block != full and popcount(block) != 1:
            return ConnectivityResult(False, "only trivial invariant subsets", atoms_of(block))
    return ConnectivityResult(True)


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
    automorphism group that excludes the factor-swapping maps.  Like
    every `AutoGroup`, it raises ValidationError when a generator is no
    automorphism of the base, as on a product whose pair maps do not
    preserve it.
    """
    gens = [Automorphism(_pair_perm(u1, u2)) for u1, u2 in _spanning_pairs(product, t1, t2)]
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

    The subsets R are the blocks of `group` (see `_blocks`); an
    intransitive group above `SWEEP_ATOM_CAP` atoms raises SizeCapError.
    The cap stays because an intransitive group can have exponentially
    many blocks (the trivial group makes every nonempty subset one), so
    the sweep over all 2^n subsets is the general case.  This is the only
    caller that can reach the cap: `strongly_transitive` rejects an
    intransitive group on atom transitivity before it asks for blocks.
    `mode` accepts only "exact".
    """
    if mode != "exact":
        raise ValueError(f"unknown mode: {mode!r}")
    _require_group_of(group, product.base, "group")
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

    transversal = group.transversal(0) if product.base.atom_count else {}
    return ClassificationResult([(m, tag(m)) for m in _blocks(group, transversal)])
