"""Independent oracles.

Everything in this module is deliberately self-contained: no imports from
seplat, separate field arithmetic, separate closure and search code.  The
tests compare library output against these slower reference computations,
and several expected values frozen into the tests were produced by running
these oracles first.

Conventions match the library's: an element is a set of atom indices
(here frozensets rather than masks), families are sets of frozensets.
"""

from __future__ import annotations

import itertools


# -- small hand-built families ----------------------------------------


def mo_family(n: int) -> set[frozenset[int]]:
    """Height-two family: empty set, 2n singletons, full set."""
    atoms = range(2 * n)
    fam = {frozenset(), frozenset(atoms)}
    fam.update(frozenset([a]) for a in atoms)
    return fam


def mo_perp(n: int) -> dict[int, int]:
    """Atom pairing 2k <-> 2k+1."""
    out = {}
    for k in range(n):
        out[2 * k] = 2 * k + 1
        out[2 * k + 1] = 2 * k
    return out


def boolean_family(n: int) -> set[frozenset[int]]:
    fam = set()
    for r in range(n + 1):
        fam.update(frozenset(c) for c in itertools.combinations(range(n), r))
    return fam


# -- biorthogonal closure from an atom orthogonality relation ----------


def polar(subset: frozenset[int], related: dict[int, frozenset[int]], atoms) -> frozenset[int]:
    """Atoms related to every member of `subset`."""
    out = set(atoms)
    for p in subset:
        out &= related[p]
    return frozenset(out)


def biorthogonally_closed_family(n_atoms: int, pairs) -> set[frozenset[int]]:
    """All subsets S with S^## = S, by exhaustive enumeration (n <= 20)."""
    atoms = range(n_atoms)
    related = {p: frozenset() for p in atoms}
    rel = {p: set() for p in atoms}
    for p, q in pairs:
        rel[p].add(q)
        rel[q].add(p)
    related = {p: frozenset(v) for p, v in rel.items()}
    fam = set()
    for bits in range(1 << n_atoms):
        s = frozenset(a for a in atoms if bits >> a & 1)
        if polar(polar(s, related, atoms), related, atoms) == s:
            fam.add(s)
    return fam


def sharp_pairs(n1: int, perp1: dict[int, int], n2: int, perp2: dict[int, int]):
    """Orthogonality on pair atoms (i, j) -> i*n2 + j: related iff the
    left components are orthogonal or the right components are.  Here the
    factor relations are given as perfect pairings (MO-style)."""
    out = []
    for i1, j1 in itertools.product(range(n1), range(n2)):
        for i2, j2 in itertools.product(range(n1), range(n2)):
            a, b = i1 * n2 + j1, i2 * n2 + j2
            if a < b and (perp1[i1] == i2 or perp2[j1] == j2):
                out.append((a, b))
    return out


def expected_mo_product_family_size(m: int, n: int) -> int:
    """Closed-set count of the separated product of MO-type factors with m
    and n atoms, from the shape of intersections of the polar L-shapes:
    bottom, singletons, skew two-sets, rows, columns, one L-shape per pair
    atom, top."""
    return 1 + m * n + m * n * (m - 1) * (n - 1) // 2 + m + n + m * n + 1


# -- brute-force lattice helpers (independent of the library) ----------


def brute_join(fam: set[frozenset[int]], xs) -> frozenset[int]:
    """Smallest closed superset of the union; the intersection of all
    closed supersets, which the intersection-closed family contains."""
    u = frozenset().union(*xs) if xs else frozenset()
    acc = None
    for s in fam:
        if u <= s:
            acc = s if acc is None else acc & s
    return acc


def intersection_closure(fam: set[frozenset[int]]) -> set[frozenset[int]]:
    """Close a family under pairwise intersection by iterating over every
    pair until nothing new appears."""
    out = set(fam)
    while True:
        new = {x & y for x in out for y in out} - out
        if not new:
            return out
        out |= new


def all_cross_closure(fam1, n1: int, fam2, n2: int) -> set[int]:
    """The generator-route product family over the factor families (atom
    masks, pair (p1, p2) being atom p1 * n2 + p2): the crosses
    A(a1) x A2 u A1 x A(a2) of every element pair, and the universe, closed
    by intersecting every pair of members until nothing new appears."""

    def rect(left, right):
        return sum(1 << (p1 * n2 + p2) for p1 in _atoms(left) for p2 in _atoms(right))

    top1, top2 = (1 << n1) - 1, (1 << n2) - 1
    out = {rect(a1, top2) | rect(top1, a2) for a1 in fam1 for a2 in fam2}
    out.add((1 << n1 * n2) - 1)
    while True:
        new = {x & y for x in out for y in out} - out
        if not new:
            return out
        out |= new


def missing_intersections(fam: set[frozenset[int]]) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Every pair of members whose intersection is not a member."""
    return [(x, y) for x in fam for y in fam if x & y not in fam]


def brute_covers(fam: set[frozenset[int]]) -> set[tuple[frozenset[int], frozenset[int]]]:
    """Pairs (x, y) with x < y and no member strictly between."""
    return {
        (x, y)
        for x in fam
        for y in fam
        if x < y and not any(x < z < y for z in fam)
    }


def order_reversal_violations(fam: set[frozenset[int]], omap) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Pairs x <= y whose images fail y' <= x'."""
    return [(x, y) for x in fam for y in fam if x <= y and not omap[y] <= omap[x]]


def meet_irreducibles(fam: set[frozenset[int]]) -> set[frozenset[int]]:
    """Members with exactly one upper cover."""
    out = set()
    for x in fam:
        above = [y for y in fam if x < y]
        covers = [y for y in above if not any(z < y for z in above)]
        if len(covers) == 1:
            out.add(x)
    return out


def intersection_irreducibles(fam: set[frozenset[int]]) -> set[frozenset[int]]:
    """Members that are not the intersection of their strict supersets
    (the union of the family for none).  On a family closed under
    intersection these are the members with exactly one upper cover."""
    top = frozenset().union(*fam)
    out = set()
    for x in fam:
        meet = top
        for y in fam:
            if x < y:
                meet &= y
        if meet != x:
            out.add(x)
    return out


def coatoms(fam: set[frozenset[int]]) -> set[frozenset[int]]:
    """Maximal proper members."""
    top = frozenset().union(*fam)
    proper = [s for s in fam if s != top]
    return {s for s in proper if not any(s < t for t in proper)}


def is_coatomistic(fam: set[frozenset[int]]) -> bool:
    """Every member is the intersection of the coatoms containing it (top
    being the empty intersection)."""
    top = frozenset().union(*fam)
    cos = coatoms(fam)
    for x in fam:
        acc = top
        for c in cos:
            if x <= c:
                acc &= c
        if acc != x:
            return False
    return True


def brute_automorphisms(fam: set[frozenset[int]], n_atoms: int):
    """All atom permutations carrying the family onto itself, by checking
    every permutation (n_atoms <= 8)."""
    out = []
    for perm in itertools.permutations(range(n_atoms)):
        if all(frozenset(perm[a] for a in s) in fam for s in fam):
            out.append(perm)
    return out


def brute_orthocomplementations(fam: set[frozenset[int]], n_atoms: int):
    """All orthocomplementations, found by trying every bijection from
    atoms onto coatoms, extending by meets, and checking the laws directly.
    Exponential; intended for n_atoms <= 7."""
    atoms = [frozenset([a]) for a in range(n_atoms)]
    full = frozenset(range(n_atoms))
    proper = [s for s in fam if s != full]
    coatoms = [s for s in proper if not any(s < t for t in proper)]
    if len(coatoms) != n_atoms:
        return []
    found = []
    for images in itertools.permutations(coatoms):
        omap = {}
        ok = True
        for s in fam:
            img = full
            for a in s:
                img = img & images[a]
            omap[s] = img
        for s in fam:
            if omap[s] not in fam:
                ok = False
                break
            if omap.get(omap[s]) != s:
                ok = False
                break
            if s & omap[s] != frozenset():
                ok = False
                break
            if brute_join(fam, [s, omap[s]]) != full:
                ok = False
                break
        if ok:
            for s in fam:
                for t in fam:
                    if s <= t and not (omap[t] <= omap[s]):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            found.append(omap)
    return found


def orthomodular_double_loop(fam: set[frozenset[int]], omap) -> bool:
    """Orthomodular law checked over every ordered pair."""
    for x in fam:
        for y in fam:
            if not x <= y:
                continue
            step = omap[x] & y
            if brute_join(fam, [x, step]) != y:
                return False
    return True


# -- finite field linear algebra (own arithmetic) ----------------------
#
# GF(p) for p prime uses Fractions-free modular arithmetic; GF(4) is
# represented as integers 0..3 encoding a + b*w with w^2 = w + 1.


class FieldOracle:
    def __init__(self, q: int):
        self.q = q
        if q in (2, 3, 5):
            self.add = lambda a, b: (a + b) % q
            self.mul = lambda a, b: (a * b) % q
            self.neg = lambda a: (-a) % q
            self.inv = lambda a: pow(a, q - 2, q)
        elif q == 4:
            self.add = lambda a, b: a ^ b
            self.mul = self._mul4
            self.neg = lambda a: a
            self.inv = lambda a: {1: 1, 2: 3, 3: 2}[a]
        else:
            raise ValueError(q)

    @staticmethod
    def _mul4(a: int, b: int) -> int:
        # (a0 + a1 w)(b0 + b1 w) with w^2 = w + 1, coefficients in GF(2)
        a0, a1 = a & 1, a >> 1 & 1
        b0, b1 = b & 1, b >> 1 & 1
        c0 = a0 & b0
        c1 = (a0 & b1) ^ (a1 & b0)
        c2 = a1 & b1
        c0 ^= c2
        c1 ^= c2
        return c0 | (c1 << 1)

    def vec_add(self, u, v):
        return tuple(self.add(a, b) for a, b in zip(u, v))

    def vec_scale(self, c, v):
        return tuple(self.mul(c, a) for a in v)


def row_reduce(rows, field: FieldOracle):
    """Reduced row echelon form; returns the nonzero rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = field.inv(rows[pivot_row][col])
        rows[pivot_row] = [field.mul(inv, a) for a in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [
                    field.add(a, field.mul(field.neg(c), b))
                    for a, b in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows[:pivot_row] if any(a != 0 for a in r)]


def span_vectors(basis, field: FieldOracle, dim: int):
    """Every vector in the span, by iterating over coefficient tuples."""
    vecs = {tuple([0] * dim)}
    for coeffs in itertools.product(range(field.q), repeat=len(basis)):
        v = tuple([0] * dim)
        for c, b in zip(coeffs, basis):
            v = field.vec_add(v, field.vec_scale(c, b))
        vecs.add(v)
    return vecs


def zassenhaus_intersection(basis_u, basis_w, field: FieldOracle, dim: int):
    """Basis of the intersection of two subspaces via the block matrix
    [[u u], [w 0]] row reduction."""
    rows = []
    for u in basis_u:
        rows.append(list(u) + list(u))
    for w in basis_w:
        rows.append(list(w) + [0] * dim)
    red = row_reduce(rows, field)
    out = []
    for r in red:
        if all(a == 0 for a in r[:dim]):
            tail = tuple(r[dim:])
            if any(a != 0 for a in tail):
                out.append(tail)
    return out


def subspace_sum_basis(basis_u, basis_w, field: FieldOracle):
    return row_reduce(list(basis_u) + list(basis_w), field)


def normalize_point(v, field: FieldOracle):
    """Canonical representative of the 1-d subspace through v: first
    nonzero coordinate scaled to 1."""
    for a in v:
        if a != 0:
            return tuple(field.mul(field.inv(a), x) for x in v)
    return None


def third_atom_count(fam: set[frozenset[int]], p: int, q: int) -> int:
    """Number of atoms below the join of two distinct atoms."""
    j = brute_join(fam, [frozenset([p]), frozenset([q])])
    return len(j)


# -- weak connectedness, one atom pair at a time ------------------------------


def weakly_connected_per_pair(closed_sets, n_atoms: int, blocks):
    """(ok, condition, witness) of weak connectedness of the family
    `closed_sets` (masks) for the covering `blocks` (atom masks): the
    conditions in the library's order, the join condition testing each
    block's pairs (p, q), p < q, with `third_atom_count`, and the chain
    condition by a search over the blocks that share two atoms."""
    if n_atoms < 2:
        return False, "lattice is the two-element lattice or below", n_atoms
    for b in blocks:
        if _popcount(b) < 2:
            return False, "blocks have at least two atoms", _atoms(b)
    uncovered = set(range(n_atoms)) - {a for b in blocks for a in _atoms(b)}
    if uncovered:
        return False, "blocks cover every atom", tuple(sorted(uncovered))
    fam = {frozenset(_atoms(m)) for m in closed_sets}
    for b in blocks:
        idx = _atoms(b)
        for i, p in enumerate(idx):
            for q in idx[i + 1 :]:
                if third_atom_count(fam, p, q) < 3:
                    return False, "a third atom below the join of any block pair", (p, q)
    chained = []
    for start in range(len(blocks)):
        seen, todo = {start}, [start]
        while todo:
            a = todo.pop()
            for c in range(len(blocks)):
                if c not in seen and _popcount(blocks[a] & blocks[c]) >= 2:
                    seen.add(c)
                    todo.append(c)
        chained.append(seen)
    for p in range(n_atoms):
        for q in range(p + 1, n_atoms):
            if not any(
                blocks[a] >> p & 1 and blocks[c] >> q & 1
                for a in range(len(blocks))
                for c in chained[a]
            ):
                return False, "atoms joined by a chain of overlapping blocks", (p, q)
    return True, None, None


def connected_covering_exists(closed_sets, n_atoms: int) -> bool:
    """Whether the family has a connected covering, by brute force: every
    atom subset of at least two atoms that is a maximal clique under
    `third_atom_count` becomes a block, and `weakly_connected_per_pair`
    decides that covering.  Every block of a connected covering lies in
    one of these cliques, and adding blocks keeps a covering connected,
    so this covering passes exactly when some covering does.  The
    maximal cliques are listed by Bron-Kerbosch: a clique `r` grown by
    candidates `p`, reported when neither `p` nor the excluded atoms `x`
    could grow it further."""
    fam = {frozenset(_atoms(m)) for m in closed_sets}
    nbrs = {p: set() for p in range(n_atoms)}
    for p, q in itertools.combinations(range(n_atoms), 2):
        if third_atom_count(fam, p, q) >= 3:
            nbrs[p].add(q)
            nbrs[q].add(p)
    cliques = []

    def grow(r, p, x):
        if not p and not x:
            if len(r) >= 2:
                cliques.append(sum(1 << a for a in r))
            return
        for v in sorted(p):
            grow(r | {v}, p & nbrs[v], x & nbrs[v])
            p = p - {v}
            x = x | {v}

    grow(set(), set(range(n_atoms)), set())
    return weakly_connected_per_pair(closed_sets, n_atoms, cliques)[0]


# -- all-pairs references for the one-pass and spanning-pair checks -------
#
# These take masks (ints) and permutation tuples, or the library's objects
# read through their plain attributes, but keep their own loops.


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _atoms(mask: int) -> tuple[int, ...]:
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


def _image(perm, mask: int) -> int:
    out = 0
    for a in _atoms(mask):
        out |= 1 << perm[a]
    return out


def ordered_covers(closed_sets) -> list[tuple[int, int]]:
    """Cover pairs (x, y) of a family given in its canonical order, by
    scanning every pair: x in family order, then its upper covers by
    popcount, ties in family order."""
    out = []
    for x in closed_sets:
        ups = [y for y in closed_sets if y != x and x & ~y == 0]
        ups.sort(key=_popcount)
        minimal = []
        for y in ups:
            if not any(z & ~y == 0 for z in minimal):
                minimal.append(y)
        out.extend((x, y) for y in minimal)
    return out


def p4_all_pairs(product, t1, t2):
    """(passed, checked, failures) of axiom P4 by evaluating every pair
    (u1, u2) of t1 x t2 in order: it passes when (p1, p2) -> (u1 p1, u2 p2)
    maps every closed set of the base to a closed set, a closed set holding
    an atom that is not a pair having no image; a failure records
    (u1.perm, u2.perm)."""
    n1, n2 = product.left.atom_count, product.right.atom_count
    family = set(product.base.closed_sets)
    checked, failures = 0, []
    for u1 in t1:
        for u2 in t2:
            pair = [u1.perm[i] * n2 + u2.perm[j] for i in range(n1) for j in range(n2)]
            checked += 1
            if not all(
                max(_atoms(s), default=-1) < len(pair) and _image(pair, s) in family
                for s in family
            ):
                failures.append((u1.perm, u2.perm))
    return not failures, checked, failures


def p4_spanning_pairs(product, gens1, gens2, t1, t2):
    """(passed, checked, failures) of axiom P4 evaluated on the spanning
    pairs only, (g, id) for each g of gens1, then (id, g) for each g of
    gens2, which generate the groups whose members t1 and t2 list, read
    off `p4_all_pairs` over those members: its report on a pass, and
    otherwise one check per spanning pair and, in order, the spanning
    pairs that it lists as failing."""
    id1 = tuple(range(product.left.atom_count))
    id2 = tuple(range(product.right.atom_count))
    spanning = [(g.perm, id2) for g in gens1] + [(id1, g.perm) for g in gens2]
    reference = p4_all_pairs(product, t1, t2)
    if reference[0]:
        return reference
    return False, len(spanning), [p for p in spanning if p in reference[2]]


def invariant_subsets_sweep(perms, n: int) -> list[int]:
    """Every nonempty atom mask A with u(A) ∩ A ∈ {u(A), ∅} for every
    permutation u, testing each mask against the whole list."""
    out = []
    for a in range(1, 1 << n):
        if all(_image(perm, a) & a in (_image(perm, a), 0) for perm in perms):
            out.append(a)
    return out


def strongly_transitive_pairs(n: int, perms):
    """(ok, condition, witness) of strong transitivity, each condition
    tested pair by pair with a scan of every member, in the library's
    order of conditions and pairs."""
    if not any(all(perm[i] == i for i in range(n)) for perm in perms):
        return False, "identity is a member", None
    for p in range(n):
        for q in range(n):
            if not any(perm[p] == q for perm in perms):
                return False, "atom transitivity", (p, q)
    for p in range(n):
        for q in range(n):
            if p != q and not any(perm[p] == p and perm[q] != q for perm in perms):
                return False, "some member fixes p and moves q", (p, q)
    for a in invariant_subsets_sweep(perms, n):
        if a != (1 << n) - 1 and _popcount(a) != 1:
            return False, "only trivial invariant subsets", _atoms(a)
    return True, None, None


# -- permutation groups from their members or generators -------------------


def is_group(perms) -> bool:
    """True iff the permutation tuples hold the identity and are closed
    under inverse and composition, checked on every pair."""
    perms = [tuple(p) for p in perms]
    seen = set(perms)
    if not perms or tuple(range(len(perms[0]))) not in seen:
        return False
    for p in perms:
        inv = [0] * len(p)
        for i, image in enumerate(p):
            inv[image] = i
        if tuple(inv) not in seen:
            return False
    return all(tuple(p[i] for i in q) in seen for p in perms for q in perms)


def generated_group(n: int, gens) -> list[tuple[int, ...]]:
    """Every product of the generators (the identity for none), by a
    breadth-first closure from the identity, sorted lexicographically."""
    found = {tuple(range(n))}
    frontier = list(found)
    while frontier:
        step = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in found:
                    found.add(q)
                    step.append(q)
        frontier = step
    return sorted(found)


# -- factorization of a product automorphism, step by step ---------------


class FactorizationFailure(Exception):
    """The first failing step of `factor_by_steps` and its witness."""

    def __init__(self, step: str, witness):
        super().__init__(step, witness)
        self.step = step
        self.witness = witness


def _failing_factor_map(product, side: str, left_map: tuple, right_map: tuple):
    """(step, map) for the first of the two factor maps of `side` that is
    not a bijection onto the target's atoms sending every closed set of
    its source into the target, or None when both are."""
    left, right = product.left, product.right
    if side == "straight":
        checks = (
            (left_map, left, left, "left map is a factor automorphism"),
            (right_map, right, right, "right map is a factor automorphism"),
        )
    else:
        checks = (
            (left_map, left, right, "left map is an isomorphism onto the right factor"),
            (right_map, right, left, "right map is an isomorphism onto the left factor"),
        )
    for amap, src, dst, step in checks:
        if sorted(amap) != list(range(dst.atom_count)):
            return step, amap
        family = set(dst.closed_sets)
        if any(_image(amap, s) not in family for s in src.closed_sets):
            return step, amap
    return None


def factor_by_steps(product, auto):
    """Decompose an automorphism of a product base into factor maps,
    step by step through the mask action of `auto.perm`, raising
    FactorizationFailure at the first failing step: every row image is a
    row or a column, the side choice is constant across rows, every column
    image matches the side choice, the extracted maps are factor maps, and
    their recomposition agrees on every pair atom.  Returns
    (side, left_map, right_map)."""
    left, right = product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    rows = {product.row(i): i for i in range(n1)}
    cols = {product.col(j): j for j in range(n2)}
    row_targets = []
    for i in range(n1):
        img = _image(auto.perm, product.row(i))
        if img in rows:
            row_targets.append(("row", rows[img]))
        elif img in cols:
            row_targets.append(("col", cols[img]))
        else:
            raise FactorizationFailure("row image is a row or column", (i, _atoms(img)))
    kinds = {kind for kind, _ in row_targets}
    if len(kinds) != 1:
        raise FactorizationFailure("side choice constant across rows", row_targets)
    side = "straight" if kinds == {"row"} else "swapped"
    col_targets = []
    want = "col" if side == "straight" else "row"
    for j in range(n2):
        img = _image(auto.perm, product.col(j))
        table = cols if want == "col" else rows
        if img not in table:
            raise FactorizationFailure(
                "column images match the side choice", (j, _atoms(img))
            )
        col_targets.append(table[img])
    left_map = tuple(t for _, t in row_targets)
    right_map = tuple(col_targets)
    failed = _failing_factor_map(product, side, left_map, right_map)
    if failed:
        raise FactorizationFailure(*failed)
    for i in range(n1):
        for j in range(n2):
            got = _image(auto.perm, product.singleton(i, j))
            if side == "straight":
                want_atom = product.singleton(left_map[i], right_map[j])
            else:
                want_atom = product.singleton(right_map[j], left_map[i])
            if got != want_atom:
                raise FactorizationFailure(
                    "recomposition agrees on every pair atom",
                    ((i, j), _atoms(got)),
                )
    return side, left_map, right_map


def factor_by_lines(product, perm):
    """The row-and-column reading of a permutation `perm` of the pair
    atoms, as `seplat.factor_automorphism` did it before its pair-map
    comparison: the line every row image lies on, then every column
    image, then the two factor maps read off those lines, each checked on
    its own.  Returns (side, left_map, right_map) or raises
    seplat FactorizationError with the step and witness."""
    from seplat import _kernels
    from seplat.errors import FactorizationError

    n1, n2 = product.left.atom_count, product.right.atom_count
    if not perm:
        return "straight", tuple(range(n1)), tuple(range(n2))
    row_line = [p // n2 for p in perm]
    col_line = [p % n2 for p in perm]
    side = "straight"
    if n1 == n2 and len(set(row_line[:n2])) > 1:
        side, row_line, col_line = "swapped", col_line, row_line
    left_map = []
    for i in range(n1):
        lines = set(row_line[i * n2 : (i + 1) * n2])
        if len(lines) != 1:
            image = tuple(sorted(perm[i * n2 : (i + 1) * n2]))
            raise FactorizationError("row image is a row or column", (i, image))
        left_map.append(lines.pop())
    right_map = []
    for j in range(n2):
        lines = set(col_line[j::n2])
        if len(lines) != 1:
            image = tuple(sorted(perm[j::n2]))
            raise FactorizationError("column images match the side choice", (j, image))
        right_map.append(lines.pop())
    left_map, right_map = tuple(left_map), tuple(right_map)
    left, right = product.left, product.right
    if side == "straight":
        checks = (
            (left_map, left, left, "left map is a factor automorphism"),
            (right_map, right, right, "right map is a factor automorphism"),
        )
    else:
        checks = (
            (left_map, left, right, "left map is an isomorphism onto the right factor"),
            (right_map, right, left, "right map is an isomorphism onto the left factor"),
        )
    for amap, src, dst, step in checks:
        if not _kernels.family_preserved(amap, src.meet_irreducibles(), dst):
            raise FactorizationError(step, amap)
    return side, left_map, right_map


# -- orthocomplementation search in index order ----------------------------


def ortho_search_by_index(closed_sets, n_atoms: int, limit=None) -> list[tuple[int, ...]]:
    """Orthocomplementations of the atomistic lattice with the given
    closed sets (masks, in family order), as the tuple of atom images
    (coatom masks), by a backtracking search that assigns the atoms in
    index order and checks the symmetry constraint against the earlier
    atoms only.  Coatoms are tried in family order, so the results come in
    lexicographic order of the assigned coatom indices; `limit` stops the
    search after that many.  Each complete assignment is extended by meets
    and kept when the laws hold on every element and every pair."""
    family = list(closed_sets)
    members = set(family)
    top = (1 << n_atoms) - 1
    proper = [s for s in family if s != top]
    coatoms = [s for s in proper if not any(s != t and s & ~t == 0 for t in proper)]
    found: list[tuple[int, ...]] = []
    if n_atoms == 0 or len(coatoms) != n_atoms or (limit is not None and limit <= 0):
        return found
    candidates = [[c for c in coatoms if not (c >> p) & 1] for p in range(n_atoms)]
    images = [None] * n_atoms
    used = set()

    def is_ortho() -> bool:
        omap = {}
        for s in family:
            img = top
            for a in _atoms(s):
                img &= images[a]
            omap[s] = img
        for s in family:
            if omap[s] not in members or omap[omap[s]] != s or s & omap[s]:
                return False
            # the join of s and s' is top: no proper member holds both
            if any((s | omap[s]) & ~t == 0 for t in proper):
                return False
        return all(omap[t] & ~omap[s] == 0 for s in family for t in family if s & ~t == 0)

    def dfs(p: int) -> bool:
        if p == n_atoms:
            if not is_ortho():
                return False
            found.append(tuple(images))
            return limit is not None and len(found) >= limit
        for c in candidates[p]:
            if c in used:
                continue
            if any(bool((images[q] >> p) & 1) != bool((c >> q) & 1) for q in range(p)):
                continue
            images[p] = c
            used.add(c)
            stop = dfs(p + 1)
            used.discard(c)
            images[p] = None
            if stop:
                return True
        return False

    dfs(0)
    return found


# -- lateral connectedness, pair by pair -------------------------------------


def lateral_clauses_nested(closed_sets, n1: int, n2: int, blocks1, blocks2):
    """(ok, condition, witness) of lateral connectedness of a product base
    (pair (i, j) being atom i * n2 + j) for the given factor blocks (atom
    masks), with the main clause searched pair atom by pair atom for each
    left pair and right pair, in block order, and the two-atom clauses of
    a two-atom factor after it.  Joins are the intersection of the closed
    sets holding the union."""
    family = list(closed_sets)
    top = (1 << n1 * n2) - 1

    def third_atom(a: int, b: int) -> bool:
        union, join = 1 << a | 1 << b, top
        for s in family:
            if union & ~s == 0:
                join &= s
        return _popcount(join) >= 3

    def lateral_right(p1, j, k):
        return third_atom(p1 * n2 + j, p1 * n2 + k)

    def lateral_left(i, k, p2):
        return third_atom(i * n2 + p2, k * n2 + p2)

    skip_left, skip_right = n1 == 2, n2 == 2
    for b1 in blocks1:
        left_pairs = [None] if skip_left else list(itertools.combinations(_atoms(b1), 2))
        for b2 in blocks2:
            right_pairs = [None] if skip_right else list(itertools.combinations(_atoms(b2), 2))
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
                        return (
                            False,
                            "a pair atom giving both lateral joins a third atom",
                            (lp, rp),
                        )
    if skip_left:
        for p1 in range(2):
            if not any(lateral_left(p1, 1 - p1, q) for q in range(n2)):
                return False, "two-atom left factor lateral clause", p1
    if skip_right:
        for p2 in range(2):
            if not any(lateral_right(q, p2, 1 - p2) for q in range(n1)):
                return False, "two-atom right factor lateral clause", p2
    return True, None, None


# -- closure-system routines the library replaced --------------------------
#
# The library closes one seed at a time, validates by closing the
# meet-irreducibles, reads joins off meet-irreducible signatures and sorts
# families by a string key.  These are the routines it used before, kept as
# references.


def close_by_worklist(seeds, universe: int) -> list[int]:
    """Intersection closure of the seeds and the universe, ascending: each
    new member is intersected with every seed, new results going back on a
    work list until none is left."""
    seeds = set(seeds)
    found = seeds | {universe}
    work = list(found)
    while work:
        x = work.pop()
        for s in seeds:
            z = x & s
            if z not in found:
                found.add(z)
                work.append(z)
    return sorted(found)


def first_violation(closed_sets, n_atoms: int, meet_irreducibles):
    """(law, witness) of the first closure-system invariant the family
    (masks in family order) breaks, None if it keeps them all: top, bottom
    and the singletons are members, then every member against every given
    meet-irreducible, both in family order, must intersect inside the
    family.  The laws are named as `Lattice.validate` names them; the
    witness of the last is the pair of masks."""
    members = set(closed_sets)
    top = (1 << n_atoms) - 1
    if top not in members:
        return "full atom set is closed", top
    if 0 not in members:
        return "empty set is closed", 0
    for a in range(n_atoms):
        if 1 << a not in members:
            return "every singleton is closed", a
    for x in closed_sets:
        for m in meet_irreducibles:
            if x & m not in members:
                return "family is closed under intersection", (x, m)
    return None


def join_by_closure(lattice, xs) -> int:
    """Join of members as the closure of their union: the union itself
    when it is a member, else the meet of the meet-irreducibles holding it
    (top for none).  KeyError for a non-member."""
    members = set(lattice.closed_sets)
    union = 0
    for x in xs:
        if x not in members:
            raise KeyError(x)
        union |= x
    if union in members:
        return union
    acc = (1 << lattice.atom_count) - 1
    for m in lattice.meet_irreducibles():
        if union & ~m == 0:
            acc &= m
    return acc


def family_key(mask: int) -> tuple[int, ...]:
    """Canonical family order: the ascending atom tuple of each member,
    compared lexicographically."""
    return _atoms(mask)


# -- characterization and P2, element by element ------------------------------


def _rect_of(left_atoms: int, right_atoms: int, n2: int) -> int:
    return sum(1 << (p1 * n2 + p2) for p1 in _atoms(left_atoms) for p2 in _atoms(right_atoms))


def iso_by_elements(left, right, base, join_p):
    """The order-isomorphism step of the characterization on every member
    of the generated product.  `join_p` maps coatom pairs (x1, x2) of the
    factors to members of `base`.  The generated family G is built from
    every cross (`all_cross_closure`); the join of the embedded x1 and x2
    in it is their cross, so iso(a) is the meet of the join_p[x] whose
    cross holds a.  In order: iso is a bijection of G onto the base
    ("iso-bijective", (|G|, |base|, distinct images)), each pair atom goes
    to one atom ("iso-order", ((p,), its image's atoms)), and iso is the
    mask action of that atom map on every member of G in family order
    ("iso-order", (member's atoms, image's atoms)).  Returns ("ok", atom
    map) or (step, witness)."""
    n1, n2 = left.atom_count, right.atom_count
    top1, top2 = (1 << n1) - 1, (1 << n2) - 1
    generated = all_cross_closure(left.closed_sets, n1, right.closed_sets, n2)
    crosses = {
        x: _rect_of(x[0], top2, n2) | _rect_of(top1, x[1], n2) for x in join_p
    }
    base_top = (1 << base.atom_count) - 1
    iso = {}
    for a in generated:
        acc = base_top
        for x, cross in crosses.items():
            if a & ~cross == 0:
                acc &= join_p[x]
        iso[a] = acc
    images = set(iso.values())
    if len(images) != len(generated) or len(generated) != len(base.closed_sets):
        return "iso-bijective", (len(generated), len(base.closed_sets), len(images))
    atom_map = []
    for p in range(n1 * n2):
        img = iso[1 << p]
        if _popcount(img) != 1:
            return "iso-order", ((p,), _atoms(img))
        atom_map.append(img.bit_length() - 1)
    for a in sorted(generated, key=family_key):
        if iso[a] != _image(atom_map, a):
            return "iso-order", (_atoms(a), _atoms(iso[a]))
    return "ok", tuple(atom_map)


def p2_per_atom(product):
    """(checked, failures) of axiom P2 by evaluating every atom pair
    (i, j) against every element pair (a1, a2), in that nesting: the
    embedded meet h1(i) ^ h2(j) must lie under h1(a1) v h2(a2), the
    smallest base member above their union, iff i is in a1 or j is in a2;
    a failure records (i, j, atoms of a1, atoms of a2)."""
    left, right, h1, h2 = product.left, product.right, product.h1, product.h2
    members = product.base.closed_sets
    joins = {}
    for a1 in left.closed_sets:
        for a2 in right.closed_sets:
            union = h1[a1] | h2[a2]
            joins[a1, a2] = min((s for s in members if union & ~s == 0), key=_popcount)
    checked, failures = 0, []
    for i in range(left.atom_count):
        for j in range(right.atom_count):
            atom = h1[1 << i] & h2[1 << j]
            for a1 in left.closed_sets:
                for a2 in right.closed_sets:
                    want = bool(a1 >> i & 1 or a2 >> j & 1)
                    checked += 1
                    if (atom & ~joins[a1, a2] == 0) != want:
                        failures.append((i, j, _atoms(a1), _atoms(a2)))
    return checked, failures


def first_unseparated(polars):
    """The first pair (p, q), p != q in lexicographic order, whose polars
    satisfy polars[p] ⊆ polars[q], or None: every atom orthogonal to p is
    orthogonal to q, so no atom separates them."""
    n = len(polars)
    for p in range(n):
        for q in range(n):
            if p != q and polars[p] & ~polars[q] == 0:
                return p, q
    return None


# -- lattices from generators, in two steps ---------------------------------
#
# The constructions used to close their generators and then hand the
# family to `from_closed_family` in validate mode, which checked the
# closure once more.  Complete mode replaced that.  (The families the
# MO(n) and Boolean builders listed by hand are `mo_family` and
# `boolean_family` above.)


def close_then_validate(lattice_cls, atom_count: int, seeds, atom_labels=None):
    """The two-step build: close the seeds and the universe under
    intersection (here by `close_by_worklist`), then build the lattice
    with `lattice_cls.from_closed_family(..., mode="validate")`, which
    raises unless the family holds bottom and every singleton."""
    family = close_by_worklist(seeds, (1 << atom_count) - 1)
    return lattice_cls.from_closed_family(
        atom_count, family, mode="validate", atom_labels=atom_labels
    )



# -- the document boundary, one element at a time ----------------------------
#
# `validate_ortho`, `LatticeDocument.from_dict`/`build` and
# `Lattice.from_closed_family` check each law in one pass over the whole
# family and name a witness only after that pass fails.  These are the
# per-element loops they replaced; the laws and witnesses are named as the
# library names them.


def first_ortho_violation(closed_sets, n_atoms: int, images):
    """(law, witness) of the first orthocomplementation law the element
    map `images` breaks on the family `closed_sets` (masks in family
    order), None if it keeps them all.  Each element is visited in family
    order, law by law: totality (an image, and a member), involution,
    order reversal over every pair x <= y, complement-meet, and
    complement-join, which fails at x when some member other than the
    full set holds x | x'."""
    members = set(closed_sets)
    top = (1 << n_atoms) - 1
    for x in closed_sets:
        if x not in images:
            return "totality: every element has an image", _atoms(x)
        if images[x] not in members:
            return "totality: images are lattice elements", (_atoms(x), _atoms(images[x]))
    for x in closed_sets:
        if images[images[x]] != x:
            return "involution", (_atoms(x), _atoms(images[x]))
    for x in closed_sets:
        for y in closed_sets:
            if x & ~y == 0 and images[y] & ~images[x]:
                return "order-reversal", (_atoms(x), _atoms(y))
    for x in closed_sets:
        if x & images[x]:
            return "complement-meet", _atoms(x)
    for x in closed_sets:
        union = x | images[x]
        if any(m != top and union & ~m == 0 for m in closed_sets):
            return "complement-join", _atoms(x)
    return None


def first_bad_member(closed_sets, atom_count: int):
    """The first member, as a tuple, of a document's `closed_sets` lists
    holding an atom index that is not an int in 0..atom_count-1 (`type`
    exact, so no bool or float), None if there is none."""
    for s in closed_sets:
        for a in s:
            if type(a) is not int or not 0 <= a < atom_count:
                return tuple(s)
    return None


def first_bad_mask(masks, atom_count: int):
    """The witness of the first mask that is not a set of atoms
    0..atom_count-1: the mask itself when it is negative, which has no
    atom tuple, else the atom tuple of the mask, which holds a foreign
    atom; None if every mask is such a set."""
    for m in masks:
        if m < 0:
            return m
        if m >> atom_count:
            return _atoms(m)
    return None


# -- the join checks, one check at a time --------------------------------------
#
# `lateral_join_check`, `sproduct_join_lemma_check` and P0 of
# `check_sproduct` decide their checks on the meet-irreducible signatures
# and evaluate them one by one only after a failure (`p2_per_atom` above
# is the per-check P2).  These are the per-check loops they replaced, each
# join taken as the closure of the union (`join_by_closure`).  `pools` is
# the pair of subset pools the library draws, as the pools are part of
# what is checked.  Each returns (checked, failures), the failures in the
# library's order with its witnesses.  An embedding that misses a factor
# element raises LookupError(law, atoms of the element), for the first
# element in family order, before that embedding's subsets are checked.


def _require_total(factor, h) -> None:
    for x in factor.closed_sets:
        if x not in h:
            raise LookupError("embedding maps every factor element", _atoms(x))


def lateral_joins_per_check(product, pools):
    """The lateral joins (p1 x p2) v (p1 x q2) = {p1} x A(p2 v q2), right
    side first, then left, then join preservation of h1 and h2 on their
    pools."""
    base, left, right = product.base, product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    checked, failures = 0, []
    for i in range(n1):
        for j in range(n2):
            for k in range(j + 1, n2):
                got = join_by_closure(base, (1 << (i * n2 + j), 1 << (i * n2 + k)))
                want = _rect_of(1 << i, join_by_closure(right, (1 << j, 1 << k)), n2)
                checked += 1
                if got != want:
                    failures.append(("right", i, j, k, _atoms(got)))
    for j in range(n2):
        for i in range(n1):
            for k in range(i + 1, n1):
                got = join_by_closure(base, (1 << (i * n2 + j), 1 << (k * n2 + j)))
                want = _rect_of(join_by_closure(left, (1 << i, 1 << k)), 1 << j, n2)
                checked += 1
                if got != want:
                    failures.append(("left", j, i, k, _atoms(got)))
    for lat, h, side, pool in zip((left, right), (product.h1, product.h2), ("h1", "h2"), pools):
        _require_total(lat, h)
        for omega in pool:
            got = join_by_closure(base, [h[x] for x in omega])
            want = h[join_by_closure(lat, omega)]
            checked += 1
            if got != want:
                failures.append((side, [_atoms(x) for x in omega]))
    return checked, failures


def join_lemma_per_check(product):
    """The two join identities: two pair atoms differing in both
    components join to their union, and (p1 x a2) v (a1 x p2) is
    {p1} x A(a2) u A(a1) x {p2} for p1 <= a1 and p2 <= a2."""
    base, left, right = product.base, product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    checked, failures = 0, []
    for i in range(n1):
        for k in range(n1):
            for j in range(n2):
                for l in range(n2):
                    if i == k or j == l:
                        continue
                    p, q = 1 << (i * n2 + j), 1 << (k * n2 + l)
                    got = join_by_closure(base, (p, q))
                    checked += 1
                    if got != p | q:
                        failures.append(("two-atoms", (i, j), (k, l), _atoms(got)))
    for i in range(n1):
        for a1 in left.closed_sets:
            if not a1 >> i & 1:
                continue
            for j in range(n2):
                column = _rect_of(a1, 1 << j, n2)
                for a2 in right.closed_sets:
                    if not a2 >> j & 1:
                        continue
                    row = a2 << (i * n2)
                    checked += 1
                    if join_by_closure(base, (row, column)) != row | column:
                        failures.append(("atom-sets", i, _atoms(a1), j, _atoms(a2)))
    return checked, failures


def p0_per_check(product, pools):
    """Axiom P0 on h1, then h2: injective, total, then for each subset of
    the side's pool, h of its meet is the meet of its images, then the
    same for joins."""
    base = product.base
    base_top = (1 << base.atom_count) - 1
    checked, failures = 0, []
    sides = zip((product.left, product.right), (product.h1, product.h2), ("h1", "h2"), pools)
    for factor, h, side, pool in sides:
        values = list(h.values())
        checked += 2
        if len(set(values)) != len(values):
            failures.append((side, "injective"))
        if set(h) != set(factor.closed_sets):
            failures.append((side, "total"))
        _require_total(factor, h)
        for omega in pool:
            meet, got_meet = (1 << factor.atom_count) - 1, base_top
            for x in omega:
                meet &= x
                got_meet &= h[x]
            checked += 1
            if h[meet] != got_meet:
                failures.append((side, "meet", [_atoms(x) for x in omega]))
            checked += 1
            if h[join_by_closure(factor, omega)] != join_by_closure(base, [h[x] for x in omega]):
                failures.append((side, "join", [_atoms(x) for x in omega]))
    return checked, failures
