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


def meet_irreducibles(fam: set[frozenset[int]]) -> set[frozenset[int]]:
    """Members with exactly one upper cover."""
    out = set()
    for x in fam:
        above = [y for y in fam if x < y]
        covers = [y for y in above if not any(z < y for z in above)]
        if len(covers) == 1:
            out.add(x)
    return out


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
