"""Automorphism enumeration, factorization over products, exhaustive
orthocomplementation search, and the product characterization.

The characterization follows the constructive argument: coatom pairs of
the factors give, through the orthocomplement of their embedded join,
atoms of the base; those atoms are in bijection with the pair atoms of a
freshly generated product, the induced map is verified to be an order
isomorphism in both directions, and the orthocomplement table of the base
is decomposed into factor orthocomplementations which are then validated
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import _kernels
from .axioms import (
    Covering,
    check_sproduct,
    strongly_transitive,
    weakly_connected,
)
from .bitset import atoms_of, is_subset, popcount
from .errors import (
    CharacterizationError,
    FactorizationError,
    OrthoViolation,
    SizeCapError,
)
from .lattice import Lattice
from .ortho import OrthoMap, validate_ortho
from .perm import Automorphism, AutoGroup
from .product import ProductLattice, aerts_product_general, aerts_product_sharp, otimes

ORTHO_ATOM_CAP = 24


def _atom_pair_counts(lattice: Lattice) -> list[list[int]]:
    """counts[p][q] = number of closed sets containing both p and q.
    Preserved by every automorphism, so usable for search pruning."""
    n = lattice.atom_count
    counts = [[0] * n for _ in range(n)]
    for s in lattice.closed_sets:
        idx = atoms_of(s)
        for i, p in enumerate(idx):
            counts[p][p] += 1
            for q in idx[i + 1 :]:
                counts[p][q] += 1
                counts[q][p] += 1
    return counts


def _atom_profiles(counts: list[list[int]]) -> list[tuple]:
    """Per-atom invariant: membership count plus the sorted row of pair
    counts."""
    return [
        (row[p], tuple(sorted(row)))
        for p, row in enumerate(counts)
    ]


def _pair_closures(lattice: Lattice) -> list[list[int]]:
    """closures[p][q] = the closure of {p, q}."""
    n = lattice.atom_count
    closures = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1):
            closures[p][q] = closures[q][p] = lattice.closure(1 << p | 1 << q)
    return closures


class _AtomMaps:
    """Partial atom maps from lattice `a` to lattice `b`, grown one atom at
    a time in index order (atom k of `a` goes to atom image[k] of `b`), and
    a depth-first search that extends the current one.

    A map is kept while it keeps the atom profiles, the pair counts, and
    the pair closures: for every assigned q < k, the assigned atoms in the
    closure of {k, q} go onto the assigned atoms in the closure of
    {image[k], image[q]}.  Every isomorphism keeps all three, so a map
    that breaks one extends to none: the pruning loses no isomorphism, and
    the first complete map found is the one an unpruned search in the
    same order would find.  cand[j] holds the atoms of `b` that a still unassigned atom j
    may go to under the pair counts with the assigned atoms; a map that
    leaves some atom no free candidate is dropped at once."""

    def __init__(self, a: Lattice, b: Lattice):
        n = self.n = a.atom_count
        self.counts_a = _atom_pair_counts(a)
        self.closures_a = _pair_closures(a)
        if b is a:
            counts_b, self.closures_b = self.counts_a, self.closures_a
        else:
            counts_b, self.closures_b = _atom_pair_counts(b), _pair_closures(b)
        self.profiles_a = _atom_profiles(self.counts_a)
        self.profiles_b = _atom_profiles(counts_b)
        by_profile: dict[tuple, int] = {}
        for z, prof in enumerate(self.profiles_b):
            by_profile[prof] = by_profile.get(prof, 0) | 1 << z
        # classes_b[y][c]: the atoms z of b with c members holding y and z
        self.classes_b = []
        for row in counts_b:
            classes: dict[int, int] = {}
            for z, c in enumerate(row):
                classes[c] = classes.get(c, 0) | 1 << z
            self.classes_b.append(classes)
        self.image: list[int] = []
        self.used = 0
        self.cand = [by_profile.get(self.profiles_a[j], 0) for j in range(n)]
        self.saved: list[list[int]] = []

    def _assign(self, x: int) -> bool:
        """Send the next atom k = len(image) to x and return True, or
        return False, changing nothing, when the map would break an
        invariant."""
        image, k, bit = self.image, len(self.image), 1 << x
        if not self.cand[k] & bit or self.used & bit:
            return False
        dom = (1 << (k + 1)) - 1  # atoms 0..k of a
        rng = self.used | bit  # their images
        row_a, row_b = self.closures_a[k], self.closures_b[x]
        for q in range(k):
            y = image[q]
            got = row_b[y] & rng
            held = row_a[q] & dom
            if held == dom:
                if got != rng:
                    return False
                continue
            rest = held & ~(1 << k | 1 << q)
            want = bit | 1 << y
            while rest:
                low = rest & -rest
                want |= 1 << image[low.bit_length() - 1]
                rest ^= low
            if got != want:
                return False
        counts_a, classes, free = self.counts_a, self.classes_b[x], ~rng
        cand = self.cand[:]
        for j in range(k + 1, self.n):
            c = cand[j] & classes.get(counts_a[j][k], 0)
            if not c & free:
                return False
            cand[j] = c
        self.saved.append(self.cand)
        self.cand = cand
        image.append(x)
        self.used = rng
        return True

    def _undo(self) -> None:
        self.used &= ~(1 << self.image.pop())
        self.cand = self.saved.pop()

    def _extend(self, leaf) -> bool:
        """Extend the current map in every way, in lexicographic order,
        calling `leaf` on each complete map until it returns True; return
        whether it did."""
        if len(self.image) == self.n:
            return leaf(tuple(self.image))
        free = self.cand[len(self.image)] & ~self.used
        while free:
            low = free & -free
            free ^= low
            if self._assign(low.bit_length() - 1):
                done = self._extend(leaf)
                self._undo()
                if done:
                    return True
        return False


def enumerate_automorphisms(lattice: Lattice) -> AutoGroup:
    """The automorphism group, as the transversals of its stabilizer chain
    with base 0, 1, …, n−1.

    With the identity on atoms 0..k−1 fixed, each atom x > k that k may go
    to starts one search (see `_AtomMaps`), which stops at the first
    complete map that preserves the closed family, checked on the
    meet-irreducibles (see `Lattice.meet_irreducibles`).  The maps found
    at level k are a full transversal of G_k+1 in G_k, G_k being the
    members fixing 0..k−1, so the group order is the product of the
    transversal sizes; members are listed by iterating the group."""
    n = lattice.atom_count
    fam = lattice.meet_irreducibles()
    maps = _AtomMaps(lattice, lattice)
    found: list[tuple[int, ...]] = []

    def leaf(perm: tuple[int, ...]) -> bool:
        if _kernels.family_preserved(perm, fam, n):
            found.append(perm)
            return True
        return False

    identity = tuple(range(n))
    levels = []
    for k in range(n):
        level = {k: identity}
        targets = maps.cand[k] & ~maps.used & ~(1 << k)
        while targets:
            low = targets & -targets
            targets ^= low
            if maps._assign(low.bit_length() - 1):
                if maps._extend(leaf):
                    perm = found.pop()
                    level[perm[k]] = perm
                maps._undo()
        levels.append(level)
        maps._assign(k)
    return AutoGroup._from_transversals(lattice, levels)


@dataclass
class FactorizationResult:
    """Decomposition of a product automorphism.

    side = "straight": u acts as (u1, u2) with u1, u2 automorphisms of the
    left and right factor.  side = "swapped": u exchanges the factors;
    left_map sends left atoms to right atoms and right_map the reverse.
    """

    side: str
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]

    @property
    def swapped(self) -> bool:
        return self.side == "swapped"


def factor_automorphism(
    product: ProductLattice, auto: Automorphism
) -> FactorizationResult:
    """Decompose an automorphism of the product base into factor maps.

    Steps: images of the embedded rows and columns must again be rows or
    columns; the side choice must be constant across slices; the extracted
    atom maps must carry each factor family onto the appropriate factor
    family; and the recomposition must reproduce the automorphism on every
    pair atom.  Raises FactorizationError at the first failing step.
    """
    left, right = product.left, product.right
    n1, n2 = left.atom_count, right.atom_count
    rows = {product.row(i): i for i in range(n1)}
    cols = {product.col(j): j for j in range(n2)}
    row_targets = []
    for i in range(n1):
        img = auto(product.row(i))
        if img in rows:
            row_targets.append(("row", rows[img]))
        elif img in cols:
            row_targets.append(("col", cols[img]))
        else:
            raise FactorizationError("row image is a row or column", (i, atoms_of(img)))
    kinds = {kind for kind, _ in row_targets}
    if len(kinds) != 1:
        raise FactorizationError("side choice constant across rows", row_targets)
    side = "straight" if kinds == {"row"} else "swapped"
    col_targets = []
    want = "col" if side == "straight" else "row"
    for j in range(n2):
        img = auto(product.col(j))
        table = cols if want == "col" else rows
        if img not in table:
            raise FactorizationError(
                "column images match the side choice", (j, atoms_of(img))
            )
        col_targets.append(table[img])
    left_map = tuple(t for _, t in row_targets)
    right_map = tuple(col_targets)
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
        # a bijection onto the target atoms first: Automorphism refuses anything else
        if sorted(amap) != list(range(dst.atom_count)):
            raise FactorizationError(step, amap)
        u = Automorphism(amap)
        # every member lands in dst iff the meet-irreducibles do: see
        # Lattice.meet_irreducibles
        if any(u(s) not in dst for s in src.meet_irreducibles()):
            raise FactorizationError(step, amap)
    for i in range(n1):
        for j in range(n2):
            got = auto(product.singleton(i, j))
            if side == "straight":
                want_atom = product.singleton(left_map[i], right_map[j])
            else:
                want_atom = product.singleton(right_map[j], left_map[i])
            if got != want_atom:
                raise FactorizationError(
                    "recomposition agrees on every pair atom",
                    ((i, j), atoms_of(got)),
                )
    return FactorizationResult(side, left_map, right_map)


def enumerate_orthocomplementations(
    lattice: Lattice, limit: Optional[int] = None
) -> list[OrthoMap]:
    """Exhaustive search for orthocomplementations.

    Backtracks over atom-to-coatom assignments with the symmetry
    constraint (p below the image of q iff q below the image of p) and
    the complement constraint (no atom below its own image), extends each
    complete assignment to all elements by meets, and keeps those passing
    full validation.  Results appear in lexicographic order of the
    assigned coatom indices; `limit` stops the search early.
    """
    n = lattice.atom_count
    if n > ORTHO_ATOM_CAP:
        raise SizeCapError(
            f"orthocomplementation search over {n} atoms exceeds cap "
            f"{ORTHO_ATOM_CAP}"
        )
    coatoms = lattice.coatoms()
    found: list[OrthoMap] = []
    if n == 0 or len(coatoms) != n or (limit is not None and limit <= 0):
        return found
    candidates = [
        [c for c in coatoms if not (c >> p) & 1] for p in range(n)
    ]
    images: list[Optional[int]] = [None] * n
    used: set[int] = set()

    def dfs(p: int) -> bool:
        if p == n:
            atom_images = {1 << q: images[q] for q in range(n)}
            candidate = OrthoMap.from_atom_images(lattice, atom_images)
            try:
                found.append(validate_ortho(lattice, candidate))
            except OrthoViolation:
                return False
            return limit is not None and len(found) >= limit
        for c in candidates[p]:
            if c in used:
                continue
            ok = True
            for q in range(p):
                if bool((images[q] >> p) & 1) != bool((c >> q) & 1):
                    ok = False
                    break
            if not ok:
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


def isomorphic(a: Lattice, b: Lattice) -> Optional[tuple[int, ...]]:
    """Search for an order isomorphism; returns the witnessing atom map
    (atom i of `a` goes to atom perm[i] of `b`) or None.

    Quick invariants (atom count, family size, member size histogram, atom
    profiles) are checked first; the search (see `_AtomMaps`) returns the
    lexicographically first atom map that, at the leaf, sends the
    meet-irreducibles of `a` into `b`, which with equal family sizes means
    the whole family maps onto `b` (see `Lattice.meet_irreducibles`).
    """
    if a.atom_count != b.atom_count or len(a) != len(b):
        return None
    if sorted(map(popcount, a.closed_sets)) != sorted(map(popcount, b.closed_sets)):
        return None
    maps = _AtomMaps(a, b)
    if sorted(maps.profiles_a) != sorted(maps.profiles_b):
        return None
    mi = a.meet_irreducibles()
    out: list[tuple[int, ...]] = []

    def leaf(perm: tuple[int, ...]) -> bool:
        act = _kernels._mask_action(perm)
        if any(act(s) not in b for s in mi):
            return False
        out.append(perm)
        return True

    maps._extend(leaf)
    return out[0] if out else None


@dataclass
class CharacterizationResult:
    """Successful characterization of an orthocomplemented product.

    `generated` is the freshly built generator-route product of the
    factors, `iso` the order isomorphism from its base onto the input
    base, `delta` the coatom-pair-to-atom bijection that induced it, and
    `induced_left`/`induced_right` the validated factor
    orthocomplementations read off the orthocomplement table.
    """

    product: ProductLattice
    generated: ProductLattice
    iso: dict[int, int]
    delta: dict[tuple[int, int], int]
    induced_left: OrthoMap
    induced_right: OrthoMap
    steps: list[str] = field(default_factory=list)


def characterize(
    product: ProductLattice,
    cov1: Optional[Covering] = None,
    cov2: Optional[Covering] = None,
    aut1: Optional[AutoGroup] = None,
    aut2: Optional[AutoGroup] = None,
    check_hypotheses: bool = True,
) -> CharacterizationResult:
    """Run the constructive characterization of an orthocomplemented
    product; raise CharacterizationError naming the failed step otherwise.

    Requires the factors to be coatomistic, weakly connected and strongly
    transitive under their full automorphism groups, and the product to
    satisfy the product axioms (all checked unless `check_hypotheses` is
    False).  On success the base is exhibited as order-isomorphic to the
    generated product of the factors, and the factors inherit validated
    orthocomplementations from the orthocomplement table of the base.
    """
    steps: list[str] = []
    left, right = product.left, product.right
    if product.ortho is None:
        raise CharacterizationError("orthocomplementation-present")
    omap = product.ortho
    cov1 = cov1 or Covering.single_block(left)
    cov2 = cov2 or Covering.single_block(right)
    if check_hypotheses:
        for lat, name in ((left, "left"), (right, "right")):
            if not lat.is_coatomistic():
                raise CharacterizationError("factors-coatomistic", name)
        for lat, cov, name in ((left, cov1, "left"), (right, cov2, "right")):
            res = weakly_connected(lat, cov)
            if not res:
                raise CharacterizationError(
                    "factors-weakly-connected", (name, res.condition, res.witness)
                )
        aut1 = aut1 or enumerate_automorphisms(left)
        aut2 = aut2 or enumerate_automorphisms(right)
        for lat, grp, name in ((left, aut1, "left"), (right, aut2, "right")):
            res = strongly_transitive(lat, grp)
            if not res:
                raise CharacterizationError(
                    "factors-strongly-transitive", (name, res.condition, res.witness)
                )
        sreport = check_sproduct(product, aut1, aut2, cov1, cov2)
        if not sreport.passed:
            failing = [n for n, r in sorted(sreport.reports.items()) if not r.passed]
            first = sreport.reports[failing[0]]
            raise CharacterizationError(
                "product-axioms", (failing[0], first.failures[0])
            )
        steps.append("hypotheses")

    base = product.base
    xi_pairs = [
        (x1, x2) for x1 in left.coatoms() for x2 in right.coatoms()
    ]
    delta: dict[tuple[int, int], int] = {}
    join_p: dict[tuple[int, int], int] = {}
    for x in xi_pairs:
        j = base.join((product.h1[x[0]], product.h2[x[1]]))
        join_p[x] = j
        d = omap(j)
        if d == 0 or d == base.top:
            raise CharacterizationError(
                "delta-nondegenerate", (atoms_of(x[0]), atoms_of(x[1]))
            )
        if popcount(d) != 1:
            raise CharacterizationError(
                "delta-atomhood", (atoms_of(x[0]), atoms_of(x[1]), atoms_of(d))
            )
        delta[x] = d
    seen: dict[int, tuple[int, int]] = {}
    for x, d in delta.items():
        if d in seen:
            raise CharacterizationError("delta-injective", (seen[d], x))
        seen[d] = x
    coverage = 0
    for d in delta.values():
        coverage |= d
    if coverage != base.top:
        raise CharacterizationError(
            "delta-coverage", atoms_of(base.top & ~coverage)
        )
    steps.append("delta-bijection")

    generated = aerts_product_general(left, right)
    join_q = {
        x: generated.base.join((generated.h1[x[0]], generated.h2[x[1]]))
        for x in xi_pairs
    }
    iso: dict[int, int] = {}
    for a in generated.base.closed_sets:
        iso[a] = base.meet(
            [join_p[x] for x in xi_pairs if is_subset(a, join_q[x])]
        )
    if len(set(iso.values())) != len(generated.base) or len(generated.base) != len(
        base
    ):
        raise CharacterizationError(
            "iso-bijective", (len(generated.base), len(base), len(set(iso.values())))
        )
    # Both lattices are atomistic, so an order isomorphism sends atoms to
    # atoms and each element to the element holding the images of its
    # atoms: iso is one exactly when every atom goes to a single atom and
    # iso equals the mask action of that atom map on every element (such a
    # bijection keeps and reflects inclusion).
    fam_q = generated.base.closed_sets
    atom_map = []
    for p in range(generated.base.atom_count):
        img = iso[1 << p]
        if popcount(img) != 1:
            raise CharacterizationError("iso-order", ((p,), atoms_of(img)))
        atom_map.append(img.bit_length() - 1)
    act = _kernels._mask_action(atom_map)
    for a in fam_q:
        if iso[a] != act(a):
            raise CharacterizationError("iso-order", (atoms_of(a), atoms_of(iso[a])))
    steps.append("order-isomorphism")

    n1, n2 = left.atom_count, right.atom_count
    table1: dict[int, int] = {}
    table2: dict[int, int] = {}
    for i in range(n1):
        for j in range(n2):
            atom = otimes(product, 1 << i, 1 << j)
            c = omap(atom)
            x1 = 0
            for i2 in range(n1):
                if is_subset(product.h1[1 << i2], c):
                    x1 |= 1 << i2
            x2 = 0
            for j2 in range(n2):
                if is_subset(product.h2[1 << j2], c):
                    x2 |= 1 << j2
            if x1 not in left or x2 not in right:
                raise CharacterizationError(
                    "orthocomplement-cross-form", ((i, j), atoms_of(c))
                )
            if c != base.join((product.h1[x1], product.h2[x2])):
                raise CharacterizationError(
                    "orthocomplement-cross-form", ((i, j), atoms_of(c))
                )
            if i in table1 and table1[i] != x1:
                raise CharacterizationError(
                    "orthocomplement-factorization", ("left", i, j)
                )
            if j in table2 and table2[j] != x2:
                raise CharacterizationError(
                    "orthocomplement-factorization", ("right", i, j)
                )
            table1[i] = x1
            table2[j] = x2
    try:
        induced_left = validate_ortho(
            left, OrthoMap.from_atom_images(left, {1 << i: table1[i] for i in table1})
        )
    except OrthoViolation as e:
        raise CharacterizationError("induced-ortho-left", e.law) from e
    try:
        induced_right = validate_ortho(
            right, OrthoMap.from_atom_images(right, {1 << j: table2[j] for j in table2})
        )
    except OrthoViolation as e:
        raise CharacterizationError("induced-ortho-right", e.law) from e
    steps.append("induced-orthocomplementations")

    sharp = aerts_product_sharp(left, induced_left, right, induced_right)
    if sharp.base.closed_sets != generated.base.closed_sets:
        raise CharacterizationError(
            "route-agreement",
            (len(sharp.base), len(generated.base)),
        )
    for a in fam_q:
        if iso[sharp.ortho(a)] != omap(iso[a]):
            raise CharacterizationError("ortho-transport", atoms_of(a))
    steps.append("sharp-rebuild")

    return CharacterizationResult(
        product=product,
        generated=generated,
        iso=iso,
        delta={
            (x1, x2): d for (x1, x2), d in delta.items()
        },
        induced_left=induced_left,
        induced_right=induced_right,
        steps=steps,
    )
