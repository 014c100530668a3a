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

AUTOMORPHISM_ATOM_CAP = 24


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


def _atom_maps(counts_a: list[list[int]], counts_b: list[list[int]], leaf) -> None:
    """Backtrack over the atom maps between two lattices with pair-count
    tables `counts_a` and `counts_b` that keep every atom profile and pair
    count, calling `leaf` on each complete map (atom i goes to perm[i]) in
    lexicographic order until it returns True."""
    n = len(counts_a)
    prof_a = _atom_profiles(counts_a)
    prof_b = prof_a if counts_b is counts_a else _atom_profiles(counts_b)
    assigned = [-1] * n
    used = [False] * n

    def dfs(k: int) -> bool:
        if k == n:
            return leaf(tuple(assigned))
        for x in range(n):
            if used[x] or prof_b[x] != prof_a[k]:
                continue
            ok = True
            for q in range(k):
                if counts_a[k][q] != counts_b[x][assigned[q]]:
                    ok = False
                    break
            if not ok:
                continue
            assigned[k] = x
            used[x] = True
            if dfs(k + 1):
                return True
            used[x] = False
        assigned[k] = -1
        return False

    dfs(0)


def enumerate_automorphisms(
    lattice: Lattice, atom_cap: int = AUTOMORPHISM_ATOM_CAP
) -> AutoGroup:
    """All atom permutations preserving the closed family, by backtracking
    with pair-count pruning; each complete map is checked on the
    meet-irreducibles (see `Lattice.meet_irreducibles`).  Members come out
    in lexicographic order of their permutation tuples."""
    n = lattice.atom_count
    if n > atom_cap:
        raise SizeCapError(
            f"automorphism search over {n} atoms exceeds cap {atom_cap}"
        )
    fam = lattice.meet_irreducibles()
    found: list[Automorphism] = []

    def leaf(perm: tuple[int, ...]) -> bool:
        if _kernels.family_preserved(perm, fam, n):
            found.append(Automorphism(perm))
        return False

    counts = _atom_pair_counts(lattice)
    _atom_maps(counts, counts, leaf)
    return AutoGroup(lattice, found)


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
    lattice: Lattice,
    limit: Optional[int] = None,
    atom_cap: int = AUTOMORPHISM_ATOM_CAP,
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
    if n > atom_cap:
        raise SizeCapError(
            f"orthocomplementation search over {n} atoms exceeds cap {atom_cap}"
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

    Quick invariants (atom count, family size, member size histogram) are
    checked first; the backtracking uses the pair-count tables of both
    lattices for pruning and, at the leaf, checks that the meet-irreducibles
    of `a` land in `b`, which with equal family sizes means the whole
    family maps onto `b` (see `Lattice.meet_irreducibles`).
    """
    if a.atom_count != b.atom_count or len(a) != len(b):
        return None
    if sorted(map(popcount, a.closed_sets)) != sorted(map(popcount, b.closed_sets)):
        return None
    counts_a = _atom_pair_counts(a)
    counts_b = _atom_pair_counts(b)
    if sorted(_atom_profiles(counts_a)) != sorted(_atom_profiles(counts_b)):
        return None
    out: list[tuple[int, ...]] = []

    def leaf(perm: tuple[int, ...]) -> bool:
        u = Automorphism(perm)
        if any(u(s) not in b for s in a.meet_irreducibles()):
            return False
        out.append(perm)
        return True

    _atom_maps(counts_a, counts_b, leaf)
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
    rebuild_check: bool = True,
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
    fam_q = generated.base.closed_sets
    for a in fam_q:
        fa = iso[a]
        for c in fam_q:
            if is_subset(a, c) != is_subset(fa, iso[c]):
                raise CharacterizationError("iso-order", (atoms_of(a), atoms_of(c)))
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

    if rebuild_check:
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
