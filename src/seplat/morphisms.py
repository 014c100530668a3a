"""Automorphism enumeration, factorization over products, exhaustive
orthocomplementation search, and the product characterization.

The characterization follows the constructive argument: coatom pairs of
the factors give, through the orthocomplement of their embedded join,
atoms of the base; those atoms are in bijection with the pair atoms of a
generated product of the factors, and the induced atom map is verified
to be an order isomorphism on the generating crosses and the base's
meet-irreducibles alone, without building that product; the
orthocomplement table of the base is decomposed into factor
orthocomplementations which are then validated directly.
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
from .bitset import (
    atoms_of,
    canonical_family,
    full_mask,
    holding,
    incidence_rows,
    is_subset,
    mask_of,
    popcount,
)
from .errors import (
    CharacterizationError,
    FactorizationError,
    OrthoViolation,
    ValidationError,
)
from .lattice import Lattice
from .ortho import OrthoMap, validate_ortho
from .perm import Automorphism, AutoGroup
from .product import (
    ProductLattice,
    _cross,
    _generator_seeds,
    _pair_perm,
    aerts_product_sharp,
    otimes,
    sharp_relation,
)


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
    mi = lattice.meet_irreducibles()
    maps = _AtomMaps(lattice, lattice)
    found: list[tuple[int, ...]] = []

    def leaf(perm: tuple[int, ...]) -> bool:
        if _kernels.family_preserved(perm, mi, lattice):
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

    `auto` must be an Automorphism (ValidationError otherwise) whose
    `perm` permutes exactly the n1·n2 pair atoms of the base, pair atom p
    being (p // n2, p % n2) (ValidationError otherwise).  Steps, raising
    FactorizationError at the first that fails:

    - each row's image is a row, or a column when n1 = n2, witness
      (i, sorted image); row 0 chooses the side, "straight" for a row and
      "swapped" for a column;
    - each column's image is a column on the straight side and a row on
      the swapped side, witness (j, sorted image);
    - the extracted maps, row i to the index of its image line and column
      j likewise, send every meet-irreducible of their source factor into
      their target factor (four named steps, one per map and side, the
      failing map as witness).

    Nothing else can fail for a permutation.  Distinct rows have disjoint
    images, and every row meets every column, so the rows go all to rows
    or all to columns: the side choice is the same on every row, and each
    extracted map is injective, hence a bijection of atoms.  Pair (i, j)
    is the only atom of row i ∩ column j, so it goes to the only atom of
    the intersection of their images: `perm` is the pair map of the
    extracted maps.  A bijection that sends the meet-irreducibles into the
    target sends every member there (see `Lattice.meet_irreducibles`).
    An empty `perm` means n1·n2 = 0; it is the pair map of the two
    identities, which factor straight.

    The maps are read off the first atom of each line, left_map[i] off
    perm[i·n2] and right_map[j] off perm[j] (row index `//`, column index
    `%`, the other way round on the swapped side), and `perm` is compared
    with their pair map in one tuple comparison.  The comparison passes
    exactly when both line steps do: if they pass, the maps read are the
    extracted ones, and `perm` is their pair map as above; if it passes,
    row i goes to line left_map[i] and column j to line right_map[j].  So
    the line steps run only to name the failure.  The verdicts of the
    factor-map steps depend only on the step and the map, and are kept
    on the product.
    """
    n1, n2 = product.left.atom_count, product.right.atom_count
    if not isinstance(auto, Automorphism):
        raise ValidationError("automorphism is a permutation of the atoms", type(auto).__name__)
    perm = auto.perm
    if not len(perm) == n1 * n2 == product.base.atom_count:
        raise ValidationError("automorphism permutes the product's pair atoms", len(perm))
    if not perm:
        return FactorizationResult("straight", tuple(range(n1)), tuple(range(n2)))
    if n1 == n2 and len({p // n2 for p in perm[:n2]}) > 1:
        side = "swapped"
        left_map = tuple(p % n2 for p in perm[::n2])
        right_map = tuple(p // n2 for p in perm[:n2])
        pair_map = tuple(y * n2 + x for x in left_map for y in right_map)
    else:
        side = "straight"
        left_map = tuple(p // n2 for p in perm[::n2])
        right_map = tuple(p % n2 for p in perm[:n2])
        pair_map = _pair_perm(left_map, right_map)
    if perm != pair_map:
        # The line index that the atoms of a row image must share: their
        # row on the straight side, their column on the swapped side; the
        # atoms of a column image share the other one.
        row_line = [p // n2 for p in perm]
        col_line = [p % n2 for p in perm]
        if side == "swapped":
            row_line, col_line = col_line, row_line
        for i in range(n1):
            if len(set(row_line[i * n2 : (i + 1) * n2])) != 1:
                image = tuple(sorted(perm[i * n2 : (i + 1) * n2]))
                raise FactorizationError("row image is a row or column", (i, image))
        for j in range(n2):
            if len(set(col_line[j::n2])) != 1:
                image = tuple(sorted(perm[j::n2]))
                raise FactorizationError("column images match the side choice", (j, image))
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
    verdicts = product._factor_verdicts
    for amap, src, dst, step in checks:
        ok = verdicts.get((step, amap))
        if ok is None:
            ok = verdicts[step, amap] = _kernels.family_preserved(
                amap, src.meet_irreducibles(), dst
            )
        if not ok:
            raise FactorizationError(step, amap)
    return FactorizationResult(side, left_map, right_map)


def enumerate_orthocomplementations(
    lattice: Lattice, limit: Optional[int] = None
) -> list[OrthoMap]:
    """Exhaustive search for orthocomplementations.

    An orthocomplementation sends distinct atoms p to distinct coatoms
    c_p with p not below c_p and p below c_q iff q below c_p, and every
    other element to the meet of its atoms' images.  It is an order
    anti-automorphism, so it also maps the meet-irreducibles onto the
    join-irreducibles, which are the atoms: unless the lattice has as
    many coatoms and as many meet-irreducibles as atoms (every
    meet-irreducible is then a coatom), the result is [].

    The search assigns the atoms in index order, keeping each atom's
    candidates as a mask of coatom indices (`Lattice.coatoms` order):
    holds[p] is the mask of the coatoms holding p, and atom p starts with
    the coatoms not holding it.  Sending p to c keeps, for every later q,
    the candidates holding p when q is below c and those not holding p
    otherwise, so the symmetry constraint is met on assignment; a branch
    in which some later atom has no unused candidate left is dropped at
    once.  The search keeps its own stack of frames, one per assigned
    atom, rather than recursing.

    Every complete assignment is an orthocomplementation, so it is kept
    as its atom table without a further check.  The relation "q below
    c_p" is symmetric and irreflexive, so its polar map
    x -> ⋂_{p in x} c_p is an orthocomplementation of the atom sets equal
    to their double polar, which are the intersections of the c_p with
    top.  The c_p are n distinct coatoms, so they are all the coatoms,
    and every meet-irreducible is one of them; as each member is the meet
    of the meet-irreducibles above it, the family is the closure of the
    c_p (`Lattice.is_closure_of`), so its members are those atom sets and
    the meet extension is the polar map.

    Results appear in lexicographic order of the assigned coatom indices;
    `limit` stops the search early, so the result is a prefix of the full
    list.
    """
    n = lattice.atom_count
    coatoms = lattice.coatoms()
    found: list[OrthoMap] = []
    if (
        n == 0
        or not len(coatoms) == n == len(lattice.meet_irreducibles())
        or (limit is not None and limit <= 0)
    ):
        return found
    holds = [mask_of(i for i, c in enumerate(coatoms) if c >> p & 1) for p in range(n)]
    images = [0] * n
    start = [full_mask(n) & ~h for h in holds]
    # one frame [p, cand, used, free] per assigned depth: free holds the
    # candidates of atom p not tried yet
    stack = [[0, start, 0, start[0]]]
    while stack:
        frame = stack[-1]
        p, cand, used, free = frame
        if not free:
            stack.pop()
            continue
        low = free & -free
        frame[3] = free ^ low
        c, now = coatoms[low.bit_length() - 1], used | low
        nxt = cand[:]
        for q in range(p + 1, n):
            nxt[q] &= holds[p] if c >> q & 1 else ~holds[p]
            if not nxt[q] & ~now:
                break
        else:
            images[p] = c
            if p + 1 < n:
                stack.append([p + 1, nxt, now, nxt[p + 1] & ~now])
                continue
            found.append(OrthoMap(lattice, {1 << q: images[q] for q in range(n)}))
            if limit is not None and len(found) >= limit:
                break
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
    out: list[tuple[int, ...]] = []

    def leaf(perm: tuple[int, ...]) -> bool:
        if not _kernels.family_preserved(perm, a.meet_irreducibles(), b):
            return False
        out.append(perm)
        return True

    maps._extend(leaf)
    return out[0] if out else None


def _iso_atom_map(
    left: Lattice, right: Lattice, base: Lattice, join_p: dict[tuple[int, int], int]
) -> tuple[int, ...]:
    """The order-isomorphism step of `characterize`: return the atom map
    p -> the base atom of iso(1 << p), or raise CharacterizationError when
    iso is not an order isomorphism from the generated product of `left`
    and `right` onto `base`.

    `join_p` maps each coatom pair x = (x1, x2) to a member of `base`, the
    embedded join h1(x1) v h2(x2).  The generated family G is the closure
    of the seeds S, the crosses of MI(L1) u {top} with MI(L2) u {top}
    (see `aerts_product_general`), and the join of the embedded x1 and x2
    in G is cross(x) = A(x1) x A(L2) u A(L1) x A(x2), which is a seed, as
    coatoms are meet-irreducible.  So iso(a) = ⋂{join_p[x] : a ⊆ cross(x)}
    is read off the incidence rows of the cross(x), with no product built,
    and is evaluated only on the pair atoms and on S.  With act the mask
    action of the atom map, the steps are:

    1. each iso(1 << p) is one atom ("iso-order", witness ((p,), atoms));
    2. the base has n1·n2 atoms and the atom map is injective
       ("iso-bijective", witness (n1·n2, base atom count, distinct
       images));
    3. iso(s) = act(s) for every s in S, in family order ("iso-order",
       witness (atoms of s, atoms of iso(s)));
    4. `base.is_closure_of(act(S))` ("iso-bijective", witness the atoms of
       the first meet-irreducible of the base that is no act(s)).

    They hold exactly when iso maps G bijectively onto the base and equals
    act on all of G, which makes it an order isomorphism (a bijection
    between atomistic lattices that is the mask action of an atom
    bijection keeps and reflects inclusion).

    ⇒: act is injective on masks and keeps intersections and top (2), so
    it maps G = closure(S) onto closure(act(S)), the base (4).  Take a in
    G; it is the meet of the seeds above it.  iso is monotone, as fewer
    crosses hold a larger set, so iso(a) ⊆ ⋂_{s ⊇ a} iso(s) =
    ⋂_{s ⊇ a} act(s) = act(a) by 3.  For each x with a ⊆ cross(x),
    act(a) ⊆ act(cross(x)) = iso(cross(x)) ⊆ join_p[x], so act(a) ⊆ iso(a).
    ⇐: an order isomorphism of atomistic lattices sends atoms to atoms, so
    1 holds and the atom map is injective; the base top is iso(a) = act(a)
    for some a, so the base has no other atoms (2); 3 holds as S ⊆ G; and
    act(closure(S)) = closure(act(S)) is the base (4).

    After step 3 every act(s) = iso(s) is a meet of members, so step 4
    can only fail on a meet-irreducible that no act(s) reaches.
    """
    n1, n2 = left.atom_count, right.atom_count
    rows = incidence_rows([_cross(left, right, x1, x2) for x1, x2 in join_p], n1 * n2)
    joins, width = list(join_p.values()), base.atom_count
    atom_map = []
    for p, row in enumerate(rows):
        img = holding(joins, row, width)
        if popcount(img) != 1:
            raise CharacterizationError("iso-order", ((p,), atoms_of(img)))
        atom_map.append(img.bit_length() - 1)
    if base.atom_count != n1 * n2 or len(set(atom_map)) != n1 * n2:
        raise CharacterizationError(
            "iso-bijective", (n1 * n2, base.atom_count, len(set(atom_map)))
        )
    act = _kernels._mask_action(atom_map)
    seeds = canonical_family(_generator_seeds(left, right))
    for s in seeds:
        img = holding(joins, holding(rows, s, len(joins)), width)
        if img != act(s):
            raise CharacterizationError("iso-order", (atoms_of(s), atoms_of(img)))
    images = set(map(act, seeds))
    if not base.is_closure_of(images):
        missing = next(m for m in base.meet_irreducibles() if m not in images)
        raise CharacterizationError("iso-bijective", atoms_of(missing))
    return tuple(atom_map)


@dataclass
class CharacterizationResult:
    """Successful characterization of an orthocomplemented product.

    `atom_map` sends each pair atom p of the generated product of the
    factors to the base atom atom_map[p]; its mask action is the order
    isomorphism from the generated family onto the input base.  `delta` is
    the coatom-pair-to-atom bijection that induced it, and
    `induced_left`/`induced_right` the validated factor
    orthocomplementations read off the orthocomplement table.
    """

    product: ProductLattice
    atom_map: tuple[int, ...]
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

    atom_map = _iso_atom_map(left, right, base, join_p)
    act = _kernels._mask_action(atom_map)
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
            left, OrthoMap(left, {1 << i: table1[i] for i in table1})
        )
    except OrthoViolation as e:
        raise CharacterizationError("induced-ortho-left", e.law) from e
    try:
        induced_right = validate_ortho(
            right, OrthoMap(right, {1 << j: table2[j] for j in table2})
        )
    except OrthoViolation as e:
        raise CharacterizationError("induced-ortho-right", e.law) from e
    steps.append("induced-orthocomplementations")

    # The sharp family is the intersection closure of the polars P of the
    # sharp relation, plus top.  act is an isomorphism from the generated
    # family onto the base that keeps intersections and top, so the two
    # families agree exactly when the closure of act(P) is the base, which
    # `is_closure_of` decides on act(P) and MI(base).  Only a failure pays
    # for the sharp product, to report its size; the base has as many
    # members as the generated family.
    rel = sharp_relation(left, induced_left, right, induced_right)
    if not base.is_closure_of(map(act, rel.polars)):
        sharp = aerts_product_sharp(left, induced_left, right, induced_right)
        raise CharacterizationError("route-agreement", (len(sharp.base), len(base)))
    # The polar map and omap are the meet extensions of their atom tables,
    # and act is an isomorphism, so they correspond exactly when they do
    # on the atoms.
    for p, q in enumerate(atom_map):
        if act(rel.polars[p]) != omap.table[1 << q]:
            raise CharacterizationError("ortho-transport", (p,))
    steps.append("sharp-rebuild")

    return CharacterizationResult(
        product=product,
        atom_map=atom_map,
        delta=delta,
        induced_left=induced_left,
        induced_right=induced_right,
        steps=steps,
    )
