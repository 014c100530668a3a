"""Orthocomplementations, atom orthogonality relations, biorthogonal closure."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import seplat
from seplat.bitset import atoms_of, mask_of, popcount
from seplat.errors import OrthoViolation, RelationError
from seplat.lattice import Lattice
from seplat.ortho import AtomOrthogonality, OrthoMap, closure_from_orthogonality


# -- validation of orthocomplementation laws ------------------------------


def test_built_orthos_validate(mo2, mo3, b3):
    for lat, om in (mo2, mo3, b3):
        assert seplat.validate_ortho(lat, om) is om or seplat.validate_ortho(lat, om)


def test_ortho_images_match_oracle_pairing(mo2):
    lat, om = mo2
    perp = oracles.mo_perp(2)
    # the orthocomplement of an atom is the paired atom (height-2 family),
    # in the atom table and in its meet extension
    for a in range(4):
        assert om.table[1 << a] == 1 << perp[a]
        assert om(1 << a) == 1 << perp[a]
    assert om(lat.bottom) == lat.top
    assert om(lat.top) == lat.bottom


def _images(lattice, mapping):
    return {x: mapping[x] for x in lattice.closed_sets}


def test_totality_violation_detected(mo2):
    lat, om = mo2
    images = {x: om(x) for x in lat.closed_sets}
    del images[lat.top]
    with pytest.raises(OrthoViolation) as exc:
        seplat.validate_ortho(lat, images)
    assert exc.value.law.startswith("totality")


def test_involution_violation_detected(mo2):
    lat, om = mo2
    images = {x: om(x) for x in lat.closed_sets}
    # send two atoms to the same image: breaks involution
    images[0b0001] = 0b0100
    images[0b0010] = 0b0100
    with pytest.raises(OrthoViolation) as exc:
        seplat.validate_ortho(lat, images)
    assert exc.value.law in ("involution", "order-reversal")


def test_complement_meet_violation_detected(mo2):
    lat, om = mo2
    images = {x: om(x) for x in lat.closed_sets}
    # a fixed atom meets its own image in itself
    images[0b0001] = 0b0001
    with pytest.raises(OrthoViolation) as exc:
        seplat.validate_ortho(lat, images)
    assert exc.value.law in ("complement-meet", "involution", "order-reversal")


def test_complement_join_cannot_fail_alone():
    # A total involutive order-reversing map is an anti-automorphism, so
    # the join law x v x' = top is equivalent to the meet law x ^ x' = 0.
    # A candidate engineered to miss the top on joins must therefore trip
    # an earlier law; here atoms paired under a common 2-set break
    # order-reversal before the join check is ever reached.
    sets = [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1100, 0b1111]
    lat = Lattice.from_closed_family(4, sets)
    images = {
        0: 0b1111, 0b1111: 0,
        0b0001: 0b0010, 0b0010: 0b0001,
        0b0100: 0b1000, 0b1000: 0b0100,
        0b0011: 0b1100, 0b1100: 0b0011,
    }
    with pytest.raises(OrthoViolation) as exc:
        seplat.validate_ortho(lat, images)
    assert exc.value.law == "order-reversal"
    assert exc.value.witness is not None


def test_complement_join_holds_on_all_valid_orthos(mo2, mo3, b3):
    for lat, om in (mo2, mo3, b3):
        assert all(lat.join((x, om(x))) == lat.top for x in lat)


def test_from_atom_images_reconstructs(mo3):
    lat, om = mo3
    rebuilt = OrthoMap(lat, om.table)
    assert all(rebuilt(x) == om(x) for x in lat)


def _symmetric_tables(lat, rnd):
    """The atom tables p -> c_p with c_p a member, p not in c_p, and q in
    c_p iff p in c_q, in a random order."""
    n = lat.atom_count
    members = list(lat.closed_sets)
    table = [0] * n

    def extend(p):
        if p == n:
            yield {1 << q: table[q] for q in range(n)}
            return
        # bits 0..p of c_p are fixed: q < p by symmetry, p by irreflexivity
        fixed = mask_of(q for q in range(p) if table[q] >> p & 1)
        cands = [c for c in members if c & ((2 << p) - 1) == fixed]
        rnd.shuffle(cands)
        for c in cands:
            table[p] = c
            yield from extend(p + 1)

    return extend(0)


@st.composite
def small_lattices(draw):
    """Random intersection-closed families of up to 6 atoms, MO(1..3) and
    B(1..4)."""
    kind = draw(st.sampled_from(["random", "mo", "boolean"]))
    if kind == "mo":
        return seplat.build_mo(draw(st.integers(min_value=1, max_value=3)))[0]
    if kind == "boolean":
        return seplat.build_boolean(draw(st.integers(min_value=1, max_value=4)))[0]
    n = draw(st.integers(min_value=1, max_value=6))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    return Lattice.from_closed_family(n, seeds, mode="complete")


def _accepts(lat, images):
    try:
        seplat.validate_ortho(lat, images)
    except OrthoViolation:
        return False
    return True


@given(small_lattices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_meet_extension_is_an_ortho_exactly_when_the_table_closes(lat, rnd):
    # A symmetric, irreflexive table of members extends by meets to an
    # orthocomplementation exactly when its values close to the family.
    for table in itertools.islice(_symmetric_tables(lat, rnd), 40):
        # passed as an element map, so every law is checked
        images = dict(OrthoMap(lat, table).images)
        assert _accepts(lat, images) == lat.is_closure_of(table.values())


def test_symmetric_tables_of_mo2(mo2):
    # the 10 partial matchings of 4 atoms; the 3 perfect ones close
    lat = mo2[0]
    tables = list(_symmetric_tables(lat, random.Random(0)))
    verdicts = [_accepts(lat, dict(OrthoMap(lat, t).images)) for t in tables]
    assert (len(tables), sum(verdicts)) == (10, 3)


def test_mo_has_exactly_n_orthogonal_pairs(mo3):
    lat, om = mo3
    pairs = {
        (p, q)
        for p in range(6)
        for q in range(p + 1, 6)
        if om(1 << q) >> p & 1
    }
    assert len(pairs) == 3


# -- orthomodularity ---------------------------------------------------


def _orthomodular_by_pairs(lat, om):
    fam = {frozenset(atoms_of(m)) for m in lat.closed_sets}
    omap = {frozenset(atoms_of(x)): frozenset(atoms_of(om(x))) for x in lat}
    return oracles.orthomodular_double_loop(fam, omap)


def test_orthomodular_matches_oracle(mo2, mo3, b3):
    for lat, om in (mo2, mo3, b3):
        assert seplat.is_orthomodular(lat, om) == _orthomodular_by_pairs(lat, om)
        assert seplat.is_orthomodular(lat, om)


def test_orthomodular_matches_oracle_on_every_searched_map(prod22):
    verdicts = []
    for lat in (prod22.base, seplat.build_mo(4)[0]):
        for om in seplat.enumerate_orthocomplementations(lat):
            verdicts.append(seplat.is_orthomodular(lat, om))
            assert verdicts[-1] == _orthomodular_by_pairs(lat, om)
    # no map of the product is orthomodular, and every map of MO(4) is
    assert verdicts == [False] * 9 + [True] * 105


def test_product_is_not_orthomodular(prod22):
    lat, om = prod22.base, prod22.ortho
    fam = {frozenset(atoms_of(m)) for m in lat.closed_sets}
    omap = {frozenset(atoms_of(x)): frozenset(atoms_of(om(x))) for x in lat}
    assert not oracles.orthomodular_double_loop(fam, omap)
    assert not seplat.is_orthomodular(lat, om)


# -- atom orthogonality relations ------------------------------------------


def test_relation_from_pairs_roundtrip():
    rel = AtomOrthogonality.from_pairs(4, [(0, 1), (2, 3)])
    assert rel.related(0, 1) and rel.related(1, 0)
    assert not rel.related(0, 2)
    assert sorted(rel.pairs()) == [(0, 1), (2, 3)]
    assert rel.polar_of(0b0001) == 0b0010
    assert rel.polar_of(0) == 0b1111  # polar of the empty set is everything
    rel.validate()


def test_polars_of_atoms_past_the_relation_are_refused():
    rel = AtomOrthogonality.from_pairs(4, [(0, 1), (2, 3)])
    # the polars of atoms 0 and 1 are disjoint, so an AND over the atoms
    # in order is empty before it reaches atom 4
    for subset in (0b10000, 0b10011):
        with pytest.raises(RelationError) as exc:
            rel.polar_of(subset)
        assert exc.value.law == "subsets use atoms 0..atom_count-1"


def test_reflexive_pair_rejected():
    rel = AtomOrthogonality.from_pairs(2, [(0, 0), (0, 1)])
    with pytest.raises(RelationError) as exc:
        rel.validate()
    assert "reflexive" in str(exc.value).lower() or "anti" in str(exc.value).lower()


def test_non_separating_relation_rejected():
    # over 3 atoms, only 0#1: atoms 0 and 2 are not separated
    rel = AtomOrthogonality.from_pairs(3, [(0, 1)])
    with pytest.raises(RelationError) as exc:
        rel.validate()
    assert exc.value.witness is not None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_separation_matches_the_all_pairs_scan(data):
    # random symmetric, irreflexive relations, sparse ones mostly failing
    # separation and dense ones mostly passing it
    n = data.draw(st.integers(1, 7))
    density = data.draw(st.sampled_from((2, 5, 8)))
    pairs = [
        (p, q)
        for p, q in itertools.combinations(range(n), 2)
        if data.draw(st.integers(0, 9)) < density
    ]
    rel = AtomOrthogonality.from_pairs(n, pairs)
    want = oracles.first_unseparated(rel.polars)
    if want is None:
        rel.validate()
    else:
        with pytest.raises(RelationError) as exc:
            rel.validate()
        assert exc.value.law.startswith("separation")
        assert exc.value.witness == want


def test_asymmetric_polars_rejected():
    rel = AtomOrthogonality(2, [0b10, 0b00])
    with pytest.raises(RelationError):
        rel.validate()


@pytest.mark.parametrize(
    "polars,witness",
    [([0b100, 0], (0,)), ([0b10, 0b101], (1,)), ([-1, 0], (0,)), ([0b10, -2], (1,))],
)
def test_polars_outside_the_atoms_rejected(polars, witness):
    # A polar with an atom at or above atom_count, or a negative one, is
    # refused by name before the symmetry loop reads polars[q].
    rel = AtomOrthogonality(2, polars)
    for check in (rel.validate, lambda: closure_from_orthogonality(2, rel)):
        with pytest.raises(RelationError) as exc:
            check()
        assert exc.value.law == "polars hold atoms 0..atom_count-1"
        assert exc.value.witness == witness


@pytest.mark.parametrize("pair", [(0, 5), (5, 0), (0, 2), (0, -1), (-1, 1), (0.0, 1), (1, True)])
def test_pairs_outside_the_atoms_rejected(pair):
    # An index that is not an int in 0..atom_count-1 is refused by name
    # before it is used as a list index or a shift count.
    with pytest.raises(RelationError) as exc:
        AtomOrthogonality.from_pairs(2, [(0, 1), pair])
    assert exc.value.law == "pairs use atoms 0..atom_count-1"
    assert exc.value.witness == pair


def test_b2_from_single_pair():
    lat, om = closure_from_orthogonality(2, AtomOrthogonality.from_pairs(2, [(0, 1)]))
    assert len(lat) == 4
    assert om(0b01) == 0b10


# -- biorthogonal closure ---------------------------------------------------


def mo_relation(n):
    return AtomOrthogonality.from_pairs(2 * n, [(2 * k, 2 * k + 1) for k in range(n)])


def test_closure_matches_exhaustive_oracle():
    for n in (1, 2, 3):
        rel = mo_relation(n)
        lat, om = closure_from_orthogonality(2 * n, rel)
        fam = {frozenset(atoms_of(m)) for m in lat.closed_sets}
        want = oracles.biorthogonally_closed_family(
            2 * n, [(2 * k, 2 * k + 1) for k in range(n)]
        )
        assert fam == want


def test_closure_output_is_valid_ortholattice():
    rel = mo_relation(3)
    lat, om = closure_from_orthogonality(6, rel)
    lat.validate()
    seplat.validate_ortho(lat, om)
    # atoms are singletons, the polar of an atom is a coatom
    coatoms = set(lat.coatoms())
    for p in range(6):
        assert om(1 << p) in coatoms


def test_sharp_product_closure_matches_oracle(mo2):
    lat2, o2 = mo2
    rel = seplat.sharp_relation(lat2, o2, lat2, o2)
    lat, om = closure_from_orthogonality(16, rel)
    pairs = oracles.sharp_pairs(4, oracles.mo_perp(2), 4, oracles.mo_perp(2))
    want = oracles.biorthogonally_closed_family(16, pairs)
    fam = {frozenset(atoms_of(m)) for m in lat.closed_sets}
    assert fam == want
    assert len(fam) == oracles.expected_mo_product_family_size(4, 4) == 114


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_polar_laws(n, data):
    rel = mo_relation(n)
    atoms = 2 * n
    full = (1 << atoms) - 1

    def polar(mask):
        # recomputed from the pairwise relation, independently of polar_of
        out = 0
        for q in range(atoms):
            if all(rel.related(p, q) for p in atoms_of(mask)):
                out |= 1 << q
        return out

    s = data.draw(st.integers(min_value=0, max_value=full))
    assert polar(s) == rel.polar_of(s)
    t = data.draw(st.integers(min_value=0, max_value=full))
    if s & ~t == 0:
        assert polar(t) & ~polar(s) == 0  # antitone
    assert polar(polar(polar(s))) == polar(s)  # triple polar collapse
    assert s & ~polar(polar(s)) == 0  # extensive double polar
    # idempotence of the double polar
    assert polar(polar(polar(polar(s)))) == polar(polar(s))


def test_ortho_requires_membership(mo2):
    lat, om = mo2
    images = {x: om(x) for x in lat.closed_sets}
    images[0b0001] = 0b0011  # not a closed set
    with pytest.raises(OrthoViolation):
        seplat.validate_ortho(lat, images)


# -- order reversal against the all-pairs reference -----------------------


def _repair(images, rng):
    """Re-pair two 2-cycles {x, x'} and {y, y'} of an involution into
    {x, y'} and {y, x'}; the result is again an involution."""
    x, y = rng.sample(sorted(images), 2)
    xi, yi = images[x], images[y]
    if len({x, xi, y, yi}) == 4:
        images.update({x: yi, yi: x, y: xi, xi: y})


def _random_involution(elems, rng):
    rest = list(elems)
    rng.shuffle(rest)
    images = {}
    while rest:
        x = rest.pop()
        y = rest.pop() if rest and rng.random() < 0.8 else x
        images[x], images[y] = y, x
    return images


def test_order_reversal_matches_the_pair_loop():
    """`validate_ortho` compares each image with the meet of its atoms'
    images and runs the pair loop only when that fails.  On involutions its
    order-reversal verdict must match the all-pairs oracle, and a failure's
    witness must violate the law."""
    rng = random.Random(5)
    built = [seplat.build_boolean(n) for n in (1, 2, 3, 4)]
    built += [seplat.build_mo(n) for n in (1, 2, 3)]
    randoms = [
        Lattice.from_closed_family(
            n, [rng.getrandbits(n) for _ in range(rng.randint(0, 4))], mode="complete"
        )
        for n in (2, 3, 4, 5, 6)
        for _ in range(4)
    ]
    verdicts = []
    for _ in range(800):
        if rng.random() < 0.6:
            lat, om = rng.choice(built)
            images = dict(om.images)
            for _ in range(rng.randint(0, 2)):
                _repair(images, rng)
        else:
            lat = rng.choice(randoms)
            images = _random_involution(lat.closed_sets, rng)
        fam = {frozenset(atoms_of(x)) for x in lat}
        omap = {frozenset(atoms_of(x)): frozenset(atoms_of(y)) for x, y in images.items()}
        bad = oracles.order_reversal_violations(fam, omap)
        try:
            seplat.validate_ortho(lat, images)
            err = None
        except OrthoViolation as e:
            err = e
        reversed_order = err is None or err.law != "order-reversal"
        assert err is None or err.law in ("order-reversal", "complement-meet")
        verdicts.append(reversed_order)
        if reversed_order:
            assert not bad
        else:
            x, y = err.witness
            assert (frozenset(x), frozenset(y)) in bad
    assert 100 < sum(verdicts) < 700  # both verdicts come up often


def test_orthomodularity_rejects_a_map_of_another_lattice(mo2, mo3):
    with pytest.raises(seplat.ValidationError) as exc:
        seplat.is_orthomodular(mo3[0], mo2[1])
    assert exc.value.law == "ortho map belongs to the lattice"


# -- whole-family passes against the per-element reference -------------------
#
# `validate_ortho` checks each law in one pass over the family and runs the
# per-element loop only after a failure; law and witness must be those of the
# loop in `oracles.first_ortho_violation` for every one-entry corruption.


def _violation(lat, images):
    try:
        seplat.validate_ortho(lat, images)
    except OrthoViolation as e:
        return e.law, e.witness
    return None


def _nonmember(lat):
    """A mask that is no member: the first missing one, or one past the atoms."""
    return next((m for m in range(lat.top) if m not in lat), lat.top + 1)


def _one_entry_corruptions(lat, images, rng):
    """Copies of `images`, each with one entry changed: a missing image, an
    image that is not a member, an image moved to another member (which
    breaks involution, and with it often the meet extension and the
    complement laws), and two 2-cycles re-paired, which keeps involution
    but breaks the meet extension."""
    for x in lat:
        missing = dict(images)
        del missing[x]
        yield missing
        yield {**images, x: _nonmember(lat)}
        for y in rng.sample(list(lat), min(len(lat), 6)):
            yield {**images, x: y}
    for _ in range(len(lat)):
        repaired = dict(images)
        _repair(repaired, rng)
        yield repaired


def test_ortho_witnesses_match_the_per_element_loop(mo2, mo3, b3, prod22):
    rng = random.Random(26)
    laws = set()
    for lat, om in (mo2, mo3, b3, (prod22.base, prod22.ortho)):
        assert _violation(lat, dict(om.images)) is None
        for images in _one_entry_corruptions(lat, dict(om.images), rng):
            got = _violation(lat, images)
            assert got == oracles.first_ortho_violation(lat.closed_sets, lat.atom_count, images)
            laws.add(got and got[0])
    assert {
        "totality: every element has an image",
        "totality: images are lattice elements",
        "involution",
        "order-reversal",
    } <= laws


def test_complement_witnesses_match_the_per_element_loop():
    # Fixing both atoms of B2 reverses its order and breaks x ^ x' = 0.  A
    # total involution that reverses the order of a lattice keeps the join
    # law whenever it keeps the meet law (see
    # `test_complement_join_cannot_fail_alone`), so x v x' = top fails first
    # only on a bare family: here ∅ and {0} are paired below a missing top,
    # and the extra key 0b10 gives the missing atom {1} the image that the
    # atom table reads.
    b2 = seplat.build_boolean(2)[0]
    cases = [
        (b2, {0: 0b11, 0b11: 0, 0b01: 0b01, 0b10: 0b10}, ("complement-meet", (0,))),
        (Lattice(2, [0, 0b01]), {0: 0b01, 0b01: 0, 0b10: 0}, ("complement-join", ())),
    ]
    for lat, images, want in cases:
        assert _violation(lat, images) == want
        assert oracles.first_ortho_violation(lat.closed_sets, lat.atom_count, images) == want


@st.composite
def ortho_candidates(draw):
    """A lattice from `small_lattices` and an image map: its
    orthocomplementation, or a random involution when it has none at hand,
    with at most one entry corrupted."""
    lat = draw(small_lattices())
    rnd = draw(st.randoms(use_true_random=False))
    found = seplat.enumerate_orthocomplementations(lat, limit=1)
    images = dict(found[0].images) if found else _random_involution(lat.closed_sets, rnd)
    corruptions = list(itertools.islice(_one_entry_corruptions(lat, images, rnd), 60))
    return lat, draw(st.sampled_from([images] + corruptions))


@given(ortho_candidates())
@settings(max_examples=150, deadline=None)
def test_ortho_witnesses_match_the_per_element_loop_on_random_lattices(candidate):
    lat, images = candidate
    want = oracles.first_ortho_violation(lat.closed_sets, lat.atom_count, images)
    assert _violation(lat, images) == want
