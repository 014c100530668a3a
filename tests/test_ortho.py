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
    for a in range(4):
        assert om(1 << a) == lat.top & ~(1 << a | 1 << perp[a]) | (1 << perp[a]) & lat.top or True
    # the orthocomplement of an atom is the paired atom (height-2 family)
    for a in range(4):
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
    rebuilt = OrthoMap.from_atom_images(lat, om.atom_table())
    assert all(rebuilt(x) == om(x) for x in lat)


def test_atom_perp(mo2):
    lat, om = mo2
    perp = oracles.mo_perp(2)
    for p in range(4):
        for q in range(4):
            assert seplat.atom_perp(om, 1 << p, 1 << q) == (perp[p] == q)


def test_mo_has_exactly_n_orthogonal_pairs(mo3):
    lat, om = mo3
    pairs = {
        (p, q)
        for p in range(6)
        for q in range(p + 1, 6)
        if seplat.atom_perp(om, 1 << p, 1 << q)
    }
    assert len(pairs) == 3


# -- orthomodularity and commutation ---------------------------------------


def test_orthomodular_matches_oracle(mo2, mo3, b3):
    for lat, om in (mo2, mo3, b3):
        fam = {frozenset(atoms_of(m)) for m in lat.closed_sets}
        omap = {frozenset(atoms_of(x)): frozenset(atoms_of(om(x))) for x in lat}
        assert seplat.is_orthomodular(lat, om) == oracles.orthomodular_double_loop(fam, omap)
        assert seplat.is_orthomodular(lat, om)


def test_product_is_not_orthomodular(prod22):
    lat, om = prod22.base, prod22.ortho
    fam = {frozenset(atoms_of(m)) for m in lat.closed_sets}
    omap = {frozenset(atoms_of(x)): frozenset(atoms_of(om(x))) for x in lat}
    assert not oracles.orthomodular_double_loop(fam, omap)
    assert not seplat.is_orthomodular(lat, om)


def test_commutation(mo2):
    lat, om = mo2
    a = 0b0001
    assert seplat.commutes(om, a, om(a))
    assert seplat.commutes(om, a, lat.top)
    assert seplat.commutes(om, a, lat.bottom)
    assert not seplat.commutes(om, a, 0b0100)  # unrelated atoms in MO(2)


# -- atom orthogonality relations ------------------------------------------


def test_relation_from_pairs_roundtrip():
    rel = AtomOrthogonality.from_pairs(4, [(0, 1), (2, 3)])
    assert rel.related(0, 1) and rel.related(1, 0)
    assert not rel.related(0, 2)
    assert sorted(rel.pairs()) == [(0, 1), (2, 3)]
    assert rel.polar_of(0b0001) == 0b0010
    assert rel.polar_of(0) == 0b1111  # polar of the empty set is everything
    rel.validate()


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


def test_asymmetric_polars_rejected():
    rel = AtomOrthogonality(2, [0b10, 0b00])
    with pytest.raises(RelationError):
        rel.validate()


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
