"""Closure-system lattice core: construction, validation, meets/joins."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import seplat
from seplat.bitset import atoms_of, mask_of, popcount
from seplat.errors import ForeignElementError, ValidationError
from seplat.lattice import Lattice


def family_to_masks(fam):
    return [mask_of(s) for s in fam]


def lattice_from_oracle(fam, n):
    return Lattice.from_closed_family(n, family_to_masks(fam))


# -- construction and validation ---------------------------------------


def test_validate_mode_accepts_mo_family():
    lat = lattice_from_oracle(oracles.mo_family(2), 4)
    assert lat.atom_count == 4
    assert len(lat) == 6
    assert lat.bottom == 0
    assert lat.top == 0b1111


def test_complete_mode_closes_partial_seeds():
    # seeds missing the bottom, the singletons, and an intersection
    lat = Lattice.from_closed_family(3, [0b011, 0b110], mode="complete")
    lat.validate()
    assert 0 in lat.closed_sets
    assert 0b010 in lat.closed_sets  # the pairwise intersection
    assert lat.top == 0b111


def test_complete_mode_output_passes_validate_mode():
    fam = Lattice.from_closed_family(4, [0b0111, 0b1110, 0b1011], mode="complete")
    again = Lattice.from_closed_family(4, fam.closed_sets, mode="validate")
    assert again == fam


def test_validate_rejects_missing_top():
    with pytest.raises(ValidationError) as exc:
        Lattice.from_closed_family(2, [0, 0b01, 0b10])
    assert "full" in str(exc.value)


def test_validate_rejects_missing_bottom():
    with pytest.raises(ValidationError) as exc:
        Lattice.from_closed_family(2, [0b01, 0b10, 0b11])
    assert "empty" in str(exc.value)


def test_validate_rejects_missing_singleton():
    with pytest.raises(ValidationError) as exc:
        Lattice.from_closed_family(2, [0, 0b01, 0b11])
    assert "singleton" in str(exc.value)


def test_validate_rejects_open_intersection():
    # {0,1} and {1,2} closed but {1} missing makes the family not
    # intersection-closed; the singleton law fires first, so use a
    # family where all singletons exist but a 2-2 intersection is open.
    sets = [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1110, 0b1111]
    with pytest.raises(ValidationError) as exc:
        Lattice.from_closed_family(4, sets)
    assert "intersection" in str(exc.value)
    assert exc.value.witness is not None


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Lattice.from_closed_family(1, [0, 1], mode="nonsense")


def test_complete_mode_builds_wide_families():
    # 70 atoms: masks wider than a machine word
    lat = Lattice.from_closed_family(70, [1 << 69 | 1], mode="complete")
    assert lat.atom_count == 70
    assert len(lat) == 73  # bottom, 70 atoms, {0, 69}, top
    assert lat.join((1, 1 << 69)) == 1 << 69 | 1
    lat.validate()


def test_atom_labels_default_and_custom():
    lat = Lattice.from_closed_family(2, [0, 1, 2, 3], atom_labels=("x", "y"))
    assert lat.label_of(0b01) == "{x}"
    assert lat.label_of(0b11) == "{x,y}"
    plain = Lattice.from_closed_family(2, [0, 1, 2, 3])
    assert plain.label_of(0b10) == "{1}"


def test_element_membership_and_require():
    lat = lattice_from_oracle(oracles.mo_family(2), 4)
    assert 0b0001 in lat
    assert 0b0011 not in lat
    with pytest.raises(ForeignElementError):
        lat.require(0b0011)


# -- meets and joins against the brute oracle ---------------------------


@pytest.mark.parametrize(
    "fam,n",
    [
        (oracles.mo_family(2), 4),
        (oracles.mo_family(3), 6),
        (oracles.boolean_family(3), 3),
        (oracles.boolean_family(4), 4),
    ],
)
def test_joins_match_brute_oracle(fam, n):
    lat = lattice_from_oracle(fam, n)
    for x in lat:
        for y in lat:
            want = mask_of(oracles.brute_join(fam, [frozenset(atoms_of(x)), frozenset(atoms_of(y))]))
            assert lat.join((x, y)) == want


def test_meet_is_intersection():
    lat = lattice_from_oracle(oracles.mo_family(3), 6)
    for x in lat:
        for y in lat:
            assert lat.meet((x, y)) == x & y


def test_empty_meet_and_join():
    lat = lattice_from_oracle(oracles.mo_family(2), 4)
    assert lat.meet(()) == lat.top
    assert lat.join(()) == lat.bottom


def test_join_is_least_upper_bound():
    lat = lattice_from_oracle(oracles.mo_family(2), 4)
    for x in lat:
        for y in lat:
            j = lat.join((x, y))
            assert (x | y) & ~j == 0  # upper bound
            for z in lat:
                if (x | y) & ~z == 0:
                    assert j & ~z == 0  # least among closed upper bounds


@pytest.mark.parametrize(
    "fam,n",
    [(oracles.mo_family(2), 4), (oracles.boolean_family(3), 3)],
)
def test_lattice_laws_exhaustive(fam, n):
    lat = lattice_from_oracle(fam, n)
    elems = lat.closed_sets
    for x, y in itertools.product(elems, repeat=2):
        assert lat.meet((x, lat.join((x, y)))) == x  # absorption
        assert lat.join((x, lat.meet((x, y)))) == x
        assert lat.meet((x, y)) == lat.meet((y, x))
        assert lat.join((x, y)) == lat.join((y, x))
    for x, y, z in itertools.product(elems, repeat=3):
        assert lat.meet((lat.meet((x, y)), z)) == lat.meet((x, lat.meet((y, z))))
        assert lat.join((lat.join((x, y)), z)) == lat.join((x, lat.join((y, z))))


def test_leq_and_closure():
    lat = lattice_from_oracle(oracles.mo_family(2), 4)
    assert lat.leq(0, 0b0001)
    assert lat.leq(0b0001, lat.top)
    assert not lat.leq(0b0001, 0b0010)
    assert lat.closure(0b0011) == lat.top
    assert lat.closure(0b0001) == 0b0001


# -- covers, atoms, coatoms ---------------------------------------------


def test_atoms_are_covers_of_bottom():
    for fam, n in [(oracles.mo_family(2), 4), (oracles.boolean_family(3), 3)]:
        lat = lattice_from_oracle(fam, n)
        assert set(lat.atoms()) == set(lat.upper_covers(lat.bottom))
        assert list(lat.atoms()) == [1 << a for a in range(n)]


def test_coatoms_are_co_covers_of_top():
    lat = lattice_from_oracle(oracles.boolean_family(3), 3)
    coats = set(lat.coatoms())
    assert coats == {0b011, 0b101, 0b110}
    for c in coats:
        assert lat.covers_pair(c, lat.top)


def test_cover_relation_in_boolean_cube():
    lat = lattice_from_oracle(oracles.boolean_family(3), 3)
    for lo, hi in lat.covers():
        assert popcount(hi) == popcount(lo) + 1


# -- structural predicates ----------------------------------------------


def test_mo_and_boolean_are_coatomistic(mo2, b3):
    assert mo2[0].is_coatomistic()
    assert b3[0].is_coatomistic()


def test_covering_property_holds_on_mo_and_boolean(mo2, b3):
    assert mo2[0].has_covering_property()
    assert b3[0].has_covering_property()


WITNESS_FAMILY = [0, 0b001, 0b010, 0b100, 0b011, 0b111]


def test_witness_family_fails_covering_property():
    lat = Lattice.from_closed_family(3, WITNESS_FAMILY)
    # join({2}, atom 0) = top, which does not cover {2}: {0,1,2} > {0,1} > {2}
    # fails because {2} v {0} = {0,1,2} while {0,1} lies strictly between.
    assert not lat.has_covering_property()


def test_witness_family_not_coatomistic():
    lat = Lattice.from_closed_family(3, WITNESS_FAMILY)
    # coatoms are {0,1} and {1,2}? -- the maximal proper sets are {0,1}, {1,2}?
    # {1,2} is not in the family; maximal proper members are {0,1} and {2}.
    # their meets cannot produce {0} or {1}.
    assert not lat.is_coatomistic()


def test_equality_and_hash():
    a = lattice_from_oracle(oracles.mo_family(2), 4)
    b = lattice_from_oracle(oracles.mo_family(2), 4)
    assert a == b
    assert hash(a) == hash(b)
    assert a != lattice_from_oracle(oracles.boolean_family(4), 4)


# -- property-based: random closure systems ------------------------------


@st.composite
def random_closure_system(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    n_seeds = draw(st.integers(min_value=0, max_value=8))
    seeds = [draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(n_seeds)]
    return n, seeds


@given(random_closure_system())
@settings(max_examples=150, deadline=None)
def test_completed_families_are_valid_lattices(data):
    n, seeds = data
    lat = Lattice.from_closed_family(n, seeds, mode="complete")
    lat.validate()
    fam = {frozenset(atoms_of(m)) for m in lat.closed_sets}
    for x in lat:
        for y in lat:
            want = mask_of(oracles.brute_join(fam, [frozenset(atoms_of(x)), frozenset(atoms_of(y))]))
            assert lat.join((x, y)) == want
            assert lat.meet((x, y)) == x & y


# -- property-based: generator scans against all-pairs references -----------
#
# `closure`, `validate` and `covers_pair` scan only the meet-irreducibles or
# the atoms of a difference; each is compared here with the brute-force scan
# over every member or pair that it replaced.


def as_sets(masks):
    return {frozenset(atoms_of(m)) for m in masks}


@st.composite
def complete_lattices(draw, max_atoms=8):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    return Lattice.from_closed_family(n, seeds, mode="complete")


@st.composite
def raw_families(draw, max_atoms=8):
    """Families with top, bottom and every singleton plus a few random
    sets: left as they are, closed under intersection by the oracle, or
    closed and then missing one member that is not meet-irreducible, which
    leaves few pairs whose intersection is missing."""
    n = draw(st.integers(min_value=3, max_value=max_atoms))
    rnd = draw(st.randoms(use_true_random=False))
    extra = [rnd.getrandbits(n) for _ in range(rnd.randint(2, 6))]
    fam = as_sets({0, (1 << n) - 1, *(1 << a for a in range(n)), *extra})
    how = draw(st.sampled_from(["raw", "closed", "closed minus one"]))
    if how != "raw":
        fam = oracles.intersection_closure(fam)
    irreducible = oracles.meet_irreducibles(fam)
    optional = sorted(tuple(sorted(s)) for s in fam - irreducible if 1 < len(s) < n)
    if how == "closed minus one" and optional:
        fam.discard(frozenset(rnd.choice(optional)))
    return n, [mask_of(s) for s in fam]


@given(complete_lattices(), st.lists(st.integers(min_value=0), max_size=20))
@settings(max_examples=150, deadline=None)
def test_closure_matches_intersection_of_all_supersets(lat, raws):
    fam = as_sets(lat)
    for raw in raws:
        raw &= lat.top
        want = oracles.brute_join(fam, [frozenset(atoms_of(raw))])
        assert lat.closure(raw) == mask_of(want)


@given(raw_families())
@example(
    (8, [0, 255, *(1 << a for a in range(8)), 0b11111, 0b1100111, 0b10101011, 0b111, 0b1011, 0b100011])
)
@settings(max_examples=200, deadline=None)
def test_validate_matches_the_pairwise_oracle(data):
    # The example lacks only the triple intersection {0, 1} of {0..4},
    # {0, 1, 2, 5, 6} and {0, 1, 3, 5, 7}: every pair of its
    # meet-irreducibles intersects inside the family.
    n, masks = data
    fam = as_sets(masks)
    lat = Lattice(n, masks)
    if not oracles.missing_intersections(fam):
        lat.validate()
        return
    with pytest.raises(ValidationError) as exc:
        lat.validate()
    assert exc.value.law == "family is closed under intersection"
    x, y = map(frozenset, exc.value.witness)
    assert x in fam and y in fam and x & y not in fam


@given(complete_lattices())
@settings(max_examples=100, deadline=None)
def test_covers_pair_matches_the_cover_relation(lat):
    covers = set(lat.covers())
    assert {(frozenset(atoms_of(x)), frozenset(atoms_of(y))) for x, y in covers} == (
        oracles.brute_covers(as_sets(lat))
    )
    for x in lat:
        for y in lat:
            assert lat.covers_pair(x, y) == ((x, y) in covers)
