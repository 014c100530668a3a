"""Builders checked against independent constructions of the same objects."""

import itertools

import pytest

import seplat
from seplat import Lattice, LatticeSpec
from seplat.bitset import atoms_of, mask_of
from seplat.errors import SizeCapError, ValidationError

import oracles


def family_as_sets(lat):
    return {frozenset(atoms_of(m)) for m in lat.closed_sets}


# -- MO(n) -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mo_family_matches_oracle(n):
    lat, om = seplat.build_mo(n)
    assert lat.atom_count == 2 * n
    assert family_as_sets(lat) == oracles.mo_family(n)
    assert lat.atom_labels == tuple(
        label for k in range(n) for label in (f"a{k}", f"a{k}'")
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mo_ortho_is_the_pairing(n):
    lat, om = seplat.build_mo(n)
    seplat.validate_ortho(lat, om)
    perp = oracles.mo_perp(n)
    for p, q in perp.items():
        assert om(1 << p) == 1 << q
    assert om(0) == lat.top and om(lat.top) == 0


def test_mo_distinct_atoms_join_to_top():
    lat, _ = seplat.build_mo(3)
    fam = family_as_sets(lat)
    for p, q in itertools.combinations(range(6), 2):
        assert lat.join((1 << p, 1 << q)) == lat.top
        assert oracles.third_atom_count(fam, p, q) == 6


def test_mo_parameter_validation():
    with pytest.raises(ValidationError):
        seplat.build_mo(0)


def test_mo1_is_the_boolean_square():
    mo1, _ = seplat.build_mo(1)
    b2, _ = seplat.build_boolean(2)
    assert seplat.isomorphic(mo1, b2) is not None


# -- Boolean lattices ----------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_boolean_family_matches_oracle(n):
    lat, om = seplat.build_boolean(n)
    assert family_as_sets(lat) == oracles.boolean_family(n)
    assert len(lat.closed_sets) == 2 ** n


def test_boolean_ortho_is_set_complement():
    lat, om = seplat.build_boolean(3)
    seplat.validate_ortho(lat, om)
    for s in lat.closed_sets:
        assert om(s) == lat.top & ~s
    assert seplat.is_orthomodular(lat, om)


def test_boolean_parameter_validation():
    with pytest.raises(ValidationError):
        seplat.build_boolean(-1)
    with pytest.raises(SizeCapError):
        seplat.build_boolean(11)


def test_two_element_lattice():
    two = seplat.build_two()
    assert two.atom_count == 1
    assert two.closed_sets == (0, 1)
    assert two.atoms() == (1,)
    assert two.coatoms() == (0,)


# -- subspace lattices ---------------------------------------------------


SUBSPACE_SIZES = {
    (2, 2): (3, 5),
    (3, 2): (4, 6),
    (4, 2): (5, 7),
    (5, 2): (6, 8),
    (2, 3): (7, 16),
    (3, 3): (13, 28),
    (2, 4): (15, 67),
}


@pytest.mark.parametrize("q,d", sorted(SUBSPACE_SIZES))
def test_subspace_lattice_sizes(q, d):
    atoms, elements = SUBSPACE_SIZES[(q, d)]
    lat = seplat.build_subspace_lattice(q, d)
    assert lat.atom_count == atoms
    assert len(lat.closed_sets) == elements
    # projective point count (q^d - 1) / (q - 1)
    assert atoms == (q ** d - 1) // (q - 1)


def _label_vectors(lat):
    """Atom index -> coordinate tuple, parsed from the labels."""
    return [tuple(int(c) for c in label) for label in lat.atom_labels]


def _mask_from_span(vectors, lat, field, d):
    points = _label_vectors(lat)
    index = {p: i for i, p in enumerate(points)}
    span = oracles.span_vectors(vectors, field, d)
    out = 0
    for v in span:
        norm = oracles.normalize_point(v, field)
        if norm is not None:
            out |= 1 << index[norm]
    return out


@pytest.mark.parametrize("q,d", [(2, 2), (2, 3), (3, 2)])
def test_subspace_meet_join_match_linear_algebra(q, d):
    lat = seplat.build_subspace_lattice(q, d)
    field = oracles.FieldOracle(q)
    points = _label_vectors(lat)
    for x in lat.closed_sets:
        basis_x = [points[a] for a in atoms_of(x)]
        for y in lat.closed_sets:
            basis_y = [points[a] for a in atoms_of(y)]
            inter = oracles.zassenhaus_intersection(basis_x, basis_y, field, d)
            assert lat.meet((x, y)) == _mask_from_span(inter, lat, field, d)
            total = oracles.subspace_sum_basis(basis_x, basis_y, field)
            assert lat.join((x, y)) == _mask_from_span(total, lat, field, d)


def test_subspace_atom_labels_are_normalized_points():
    lat = seplat.build_subspace_lattice(2, 2)
    assert lat.atom_labels == ("01", "10", "11")
    field = oracles.FieldOracle(3)
    lat3 = seplat.build_subspace_lattice(3, 2)
    for label in lat3.atom_labels:
        v = tuple(int(c) for c in label)
        assert oracles.normalize_point(v, field) == v


@pytest.mark.parametrize("q,d", [(2, 2), (2, 3)])
def test_projective_lattices_admit_no_orthocomplementation(q, d):
    # d = 2 gives an odd number of atoms over GF(2); d = 3 is the 7-point
    # plane: in both cases no candidate survives the complement laws.
    lat = seplat.build_subspace_lattice(q, d)
    assert seplat.enumerate_orthocomplementations(lat) == []
    fam = family_as_sets(lat)
    assert oracles.brute_orthocomplementations(fam, lat.atom_count) == []


def test_subspace_parameter_validation():
    with pytest.raises(ValidationError):
        seplat.build_subspace_lattice(7, 2)
    with pytest.raises(ValidationError):
        seplat.build_subspace_lattice(2, 5)


def test_gf4_arithmetic_agrees_with_oracle():
    field = oracles.FieldOracle(4)
    from seplat.builders import _Field

    lib = _Field(4)
    for a in range(4):
        for b in range(4):
            assert lib.add_table[a][b] == field.add(a, b)
            assert lib.mul_table[a][b] == field.mul(a, b)


# -- LatticeSpec dispatch -------------------------------------------------


def test_lattice_spec_builders(tmp_path):
    lat, om = LatticeSpec("mo", (2,)).build()
    assert lat == seplat.build_mo(2)[0] and om is not None

    lat, om = LatticeSpec("boolean", (3,)).build()
    assert lat == seplat.build_boolean(3)[0] and om is not None

    lat, om = LatticeSpec("subspace", (2, 2)).build()
    assert lat == seplat.build_subspace_lattice(2, 2) and om is None

    lat, om = LatticeSpec("two").build()
    assert lat == seplat.build_two() and om is None

    path = tmp_path / "mo2.json"
    source, source_om = seplat.build_mo(2)
    seplat.io.dump_lattice(str(path), source, source_om)
    lat, om = LatticeSpec("file", path=str(path)).build()
    assert lat == source and om == source_om

    with pytest.raises(ValidationError):
        LatticeSpec("moebius").build()
