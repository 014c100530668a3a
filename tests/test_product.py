"""Separated products: both routes, embeddings, and the join checks."""

import dataclasses
import itertools

import pytest

import seplat
from seplat import Lattice
from seplat.bitset import atoms_of, popcount
from seplat.product import obar, otimes

import oracles


# -- the two routes agree on orthocomplemented factors --------------------


@pytest.mark.parametrize(
    "left_name,right_name",
    [
        ("mo1", "mo1"),
        ("mo1", "mo2"),
        ("mo2", "mo2"),
        ("mo2", "mo3"),
        ("mo2", "b3"),
        ("mo17", "mo1"),  # 68 pair atoms
    ],
)
def test_routes_build_the_same_family(left_name, right_name, request):
    l_lat, l_om = request.getfixturevalue(left_name)
    r_lat, r_om = request.getfixturevalue(right_name)
    general = seplat.aerts_product_general(l_lat, r_lat)
    sharp = seplat.aerts_product_sharp(l_lat, l_om, r_lat, r_om)
    assert general.base == sharp.base
    assert general.h1 == sharp.h1 and general.h2 == sharp.h2
    assert general.route == "generators" and sharp.route == "sharp"
    assert general.ortho is None and sharp.ortho is not None


def test_mo_product_sizes_match_closed_form(prod22, prod23, prod_wide):
    assert len(prod22.base.closed_sets) == 114
    assert oracles.expected_mo_product_family_size(4, 4) == 114
    assert len(prod23.base.closed_sets) == 240
    assert oracles.expected_mo_product_family_size(4, 6) == 240
    mo3_lat, mo3_om = seplat.build_mo(3)
    prod33 = seplat.aerts_product_sharp(mo3_lat, mo3_om, mo3_lat, mo3_om)
    assert len(prod33.base.closed_sets) == 536
    assert oracles.expected_mo_product_family_size(6, 6) == 536
    assert len(prod_wide.base.closed_sets) == 1296
    assert oracles.expected_mo_product_family_size(34, 2) == 1296


def test_product_size_is_symmetric(mo2, mo3):
    ab = seplat.aerts_product_sharp(mo2[0], mo2[1], mo3[0], mo3[1])
    ba = seplat.aerts_product_sharp(mo3[0], mo3[1], mo2[0], mo2[1])
    assert len(ab.base.closed_sets) == len(ba.base.closed_sets) == 240
    assert seplat.isomorphic(ab.base, ba.base) is not None


def test_boolean_square_product_is_boolean(mo1):
    lat, om = mo1
    prod = seplat.aerts_product_sharp(lat, om, lat, om)
    # every subset of the four pair atoms is closed
    assert set(prod.base.closed_sets) == set(range(16))
    b4, _ = seplat.build_boolean(4)
    assert seplat.isomorphic(prod.base, b4) is not None


def test_atoms_are_exactly_the_pair_singletons(prod22, prod23):
    for prod in (prod22, prod23):
        n = prod.pair_count
        assert prod.base.atom_count == n
        assert set(prod.base.atoms()) == {1 << k for k in range(n)}


def test_pair_indexing_roundtrip(prod23):
    for idx in range(prod23.pair_count):
        i, j = prod23.pair_of(idx)
        assert prod23.pair_index(i, j) == idx
        assert prod23.singleton(i, j) == 1 << idx
    assert prod23.row(1) == prod23.rect(0b0010, prod23.right.top)
    assert prod23.col(2) == prod23.rect(prod23.left.top, 0b000100)


# -- orthocomplementation of the sharp product -----------------------------


def test_sharp_product_ortho_validates(prod22):
    seplat.validate_ortho(prod22.base, prod22.ortho)


def test_coatoms_are_polar_crosses(prod22):
    lat1, om1 = seplat.build_mo(2)
    lat2, om2 = seplat.build_mo(2)
    om = prod22.ortho
    coatoms = set(prod22.base.coatoms())
    seen = set()
    for i in range(4):
        for j in range(4):
            polar = om(prod22.singleton(i, j))
            assert polar == prod22.cross(om1(1 << i), om2(1 << j))
            assert popcount(polar) == 4 + 4 - 1
            seen.add(polar)
    assert seen == coatoms


def test_sharp_relation_matches_pairing_oracle(mo2, mo3):
    rel = seplat.sharp_relation(mo2[0], mo2[1], mo3[0], mo3[1])
    expected = oracles.sharp_pairs(4, oracles.mo_perp(2), 6, oracles.mo_perp(3))
    assert sorted(rel.pairs()) == sorted(expected)


# -- embeddings -----------------------------------------------------------


def test_embeddings_are_order_and_meet_preserving(prod23):
    base, left, right = prod23.base, prod23.left, prod23.right
    for lat, h in ((left, prod23.h1), (right, prod23.h2)):
        assert h[0] == 0
        assert h[lat.top] == base.top
        images = list(h.values())
        assert len(set(images)) == len(images)  # injective
        for a in lat.closed_sets:
            for b in lat.closed_sets:
                assert h[lat.meet((a, b))] == h[a] & h[b]
                assert (a & ~b == 0) == (h[a] & ~h[b] == 0)  # order embedding


def test_otimes_of_atoms_is_the_pair_singleton(prod22):
    for i in range(4):
        for j in range(4):
            assert otimes(prod22, 1 << i, 1 << j) == prod22.singleton(i, j)


def test_otimes_obar_and_rect_agree_on_closed_elements(prod22):
    for a1 in prod22.left.closed_sets:
        for a2 in prod22.right.closed_sets:
            m = otimes(prod22, a1, a2)
            assert m == obar(prod22, a1, a2) == prod22.rect(a1, a2)
            assert m in prod22.base
            assert otimes(prod22, a1, 0) == 0
            assert otimes(prod22, prod22.left.top, a2) == prod22.h2[a2]


# -- join structure ---------------------------------------------------------


def test_lateral_join_check_passes(prod22, prod23):
    for prod in (prod22, prod23):
        report = seplat.lateral_join_check(prod)
        assert report.passed and report.checked > 0
        assert bool(report)


def test_join_lemma_check_passes(prod22, prod23):
    for prod in (prod22, prod23):
        report = seplat.sproduct_join_lemma_check(prod)
        assert report.passed and report.checked > 0


def _with_base(prod, families_change):
    sets = set(prod.base.closed_sets)
    families_change(sets)
    corrupt = Lattice.from_closed_family(prod.base.atom_count, sets)
    return dataclasses.replace(prod, base=corrupt)


def test_lateral_join_check_catches_extra_closed_set(prod22):
    # adding a same-row two-set makes the lateral join of (0,0) and (0,1)
    # stop at that set instead of reaching the full row
    bad = _with_base(prod22, lambda s: s.add(0b11))
    report = seplat.lateral_join_check(bad)
    assert not report.passed
    assert any(w[0] == "right" for w in report.failures)


def test_join_lemma_check_catches_missing_two_sets(prod22):
    # a family with only rows, columns and singletons joins two skew atoms
    # straight to the top instead of their two-element set
    rows = {prod22.row(i) for i in range(4)}
    cols = {prod22.col(j) for j in range(4)}
    singles = {1 << k for k in range(16)}
    family = {0, prod22.base.top} | rows | cols | singles
    corrupt = Lattice.from_closed_family(16, family)
    bad = dataclasses.replace(prod22, base=corrupt)
    report = seplat.sproduct_join_lemma_check(bad)
    assert not report.passed
    assert any(w[0] == "two-atoms" for w in report.failures)


# -- misc -------------------------------------------------------------------


def test_product_with_trivial_factor_is_the_other_factor(mo2):
    two = seplat.build_two()
    prod = seplat.aerts_product_general(two, mo2[0])
    assert seplat.isomorphic(prod.base, mo2[0]) is not None


def test_with_ortho_attaches_and_rejects(prod22):
    general = seplat.aerts_product_general(prod22.left, prod22.right)
    attached = general.with_ortho(prod22.ortho)
    assert attached.ortho == prod22.ortho
    mo3_lat, mo3_om = seplat.build_mo(3)
    with pytest.raises(seplat.errors.ValidationError):
        general.with_ortho(mo3_om)
