"""Automorphisms, factorization, orthocomplementation search,
order isomorphism, and the product characterization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seplat
from seplat import Lattice, _kernels
from seplat.bitset import atoms_of, full_mask, mask_of
from seplat.errors import (
    CharacterizationError,
    FactorizationError,
    SizeCapError,
    ValidationError,
)
from seplat.perm import Automorphism, AutoGroup

import oracles


def family_as_sets(lat):
    return {frozenset(atoms_of(m)) for m in lat.closed_sets}


def _wide_mo_like(n_atoms: int) -> Lattice:
    """Height-two lattice with the given atom count (caps bait)."""
    fam = [0, full_mask(n_atoms)] + [1 << a for a in range(n_atoms)]
    return Lattice(n_atoms, fam)


# -- automorphism enumeration ------------------------------------------------


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda: seplat.build_mo(2)[0], 24),
        (lambda: seplat.build_boolean(3)[0], 6),
        (lambda: seplat.build_subspace_lattice(2, 2), 6),
        (lambda: seplat.build_two(), 1),
        (lambda: seplat.build_mo(1)[0], 2),
    ],
)
def test_automorphism_counts_match_brute_force(make, expected):
    lat = make()
    group = seplat.enumerate_automorphisms(lat)
    assert len(group) == expected
    brute = oracles.brute_automorphisms(family_as_sets(lat), lat.atom_count)
    assert sorted(u.perm for u in group) == sorted(brute)


def test_groups_verify_and_are_lexicographic(aut_mo2, b3):
    aut_mo2.verify_group()
    perms = [u.perm for u in aut_mo2]
    assert perms == sorted(perms)
    group_b3 = seplat.enumerate_automorphisms(b3[0])
    group_b3.verify_group()


def test_product_automorphism_count(aut_prod22):
    assert len(aut_prod22) == 24 * 24 * 2 == 1152


def test_automorphism_atom_cap():
    with pytest.raises(SizeCapError):
        seplat.enumerate_automorphisms(_wide_mo_like(25))


def test_automorphism_rejects_non_permutations():
    for perm in ((0, 0, 1), (1, 2, 3), (0, 2), (0.0, 1.0)):
        with pytest.raises(ValidationError) as exc:
            Automorphism(perm)
        assert exc.value.law == "automorphism is a permutation of the atoms"


def test_compose_rejects_mismatched_lengths():
    with pytest.raises(ValidationError) as exc:
        Automorphism((1, 0)).compose(Automorphism((0, 1, 2)))
    assert exc.value.law == "composed permutations act on the same atoms"


def test_group_rejects_members_of_another_length(mo2):
    with pytest.raises(ValidationError) as exc:
        AutoGroup(mo2[0], (Automorphism.identity(4), Automorphism.identity(3)))
    assert exc.value.law == "group members permute the lattice's atoms"
    assert exc.value.witness == (0, 1, 2)


# -- meet-irreducibles and family preservation ------------------------------


@st.composite
def complete_lattices(draw, max_atoms=10):
    """Lattices closed under intersection from a few random seed sets."""
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    return Lattice.from_closed_family(n, seeds, mode="complete")


def _relabel(mask, sigma):
    return mask_of(sigma[a] for a in atoms_of(mask))


@given(complete_lattices())
@settings(max_examples=150, deadline=None)
def test_meet_irreducibles_match_the_oracle(lat):
    got = lat.meet_irreducibles()
    assert got == tuple(s for s in lat.closed_sets if s in set(got))  # family order
    want = oracles.meet_irreducibles(family_as_sets(lat))
    assert {frozenset(atoms_of(m)) for m in got} == want
    ups = {}
    for x, _ in lat.covers():
        ups[x] = ups.get(x, 0) + 1
    assert set(got) == {x for x, k in ups.items() if k == 1}


def test_meet_irreducibles_of_products(prod23):
    assert (len(prod23.base), len(prod23.base.meet_irreducibles())) == (240, 24)
    g = seplat.build_subspace_lattice(2, 3)
    prod = seplat.aerts_product_general(g, seplat.build_mo(2)[0])
    assert (len(prod.base), len(prod.base.meet_irreducibles())) == (1728, 28)


@given(complete_lattices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_family_preserved_on_meet_irreducibles_matches_the_family(lat, rnd):
    n = lat.atom_count
    perms = []
    for _ in range(12):
        perm = list(range(n))
        rnd.shuffle(perm)
        perms.append(tuple(perm))
    if n <= 7:  # every automorphism found, and the random maps after one
        found = [u.perm for u in seplat.enumerate_automorphisms(lat)]
        perms += found
        perms += [tuple(p[q] for q in rnd.choice(found)) for p in perms[:12]]
    mi, fam = lat.meet_irreducibles(), lat.closed_sets
    for perm in perms:
        want = _kernels.family_preserved(perm, fam, n)
        assert _kernels.family_preserved(perm, mi, n) == want
        assert Automorphism(perm).preserves(lat) == want


@given(complete_lattices(max_atoms=6))
@settings(max_examples=100, deadline=None)
def test_automorphisms_of_random_lattices_match_brute_force(lat):
    group = seplat.enumerate_automorphisms(lat)
    brute = oracles.brute_automorphisms(family_as_sets(lat), lat.atom_count)
    assert [u.perm for u in group] == brute


@given(complete_lattices(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_isomorphic_finds_random_relabelled_copies(lat, rnd):
    n = lat.atom_count
    sigma = list(range(n))
    rnd.shuffle(sigma)
    other = Lattice.from_closed_family(n, [_relabel(s, sigma) for s in lat.closed_sets])
    perm = seplat.isomorphic(lat, other)
    assert perm is not None
    assert {_relabel(s, perm) for s in lat.closed_sets} == set(other.closed_sets)


# -- factorization over a product --------------------------------------------


def test_identity_factors_straight(prod22):
    ident = Automorphism.identity(16)
    res = seplat.factor_automorphism(prod22, ident)
    assert res.side == "straight" and not res.swapped
    assert res.left_map == (0, 1, 2, 3)
    assert res.right_map == (0, 1, 2, 3)


def test_swap_factors_swapped(prod22):
    perm = []
    for idx in range(16):
        i, j = prod22.pair_of(idx)
        perm.append(prod22.pair_index(j, i))
    res = seplat.factor_automorphism(prod22, Automorphism(tuple(perm)))
    assert res.side == "swapped" and res.swapped
    assert res.left_map == (0, 1, 2, 3)
    assert res.right_map == (0, 1, 2, 3)


def test_induced_pairs_factor_back(prod22, aut_mo2):
    for u1 in list(aut_mo2)[:5]:
        for u2 in list(aut_mo2)[-5:]:
            perm = tuple(
                u1.perm[i] * 4 + u2.perm[j] for i in range(4) for j in range(4)
            )
            res = seplat.factor_automorphism(prod22, Automorphism(perm))
            assert res.side == "straight"
            assert res.left_map == u1.perm
            assert res.right_map == u2.perm


def test_every_product_automorphism_factors(prod22, aut_prod22):
    sides = {"straight": 0, "swapped": 0}
    for u in aut_prod22:
        res = seplat.factor_automorphism(prod22, u)
        sides[res.side] += 1
    assert sides == {"straight": 576, "swapped": 576}


def test_non_automorphism_fails_factorization(prod22):
    # swapping two atoms of one row warps every column through that row
    perm = list(range(16))
    perm[0], perm[1] = perm[1], perm[0]
    with pytest.raises(FactorizationError) as exc:
        seplat.factor_automorphism(prod22, Automorphism(tuple(perm)))
    assert "column images" in exc.value.step


def test_non_bijective_extracted_map_fails_factorization(prod22):
    # a mask map (not a permutation) sending every row onto row 0
    rows = {prod22.row(i) for i in range(4)}

    def collapse(mask):
        return prod22.row(0) if mask in rows else mask

    with pytest.raises(FactorizationError) as exc:
        seplat.factor_automorphism(prod22, collapse)
    assert exc.value.step == "left map is a factor automorphism"
    assert exc.value.witness == (0, 0, 0, 0)


# -- orthocomplementation search ----------------------------------------------


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda: seplat.build_mo(2)[0], 3),
        (lambda: seplat.build_mo(3)[0], 15),
        (lambda: seplat.build_boolean(3)[0], 1),
        (lambda: seplat.build_subspace_lattice(2, 2), 0),
        (lambda: seplat.build_subspace_lattice(2, 3), 0),
    ],
)
def test_ortho_search_counts_match_brute_force(make, expected):
    lat = make()
    found = seplat.enumerate_orthocomplementations(lat)
    assert len(found) == expected
    brute = oracles.brute_orthocomplementations(family_as_sets(lat), lat.atom_count)
    assert len(brute) == expected
    # the found maps are pairwise distinct and already validated
    tables = {tuple(sorted(om.images.items())) for om in found}
    assert len(tables) == expected


def test_ortho_search_finds_the_builder_maps(mo2, mo3):
    for lat, om in (mo2, mo3):
        found = seplat.enumerate_orthocomplementations(lat)
        assert om in found


def test_ortho_search_on_the_product(prod22):
    found = seplat.enumerate_orthocomplementations(prod22.base)
    assert len(found) == 9
    assert prod22.ortho in found
    # exactly one of them is sharp: for every atom pair, p below the
    # orthocomplement of q iff q below the orthocomplement of p holds for
    # all of them, but only the polar map matches the sharp relation
    sharp_images = prod22.ortho.images
    assert sum(1 for om in found if om.images == sharp_images) == 1


def test_ortho_search_limit_is_a_prefix(mo3):
    full = seplat.enumerate_orthocomplementations(mo3[0])
    limited = seplat.enumerate_orthocomplementations(mo3[0], limit=5)
    assert limited == full[:5]
    assert seplat.enumerate_orthocomplementations(mo3[0], limit=0) == []


def test_ortho_search_is_deterministic(mo3):
    a = seplat.enumerate_orthocomplementations(mo3[0])
    b = seplat.enumerate_orthocomplementations(mo3[0])
    assert a == b


def test_ortho_search_atom_cap():
    with pytest.raises(SizeCapError):
        seplat.enumerate_orthocomplementations(_wide_mo_like(25))


# -- order isomorphism ---------------------------------------------------------


def test_isomorphic_reflexive_and_symmetric(mo2, prod23):
    assert seplat.isomorphic(mo2[0], mo2[0]) is not None
    assert seplat.isomorphic(prod23.base, prod23.base) is not None


@pytest.mark.parametrize(
    "make,relabel",
    [
        (lambda: seplat.build_mo(2)[0], (2, 0, 3, 1)),
        (lambda: seplat.build_boolean(3)[0], (2, 0, 1)),
        (lambda: seplat.build_subspace_lattice(2, 3), (6, 0, 5, 1, 4, 2, 3)),
    ],
    ids=["mo2", "b3", "gf2_3"],
)
def test_isomorphic_on_a_relabelled_copy(make, relabel):
    lat = make()
    n = lat.atom_count
    tables = {1 << i: 1 << relabel[i] for i in range(n)}
    fam = []
    for s in lat.closed_sets:
        m = 0
        for a in atoms_of(s):
            m |= tables[1 << a]
        fam.append(m)
    other = Lattice.from_closed_family(n, fam)
    perm = seplat.isomorphic(lat, other)
    assert perm is not None
    # the witness carries the family onto the other family
    for s in lat.closed_sets:
        image = 0
        for a in atoms_of(s):
            image |= 1 << perm[a]
        assert image in other
    assert seplat.isomorphic(other, lat) is not None


def test_isomorphic_rejects_mismatches(mo2, mo3, b3):
    assert seplat.isomorphic(mo2[0], seplat.build_boolean(2)[0]) is None
    assert seplat.isomorphic(mo3[0], b3[0]) is None
    assert seplat.isomorphic(seplat.build_boolean(4)[0], seplat.build_mo(8)[0]) is None


# -- characterization -----------------------------------------------------------


def test_characterize_recovers_the_mo_square(prod22, aut_mo2, mo2):
    res = seplat.characterize(prod22, aut1=aut_mo2, aut2=aut_mo2)
    assert res.steps == [
        "hypotheses",
        "delta-bijection",
        "order-isomorphism",
        "induced-orthocomplementations",
        "sharp-rebuild",
    ]
    assert res.induced_left == mo2[1]
    assert res.induced_right == mo2[1]
    # the regenerated product has the same base, so the isomorphism is the
    # identity on every element
    assert all(res.iso[a] == a for a in res.generated.base.closed_sets)
    # delta pairs every coatom pair with the atom of the orthogonal pair
    perp = oracles.mo_perp(2)
    for (x1, x2), atom in res.delta.items():
        (p1,), (p2,) = atoms_of(x1), atoms_of(x2)
        assert atom == prod22.singleton(perp[p1], perp[p2])
    assert set(res.delta.values()) == set(prod22.base.atoms())


def test_characterize_recovers_the_mixed_product(prod23, aut_mo2, aut_mo3, mo2, mo3):
    res = seplat.characterize(prod23, aut1=aut_mo2, aut2=aut_mo3)
    assert res.induced_left == mo2[1]
    assert res.induced_right == mo3[1]
    assert len(set(res.iso.values())) == 240


def test_characterize_every_searched_ortho(prod22, aut_mo2):
    found = seplat.enumerate_orthocomplementations(prod22.base)
    assert len(found) == 9
    for om in found:
        res = seplat.characterize(
            prod22.with_ortho(om), aut1=aut_mo2, aut2=aut_mo2, rebuild_check=False
        )
        assert "induced-orthocomplementations" in res.steps
        seplat.validate_ortho(prod22.left, res.induced_left)
        seplat.validate_ortho(prod22.right, res.induced_right)


def test_characterize_requires_an_orthocomplementation(mo2):
    bare = seplat.aerts_product_general(mo2[0], mo2[0])
    with pytest.raises(CharacterizationError) as exc:
        seplat.characterize(bare)
    assert exc.value.step == "orthocomplementation-present"


def test_characterize_rejects_disconnected_factors(b3, mo2):
    prod = seplat.aerts_product_sharp(b3[0], b3[1], mo2[0], mo2[1])
    with pytest.raises(CharacterizationError) as exc:
        seplat.characterize(prod)
    assert exc.value.step == "factors-weakly-connected"
    assert exc.value.witness[0] == "left"


def test_characterize_skips_hypotheses_on_request(prod22, aut_mo2):
    res = seplat.characterize(prod22, check_hypotheses=False, rebuild_check=False)
    assert res.steps == [
        "delta-bijection",
        "order-isomorphism",
        "induced-orthocomplementations",
    ]


def test_characterize_past_64_pair_atoms(prod_wide, mo17, mo1):
    # the sharp rebuild builds a 68-atom product of its own
    res = seplat.characterize(prod_wide, check_hypotheses=False)
    assert res.steps == [
        "delta-bijection",
        "order-isomorphism",
        "induced-orthocomplementations",
        "sharp-rebuild",
    ]
    assert res.induced_left == mo17[1]
    assert res.induced_right == mo1[1]
