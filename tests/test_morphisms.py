"""Automorphisms, factorization, orthocomplementation search,
order isomorphism, and the product characterization."""

import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seplat
from seplat import Lattice, _kernels
from seplat.bitset import atoms_of, full_mask, mask_of
from seplat.errors import (
    CharacterizationError,
    FactorizationError,
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


def _pasch() -> Lattice:
    """Every pair closed, and the four triples of the Pasch configuration:
    the pair counts form an octahedron whose other four faces are no
    members, so a map keeping the pair counts need not be an isomorphism."""
    fam = [mask_of(c) for r in range(3) for c in itertools.combinations(range(6), r)]
    fam += [mask_of(t) for t in ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))]
    return Lattice.from_closed_family(6, fam + [full_mask(6)])


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
    perms = [u.perm for u in aut_mo2]
    assert oracles.is_group(perms)
    assert perms == sorted(perms)
    group_b3 = seplat.enumerate_automorphisms(b3[0])
    assert oracles.is_group(u.perm for u in group_b3)


def test_product_automorphism_count(aut_prod22):
    assert len(aut_prod22) == 24 * 24 * 2 == 1152


def test_automorphism_order_past_the_old_atom_cap():
    # 25 atoms of a height-two lattice: every atom permutation is an
    # automorphism, so the transversals hold 25, 24, ..., 1 maps.
    group = seplat.enumerate_automorphisms(_wide_mo_like(25))
    assert group.order == math.factorial(25)
    assert len(group.generators) == 24 * 25 // 2


@pytest.mark.parametrize(
    "m,n,order",
    [(3, 3, 2 * math.factorial(6) ** 2), (4, 4, 2 * math.factorial(8) ** 2)],
    ids=["mo3xmo3", "mo4xmo4"],
)
def test_automorphism_orders_of_mo_squares(m, n, order):
    # Each factor's atoms permute freely, and the swap exchanges the factors.
    prod = seplat.aerts_product_sharp(*seplat.build_mo(m), *seplat.build_mo(n))
    group = seplat.enumerate_automorphisms(prod.base)
    assert len(group) == order
    assert all(u.preserves(prod.base) for u in group.generators)


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


@given(complete_lattices())
@example(Lattice(0, [0]))
@example(seplat.build_two())
@settings(max_examples=150, deadline=None)
def test_coatoms_and_coatomisticity_match_the_oracle(lat):
    got = lat.coatoms()
    assert got == tuple(s for s in lat.closed_sets if s in set(got))  # family order
    fam = family_as_sets(lat)
    assert {frozenset(atoms_of(m)) for m in got} == oracles.coatoms(fam)
    assert lat.is_coatomistic() == oracles.is_coatomistic(fam)


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
        want = _kernels.family_preserved(perm, fam, lat)
        assert _kernels.family_preserved(perm, mi, lat) == want
        assert Automorphism(perm).preserves(lat) == want


@given(complete_lattices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_family_preserved_into_another_lattice(lat, rnd):
    # The target is a relabelled copy: the meet-irreducibles map into it
    # exactly when the atom map carries the whole family onto it.
    n = lat.atom_count
    relabel = list(range(n))
    rnd.shuffle(relabel)
    copy = Lattice.from_closed_family(n, map(_kernels._mask_action(relabel), lat))
    mi = lat.meet_irreducibles()
    assert _kernels.family_preserved(relabel, mi, copy)
    for _ in range(8):
        perm = list(range(n))
        rnd.shuffle(perm)
        want = set(map(_kernels._mask_action(perm), lat)) == set(copy)
        assert _kernels.family_preserved(perm, mi, copy) == want


def test_family_preserved_rejects_a_non_isomorphism():
    # Swapping two points of the Fano plane keeps the lines through both
    # or neither, but sends a line through just one of them to a triple
    # that is no line.
    fano = seplat.build_subspace_lattice(2, 3)
    relabel = (3, 5, 0, 6, 2, 1, 4)
    copy = Lattice.from_closed_family(7, map(_kernels._mask_action(relabel), fano))
    mi = fano.meet_irreducibles()
    assert _kernels.family_preserved(relabel, mi, copy)
    swapped = (relabel[1], relabel[0]) + relabel[2:]
    assert not _kernels.family_preserved(swapped, mi, copy)
    assert seplat.isomorphic(fano, copy) is not None


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


@pytest.mark.parametrize("atomless_left", [True, False])
def test_empty_pair_map_factors_into_identities(mo1, atomless_left):
    # With an atomless factor there are no pair atoms, and the empty map is
    # the pair map of the two identities.
    empty = Lattice(0, [0])
    left, right = (empty, mo1[0]) if atomless_left else (mo1[0], empty)
    prod = seplat.aerts_product_general(left, right)
    res = seplat.factor_automorphism(prod, Automorphism(()))
    assert (res.side, res.left_map, res.right_map) == (
        "straight",
        tuple(range(left.atom_count)),
        tuple(range(right.atom_count)),
    )


def test_non_automorphism_fails_factorization(prod22):
    # swapping two atoms of one row warps every column through that row
    perm = list(range(16))
    perm[0], perm[1] = perm[1], perm[0]
    with pytest.raises(FactorizationError) as exc:
        seplat.factor_automorphism(prod22, Automorphism(tuple(perm)))
    assert "column images" in exc.value.step


def test_non_permutations_are_rejected(prod22):
    # a mask map sending every row onto row 0, and a bare atom-image tuple
    rows = {prod22.row(i) for i in range(4)}

    def collapse(mask):
        return prod22.row(0) if mask in rows else mask

    for auto in (collapse, tuple(range(16))):
        with pytest.raises(ValidationError) as exc:
            seplat.factor_automorphism(prod22, auto)
        assert exc.value.law == "automorphism is a permutation of the atoms"


@pytest.mark.parametrize("length", [4, 15, 17])
def test_permutations_of_other_lengths_are_rejected(prod22, length):
    with pytest.raises(ValidationError) as exc:
        seplat.factor_automorphism(prod22, Automorphism.identity(length))
    assert exc.value.law == "automorphism permutes the product's pair atoms"


def _factor_outcome(prod, u):
    try:
        res = seplat.factor_automorphism(prod, u)
    except FactorizationError as e:
        return "fail", e.step, e.witness
    return "ok", res.side, res.left_map, res.right_map


def _oracle_outcome(prod, u):
    try:
        return ("ok",) + oracles.factor_by_steps(prod, u)
    except oracles.FactorizationFailure as e:
        return "fail", e.step, e.witness


def _pair_maps(n: int):
    """Every straight and swapped pair permutation of a square product
    whose factors have n atoms."""
    for u1 in itertools.permutations(range(n)):
        for u2 in itertools.permutations(range(n)):
            yield Automorphism(a * n + b for a in u1 for b in u2)
            yield Automorphism(b * n + a for a in u1 for b in u2)


def test_pair_reading_agrees_with_the_steps(prod22, prod23, b3, mo2):
    # factor_automorphism reads the factor maps off the pair permutation;
    # it must give what the row/column steps give on every map.  Every
    # member of Aut(MO(2)xMO(2)) and Aut(MO(2)xMO(3)) factors; many members
    # of Aut(B3xMO(2)) do not, and the pair maps over a factor with a
    # non-automorphism atom permutation fail at the factor-map steps.
    chain = Lattice.from_closed_family(3, [0b011], mode="complete")
    prod_b3 = seplat.aerts_product_general(b3[0], mo2[0])
    rng = random.Random(2)
    instances, outcomes = [], Counter()
    for name, prod, sample in (("2x2", prod22, 1), ("2x3", prod23, 1), ("b3x2", prod_b3, 53)):
        maps = list(itertools.islice(seplat.enumerate_automorphisms(prod.base), 0, None, sample))
        n = prod.base.atom_count
        for u in maps[:200]:
            perm = list(u.perm)
            a, b = rng.sample(range(n), 2)
            perm[a], perm[b] = perm[b], perm[a]
            maps.append(Automorphism(perm))
        maps += [Automorphism(rng.sample(range(n), n)) for _ in range(200)]
        instances.append((name, prod, maps))
    instances.append(("chain", seplat.aerts_product_general(chain, chain), _pair_maps(3)))
    for name, prod, maps in instances:
        for u in maps:
            got = _factor_outcome(prod, u)
            assert got == _oracle_outcome(prod, u)
            outcomes[name, got[:2]] += 1
    assert outcomes["2x2", ("ok", "straight")] == outcomes["2x2", ("ok", "swapped")] == 576
    assert outcomes["2x3", ("ok", "straight")] == 17280
    assert outcomes["b3x2", ("ok", "straight")] > 0
    assert outcomes["b3x2", ("fail", "row image is a row or column")] > 0
    failed = {got[1] for _, got in outcomes if got[0] == "fail"}
    assert failed == {
        "row image is a row or column",
        "column images match the side choice",
        "left map is a factor automorphism",
        "right map is a factor automorphism",
        "left map is an isomorphism onto the right factor",
        "right map is an isomorphism onto the left factor",
    }
    # the steps the library drops are never reached on a permutation
    assert not failed & {
        "side choice constant across rows",
        "recomposition agrees on every pair atom",
    }


@functools.cache
def _factor_products():
    """Products keyed by their factors' atom counts: the products under one
    key take the same permutations but have different factors."""
    mo2, mo3 = seplat.build_mo(2)[0], seplat.build_mo(3)[0]
    b2, b3 = seplat.build_boolean(2)[0], seplat.build_boolean(3)[0]
    chain = Lattice.from_closed_family(3, [0b011], mode="complete")
    out = {}
    for left, right in (
        (mo2, mo2), (mo2, mo3), (b3, mo2), (chain, mo2),
        (b2, b2), (chain, b3), (b3, b3), (chain, chain),
    ):
        key = left.atom_count, right.atom_count
        out.setdefault(key, []).append(seplat.aerts_product_general(left, right))
    return out


def _line_outcome(prod, perm):
    try:
        return ("ok",) + oracles.factor_by_lines(prod, perm)
    except FactorizationError as e:
        return "fail", e.step, e.witness


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_factorization_matches_the_line_reading(data):
    # Random pair-atom permutations, rows sent to rows with a right map per
    # row, and pair maps of random factor permutations, on every product of
    # the drawn atom counts in a drawn order, each factored twice: a verdict
    # kept for one product must neither change on the second call nor
    # reach a product with other factors.
    products = _factor_products()
    n1, n2 = data.draw(st.sampled_from(sorted(products)))
    kind = data.draw(st.sampled_from(["random", "rows", "pair"]))
    if kind == "random":
        perm = data.draw(st.permutations(range(n1 * n2)))
    else:
        u1 = data.draw(st.permutations(range(n1)))
        if kind == "rows":
            u2s = [data.draw(st.permutations(range(n2))) for _ in range(n1)]
        else:
            u2s = [data.draw(st.permutations(range(n2)))] * n1
        if n1 == n2 and data.draw(st.booleans()):
            perm = [b * n2 + a for a, u2 in zip(u1, u2s) for b in u2]
        else:
            perm = [a * n2 + b for a, u2 in zip(u1, u2s) for b in u2]
    u = Automorphism(perm)
    for prod in data.draw(st.permutations(products[n1, n2])):
        want = _line_outcome(prod, u.perm)
        assert _factor_outcome(prod, u) == want
        assert _factor_outcome(prod, u) == want


def test_factor_map_verdicts_stay_with_their_product():
    # (2, 1, 0) moves the chain's pair {0, 1} off itself and permutes B3
    chain_b3, b3_b3, _ = _factor_products()[3, 3]
    u = Automorphism(a * 3 + b for a in (2, 1, 0) for b in range(3))
    for prod in (chain_b3, b3_b3, chain_b3, b3_b3):
        assert _factor_outcome(prod, u) == _line_outcome(prod, u.perm)
    assert _factor_outcome(chain_b3, u) == (
        "fail", "left map is a factor automorphism", (2, 1, 0)
    )
    assert _factor_outcome(b3_b3, u) == ("ok", "straight", (2, 1, 0), (0, 1, 2))


def _relabeled_copy(lattice, rng):
    """Copy of `lattice` with its atoms permuted by a random bijection,
    rebuilt through the public constructor, as the benchmark's seeded
    inputs are."""
    n = lattice.atom_count
    sigma = list(range(n))
    rng.shuffle(sigma)
    old = lattice.atom_labels or tuple(str(a) for a in range(n))
    labels = [""] * n
    for a in range(n):
        labels[sigma[a]] = old[a]
    return Lattice.from_closed_family(
        n, [_relabel(m, sigma) for m in lattice.closed_sets], atom_labels=labels
    )


def test_kernel_call_counts_do_not_depend_on_the_atom_labels(monkeypatch):
    # The benchmark's traced runs require every call count to repeat across
    # passes, whose inputs are relabeled copies: the count of atom-map
    # checks must be a function of the isomorphism class of the factors.
    calls = []
    family_preserved = _kernels.family_preserved

    def counted(*args):
        calls.append(None)
        return family_preserved(*args)

    monkeypatch.setattr(_kernels, "family_preserved", counted)
    factors = {
        "GF(2)^3xMO(2)": (seplat.build_subspace_lattice(2, 3), seplat.build_mo(2)[0]),
        "MO(2)xMO(2)": (seplat.build_mo(2)[0], seplat.build_mo(2)[0]),
    }
    for name, (left, right) in factors.items():
        counts = set()
        for seed in range(6):
            rng = random.Random(seed)
            l1, l2 = _relabeled_copy(left, rng), _relabeled_copy(right, rng)
            calls.clear()
            t1, t2 = seplat.enumerate_automorphisms(l1), seplat.enumerate_automorphisms(l2)
            prod = seplat.aerts_product_general(l1, l2)
            assert seplat.check_sproduct(prod, t1, t2).passed
            for u in seplat.enumerate_automorphisms(prod.base):
                seplat.factor_automorphism(prod, u)
            counts.add(len(calls))
        assert len(counts) == 1, (name, counts)


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


ORTHO_SEARCH_INSTANCES = {
    "MO(4)": lambda: seplat.build_mo(4)[0],
    "MO(2)xMO(2)": lambda: _general_product(seplat.build_mo(2)[0], seplat.build_mo(2)[0]),
    "MO(2)xMO(3)": lambda: _general_product(seplat.build_mo(2)[0], seplat.build_mo(3)[0]),
    "B(3)xMO(2)": lambda: _general_product(seplat.build_boolean(3)[0], seplat.build_mo(2)[0]),
    "GF(2)^3": lambda: seplat.build_subspace_lattice(2, 3),
}


def _general_product(left, right):
    return seplat.aerts_product_general(left, right).base


@pytest.mark.parametrize("name", sorted(ORTHO_SEARCH_INSTANCES))
def test_ortho_search_matches_the_index_order_oracle(name):
    # the forward-checked search returns the maps, and the prefixes, of
    # the search that checks each atom against the earlier atoms only
    lat = ORTHO_SEARCH_INSTANCES[name]()

    def images(found):
        return [tuple(om.images[1 << p] for p in range(lat.atom_count)) for om in found]

    full = oracles.ortho_search_by_index(lat.closed_sets, lat.atom_count)
    assert images(seplat.enumerate_orthocomplementations(lat)) == full
    for limit in (1, 2, 5):
        limited = seplat.enumerate_orthocomplementations(lat, limit=limit)
        assert images(limited) == full[:limit]
        assert images(limited) == oracles.ortho_search_by_index(
            lat.closed_sets, lat.atom_count, limit
        )


def test_ortho_search_past_24_atoms_without_orthocomplementations(mo2):
    # GF(2)^3 has no orthocomplementation, so its product with MO(2)
    # (28 atoms) has none either
    lat = _general_product(seplat.build_subspace_lattice(2, 3), mo2[0])
    assert lat.atom_count == 28
    assert seplat.enumerate_orthocomplementations(lat) == []


def test_ortho_search_counts_the_mo3_square(mo3):
    # 36 atoms, and #Ortho(MO(3))² = 15 · 15 maps, as the theorem predicts
    # for factors that meet its hypotheses
    lat = _general_product(mo3[0], mo3[0])
    assert len(seplat.enumerate_orthocomplementations(lat)) == 225


def test_ortho_search_counts_mo3_by_mo4(mo3):
    # 48 atoms, and #Ortho(MO(3)) · #Ortho(MO(4)) = 15 · 105 maps
    lat = _general_product(mo3[0], seplat.build_mo(4)[0])
    assert len(seplat.enumerate_orthocomplementations(lat)) == 1575


def test_ortho_search_counts_b3_by_mo2(mo2, b3):
    # B(3) is not weakly connected, and the product has 27 maps, not
    # #Ortho(B(3)) · #Ortho(MO(2)) = 3 (see ORTHO_OUTCOMES)
    lat = _general_product(b3[0], mo2[0])
    assert len(seplat.enumerate_orthocomplementations(lat)) == 27


def test_ortho_search_skips_lattices_with_more_meet_irreducibles(prod22):
    # The pair {0, 1} lies under a coatom; adding it leaves the 16 coatoms
    # and adds a 17th meet-irreducible.  The search would reach 9 complete
    # assignments here, none of them an orthocomplementation.
    lat = Lattice.from_closed_family(
        16, list(prod22.base.closed_sets) + [0b11], mode="validate"
    )
    assert len(lat) == 115
    assert lat.coatoms() == prod22.base.coatoms()
    assert len(lat.meet_irreducibles()) == 17
    assert not lat.is_coatomistic()
    assert seplat.enumerate_orthocomplementations(lat) == []
    assert oracles.ortho_search_by_index(lat.closed_sets, lat.atom_count) == []


@given(complete_lattices(max_atoms=6))
@example(seplat.build_mo(2)[0])
@example(seplat.build_boolean(3)[0])
@settings(max_examples=150, deadline=None)
def test_ortho_search_matches_the_oracle_on_random_lattices(lat):
    # every map the search returns, unchecked, passes the law-by-law check
    found = seplat.enumerate_orthocomplementations(lat)
    tables = [tuple(om.table[1 << p] for p in range(lat.atom_count)) for om in found]
    assert tables == oracles.ortho_search_by_index(lat.closed_sets, lat.atom_count)
    for om in found:
        seplat.validate_ortho(lat, dict(om.images))


def test_every_ortho_of_the_mixed_product_characterizes(mo2, mo3):
    prod = seplat.aerts_product_general(mo2[0], mo3[0])
    found = seplat.enumerate_orthocomplementations(prod.base)
    assert len(found) == 45
    induced = set()
    for om in found:
        res = seplat.characterize(prod.with_ortho(om), check_hypotheses=False)
        induced.add((res.induced_left, res.induced_right))
    assert len(induced) == 3 * 15


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
        (_pasch, (0, 1, 3, 2, 4, 5)),
    ],
    ids=["mo2", "b3", "gf2_3", "pasch"],
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
    # the sharp base is the generated family itself, so the isomorphism is
    # the identity on the atoms
    assert res.atom_map == tuple(range(16))
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
    # the atom map carries a freshly generated family onto the base
    act = _kernels._mask_action(res.atom_map)
    generated = seplat.aerts_product_general(mo2[0], mo3[0]).base
    assert {act(a) for a in generated} == set(prod23.base.closed_sets)
    assert len(prod23.base) == 240


@functools.cache
def _iso_instance(n2):
    """Sharp MO(2)xMO(n2) and its true join table on the coatom pairs."""
    (l, o1), (r, o2) = seplat.build_mo(2), seplat.build_mo(n2)
    prod = seplat.aerts_product_sharp(l, o1, r, o2)
    true = {
        (x1, x2): prod.base.join((prod.h1[x1], prod.h2[x2]))
        for x1 in l.coatoms()
        for x2 in r.coatoms()
    }
    return l, r, prod.base, true


def _iso_outcome(left, right, base, join_p):
    try:
        return "ok", seplat.morphisms._iso_atom_map(left, right, base, join_p)
    except CharacterizationError as e:
        return e.step, e.witness


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_iso_step_matches_the_element_wise_oracle(data):
    # Tables of four kinds: the true one, the true one moved by a random
    # base automorphism (a pair map of factor atom permutations, every one
    # of which keeps MO(n), swapped or not on a square), both of which
    # pass; random members, which mostly fail on an atom image; and the
    # true one with entries enlarged by joining other true entries, which
    # keeps the atom images and mostly fails on a cross.  A failing table
    # may fail at another iso step than the oracle's.
    n2 = data.draw(st.sampled_from((2, 3)))
    left, right, base, true = _iso_instance(n2)
    kind = data.draw(st.sampled_from(("true", "moved", "random", "enlarged")))
    if kind == "random":
        join_p = {x: data.draw(st.sampled_from(base.closed_sets)) for x in true}
    elif kind == "enlarged":
        join_p = dict(true)
        keys = sorted(true)
        for x in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
            join_p[x] = base.join((join_p[x], true[data.draw(st.sampled_from(keys))]))
    else:
        n1, m2 = left.atom_count, right.atom_count
        perm = list(range(n1 * m2))
        if kind == "moved":
            s1 = data.draw(st.permutations(range(n1)))
            s2 = data.draw(st.permutations(range(m2)))
            swap = n1 == m2 and data.draw(st.booleans())
            perm = [
                s2[j] * m2 + s1[i] if swap else s1[i] * m2 + s2[j]
                for i in range(n1)
                for j in range(m2)
            ]
        assert _kernels.family_preserved(perm, base.meet_irreducibles(), base)
        act = _kernels._mask_action(perm)
        join_p = {x: act(j) for x, j in true.items()}
    want = oracles.iso_by_elements(left, right, base, join_p)
    got = _iso_outcome(left, right, base, join_p)
    assert (got[0] == "ok") == (want[0] == "ok")
    if want[0] == "ok":
        assert got == want
    assert kind not in ("true", "moved") or got[0] == "ok"


def test_iso_step_rejects_a_base_beyond_the_generated_family():
    # The true table of a base holding the generated family and more: one
    # extra atom fails on the atom count, one extra member on the closure.
    left, right, base, true = _iso_instance(2)
    extra_atom = Lattice.from_closed_family(
        17, list(base.closed_sets) + [1 << 16, full_mask(17)]
    )
    extra_member = Lattice.from_closed_family(16, list(base.closed_sets) + [0b11])
    for bigger, witness in ((extra_atom, (16, 17, 16)), (extra_member, (0, 1))):
        assert oracles.iso_by_elements(left, right, bigger, true)[0] == "iso-bijective"
        assert _iso_outcome(left, right, bigger, true) == ("iso-bijective", witness)


def test_a_passing_characterize_builds_no_generated_product(monkeypatch, prod23):
    def refuse(*args, **kwargs):
        raise AssertionError("a product family was built")

    monkeypatch.setattr(seplat.product, "aerts_product_general", refuse)
    monkeypatch.setattr(seplat, "aerts_product_general", refuse)
    monkeypatch.setattr(seplat._kernels, "close_under_intersection", refuse)
    res = seplat.characterize(prod23, check_hypotheses=False)
    assert res.steps[-1] == "sharp-rebuild"


def test_characterize_every_searched_ortho(prod22, aut_mo2):
    found = seplat.enumerate_orthocomplementations(prod22.base)
    assert len(found) == 9
    for om in found:
        res = seplat.characterize(prod22.with_ortho(om), aut1=aut_mo2, aut2=aut_mo2)
        assert "sharp-rebuild" in res.steps
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


FACTOR_BUILDERS = {
    "MO(2)": lambda: seplat.build_mo(2)[0],
    "MO(3)": lambda: seplat.build_mo(3)[0],
    "B(2)": lambda: seplat.build_boolean(2)[0],
    "B(3)": lambda: seplat.build_boolean(3)[0],
}


@st.composite
def orthocomplemented_factors(draw):
    """A factor from FACTOR_BUILDERS with its atoms relabelled, and one of
    its orthocomplementations."""
    name = draw(st.sampled_from(sorted(FACTOR_BUILDERS)))
    lat = FACTOR_BUILDERS[name]()
    sigma = draw(st.permutations(range(lat.atom_count)))
    lat = Lattice.from_closed_family(lat.atom_count, [_relabel(s, sigma) for s in lat])
    return name, lat, draw(st.sampled_from(seplat.enumerate_orthocomplementations(lat)))


@given(orthocomplemented_factors(), orthocomplemented_factors())
@settings(max_examples=40, deadline=None)
def test_random_factors_characterize_exactly_when_both_are_mo(left, right):
    # MO(n) meets every hypothesis; B(n) is not weakly connected.
    (lname, l_lat, l_om), (rname, r_lat, r_om) = left, right
    general = seplat.aerts_product_general(l_lat, r_lat)
    sharp = seplat.aerts_product_sharp(l_lat, l_om, r_lat, r_om)
    assert general.base == sharp.base
    assert general.h1 == sharp.h1 and general.h2 == sharp.h2
    if lname.startswith("MO") and rname.startswith("MO"):
        res = seplat.characterize(sharp)
        assert res.steps[-1] == "sharp-rebuild"
        assert (res.induced_left, res.induced_right) == (l_om, r_om)
    else:
        with pytest.raises(CharacterizationError) as exc:
            seplat.characterize(sharp)
        assert exc.value.step == "factors-weakly-connected"
        assert exc.value.witness[0] == ("left" if lname.startswith("B") else "right")


# Outcome of `characterize(check_hypotheses=False)` on every
# orthocomplementation of the generator-route product: "ok", or the failing
# step with its witness, with how often each occurs.
FACTORIZATION = "orthocomplement-factorization"
ORTHO_OUTCOMES = {
    ("B(2)", "MO(2)"): {"ok": 3, (FACTORIZATION, ("right", 1, 0)): 6},
    ("MO(2)", "B(3)"): {
        "ok": 3,
        (FACTORIZATION, ("left", 0, 1)): 18,
        (FACTORIZATION, ("left", 0, 2)): 6,
    },
    ("B(3)", "MO(2)"): {
        "ok": 3,
        (FACTORIZATION, ("right", 1, 0)): 18,
        (FACTORIZATION, ("right", 2, 0)): 6,
    },
}


@pytest.mark.parametrize("names", sorted(ORTHO_OUTCOMES))
def test_characterize_outcomes_over_every_orthocomplementation(names):
    left, right = (FACTOR_BUILDERS[name]() for name in names)
    prod = seplat.aerts_product_general(left, right)
    outcomes = {}
    for om in seplat.enumerate_orthocomplementations(prod.base):
        try:
            seplat.characterize(prod.with_ortho(om), check_hypotheses=False)
            key = "ok"
        except CharacterizationError as e:
            key = (e.step, e.witness)
        outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == ORTHO_OUTCOMES[names]


def _discrete_relation(left, ortho1, right, ortho2):
    """Every two distinct pair atoms orthogonal: a separating relation
    whose closed family is every atom set."""
    n = left.atom_count * right.atom_count
    return seplat.AtomOrthogonality.from_pairs(n, itertools.combinations(range(n), 2))


def test_characterize_reports_route_disagreement(monkeypatch, mo2, mo1):
    # With the discrete relation standing in for the sharp one, its family
    # (all 256 atom sets of MO(2)xMO(1)) differs from the generated one,
    # and the witness gives both sizes.
    prod = seplat.aerts_product_sharp(*mo2, *mo1)
    monkeypatch.setattr(seplat.morphisms, "sharp_relation", _discrete_relation)
    monkeypatch.setattr(seplat.product, "sharp_relation", _discrete_relation)
    with pytest.raises(CharacterizationError) as exc:
        seplat.characterize(prod, check_hypotheses=False)
    assert (exc.value.step, exc.value.witness) == ("route-agreement", (256, 36))


def test_characterize_reports_a_polar_map_that_is_not_the_ortho(monkeypatch, prod22, mo2):
    # The sharp relation of another orthocomplementation of MO(2) closes to
    # the same family, but its polars are not the product's ortho.
    other = next(om for om in seplat.enumerate_orthocomplementations(mo2[0]) if om != mo2[1])
    real = seplat.product.sharp_relation

    def swapped(left, ortho1, right, ortho2):
        return real(left, other, right, ortho2)

    monkeypatch.setattr(seplat.morphisms, "sharp_relation", swapped)
    with pytest.raises(CharacterizationError) as exc:
        seplat.characterize(prod22, check_hypotheses=False)
    assert (exc.value.step, exc.value.witness) == ("ortho-transport", (0,))


def test_characterize_skips_hypotheses_on_request(prod22, aut_mo2):
    res = seplat.characterize(prod22, check_hypotheses=False)
    assert res.steps == [
        "delta-bijection",
        "order-isomorphism",
        "induced-orthocomplementations",
        "sharp-rebuild",
    ]


def test_characterize_past_64_pair_atoms(prod_wide, mo17, mo1):
    # the sharp-rebuild step checks the 68-atom sharp relation's polars
    # against the generated family
    res = seplat.characterize(prod_wide, check_hypotheses=False)
    assert res.steps == [
        "delta-bijection",
        "order-isomorphism",
        "induced-orthocomplementations",
        "sharp-rebuild",
    ]
    assert res.induced_left == mo17[1]
    assert res.induced_right == mo1[1]
