"""Every lattice seplat constructs is the complete-mode closure of its
generators, built in one kernel call and not validated again."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seplat
from seplat import Lattice, _kernels
from seplat.bitset import canonical_family, mask_of
from seplat.errors import RelationError
from seplat.ortho import AtomOrthogonality, closure_from_orthogonality
from seplat.product import _generator_seeds, sharp_relation

import oracles


# -- complete mode against the two-step build ------------------------------


@st.composite
def seed_lists(draw):
    """An atom count and a shuffled seed list over it: random masks with
    duplicates, and bottom, top and the singletons each added or not."""
    n = draw(st.integers(min_value=0, max_value=8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    masks += draw(st.lists(st.sampled_from(masks), max_size=3)) if masks else []
    if draw(st.booleans()):
        masks.append(0)
    if draw(st.booleans()):
        masks.append((1 << n) - 1)
    if draw(st.booleans()):
        masks += [1 << a for a in range(n)]
    return n, draw(st.permutations(masks))


@given(seed_lists(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_complete_mode_equals_closing_then_validating(data, rnd):
    n, seeds = data
    lat = Lattice.from_closed_family(n, seeds, mode="complete")
    singletons = [1 << a for a in range(n)]
    want = oracles.close_then_validate(Lattice, n, [*seeds, 0, *singletons])
    assert lat.closed_sets == want.closed_sets
    lat.validate()
    shuffled = list(seeds)
    rnd.shuffle(shuffled)
    top = (1 << n) - 1
    closed = _kernels.close_under_intersection(seeds, top)
    assert closed == set(oracles.close_by_worklist([*seeds, 0, *singletons], top))
    assert _kernels.close_under_intersection(shuffled, top) == closed
    assert _kernels.close_under_intersection(reversed(seeds), top) == closed


# -- each construction's generators close to its lattice -------------------


def assert_generators_close_to(generators, lattice):
    """The closure of the generators alone holds bottom and every
    singleton, so complete mode adds nothing to it, and it is the family."""
    closed = oracles.close_by_worklist(generators, lattice.top)
    assert 0 in closed
    assert all(1 << a in closed for a in range(lattice.atom_count))
    assert canonical_family(closed) == lattice.closed_sets


def _random_factors(rng, count):
    pairs = []
    for _ in range(count):
        factors = []
        for _ in range(2):
            n = rng.randint(1, 4)
            seeds = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
            factors.append(Lattice.from_closed_family(n, seeds, mode="complete"))
        pairs.append(tuple(factors))
    return pairs


def test_the_generator_route_needs_no_added_sets(mo2):
    pairs = _random_factors(random.Random(18), 30)
    pairs.append((seplat.build_subspace_lattice(2, 3), mo2[0]))
    for left, right in pairs:
        prod = seplat.aerts_product_general(left, right)
        assert_generators_close_to(_generator_seeds(left, right), prod.base)


@pytest.mark.parametrize(
    "left_name,right_name",
    [
        ("mo1", "mo1"),
        ("mo1", "mo2"),
        ("mo2", "mo3"),
        ("mo3", "mo3"),
        ("b3", "mo2"),
        ("mo2", "b3"),
    ],
)
def test_the_sharp_route_needs_no_added_sets(left_name, right_name, request):
    left, o1 = request.getfixturevalue(left_name)
    right, o2 = request.getfixturevalue(right_name)
    prod = seplat.aerts_product_sharp(left, o1, right, o2)
    assert_generators_close_to(sharp_relation(left, o1, right, o2).polars, prod.base)


def test_biorthogonal_closure_needs_no_added_sets():
    rng = random.Random(18)
    built = 0
    while built < 40:
        n = rng.randint(1, 7)
        pairs = [pq for pq in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        rel = AtomOrthogonality.from_pairs(n, pairs)
        try:
            rel.validate()
        except RelationError:
            continue
        lat, _ = closure_from_orthogonality(n, rel)
        assert_generators_close_to(rel.polars, lat)
        built += 1


@pytest.mark.parametrize("q,d", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_subspace_lattices_need_no_added_sets(q, d):
    lat = seplat.build_subspace_lattice(q, d)
    field = oracles.FieldOracle(q)
    points = [tuple(int(c) for c in label) for label in lat.atom_labels]

    def dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = field.add(acc, field.mul(a, b))
        return acc

    hyperplanes = [mask_of(i for i, v in enumerate(points) if dot(a, v) == 0) for a in points]
    assert_generators_close_to(hyperplanes, lat)


def test_the_boolean_coatoms_need_no_added_sets():
    for n in range(6):
        lat, _ = seplat.build_boolean(n)
        assert_generators_close_to([lat.top & ~(1 << a) for a in range(n)], lat)


# -- one kernel call, no validation ------------------------------------------


def test_constructions_close_once_and_never_validate(monkeypatch, mo2, mo3, b3):
    gf2_3 = seplat.build_subspace_lattice(2, 3)
    relation = AtomOrthogonality.from_pairs(4, [(0, 1), (2, 3)])
    builds = [
        lambda: seplat.aerts_product_general(mo2[0], mo3[0]),
        lambda: seplat.aerts_product_general(gf2_3, mo2[0]),
        lambda: seplat.aerts_product_sharp(*mo2, *mo3),
        lambda: seplat.aerts_product_sharp(*b3, *mo2),
        lambda: closure_from_orthogonality(4, relation),
        seplat.build_two,
        lambda: seplat.build_mo(3),
        lambda: seplat.build_boolean(4),
        lambda: seplat.build_subspace_lattice(3, 3),
    ]
    calls = []
    close = _kernels.close_under_intersection

    def counting(seeds, universe):
        calls.append(universe)
        return close(seeds, universe)

    def refuse(self):
        raise AssertionError("a constructed lattice was validated")

    monkeypatch.setattr(_kernels, "close_under_intersection", counting)
    monkeypatch.setattr(Lattice, "validate", refuse)
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1
