"""Kernel layer: agreement with brute force and algebraic properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

import seplat
from seplat import _kernels
from seplat.bitset import canonical_family, mask_of
from seplat.product import sharp_relation

import oracles


def brute_closure(seeds, universe):
    found = set(seeds) | {universe}
    changed = True
    while changed:
        changed = False
        for x in list(found):
            for y in list(found):
                if x & y not in found:
                    found.add(x & y)
                    changed = True
    return sorted(found)


def with_atoms(seeds, universe):
    """The seeds followed by bottom and every singleton of `universe`,
    which the closure kernel adds to its seeds itself."""
    return [*seeds, 0, *(1 << a for a in range(universe.bit_length()) if universe >> a & 1)]


# -- closure kernel -----------------------------------------------------


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=10),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_closure_matches_brute_force(data):
    n, seeds = data
    universe = (1 << n) - 1
    want = brute_closure(with_atoms(seeds, universe), universe)
    assert _kernels.close_under_intersection(seeds, universe) == set(want)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=12)
)
@settings(max_examples=200, deadline=None)
def test_closure_is_a_closure_operator(seeds):
    universe = (1 << 10) - 1
    fam = _kernels.close_under_intersection(seeds, universe)
    assert universe in fam
    assert set(with_atoms(seeds, universe)) <= fam  # extensive
    members = set(fam)
    for x in fam:
        for y in fam:
            assert x & y in members  # intersection-closed
    assert _kernels.close_under_intersection(fam, universe) == fam  # idempotent


def test_closure_intersects_only_members_of_three_atoms_or_more():
    # The MO(4)×MO(4) polars close to 1714 members, 81 of them with three
    # atoms or more.  Each seed meets only those found before it, so the
    # ANDs are bounded by seeds × 81, not seeds × 1714, whatever the
    # timing.
    ands = []

    class CountingMask(int):
        """An atom mask that records each mask it is intersected with."""

        def __and__(self, other):
            ands.append(other)
            return int.__and__(self, other)

    mo4, ortho4 = seplat.build_mo(4)
    polars = sharp_relation(mo4, ortho4, mo4, ortho4).polars
    top = (1 << len(polars)) - 1
    fam = _kernels.close_under_intersection(map(CountingMask, polars), top)
    assert fam == set(oracles.close_by_worklist(with_atoms(polars, top), top))
    wide = [x for x in fam if x.bit_count() > 2]
    assert (len(fam), len(wide), len(polars)) == (1714, 81, 64)
    assert ands and all(c.bit_count() > 2 for c in ands)
    assert len(ands) <= len(polars) * len(wide)


# -- permutation application --------------------------------------------


@given(
    st.integers(min_value=1, max_value=20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.permutations(range(n)),
            st.integers(min_value=0, max_value=(1 << n) - 1),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_byte_table_application(data):
    n, perm, mask = data
    perm = tuple(perm)
    act = _kernels._mask_action(perm)
    want = 0
    for i in range(n):
        if mask >> i & 1:
            want |= 1 << perm[i]
    assert act(mask) == want


# -- invariant (block-condition) subsets ---------------------------------


def _perm_lists(n):
    """Up to 12 permutations of range(n), the identity among the draws,
    with repeats: a list is followed by a copy of its first half."""
    one = st.one_of(st.just(tuple(range(n))), st.permutations(range(n)).map(tuple))
    return st.lists(one, max_size=8).flatmap(
        lambda ps: st.permutations(ps + ps[: len(ps) // 2])
    )


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), _perm_lists(n))
    )
)
@settings(max_examples=200, deadline=None)
def test_invariant_subsets_match_brute_force(data):
    n, perms = data
    perms = [tuple(p) for p in perms]
    want = oracles.invariant_subsets_sweep(perms, n)
    assert _kernels.invariant_subsets(perms, n) == want


def test_invariant_subsets_identity_only():
    assert _kernels.invariant_subsets([(0, 1, 2)], 3) == list(range(1, 8))


# -- family preservation --------------------------------------------------


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.permutations(range(n)),
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=12),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_family_preserved_agreement(data):
    n, perm, family = data
    perm = tuple(perm)
    family = sorted(set(family))
    members = set(family)

    def image(mask):
        img = 0
        for i in range(n):
            if mask >> i & 1:
                img |= 1 << perm[i]
        return img

    want = all(image(m) in members for m in family)
    assert _kernels.family_preserved(perm, family, members) == want


# -- wide masks --------------------------------------------------------------


def test_kernels_handle_wide_universes():
    # 70 atoms: masks wider than a machine word
    universe = (1 << 70) - 1
    seeds = [1 << 69 | 1, (1 << 70) - 2]
    fam = _kernels.close_under_intersection(seeds, universe)
    assert fam == set(brute_closure(with_atoms(seeds, universe), universe))
    assert _kernels.family_preserved(tuple(range(70)), fam, set(fam))
    # reversing atoms 1..68 fixes every member; a rotation moves {69}
    mirror = (0,) + tuple(range(68, 0, -1)) + (69,)
    assert _kernels._mask_action(mirror)(1 << 1 | 1 << 69) == 1 << 68 | 1 << 69
    assert _kernels.family_preserved(mirror, fam, set(fam))
    assert not _kernels.family_preserved(tuple(range(1, 70)) + (0,), fam, set(fam))


def test_backend_reported():
    assert _kernels.BACKEND == "pure"


# -- closure and canonical order against the routines they replaced ---------


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=8),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_closure_matches_the_worklist_oracle(data):
    n, seeds = data
    universe = (1 << n) - 1
    want = oracles.close_by_worklist(with_atoms(seeds, universe), universe)
    assert _kernels.close_under_intersection(seeds, universe) == set(want)


WIDE = 130

wide_masks = st.one_of(
    st.integers(min_value=0, max_value=(1 << WIDE) - 1),
    st.sets(st.integers(min_value=0, max_value=WIDE - 1), max_size=6).map(mask_of),
)


@given(st.lists(wide_masks, max_size=30))
@settings(max_examples=300, deadline=None)
def test_canonical_order_is_the_atom_tuple_order(masks):
    masks = [*masks, 0, (1 << WIDE) - 1]
    assert canonical_family(masks) == tuple(sorted(set(masks), key=oracles.family_key))
