"""Kernel layer: agreement with brute force and algebraic properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from seplat import _kernels


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


def brute_block_subsets(perms, n):
    """Reference for invariant_subsets: nonempty A with u(A) ∩ A ∈
    {u(A), ∅} for every permutation u."""
    out = []
    for a in range(1, 1 << n):
        ok = True
        for p in perms:
            img = 0
            for i in range(n):
                if a >> i & 1:
                    img |= 1 << p[i]
            if img & a not in (img, 0):
                ok = False
                break
        if ok:
            out.append(a)
    return out


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
    want = brute_closure(seeds, universe)
    assert _kernels.close_under_intersection(seeds, universe) == want


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=12)
)
@settings(max_examples=200, deadline=None)
def test_closure_is_a_closure_operator(seeds):
    universe = (1 << 10) - 1
    fam = _kernels.close_under_intersection(seeds, universe)
    assert universe in fam
    assert set(seeds) <= set(fam)  # extensive
    members = set(fam)
    for x in fam:
        for y in fam:
            assert x & y in members  # intersection-closed
    assert _kernels.close_under_intersection(fam, universe) == fam  # idempotent


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
    want = brute_block_subsets(perms, n)
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
    assert _kernels.family_preserved(perm, family, n) == want


def test_family_preserved_drops_atoms_past_n_atoms():
    # atom 2 lies past n_atoms = 2, so {0, 2} maps to {1} under the swap
    assert _kernels.family_preserved((1, 0), [0b001, 0b010, 0b101], 2)
    assert not _kernels.family_preserved((1, 0), [0b010, 0b101], 2)


# -- wide masks --------------------------------------------------------------


def test_kernels_handle_wide_universes():
    # 70 atoms: masks wider than a machine word
    universe = (1 << 70) - 1
    seeds = [1 << 69 | 1, (1 << 70) - 2]
    fam = _kernels.close_under_intersection(seeds, universe)
    assert fam == brute_closure(seeds, universe)
    assert _kernels.family_preserved(tuple(range(70)), fam, 70)
    # reversing atoms 1..68 fixes every member; a rotation moves {69}
    mirror = (0,) + tuple(range(68, 0, -1)) + (69,)
    assert _kernels._mask_action(mirror)(1 << 1 | 1 << 69) == 1 << 68 | 1 << 69
    assert _kernels.family_preserved(mirror, fam, 70)
    assert not _kernels.family_preserved(tuple(range(1, 70)) + (0,), fam, 70)


def test_backend_reported():
    assert _kernels.BACKEND == "pure"
