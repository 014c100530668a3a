"""Kernel layer: pure/compiled agreement and algebraic properties."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seplat import _kernels
from seplat._kernels import pure

try:
    from seplat._kernels import _speedups as compiled
except ImportError:  # pragma: no cover - compiled extension optional
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled extension not built"
)


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
    assert pure.close_under_intersection(seeds, universe) == want
    if compiled is not None:
        assert compiled.close_under_intersection(seeds, universe) == want


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=12)
)
@settings(max_examples=200, deadline=None)
def test_closure_is_a_closure_operator(seeds):
    universe = (1 << 10) - 1
    fam = pure.close_under_intersection(seeds, universe)
    assert universe in fam
    assert set(seeds) <= set(fam)  # extensive
    members = set(fam)
    for x in fam:
        for y in fam:
            assert x & y in members  # intersection-closed
    assert pure.close_under_intersection(fam, universe) == fam  # idempotent


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
    act = pure._mask_action(perm)
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
    assert pure.invariant_subsets(perms, n) == want
    if compiled is not None:
        assert compiled.invariant_subsets(perms, n) == want


def test_invariant_subsets_identity_only():
    assert pure.invariant_subsets([(0, 1, 2)], 3) == list(range(1, 8))


@needs_compiled
def test_compiled_sweep_rejects_wide_masks():
    with pytest.raises(ValueError):
        compiled.invariant_subsets([tuple(range(32))], 32)


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
    assert pure.family_preserved(perm, family, n) == want
    if compiled is not None:
        assert compiled.family_preserved(perm, family, n) == want


def test_family_preserved_drops_atoms_past_n_atoms():
    # atom 2 lies past n_atoms = 2, so {0, 2} maps to {1} under the swap
    for mod in (pure, compiled) if compiled is not None else (pure,):
        assert mod.family_preserved((1, 0), [0b001, 0b010, 0b101], 2)
        assert not mod.family_preserved((1, 0), [0b010, 0b101], 2)


# -- dispatching wrappers --------------------------------------------------


def test_dispatch_handles_wide_universes():
    # 70 atoms exceeds the compiled kernels' 64-bit masks; the wrapper
    # must fall back to the pure implementation.
    universe = (1 << 70) - 1
    seeds = [1 << 69 | 1, (1 << 70) - 2]
    fam = _kernels.close_under_intersection(seeds, universe)
    assert fam == brute_closure(seeds, universe)
    perm = tuple(range(1, 70)) + (0,)
    assert _kernels.family_preserved(
        tuple(range(70)), fam, 70
    )


def test_kernel_benchmark_runs():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_kernels.py"), "--repeat", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
        check=True,
    ).stdout
    assert "family_preserved (24 meet-irreducibles, 24 atoms, 17280 P4 maps)" in out
    assert ("pure backend only" in out) == (compiled is None)


def test_backend_reported():
    assert _kernels.BACKEND in ("pure", "compiled")


@needs_compiled
@pytest.mark.skipif(
    bool(os.environ.get("SEPLAT_FORCE_PURE")),
    reason="SEPLAT_FORCE_PURE overrides backend selection",
)
def test_backend_is_compiled_when_extension_present():
    assert _kernels.BACKEND == "compiled"


def test_randomized_backend_agreement():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 14)
        universe = (1 << n) - 1
        seeds = [rng.randrange(1 << n) for _ in range(rng.randint(0, 9))]
        want = pure.close_under_intersection(seeds, universe)
        assert _kernels.close_under_intersection(seeds, universe) == want
