#!/usr/bin/env python3
"""Benchmark the bitset kernels: pure Python versus the compiled extension.

Both implementations are imported directly (bypassing the dispatch layer),
so the comparison is unaffected by SEPLAT_FORCE_PURE.  Each kernel runs on
an identical deterministic workload; the table reports best-of-N wall time
per backend and the resulting speedup.  The last row is the traffic the
library sends: axiom P4 on MO(2)xMO(3), one check per pair map against
the product's meet-irreducibles.

Usage:
    python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time

import seplat
from seplat._kernels import pure

try:
    from seplat._kernels import _speedups as compiled
except ImportError:  # extension not built
    compiled = None


def best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def closure_workload() -> tuple[list[int], int]:
    """Random generator masks whose intersection closure is a few thousand
    sets — comparable to building a mid-sized product family."""
    rng = random.Random(2024)
    n = 18
    universe = (1 << n) - 1
    seeds = [rng.randrange(1 << n) for _ in range(40)]
    return seeds, universe


def invariant_workload() -> tuple[list[tuple[int, ...]], int]:
    """A rotation, a reflection, and a seeded shuffle over 18 atoms; the
    sweep visits all 2**18 - 1 nonempty subsets."""
    rng = random.Random(7)
    n = 18
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple(n - 1 - i for i in range(n))
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    return [rotation, reflection, tuple(shuffled)], n


def family_workload() -> tuple[tuple[int, ...], list[int], int]:
    """Membership test of a 24-atom permutation against a rotation-closed
    family (the permutation is family-preserving, so no early exit)."""
    rng = random.Random(11)
    n = 24
    rotation = tuple((i + 1) % n for i in range(n))
    base = {rng.randrange(1 << n) for _ in range(800)}
    family = set()
    for mask in base:  # close under the rotation so the check runs full length
        for _ in range(n):
            family.add(mask)
            mask = ((mask << 1) | (mask >> (n - 1))) & ((1 << n) - 1)
    return rotation, sorted(family), n


def p4_workload() -> tuple[list[tuple[int, ...]], tuple[int, ...], int]:
    """The pair maps (u1, u2) of Aut(MO(2)) x Aut(MO(3)) acting on the
    atoms of the sharp product, and the product's meet-irreducibles."""
    (l2, o2), (l3, o3) = seplat.build_mo(2), seplat.build_mo(3)
    prod = seplat.aerts_product_sharp(l2, o2, l3, o3)
    t2, t3 = seplat.enumerate_automorphisms(l2), seplat.enumerate_automorphisms(l3)
    perms = [u.perm for u in seplat.induced_pair_group(prod, t2, t3)]
    return perms, prod.base.meet_irreducibles(), prod.base.atom_count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions per cell (default 3)"
    )
    args = parser.parse_args()

    seeds, universe = closure_workload()
    family_size = len(pure.close_under_intersection(seeds, universe))
    perms, n_sweep = invariant_workload()
    perm, family, n_fam = family_workload()
    pair_maps, irreducibles, n_prod = p4_workload()

    rows = [
        (
            f"close_under_intersection ({len(seeds)} seeds -> {family_size} sets)",
            lambda mod: mod.close_under_intersection(seeds, universe),
        ),
        (
            f"invariant_subsets ({len(perms)} perms, {n_sweep} atoms)",
            lambda mod: mod.invariant_subsets(perms, n_sweep),
        ),
        (
            f"family_preserved ({len(family)} sets, {n_fam} atoms, x50)",
            lambda mod: [mod.family_preserved(perm, family, n_fam) for _ in range(50)],
        ),
        (
            f"family_preserved ({len(irreducibles)} meet-irreducibles, {n_prod} atoms,"
            f" {len(pair_maps)} P4 maps)",
            lambda mod: [mod.family_preserved(p, irreducibles, n_prod) for p in pair_maps],
        ),
    ]

    if compiled is None:
        print("compiled extension not built; timing pure backend only\n")

    name_w = max(len(name) for name, _ in rows)
    header = f"{'kernel':<{name_w}}  {'pure':>10}  {'compiled':>10}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, call in rows:
        t_pure = best_of(lambda: call(pure), args.repeat)
        if compiled is not None:
            t_comp = best_of(lambda: call(compiled), args.repeat)
            print(
                f"{name:<{name_w}}  {t_pure:>9.4f}s  {t_comp:>9.4f}s"
                f"  {t_pure / t_comp:>7.1f}x"
            )
        else:
            print(f"{name:<{name_w}}  {t_pure:>9.4f}s  {'-':>10}  {'-':>8}")


if __name__ == "__main__":
    main()
