"""Groups as stabilizer chains: Schreier–Sims, block search and P4 on
generators, each against the members of the generated group as the
breadth-first closure oracle lists them."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import seplat
from seplat import Lattice
from seplat.axioms import _block_of
from seplat.perm import Automorphism, AutoGroup

import oracles


@st.composite
def generating_sets(draw, max_atoms=7, max_gens=4):
    """An atom count and a few random permutations of the atoms."""
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=max_gens))
    return n, gens


def _group(n, gens):
    # every atom permutation is an automorphism of the Boolean lattice
    lat = seplat.build_boolean(n)[0]
    return lat, AutoGroup(lat, [Automorphism(g) for g in gens])


@given(generating_sets())
@settings(max_examples=150, deadline=None)
def test_schreier_sims_matches_the_closure(data):
    n, gens = data
    _, group = _group(n, gens)
    members = oracles.generated_group(n, gens)
    assert len(group) == group.order == len(members)
    assert [u.perm for u in group] == members
    assert set(u.perm for u in group.generators) <= set(members)
    assert all(not u.is_identity() for u in group.generators)
    for k in range(n):
        for x, t in group.transversal(k).items():
            assert t.perm[:k] == tuple(range(k)) and t.perm[k] == x


@given(generating_sets(max_atoms=6), st.data())
@settings(max_examples=150, deadline=None)
def test_smallest_blocks_match_the_sweep(generating_set, data):
    # The blocks are the subsets the sweep over every member keeps, and they
    # are closed under intersection, so the smallest block holding A is the
    # intersection of the swept subsets holding A.
    n, gens = generating_set
    members = oracles.generated_group(n, gens)
    swept = oracles.invariant_subsets_sweep(members, n)
    atoms = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    want = (1 << n) - 1
    for m in swept:
        if atoms & ~m == 0:
            want &= m
    assert _block_of(gens, n, atoms) == want


@given(generating_sets(max_atoms=6))
@settings(max_examples=150, deadline=None)
def test_strong_transitivity_matches_the_pair_loops_on_generated_groups(data):
    n, gens = data
    lat, group = _group(n, gens)
    res = seplat.strongly_transitive(lat, group)
    want = oracles.strongly_transitive_pairs(n, oracles.generated_group(n, gens))
    assert (res.ok, res.condition, res.witness) == want


MO2_GENERATORS = st.lists(st.permutations(range(4)).map(tuple), max_size=2)


@given(left=MO2_GENERATORS, right=MO2_GENERATORS, corrupt=st.booleans())
@settings(max_examples=25, deadline=None)
def test_p4_on_generators_matches_all_pairs(left, right, corrupt, prod22):
    # every atom permutation of MO(2) is an automorphism
    prod = prod22
    if corrupt:  # an extra same-row two-set
        sets = set(prod22.base.closed_sets) | {0b11}
        prod = dataclasses.replace(prod22, base=Lattice.from_closed_family(16, sets))
    t1 = AutoGroup(prod.left, [Automorphism(g) for g in left])
    t2 = AutoGroup(prod.right, [Automorphism(g) for g in right])
    m1 = [Automorphism(p) for p in oracles.generated_group(4, left)]
    m2 = [Automorphism(p) for p in oracles.generated_group(4, right)]
    report = seplat.check_sproduct(prod, t1, t2).reports["P4"]
    got = (report.passed, report.checked, report.failures)
    assert got == oracles.p4_all_pairs(prod, m1, m2)
