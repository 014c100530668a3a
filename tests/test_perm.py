"""Groups as stabilizer chains: Schreier–Sims, block search and P4 on
generators, each against the members of the generated group as the
breadth-first closure oracle lists them."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seplat
from seplat import Lattice
from seplat.axioms import _block_of, _blocks
from seplat.errors import SizeCapError
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
@settings(max_examples=100, deadline=None)
def test_members_act_on_masks(generating_set, data):
    # members are listed without a second permutation check; each still
    # acts on masks and compares like a checked Automorphism
    n, gens = generating_set
    _, group = _group(n, gens)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    for u in group:
        checked = Automorphism(u.perm)
        assert [u(m) for m in masks] == [oracles._image(u.perm, m) for m in masks]
        assert u == checked and hash(u) == hash(checked)


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


@st.composite
def block_generating_sets(draw, max_atoms=6):
    """Generators of a transitive, an imprimitive or an intransitive group,
    relabelled by a random atom permutation.  Transitive: random
    permutations and an n-cycle.  Imprimitive: some generators of
    S_a wr S_b, which moves the b blocks of a consecutive atoms.
    Intransitive: each generator permutes the atoms below k and the rest,
    so its powers can break a mask it keeps."""
    kind = draw(st.sampled_from(["transitive", "imprimitive", "intransitive"]))
    if kind == "imprimitive":
        a, b = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
        n = a * b
        within = [(1, 0) + tuple(range(2, a)), tuple(range(1, a)) + (0,)]
        gens = [w + tuple(range(a, n)) for w in within]
        gens += [tuple((p + a) % n for p in range(n))]
        gens += [tuple(range(a, 2 * a)) + tuple(range(a)) + tuple(range(2 * a, n))]
        gens = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4))
    else:
        n = draw(st.integers(min_value=2, max_value=max_atoms))
        if kind == "transitive":
            gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=2))
            gens.append(tuple(range(1, n)) + (0,))
        else:
            k = draw(st.integers(min_value=1, max_value=n - 1))
            parts = st.tuples(st.permutations(range(k)), st.permutations(range(k, n)))
            gens = draw(st.lists(parts.map(lambda p: tuple(p[0]) + tuple(p[1])), max_size=3))
    sigma = draw(st.permutations(range(n)))
    inverse = [0] * n
    for i, p in enumerate(sigma):
        inverse[p] = i
    return n, [tuple(sigma[g[inverse[i]]] for i in range(n)) for g in gens]


# The sweep over the strong generators keeps {1, 3} and {2, 5}, which no
# block is.
@example((6, [(2, 0, 1, 5, 3, 4), (2, 1, 0, 4, 3, 5)]))
# C2^3 acting on itself by xor: its blocks of four atoms holding atom 0
# are no smallest block of a pair, only of a pair and one more atom.
@example((8, [tuple(i ^ b for i in range(8)) for b in (1, 2, 4)]))
@given(block_generating_sets())
@settings(max_examples=200, deadline=None)
def test_blocks_match_the_sweep_over_the_members(data):
    n, gens = data
    _, group = _group(n, gens)
    members = oracles.generated_group(n, gens)
    transversal = group.transversal(0) if n else {}
    assert _blocks(group, transversal) == oracles.invariant_subsets_sweep(members, n)


def test_len_refuses_orders_past_sys_maxsize():
    group = seplat.enumerate_automorphisms(seplat.build_mo(11)[0])
    # every permutation of the 22 atoms of MO(11) is an automorphism
    assert group.order == math.factorial(22)
    with pytest.raises(SizeCapError):
        len(group)


# Blocks {0, 5}, {1, 2}, {3, 4} and {0, 1, 3}, {2, 4, 5}: the first one
# in mask order, {1, 2}, misses atom 0.
@example((6, [(5, 2, 1, 4, 3, 0), (1, 3, 4, 0, 5, 2)]))
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
    assert got == oracles.p4_spanning_pairs(prod, t1.generators, t2.generators, m1, m2)


def test_generators_must_be_automorphisms(mo2):
    fano = seplat.build_subspace_lattice(2, 3)
    swap = Automorphism((1, 0, 2, 3, 4, 5, 6))
    assert not swap.preserves(fano)
    for lat, gens in ((fano, [swap]), (fano, [Automorphism.identity(7), swap])):
        with pytest.raises(seplat.ValidationError) as exc:
            AutoGroup(lat, gens)
        assert (exc.value.law, exc.value.witness) == (
            "group members are automorphisms of the lattice",
            swap.perm,
        )
    # every atom permutation of MO(2) is an automorphism
    assert AutoGroup(mo2[0], [Automorphism((1, 0, 2, 3))]).order == 2


def test_identity_generators_are_not_checked(monkeypatch):
    # the identity preserves every lattice, so only the others cost a check
    fano = seplat.build_subspace_lattice(2, 3)
    swap = Automorphism((1, 0, 2, 3, 4, 5, 6))
    checked = []
    real = seplat._kernels.family_preserved

    def counted(perm, family, target):
        checked.append(perm)
        return real(perm, family, target)

    monkeypatch.setattr(seplat._kernels, "family_preserved", counted)
    assert AutoGroup.identity_only(fano).order == 1
    assert checked == []
    with pytest.raises(seplat.ValidationError) as exc:
        AutoGroup(fano, [Automorphism.identity(7), swap])
    assert exc.value.witness == swap.perm
    assert checked == [swap.perm]
