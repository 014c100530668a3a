"""Connectivity conditions, product axioms, transitivity, invariant subsets."""

import dataclasses
import itertools
import random

import pytest

import seplat
from seplat import Covering, Lattice
from seplat.axioms import SWEEP_ATOM_CAP, _check_embedding_morphism, induced_pair_group
from seplat.bitset import atoms_of, popcount
from seplat.errors import CoveringError, SizeCapError, ValidationError
from seplat.perm import Automorphism, AutoGroup
from seplat.product import CheckReport, ProductLattice, _subset_pools

import oracles


@pytest.fixture(scope="module")
def induced23(prod23, aut_mo2, aut_mo3):
    return induced_pair_group(prod23, aut_mo2, aut_mo3)


# -- weak connectedness ----------------------------------------------------


def test_mo_lattices_are_weakly_connected(mo2, mo3):
    for lat, _ in (mo2, mo3):
        res = seplat.weakly_connected(lat, Covering.single_block(lat))
        assert res.ok and res.condition is None


def test_two_element_lattice_is_not_weakly_connected():
    two = seplat.build_two()
    res = seplat.weakly_connected(two, Covering.single_block(two))
    assert not res.ok
    assert "two-element" in res.condition


def test_boolean_square_fails_the_third_atom_condition(mo1):
    lat, _ = mo1
    res = seplat.weakly_connected(lat, Covering.single_block(lat))
    assert not res.ok
    assert res.condition == "a third atom below the join of any block pair"
    assert res.witness == (0, 1)


def test_b3_fails_the_third_atom_condition(b3):
    lat, _ = b3
    res = seplat.weakly_connected(lat, Covering.single_block(lat))
    assert not res.ok
    assert res.condition == "a third atom below the join of any block pair"


def test_disjoint_blocks_fail_the_chain_condition(mo2):
    lat, _ = mo2
    cov = Covering.from_lists([[0, 1], [2, 3]])
    res = seplat.weakly_connected(lat, cov)
    assert not res.ok
    assert res.condition == "atoms joined by a chain of overlapping blocks"
    p, q = res.witness
    assert (1 << p) & cov.blocks[0] and (1 << q) & cov.blocks[1]


def test_overlapping_blocks_satisfy_the_chain_condition(mo2):
    lat, _ = mo2
    cov = Covering.from_lists([[0, 1, 2], [1, 2, 3]])
    assert seplat.weakly_connected(lat, cov).ok


def test_covering_shape_violations(mo2):
    lat, _ = mo2
    with pytest.raises(CoveringError):
        seplat.weakly_connected(lat, Covering(()))
    with pytest.raises(CoveringError):
        seplat.weakly_connected(lat, Covering((0b10000,)))
    res = seplat.weakly_connected(lat, Covering.from_lists([[0], [1, 2, 3]]))
    assert not res.ok and res.condition == "blocks have at least two atoms"
    res = seplat.weakly_connected(lat, Covering.from_lists([[0, 1]]))
    assert not res.ok and res.condition == "blocks cover every atom"


def test_refutation_is_sound_and_inconclusive_where_expected(mo2, b3):
    assert seplat.refute_weak_connectedness(seplat.build_two())
    assert seplat.refute_weak_connectedness(b3[0])
    assert seplat.refute_weak_connectedness(seplat.build_boolean(4)[0])
    assert not seplat.refute_weak_connectedness(mo2[0])
    assert not seplat.refute_weak_connectedness(seplat.build_subspace_lattice(2, 2))


def test_find_connected_covering(mo2, b3):
    cov = seplat.find_connected_covering(mo2[0])
    assert cov == Covering.single_block(mo2[0])
    assert seplat.find_connected_covering(b3[0]) is None
    assert seplat.find_connected_covering(seplat.build_two()) is None
    fano = seplat.build_subspace_lattice(2, 3)
    cov = seplat.find_connected_covering(fano)
    assert cov is not None and seplat.weakly_connected(fano, cov).ok


# -- lateral connectedness ---------------------------------------------------


def _single_blocks(prod):
    return Covering.single_block(prod.left), Covering.single_block(prod.right)


def test_mo_square_product_is_laterally_connected(prod22):
    res = seplat.laterally_connected(prod22, *_single_blocks(prod22))
    assert res.ok


def test_two_atom_left_factor_fails_its_lateral_clause(mo1, mo2):
    prod = seplat.aerts_product_sharp(mo1[0], mo1[1], mo2[0], mo2[1])
    assert len(prod.base.closed_sets) == 36
    res = seplat.laterally_connected(prod, *_single_blocks(prod))
    assert not res.ok
    assert res.condition == "two-atom left factor lateral clause"
    assert res.witness == 0


def test_two_atom_right_factor_fails_its_lateral_clause(mo1, mo2):
    prod = seplat.aerts_product_sharp(mo2[0], mo2[1], mo1[0], mo1[1])
    res = seplat.laterally_connected(prod, *_single_blocks(prod))
    assert not res.ok
    assert res.condition == "two-atom right factor lateral clause"


def test_boolean_square_product_fails_laterally(mo1):
    prod = seplat.aerts_product_sharp(mo1[0], mo1[1], mo1[0], mo1[1])
    assert len(prod.base.closed_sets) == 16
    res = seplat.laterally_connected(prod, *_single_blocks(prod))
    assert not res.ok
    assert res.condition == "two-atom left factor lateral clause"


def test_disconnected_covering_raises(prod22):
    bad = Covering.from_lists([[0, 1], [2, 3]])
    with pytest.raises(CoveringError) as exc:
        seplat.laterally_connected(prod22, bad, Covering.single_block(prod22.right))
    assert "left covering is not connected" in str(exc.value)


# -- the product axioms -------------------------------------------------------


def test_sproduct_axioms_hold_for_mo_square(prod22, aut_mo2):
    rep = seplat.check_sproduct(prod22, aut_mo2, aut_mo2)
    assert rep.passed
    assert sorted(rep.reports) == ["P0", "P1", "P2", "P3", "P4", "P5"]
    assert all(r.checked > 0 for r in rep.reports.values())
    lines = rep.lines()
    assert len(lines) == 6 and all("pass" in line for line in lines)


def test_sproduct_axioms_hold_with_identity_groups(prod22):
    rep = seplat.check_sproduct(
        prod22,
        AutoGroup.identity_only(prod22.left),
        AutoGroup.identity_only(prod22.right),
    )
    assert rep.passed


def test_sproduct_axiom_failure_is_reported(prod22, aut_mo2):
    # an extra same-row two-set is not preserved by the induced pair maps
    sets = set(prod22.base.closed_sets) | {0b11}
    corrupt = Lattice.from_closed_family(16, sets)
    bad = dataclasses.replace(prod22, base=corrupt)
    rep = seplat.check_sproduct(bad, aut_mo2, aut_mo2)
    assert not rep.passed
    assert not rep.reports["P4"].passed
    assert any("FAIL" in line for line in rep.lines())


# P4 evaluates only the pairs (g, id) and (id, g) for the strong generators
# g and falls back to every pair of members when the guard fails or one of
# them fails; its report must equal the all-pairs reference over the
# members of the generated groups in every case.


def _p4(prod, t1, t2):
    report = seplat.check_sproduct(prod, t1, t2).reports["P4"]
    return report.passed, report.checked, report.failures


def _corrupted22(prod22):
    sets = set(prod22.base.closed_sets) | {0b11}
    return dataclasses.replace(prod22, base=Lattice.from_closed_family(16, sets))


def _generated(lat, gens):
    """The group generated by the permutation tuples `gens`, and its
    members as the breadth-first closure oracle lists them."""
    members = oracles.generated_group(lat.atom_count, gens)
    return AutoGroup(lat, [Automorphism(g) for g in gens]), [
        Automorphism(p) for p in members
    ]


def _random_members(group, rng, most=8):
    """A seeded nonempty sample of a group's members, without the identity
    half the time."""
    members = [u.perm for u in group]
    if rng.random() < 0.5:
        members = [p for p in members if p != tuple(range(len(p)))] or members
    return rng.sample(members, rng.randint(1, min(len(members), most)))


def test_p4_matches_all_pairs_on_full_groups(prod22, aut_mo2):
    got = _p4(prod22, aut_mo2, aut_mo2)
    assert got == oracles.p4_all_pairs(prod22, aut_mo2, aut_mo2)
    assert got == (True, 576, [])


def test_p4_matches_all_pairs_on_random_member_lists(prod22, prod23, aut_mo2, aut_mo3):
    # Seeded member lists generate the groups; the reference runs over the
    # members of the generated groups.  Aut(MO(3)) contributes one member,
    # so that its cyclic group keeps the reference small.
    rng = random.Random(11)
    corrupted = _corrupted22(prod22)
    verdicts = set()
    for _ in range(8):
        for prod, g1, g2, most2 in (
            (prod22, aut_mo2, aut_mo2, 8),
            (corrupted, aut_mo2, aut_mo2, 8),
            (prod23, aut_mo2, aut_mo3, 1),
        ):
            t1, m1 = _generated(prod.left, _random_members(g1, rng))
            t2, m2 = _generated(prod.right, _random_members(g2, rng, most2))
            assert [u.perm for u in t1] == [u.perm for u in m1]
            got = _p4(prod, t1, t2)
            assert got == oracles.p4_all_pairs(prod, m1, m2)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_p4_failures_on_a_corrupted_base_match_all_pairs(prod22, aut_mo2):
    corrupted = _corrupted22(prod22)
    got = _p4(corrupted, aut_mo2, aut_mo2)
    assert got == oracles.p4_all_pairs(corrupted, aut_mo2, aut_mo2)
    assert got[1] == 576 and 0 < len(got[2]) < 576


def test_p4_on_a_base_with_fewer_atoms_than_pairs(mo1):
    # MO(1) x MO(1) has four pair atoms; this base has three, so the pair
    # maps do not permute its atoms and every pair is evaluated.
    left, _ = mo1
    base = Lattice.from_closed_family(3, [0, 1, 2, 4, 7])
    h = {0: 0, 1: 1, 2: 2, 3: 7}
    prod = ProductLattice(base, left, left, h, dict(h), "external")
    aut = seplat.enumerate_automorphisms(left)
    assert base.atom_count != prod.pair_count
    got = _p4(prod, aut, aut)
    assert got == oracles.p4_all_pairs(prod, aut, aut)
    assert got[1] == 4 and got[2]


def test_p4_on_a_base_with_more_atoms_than_pairs(prod22, aut_mo2):
    # Atom 16 joins every member of MO(2) x MO(2): no pair map reaches it,
    # so every pair fails P4 (no raw IndexError), and P5 names the atom.
    sets = set(prod22.base.closed_sets)
    sets |= {m | 1 << 16 for m in sets}
    bad = dataclasses.replace(prod22, base=Lattice.from_closed_family(17, sets))
    rep = seplat.check_sproduct(bad, aut_mo2, aut_mo2)
    got = _p4(bad, aut_mo2, aut_mo2)
    assert got == oracles.p4_all_pairs(bad, aut_mo2, aut_mo2)
    assert not got[0] and got[1] == len(got[2]) == 576
    assert got[2][0] == ((0, 1, 2, 3), (0, 1, 2, 3))
    assert rep.reports["P5"].failures == [[(16,)]]


def test_p4_with_an_empty_member_list(prod22, aut_mo2):
    # No generators give the trivial group, whose one member is the identity.
    empty = AutoGroup(prod22.left, ())
    assert [u.perm for u in empty] == [(0, 1, 2, 3)] and empty.generators == ()
    for t1, t2, pairs in ((empty, aut_mo2, 24), (aut_mo2, empty, 24), (empty, empty, 1)):
        got = _p4(prod22, t1, t2)
        assert got == oracles.p4_all_pairs(prod22, t1, t2) == (True, pairs, [])


def _corrupt(h, base, factor, rng):
    """A seeded corruption of an embedding: one image replaced by a random
    base element, two images swapped, or the factor's atoms relabelled
    (every atom permutation of MO(n) is an automorphism, so this one keeps
    P0 intact)."""
    h = dict(h)
    kind = rng.randrange(3)
    if kind == 0:
        h[rng.choice(factor.closed_sets)] = rng.choice(base.closed_sets)
    elif kind == 1:
        x, y = rng.sample(factor.closed_sets, 2)
        h[x], h[y] = h[y], h[x]
    else:
        sigma = list(range(factor.atom_count))
        rng.shuffle(sigma)
        relabel = {x: sum(1 << sigma[a] for a in atoms_of(x)) for x in factor}
        h = {x: h[relabel[x]] for x in factor}
    return h


def test_p0_pool_verdict_equals_the_all_subsets_verdict(prod23):
    # The P0 pool holds the empty subset and every pair, which determine
    # all meets and joins, so its verdict must match the one over all 256
    # subsets of MO(3)'s 8 elements, on intact and on corrupted embeddings.
    base, right = prod23.base, prod23.right
    pool = _subset_pools(prod23.left.closed_sets, right.closed_sets)[1]
    everything = [
        omega
        for r in range(len(right) + 1)
        for omega in itertools.combinations(right.closed_sets, r)
    ]
    assert len(everything) == 256
    rng = random.Random(3)
    verdicts = []
    for _ in range(200):
        h2 = _corrupt(prod23.h2, base, right, rng)
        reports = [CheckReport("P0"), CheckReport("P0")]
        for report, subsets in zip(reports, (pool, everything)):
            _check_embedding_morphism(report, base, right, h2, "h2", subsets)
        assert reports[0].passed == reports[1].passed
        verdicts.append(reports[1].passed)
    assert 20 < sum(verdicts) < 180  # both verdicts come up


# -- strong transitivity -------------------------------------------------------


def test_full_automorphism_groups_act_strongly_transitively(mo2, mo3, aut_mo2, aut_mo3):
    assert seplat.strongly_transitive(mo2[0], aut_mo2).ok
    assert seplat.strongly_transitive(mo3[0], aut_mo3).ok


def test_identity_group_is_not_strongly_transitive(mo2):
    res = seplat.strongly_transitive(mo2[0], AutoGroup.identity_only(mo2[0]))
    assert not res.ok
    assert res.condition == "atom transitivity"


def test_a_lone_swap_generates_a_group_with_the_identity(mo2):
    swap = (1, 0, 3, 2)
    group, members = _generated(mo2[0], [swap])
    assert [u.perm for u in group] == [u.perm for u in members] == [(0, 1, 2, 3), swap]
    res = seplat.strongly_transitive(mo2[0], group)
    want = oracles.strongly_transitive_pairs(4, [u.perm for u in members])
    assert (res.ok, res.condition, res.witness) == want == (False, "atom transitivity", (0, 2))


def _wreath_s3_s2():
    """S3 wr S2 on six atoms: permute within the blocks {0,1,2} and
    {3,4,5}, optionally swapping the blocks.  Transitive, with every
    fix-one-move-another witness available, but the blocks themselves are
    invariant in the block sense."""
    import itertools

    members = []
    for sigma in itertools.permutations(range(3)):
        for tau in itertools.permutations(range(3)):
            straight = tuple(sigma) + tuple(3 + t for t in tau)
            swapped = tuple(3 + s for s in sigma) + tuple(tau)
            members.append(Automorphism(straight))
            members.append(Automorphism(swapped))
    return members


def test_invariant_block_refutes_strong_transitivity(mo3):
    group = AutoGroup(mo3[0], _wreath_s3_s2())
    assert oracles.is_group(u.perm for u in group)
    assert len(group) == 72
    res = seplat.strongly_transitive(mo3[0], group)
    assert not res.ok
    assert res.condition == "only trivial invariant subsets"
    assert res.witness in ((0, 1, 2), (3, 4, 5))


def test_strong_transitivity_matches_the_pair_loops(mo2, mo3, b3, aut_mo2, aut_mo3):
    # Seeded member lists of Aut(MO(2)), Aut(MO(3)), Aut(B3) and S3 wr S2,
    # half of them without the identity, generate groups; the result must
    # match the scan of every member of the generated group per pair.
    # S3 wr S2 reaches the subset condition.
    rng = random.Random(5)
    outcomes = set()
    groups = [
        (mo2[0], list(aut_mo2)),
        (mo3[0], list(aut_mo3)),
        (b3[0], list(seplat.enumerate_automorphisms(b3[0]))),
        (mo3[0], _wreath_s3_s2()),
    ]
    for _ in range(200):
        lat, members = rng.choice(groups)
        sample = [u.perm for u in rng.sample(members, rng.randint(1, min(len(members), 3)))]
        if rng.random() < 0.5:
            sample = [p for p in sample if p != tuple(range(len(p)))] or sample
        group, generated = _generated(lat, sample)
        res = seplat.strongly_transitive(lat, group)
        want = oracles.strongly_transitive_pairs(
            lat.atom_count, [u.perm for u in generated]
        )
        assert (res.ok, res.condition, res.witness) == want
        outcomes.add(res.condition)
    assert outcomes == {
        None,
        "atom transitivity",
        "some member fixes p and moves q",
        "only trivial invariant subsets",
    }


def test_imprimitive_group_past_the_sweep_cap_names_a_block(prod23, induced23):
    # 24 pair atoms are past the sweep cap; the rows are blocks of the
    # induced group, and the smallest block holding atoms 0 and 1 is row 0.
    assert prod23.base.atom_count > SWEEP_ATOM_CAP
    res = seplat.strongly_transitive(prod23.base, induced23)
    assert (res.ok, res.condition) == (False, "only trivial invariant subsets")
    assert res.witness == atoms_of(prod23.row(0)) == (0, 1, 2, 3, 4, 5)


# -- invariant subset classification -------------------------------------------


def test_induced_group_yields_rows_and_columns(prod22, aut_mo2):
    group = induced_pair_group(prod22, aut_mo2, aut_mo2)
    assert len(group) == len(aut_mo2) ** 2 == 576
    res = seplat.classify_invariant_subsets(prod22, group)
    tags = {tag: len(masks) for tag, masks in res.tags().items()}
    assert tags == {"full": 1, "singleton": 16, "row": 4, "column": 4}
    assert res.unexpected == []
    assert len(res.entries) == 25


def test_full_group_swaps_away_rows_and_columns(prod22, aut_prod22):
    res = seplat.classify_invariant_subsets(prod22, aut_prod22)
    tags = {tag: len(masks) for tag, masks in res.tags().items()}
    assert tags == {"full": 1, "singleton": 16}
    assert res.unexpected == []


def test_identity_group_leaves_everything_invariant(prod22):
    res = seplat.classify_invariant_subsets(
        prod22, AutoGroup.identity_only(prod22.base)
    )
    assert len(res.entries) == 2 ** 16 - 1
    assert len(res.unexpected) == 2 ** 16 - 1 - 25


def test_sample_mode_on_the_larger_product(prod23, induced23):
    # 24 atoms are past the sweep cap, and there is no sampled fallback
    with pytest.raises(SizeCapError):
        seplat.classify_invariant_subsets(prod23, induced23)
    for mode in ("sample", "bogus"):
        with pytest.raises(ValueError):
            seplat.classify_invariant_subsets(prod23, induced23, mode=mode)


def test_classification_is_exact_up_to_the_sweep_cap(two):
    # MO(9) x 2 has 18 pair atoms; under the powers of an 18-cycle the
    # invariant subsets are the full set, the singletons and the 9 + 6 +
    # 3 + 2 blocks of C18 of sizes 2, 3, 6 and 9
    prod = seplat.aerts_product_general(seplat.build_mo(9)[0], two)
    n = prod.base.atom_count
    assert n == 18
    powers = [Automorphism(tuple((i + k) % n for i in range(n))) for k in range(n)]
    group = AutoGroup(prod.base, powers)
    res = seplat.classify_invariant_subsets(prod, group, mode="exact")
    tags = {tag: len(masks) for tag, masks in res.tags().items()}
    assert tags == {"full": 1, "singleton": 18, "unexpected": 20}
    sizes = sorted(popcount(m) for m in res.unexpected)
    assert sizes == [2] * 9 + [3] * 6 + [6] * 3 + [9] * 2
