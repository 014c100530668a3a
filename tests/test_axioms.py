"""Connectivity conditions, product axioms, transitivity, invariant subsets."""

import dataclasses
import functools
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seplat
from seplat import Covering, Lattice
from seplat.axioms import (
    SWEEP_ATOM_CAP,
    ConnectivityResult,
    _check_embedding_morphism,
    induced_pair_group,
)
from seplat.bitset import atoms_of, popcount
from seplat.errors import CoveringError, ForeignElementError, SizeCapError, ValidationError
from seplat.perm import Automorphism, AutoGroup
from seplat.product import CheckReport, ProductLattice, _lazy_pools, _subset_pools

import oracles
from test_product import _with_base


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
    cov = Covering.from_lists(lat, [[0, 1], [2, 3]])
    res = seplat.weakly_connected(lat, cov)
    assert not res.ok
    assert res.condition == "atoms joined by a chain of overlapping blocks"
    p, q = res.witness
    assert (1 << p) & cov.blocks[0] and (1 << q) & cov.blocks[1]


def test_overlapping_blocks_satisfy_the_chain_condition(mo2):
    lat, _ = mo2
    cov = Covering.from_lists(lat, [[0, 1, 2], [1, 2, 3]])
    assert seplat.weakly_connected(lat, cov).ok


def test_covering_shape_violations(mo2):
    lat, _ = mo2
    with pytest.raises(CoveringError):
        seplat.weakly_connected(lat, Covering(()))
    with pytest.raises(CoveringError):
        seplat.weakly_connected(lat, Covering((0b10000,)))
    for block in ([0, -1], [0, 1.0], [0, True]):
        with pytest.raises(CoveringError) as exc:
            Covering.from_lists(lat, [[2, 3], block])
        assert exc.value.reason == "blocks use atoms of the lattice"
    res = seplat.weakly_connected(lat, Covering.from_lists(lat, [[0], [1, 2, 3]]))
    assert not res.ok and res.condition == "blocks have at least two atoms"
    res = seplat.weakly_connected(lat, Covering.from_lists(lat, [[0, 1]]))
    assert not res.ok and res.condition == "blocks cover every atom"


def test_covering_atoms_past_the_lattice_fail_before_a_mask_is_built(mo2):
    # atom 10**8 as a mask would be a 12 MB int
    lat, _ = mo2
    tracemalloc.start()
    try:
        with pytest.raises(CoveringError) as exc:
            Covering.from_lists(lat, [[0, 10**8]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.reason, exc.value.witness) == ("blocks use atoms of the lattice", [0, 10**8])
    assert peak < 1 << 20
    with pytest.raises(CoveringError):
        Covering.from_lists(lat, [[0, 4]])


def _from_meet_irreducibles(n, mis):
    return Lattice.from_closed_family(n, [sum(1 << a for a in m) for m in mis], mode="complete")


def test_connected_covering_refutes_exactly_where_no_covering_exists(b3, prod23):
    # None is a refutation: no atom pair has a third atom (the first
    # three), the third-atom graph is the path 1 - 0 - 2, whose two
    # edges share no triangle, so atoms 1 and 2 touch no common class,
    # or the lattice is the 24-atom MO(2)xMO(3) product base
    path = _from_meet_irreducibles(3, [{0}, {1}, {1, 2}, {2}])
    for lat in (seplat.build_two(), b3[0], seplat.build_boolean(4)[0], path, prod23.base):
        assert seplat.connected_covering(lat) is None
        assert not oracles.connected_covering_exists(lat.closed_sets, lat.atom_count)
    assert sorted(path.meet_irreducibles()) == [1, 2, 4, 6]
    assert seplat.connected_covering(seplat.build_subspace_lattice(2, 2)) is not None


def _random_atomistic(rng):
    n = rng.randint(3, 7)
    seeds = [rng.randrange(1 << n) for _ in range(rng.randint(0, 8))]
    return Lattice.from_closed_family(n, seeds, mode="complete")


def _random_covering(lat, rng):
    """Two to four random blocks of one to five atoms, so that every
    condition of weak connectedness comes up."""
    n = lat.atom_count
    return Covering(
        tuple(
            sum(1 << a for a in rng.sample(range(n), rng.randint(1, min(n, 5))))
            for _ in range(rng.randint(2, 4))
        )
    )


def test_connectivity_matches_the_per_pair_references():
    # On random atomistic lattices, `weakly_connected` on random coverings
    # gives what the per-pair reference gives, and `connected_covering`
    # returns None exactly when the maximal-clique oracle finds no
    # connected covering, and otherwise a covering the reference passes.
    rng = random.Random(31)
    conditions, found = set(), set()
    for _ in range(120):
        lat = _random_atomistic(rng)
        n = lat.atom_count
        for _ in range(4):
            cov = _random_covering(lat, rng)
            res = seplat.weakly_connected(lat, cov)
            want = oracles.weakly_connected_per_pair(lat.closed_sets, n, cov.blocks)
            assert (res.ok, res.condition, res.witness) == want
            conditions.add(res.condition)
        cov = seplat.connected_covering(lat)
        assert (cov is not None) == oracles.connected_covering_exists(lat.closed_sets, n)
        if cov is not None:
            assert oracles.weakly_connected_per_pair(lat.closed_sets, n, cov.blocks)[0]
        found.add(cov and len(cov.blocks))
    assert len(conditions) == 5
    assert {None, 1} < found  # no covering, the single block and several blocks


def test_connected_covering(mo2, monkeypatch):
    graphs = []

    def counted(lattice, build=seplat.axioms._third_atom_graph):
        graphs.append(lattice)
        return build(lattice)

    monkeypatch.setattr(seplat.axioms, "_third_atom_graph", counted)
    assert seplat.connected_covering(mo2[0]) == Covering.single_block(mo2[0])
    fano = seplat.build_subspace_lattice(2, 3)
    assert seplat.connected_covering(fano) == Covering.single_block(fano)
    # no single block, and cliques grown greedily from each atom in index
    # order do not chain here; the triangles 013, 024 and 034 do
    lat = _from_meet_irreducibles(5, [{0}, {1, 2}, {1, 4}, {2, 3}, {3}, {4}])
    assert sorted(lat.meet_irreducibles()) == [1, 6, 8, 12, 16, 18]
    cov = seplat.connected_covering(lat)
    assert [atoms_of(b) for b in cov.blocks] == [(0, 1, 3), (0, 2, 4), (0, 3, 4)]
    assert graphs == [mo2[0], fano, lat]  # one third-atom graph per call
    assert seplat.weakly_connected(lat, cov).ok


def _circulant_triangles(n, s, missing):
    """The triangles {i, i + s, i + 2s} mod n that avoid the atom
    `missing`, as atom masks."""
    tris = {frozenset((i, (i + s) % n, (i + 2 * s) % n)) for i in range(n)}
    return {sum(1 << a for a in t) for t in tris if missing not in t}


@pytest.mark.parametrize("n, step, y", [(41, 5, 15), (21, 8, 1)])
def test_connected_covering_with_no_class_touching_every_atom(n, step, y):
    # The third-atom graph is class A, the edges of the triangles
    # {i, i + 1, i + 2} mod n that avoid atom 0, class B, those of
    # {i, i + step, i + 2 step} that avoid atom y, and the edge {0, y}.
    # No triangle mixes the classes, so none of the three touches every
    # atom, yet every atom pair lies in one of them:
    # the triangles of A and of B with the block {0, y} form a connected
    # covering.  The closed sets are the singletons, the other atom pairs
    # and the top, so the edges are exactly the pairs outside the family.
    a, b = _circulant_triangles(n, 1, 0), _circulant_triangles(n, step, y)
    edges = {m & ~(1 << r) for m in a | b for r in atoms_of(m)} | {1 | 1 << y}
    lat = Lattice.from_closed_family(
        n,
        [1 << p for p in range(n)]
        + [1 << p | 1 << q for p, q in itertools.combinations(range(n), 2)
           if 1 << p | 1 << q not in edges],
        mode="complete",
    )
    explicit = Covering(tuple(sorted(a | b)) + (1 | 1 << y,))
    assert seplat.weakly_connected(lat, explicit).ok
    assert seplat.weakly_connected(lat, Covering(tuple(sorted(a)))).witness == (0,)
    cov = seplat.connected_covering(lat)
    assert cov is not None and seplat.weakly_connected(lat, cov).ok
    assert oracles.weakly_connected_per_pair(lat.closed_sets, n, cov.blocks)[0]
    assert oracles.connected_covering_exists(lat.closed_sets, n)


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
    bad = Covering.from_lists(prod22.left, [[0, 1], [2, 3]])
    with pytest.raises(CoveringError) as exc:
        seplat.laterally_connected(prod22, bad, Covering.single_block(prod22.right))
    assert "left covering is not connected" in str(exc.value)


def _lateral_outcomes(prod):
    """(library, nested loop) outcomes of lateral connectedness under the
    single-block coverings."""
    cov1, cov2 = _single_blocks(prod)
    res = seplat.laterally_connected(prod, cov1, cov2)
    nested = oracles.lateral_clauses_nested(
        prod.base.closed_sets, prod.left.atom_count, prod.right.atom_count,
        cov1.blocks, cov2.blocks,
    )
    return (res.ok, res.condition, res.witness), nested


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_lateral_clauses_match_the_nested_loop_on_mo_products(m, n):
    prod = seplat.aerts_product_general(seplat.build_mo(m)[0], seplat.build_mo(n)[0])
    got, want = _lateral_outcomes(prod)
    assert got == want


def test_lateral_clauses_match_the_nested_loop_on_random_supersets(prod22):
    # Each draw closes one right pair in some rows and one left pair in some
    # columns; the clause fails when a pair is closed in every row or column.
    rng = random.Random(13)
    verdicts = []
    for _ in range(30):
        (j, k), (i, l) = rng.sample(range(4), 2), rng.sample(range(4), 2)
        extra = [
            prod22.singleton(r, j) | prod22.singleton(r, k)
            for r in range(4)
            if rng.random() < 0.75
        ]
        extra += [
            prod22.singleton(i, c) | prod22.singleton(l, c)
            for c in range(4)
            if rng.random() < 0.75
        ]
        base = Lattice.from_closed_family(
            16, list(prod22.base.closed_sets) + extra, mode="complete"
        )
        got, want = _lateral_outcomes(dataclasses.replace(prod22, base=base))
        assert got == want
        verdicts.append(got[0])
    assert 0 < verdicts.count(False) < 30


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_lateral_clause_fails_on_a_closed_pair_in_every_row(m, n, start):
    # With {(i, start), (i, start + 1)} closed in every row i, that right
    # pair's lateral join holds two atoms at every p1, so the first left
    # pair fails against it.
    prod = seplat.aerts_product_general(seplat.build_mo(m)[0], seplat.build_mo(n)[0])
    rows = [
        prod.singleton(i, start) | prod.singleton(i, start + 1)
        for i in range(prod.left.atom_count)
    ]
    base = Lattice.from_closed_family(
        prod.base.atom_count, list(prod.base.closed_sets) + rows, mode="complete"
    )
    got, want = _lateral_outcomes(dataclasses.replace(prod, base=base))
    assert got == want
    assert got[0] is False and got[2] == ((0, 1), (start, start + 1))


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


@functools.cache
def _p2_instance(n2):
    (l, o1), (r, o2) = seplat.build_mo(2), seplat.build_mo(n2)
    return seplat.aerts_product_sharp(l, o1, r, o2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_p2_matches_the_per_atom_oracle_on_corrupted_embeddings(data):
    # Random base members replace up to two embedded elements per side: a
    # replaced atom image breaks the pair atoms, another replaced element
    # only its joins, and no replacement leaves the product passing.
    prod = _p2_instance(data.draw(st.sampled_from((1, 2))))
    members = prod.base.closed_sets
    h1, h2 = dict(prod.h1), dict(prod.h2)
    for h in (h1, h2):
        for key in data.draw(st.lists(st.sampled_from(sorted(h)), max_size=2)):
            h[key] = data.draw(st.sampled_from(members))
    bad = dataclasses.replace(prod, h1=h1, h2=h2)
    ident = AutoGroup.identity_only(prod.left), AutoGroup.identity_only(prod.right)
    p2 = seplat.check_sproduct(bad, *ident).reports["P2"]
    assert (p2.checked, p2.failures) == oracles.p2_per_atom(bad)


def test_p2_checks_every_atom_when_an_atom_meet_holds_another_atom():
    # The base is MO(2)xMO(1) times the two-element lattice on atom 8, and
    # atom 8 is added to h1 and h2 of the first atoms: every join still
    # has the cross as its pair atoms, but the meet of those two atoms'
    # images is no pair atom, so P2 is decided atom by atom.
    prod = _p2_instance(1)
    extra = 1 << 8
    family = [m | e for m in prod.base.closed_sets for e in (0, extra)]
    h1, h2 = dict(prod.h1), dict(prod.h2)
    h1[1] |= extra
    h2[1] |= extra
    bad = dataclasses.replace(
        prod, base=Lattice.from_closed_family(9, family), h1=h1, h2=h2
    )
    ident = AutoGroup.identity_only(prod.left), AutoGroup.identity_only(prod.right)
    p2 = seplat.check_sproduct(bad, *ident).reports["P2"]
    assert p2.failures
    assert (p2.checked, p2.failures) == oracles.p2_per_atom(bad)


def _first_witness_by_kind(failures, kind):
    out = {}
    for w in failures:
        out.setdefault(kind(w), w)
    return len(failures), list(out.values())


def test_witnesses_of_a_corrupted_product(prod22):
    # Witnesses are built only for failing checks; these are the failure
    # counts and the first witness of each kind that the checks reported
    # when they built every witness up front.
    lat = prod22.left
    rows = {prod22.row(i) for i in range(4)}
    cols = {prod22.col(j) for j in range(4)}
    singles = {1 << k for k in range(16)}
    family = {0, prod22.base.top, 0b11, 0b10001} | rows | cols | singles
    h1, h2 = dict(prod22.h1), dict(prod22.h2)
    h1[0], h1[1] = h1[1], h1[0]
    h2[0], h2[1] = h2[1], h2[0]
    bad = dataclasses.replace(
        prod22, base=Lattice.from_closed_family(16, family), h1=h1, h2=h2
    )
    ident = AutoGroup.identity_only(lat)
    reports = seplat.check_sproduct(bad, ident, ident).reports
    assert _first_witness_by_kind(reports["P0"].failures, lambda w: w[:2]) == (
        116,
        [
            ("h1", "join", []),
            ("h1", "meet", [(), (0,)]),
            ("h2", "join", []),
            ("h2", "meet", [(), (0,)]),
        ],
    )
    assert _first_witness_by_kind(reports["P1"].failures, len) == (7, [(0, 0, ())])
    assert _first_witness_by_kind(reports["P2"].failures, len) == (193, [(0, 0, (), ())])
    lateral = seplat.lateral_join_check(bad).failures
    assert _first_witness_by_kind(lateral, lambda w: w[0]) == (
        18,
        [("right", 0, 0, 1, (0, 1)), ("left", 0, 0, 1, (0, 4)), ("h1", []), ("h2", [])],
    )
    lemma = seplat.sproduct_join_lemma_check(bad).failures
    assert _first_witness_by_kind(lemma, lambda w: w[0]) == (
        160,
        [
            ("two-atoms", (0, 0), (1, 1), tuple(range(16))),
            ("atom-sets", 0, (0, 1, 2, 3), 0, (0, 1, 2, 3)),
        ],
    )


def test_passing_checks_build_no_witnesses(prod23, aut_mo2, aut_mo3, mo3, tmp_path, monkeypatch):
    # P3 lists block atoms to do its work, not for a witness
    monkeypatch.setattr(
        seplat.axioms, "laterally_connected", lambda *args: ConnectivityResult(True)
    )
    # the document boundary checks each law over the whole family and
    # names a witness only after a failure; the documents are written first
    mo4 = seplat.build_mo(4)
    prod34 = seplat.aerts_product_sharp(*mo3, *mo4)
    paths = [str(tmp_path / f"{name}.json") for name in ("prod", "mo3", "mo4")]
    seplat.dump_product(paths[0], prod34)
    seplat.dump_lattice(paths[1], *mo3)
    seplat.dump_lattice(paths[2], *mo4)
    images = dict(prod34.ortho.images)
    built = []

    def counted(mask):
        built.append(mask)
        return atoms_of(mask)

    for module in (seplat.axioms, seplat.product, seplat.io, seplat.ortho, seplat.lattice):
        monkeypatch.setattr(module, "atoms_of", counted)
    assert seplat.check_sproduct(prod23, aut_mo2, aut_mo3).passed
    assert seplat.lateral_join_check(prod23).passed
    assert seplat.sproduct_join_lemma_check(prod23).passed
    assert len(seplat.load_product(*paths).base) == 952
    assert seplat.validate_ortho(prod34.base, images).table == prod34.ortho.table
    assert built == []


# P4 evaluates only the spanning pairs (g, id) and (id, g) for the strong
# generators g, passing or failing.  Its verdict must equal the all-pairs
# reference over the members of the generated groups, its count too on a
# pass, and on a failure its witnesses must be the failing spanning pairs
# (`oracles.p4_spanning_pairs`).


def _p4(prod, t1, t2):
    report = seplat.check_sproduct(prod, t1, t2).reports["P4"]
    return report.passed, report.checked, report.failures


def _with_row_pair(prod):
    """The product with the non-invariant two-atom set {0, 1} added to
    its base."""
    sets = set(prod.base.closed_sets) | {0b11}
    base = Lattice.from_closed_family(prod.base.atom_count, sets)
    return dataclasses.replace(prod, base=base)


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
    corrupted = _with_row_pair(prod22)
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
            assert got == oracles.p4_spanning_pairs(prod, t1.generators, t2.generators, m1, m2)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_p4_failures_on_a_corrupted_base_match_all_pairs(prod22, aut_mo2):
    corrupted = _with_row_pair(prod22)
    got = _p4(corrupted, aut_mo2, aut_mo2)
    gens = aut_mo2.generators
    assert got == oracles.p4_spanning_pairs(corrupted, gens, gens, aut_mo2, aut_mo2)
    assert got[1] == 2 * len(gens) == 12 and got[2]


def test_p4_refutes_a_non_invariant_base_on_spanning_pairs(prod23, aut_mo2, aut_mo3):
    # The all-pairs loop evaluates 17 280 pairs here, and 16 992 fail.
    bad = _with_row_pair(prod23)
    passed, checked, failures = _p4(bad, aut_mo2, aut_mo3)
    spanning = len(aut_mo2.generators) + len(aut_mo3.generators)
    assert not passed and checked == spanning == 21
    assert 0 < len(failures) <= 21
    for u1, u2 in failures:
        pair = ([Automorphism(u1)], [Automorphism(u2)])
        assert (u1 == tuple(range(4))) != (u2 == tuple(range(6)))
        assert oracles.p4_all_pairs(bad, *pair) == (False, 1, [(u1, u2)])


def test_p4_on_a_base_with_fewer_atoms_than_pairs(mo1):
    # MO(1) x MO(1) has four pair atoms; this base has three, so no pair
    # map permutes its atoms and P4 fails on (id, id) without evaluating
    # one.  The reference reads each pair map on the three atoms only and
    # passes (id, id), so with trivial groups its verdict differs.
    left, _ = mo1
    base = Lattice.from_closed_family(3, [0, 1, 2, 4, 7])
    h = {0: 0, 1: 1, 2: 2, 3: 7}
    prod = ProductLattice(base, left, left, h, dict(h), "external")
    aut = seplat.enumerate_automorphisms(left)
    assert base.atom_count != prod.pair_count
    got = _p4(prod, aut, aut)
    assert got == (False, 1, [((0, 1), (0, 1))])
    assert got[0] == oracles.p4_all_pairs(prod, aut, aut)[0]
    trivial = AutoGroup(left, ())
    assert _p4(prod, trivial, trivial) == got
    assert oracles.p4_all_pairs(prod, trivial, trivial) == (True, 1, [])


def test_p4_on_a_base_with_more_atoms_than_pairs(prod22, aut_mo2):
    # Atom 16 joins every member of MO(2) x MO(2): no pair map reaches it,
    # so P4 fails on (id, id) without evaluating a map (no raw
    # IndexError), and P5 names the atom.
    sets = set(prod22.base.closed_sets)
    sets |= {m | 1 << 16 for m in sets}
    bad = dataclasses.replace(prod22, base=Lattice.from_closed_family(17, sets))
    rep = seplat.check_sproduct(bad, aut_mo2, aut_mo2)
    identity = (0, 1, 2, 3)
    got = _p4(bad, aut_mo2, aut_mo2)
    assert got == (False, 1, [(identity, identity)])
    reference = oracles.p4_all_pairs(bad, aut_mo2, aut_mo2)
    assert not reference[0] and reference[2][0] == (identity, identity)
    assert rep.reports["P5"].failures == [[(16,)]]


def test_p4_with_an_empty_member_list(prod22, aut_mo2):
    # No generators give the trivial group, whose one member is the identity.
    empty = AutoGroup(prod22.left, ())
    assert [u.perm for u in empty] == [(0, 1, 2, 3)] and empty.generators == ()
    for t1, t2, pairs in ((empty, aut_mo2, 24), (aut_mo2, empty, 24), (empty, empty, 1)):
        got = _p4(prod22, t1, t2)
        assert got == oracles.p4_all_pairs(prod22, t1, t2) == (True, pairs, [])


def test_no_check_lists_group_members(
    monkeypatch, mo2, mo3, prod23, aut_mo2, aut_mo3
):
    # Every check reads a group off its generators and stabilizer chain.
    def listed(group):
        raise AssertionError("a check listed the members of a group")

    monkeypatch.setattr(AutoGroup, "__iter__", listed)
    induced = induced_pair_group(prod23, aut_mo2, aut_mo3)
    assert seplat.check_sproduct(prod23, aut_mo2, aut_mo3).passed
    report = seplat.check_sproduct(_with_row_pair(prod23), aut_mo2, aut_mo3)
    assert not report.reports["P4"].passed
    assert seplat.strongly_transitive(mo2[0], aut_mo2)
    assert seplat.strongly_transitive(mo3[0], aut_mo3)
    tags = seplat.classify_invariant_subsets(prod23, induced).tags()
    assert "unexpected" not in tags
    assert seplat.characterize(prod23).steps


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


def _corrupted(prod, rng):
    """A seeded corruption of a product: its base with up to two two-atom
    sets added and up to two meet-irreducibles that no embedding hits
    removed (either keeps the family closed under intersection), then h1
    and h2 passed through `_corrupt` against that base."""
    n = prod.base.atom_count
    images = set(prod.h1.values()) | set(prod.h2.values())
    removable = [
        m for m in prod.base.meet_irreducibles() if popcount(m) > 1 and m not in images
    ]

    def change(sets):
        for _ in range(rng.randint(0, 2)):
            p, q = rng.sample(range(n), 2)
            sets.add(1 << p | 1 << q)
        sets.difference_update(rng.sample(removable, rng.randint(0, 2)))

    bad = _with_base(prod, change)
    h1 = _corrupt(prod.h1, bad.base, prod.left, rng)
    h2 = _corrupt(prod.h2, bad.base, prod.right, rng)
    return dataclasses.replace(bad, h1=h1, h2=h2)


def test_join_checks_match_the_per_check_loops_on_corrupted_products(prod22, prod23):
    # The join checks and P0 decide on signatures and loop over the checks
    # only after a failure; `checked` and every failure, in order, must be
    # those of the per-check references.
    rng = random.Random(30)
    outcomes = set()
    for _ in range(15):
        for prod in (prod22, prod23):
            bad = _corrupted(prod, rng)
            pools = _subset_pools(bad.left.closed_sets, bad.right.closed_sets)
            ident = AutoGroup.identity_only(bad.left), AutoGroup.identity_only(bad.right)
            reports = seplat.check_sproduct(bad, *ident).reports
            for name, report, reference in (
                ("lateral", seplat.lateral_join_check(bad), oracles.lateral_joins_per_check(bad, pools)),
                ("lemma", seplat.sproduct_join_lemma_check(bad), oracles.join_lemma_per_check(bad)),
                ("P0", reports["P0"], oracles.p0_per_check(bad, pools)),
                ("P2", reports["P2"], oracles.p2_per_atom(bad)),
            ):
                assert (report.checked, report.failures) == reference, name
                outcomes.add((name, report.passed))
    assert len(outcomes) == 8  # each check both passes and fails


def test_join_checks_raise_as_the_per_check_loops(prod22, mo1):
    # What the per-check loops raised on a base without a pair atom and on
    # images outside the base: the first offending mask in their loop
    # order.  An embedding that misses factor elements raises
    # ValidationError for the first of them in family order, as the
    # references do.
    base3 = Lattice.from_closed_family(3, [0, 1, 2, 4, 7])
    h = {0: 0, 1: 1, 2: 2, 3: 7}
    small = ProductLattice(base3, mo1[0], mo1[0], h, dict(h), "external")
    members = prod22.left.closed_sets
    h1, h2 = dict(prod22.h1), dict(prod22.h2)
    h1[members[2]] = 0b11
    h2[members[3]], h2[members[1]] = 0b101, 0b1001

    def raised(check, prod):
        with pytest.raises((ForeignElementError, ValidationError)) as exc:
            check(prod)
        err = exc.value
        if isinstance(err, ForeignElementError):
            return type(err).__name__, err.mask
        return type(err).__name__, err.law, err.witness

    def p0(prod):
        seplat.check_sproduct(prod, AutoGroup(prod.left, ()), AutoGroup(prod.right, ()))

    lateral, lemma = seplat.lateral_join_check, seplat.sproduct_join_lemma_check
    assert raised(lateral, small) == raised(lemma, small) == ("ForeignElementError", 8)
    for prod, want in (
        (dataclasses.replace(prod22, h1=h1), ("ForeignElementError", 3)),
        (dataclasses.replace(prod22, h2=h2), ("ForeignElementError", 9)),
    ):
        assert raised(lateral, prod) == raised(p0, prod) == want
    pools = _subset_pools(prod22.left.closed_sets, prod22.right.closed_sets)
    top = prod22.right.top
    for gone, want in (((0, top), ()), ((top,), (0, 1, 2, 3))):
        missing = {x: y for x, y in prod22.h2.items() if x not in gone}
        bad = dataclasses.replace(prod22, h2=missing)
        law = "embedding maps every factor element"
        assert raised(lateral, bad) == raised(p0, bad) == ("ValidationError", law, want)
        for reference in (oracles.lateral_joins_per_check, oracles.p0_per_check):
            with pytest.raises(LookupError) as exc:
                reference(bad, pools)
            assert exc.value.args == (law, want)


def test_join_checks_call_no_join_or_meet_on_the_base(prod23, monkeypatch):
    # On a passing product the lateral joins, the join lemma and P0 read
    # the base's joins off its signatures.
    base, calls = prod23.base, []
    for name in ("join", "meet"):

        def counted(self, xs, method=getattr(Lattice, name), name=name):
            if self is base:
                calls.append(name)
            return method(self, xs)

        monkeypatch.setattr(Lattice, name, counted)
    assert seplat.sproduct_join_lemma_check(prod23).passed
    assert seplat.lateral_join_check(prod23).passed
    report = CheckReport("P0")
    pools = _subset_pools(prod23.left.closed_sets, prod23.right.closed_sets)
    for factor, h, side, pool in zip(
        (prod23.left, prod23.right), (prod23.h1, prod23.h2), ("h1", "h2"), pools
    ):
        _check_embedding_morphism(report, base, factor, h, side, pool)
    assert report.passed and report.checked == 2 * (2 + len(pools[0]) + len(pools[1]))
    assert calls == []


def test_connectivity_checks_call_no_join_on_any_lattice(prod23, monkeypatch):
    # The third-atom graph and P3's lateral joins read joins off the
    # signatures.
    calls = []

    def counted(self, xs, method=Lattice.join):
        calls.append(self)
        return method(self, xs)

    monkeypatch.setattr(Lattice, "join", counted)
    base = prod23.base
    assert not seplat.weakly_connected(base, Covering.single_block(base)).ok
    assert seplat.connected_covering(base) is None
    for lat in (prod23.left, prod23.right):
        assert seplat.weakly_connected(lat, Covering.single_block(lat)).ok
        assert seplat.connected_covering(lat) == Covering.single_block(lat)
    single = Covering.single_block(prod23.left), Covering.single_block(prod23.right)
    assert seplat.laterally_connected(prod23, *single).ok
    assert calls == []


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
    # 24 pair atoms are past the sweep cap, which only intransitive groups
    # meet; the rows and columns are blocks of the induced group, and the
    # first block in mask order is row 0.
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


def test_induced_groups_past_the_sweep_cap_yield_rows_and_columns(mo3, prod23, induced23):
    prod33 = seplat.aerts_product_sharp(*mo3, *mo3)
    aut3 = seplat.enumerate_automorphisms(mo3[0])
    for prod, group, want in (
        (prod23, induced23, {"full": 1, "singleton": 24, "row": 4, "column": 6}),
        (prod33, induced_pair_group(prod33, aut3, aut3), {"full": 1, "singleton": 36, "row": 6, "column": 6}),
    ):
        assert prod.base.atom_count > SWEEP_ATOM_CAP
        res = seplat.classify_invariant_subsets(prod, group)
        assert {tag: len(masks) for tag, masks in res.tags().items()} == want
        assert [m for m, _ in res.entries] == sorted(m for m, _ in res.entries)


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
    # The transitive induced group needs no sweep; the identity group on 24
    # atoms is past the sweep cap, and there is no sampled fallback.
    with pytest.raises(SizeCapError):
        seplat.classify_invariant_subsets(prod23, AutoGroup.identity_only(prod23.base))
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


# -- groups of another lattice ----------------------------------------------


def test_check_sproduct_rejects_groups_of_another_lattice(prod22, aut_mo2, aut_mo3):
    with pytest.raises(ValidationError) as exc:
        seplat.check_sproduct(prod22, aut_mo3, aut_mo2)
    assert (exc.value.law, exc.value.witness) == ("group acts on the lattice", "t1")
    with pytest.raises(ValidationError) as exc:
        seplat.check_sproduct(prod22, aut_mo2, aut_mo3)
    assert (exc.value.law, exc.value.witness) == ("group acts on the lattice", "t2")


def test_strongly_transitive_rejects_a_group_of_another_lattice(mo2, mo3, aut_mo2, aut_mo3):
    for lat, group in ((mo2[0], aut_mo3), (mo3[0], aut_mo2)):
        with pytest.raises(ValidationError) as exc:
            seplat.strongly_transitive(lat, group)
        assert exc.value.law == "group acts on the lattice"


def test_classification_rejects_a_group_of_another_lattice(prod22, aut_mo2):
    with pytest.raises(ValidationError) as exc:
        seplat.classify_invariant_subsets(prod22, aut_mo2)
    assert exc.value.law == "group acts on the lattice"


def test_induced_pair_group_rejects_maps_off_the_base(prod22, aut_mo2):
    # the extra two-set {(0,0), (0,1)} is moved off the base by a left
    # generator that moves atom 0
    with pytest.raises(ValidationError) as exc:
        seplat.induced_pair_group(_with_row_pair(prod22), aut_mo2, aut_mo2)
    assert exc.value.law == "group members are automorphisms of the lattice"
    assert seplat.induced_pair_group(prod22, aut_mo2, aut_mo2).order == 576


def test_passing_embedding_checks_draw_no_subset_pool(prod23, two, monkeypatch):
    # A law that every subset keeps counts the pool by its closed-form
    # length; the subsets are drawn only for the witnesses of a failure.
    families = (prod23.left.closed_sets, prod23.right.closed_sets)
    for fams in (families, (two.closed_sets,) * 2):
        for pool, subsets in zip(_lazy_pools(*fams), _subset_pools(*fams)):
            assert len(pool) == len(subsets)
            assert list(pool) == subsets
    p0_checked = 2 * (2 + sum(map(len, _subset_pools(*families))))

    def refuse(*families):
        raise AssertionError("a subset pool was drawn")

    monkeypatch.setattr(seplat.product, "_subset_pools", refuse)
    ident = AutoGroup.identity_only(prod23.left), AutoGroup.identity_only(prod23.right)
    p0 = seplat.check_sproduct(prod23, *ident).reports["P0"]
    assert p0.passed and p0.checked == p0_checked
    assert seplat.lateral_join_check(prod23).passed
