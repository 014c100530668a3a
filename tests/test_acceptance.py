"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion is also an ordinary test, so a plain pytest run enforces them.
"""

import time
from contextlib import contextmanager

import seplat
from seplat.axioms import induced_pair_group
from seplat.bitset import atoms_of
from seplat.perm import AutoGroup

import oracles
from test_builders import _label_vectors, _mask_from_span


@contextmanager
def criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {num} ({name}): PASS [{elapsed:.2f}s]")


def family_as_sets(lat):
    return {frozenset(atoms_of(m)) for m in lat.closed_sets}


def test_criterion_01_route_equivalence():
    with criterion(1, "route equivalence"):
        sizes = {(2, 2): 114, (2, 3): 240, (3, 3): 536}
        for (m, n), size in sizes.items():
            left, o1 = seplat.build_mo(m)
            right, o2 = seplat.build_mo(n)
            started = time.perf_counter()
            general = seplat.aerts_product_general(left, right)
            sharp = seplat.aerts_product_sharp(left, o1, right, o2)
            assert general.base.closed_sets == sharp.base.closed_sets
            elapsed = time.perf_counter() - started
            assert elapsed < 10.0, f"pair MO({m}) x MO({n}) took {elapsed:.1f}s"
            assert len(general.base) == size
            assert size == oracles.expected_mo_product_family_size(2 * m, 2 * n)


def test_criterion_02_atoms_and_coatom_orthocomplements(prod22, mo2):
    with criterion(2, "product atoms and coatom orthocomplements"):
        lat, om_factor = mo2
        assert prod22.base.atom_count == 16
        assert set(prod22.base.atoms()) == {
            prod22.singleton(i, j) for i in range(4) for j in range(4)
        }
        for i in range(4):
            for j in range(4):
                want = prod22.cross(om_factor(1 << i), om_factor(1 << j))
                assert prod22.ortho(prod22.singleton(i, j)) == want
        assert set(prod22.base.coatoms()) == {
            prod22.ortho(a) for a in prod22.base.atoms()
        }


def test_criterion_03_lateral_joins_and_join_lemma(prod22, prod23):
    with criterion(3, "lateral joins and join lemma"):
        started = time.perf_counter()
        for prod in (prod22, prod23):
            assert seplat.lateral_join_check(prod).passed
            assert seplat.sproduct_join_lemma_check(prod).passed
        assert time.perf_counter() - started < 30.0


def test_criterion_04_product_axioms(prod22, prod23, aut_mo2, aut_mo3):
    with criterion(4, "product axioms P0-P5"):
        for prod, t1, t2 in ((prod22, aut_mo2, aut_mo2), (prod23, aut_mo2, aut_mo3)):
            report = seplat.check_sproduct(prod, t1, t2)
            assert report.passed, report.lines()
            assert sorted(report.reports) == ["P0", "P1", "P2", "P3", "P4", "P5"]


def test_criterion_04_product_axioms_on_the_mo3_square(mo3):
    with criterion(4, "product axioms P0-P5 on MO(3) x MO(3)"):
        lat, om = mo3
        prod = seplat.aerts_product_sharp(lat, om, lat, om)
        aut = seplat.enumerate_automorphisms(lat)
        assert len(aut) == 720
        report = seplat.check_sproduct(prod, aut, aut)
        assert report.passed, report.lines()
        assert report.reports["P4"].checked == 720 * 720 == 518400


def test_criterion_05_automorphism_factorization(prod22):
    with criterion(5, "automorphism factorization count"):
        started = time.perf_counter()
        factor_count = len(
            oracles.brute_automorphisms(family_as_sets(prod22.left), 4)
        )
        assert factor_count == 24
        group = seplat.enumerate_automorphisms(prod22.base)
        assert len(group) == factor_count ** 2 * 2 == 1152
        sides = {"straight": 0, "swapped": 0}
        for u in group:
            sides[seplat.factor_automorphism(prod22, u).side] += 1
        assert sides == {"straight": 576, "swapped": 576}
        assert time.perf_counter() - started < 60.0


def test_criterion_06_strong_transitivity(mo2, mo3, aut_mo2, aut_mo3):
    with criterion(6, "strong transitivity"):
        assert seplat.strongly_transitive(mo2[0], aut_mo2).ok
        assert seplat.strongly_transitive(mo3[0], aut_mo3).ok
        res = seplat.strongly_transitive(mo2[0], AutoGroup.identity_only(mo2[0]))
        assert not res.ok


def test_criterion_07_invariant_subset_classification(prod22, aut_mo2):
    with criterion(7, "invariant subset classification"):
        started = time.perf_counter()
        group = induced_pair_group(prod22, aut_mo2, aut_mo2)
        result = seplat.classify_invariant_subsets(prod22, group, mode="exact")
        tags = {tag: len(masks) for tag, masks in result.tags().items()}
        assert tags == {"full": 1, "singleton": 16, "row": 4, "column": 4}
        assert result.unexpected == []
        assert time.perf_counter() - started < 60.0


def test_criterion_08_characterization(prod22, prod23, aut_mo2, aut_mo3, mo2, mo3):
    with criterion(8, "characterization"):
        res22 = seplat.characterize(prod22, aut1=aut_mo2, aut2=aut_mo2)
        assert res22.induced_left == mo2[1] and res22.induced_right == mo2[1]
        res23 = seplat.characterize(prod23, aut1=aut_mo2, aut2=aut_mo3)
        assert res23.induced_left == mo2[1] and res23.induced_right == mo3[1]
        found = seplat.enumerate_orthocomplementations(prod22.base)
        assert len(found) == 9
        for om in found:
            seplat.characterize(prod22.with_ortho(om), aut1=aut_mo2, aut2=aut_mo2)


def test_criterion_09_oracle_cross_checks(mo2, mo3, b3, prod22):
    with criterion(9, "oracle cross-checks"):
        for q, d in ((2, 2), (2, 3), (3, 2)):
            lat = seplat.build_subspace_lattice(q, d)
            field = oracles.FieldOracle(q)
            points = _label_vectors(lat)
            for x in lat.closed_sets:
                basis_x = [points[a] for a in atoms_of(x)]
                for y in lat.closed_sets:
                    basis_y = [points[a] for a in atoms_of(y)]
                    inter = oracles.zassenhaus_intersection(basis_x, basis_y, field, d)
                    assert lat.meet((x, y)) == _mask_from_span(inter, lat, field, d)
                    total = oracles.subspace_sum_basis(basis_x, basis_y, field)
                    assert lat.join((x, y)) == _mask_from_span(total, lat, field, d)
        cases = [mo2, mo3, b3, (prod22.base, prod22.ortho)]
        for lat, om in cases:
            fam = family_as_sets(lat)
            omap = {
                frozenset(atoms_of(x)): frozenset(atoms_of(om(x)))
                for x in lat.closed_sets
            }
            assert seplat.is_orthomodular(lat, om) == oracles.orthomodular_double_loop(
                fam, omap
            )
        assert seplat.is_orthomodular(mo2[0], mo2[1])
        assert not seplat.is_orthomodular(prod22.base, prod22.ortho)


def test_criterion_10_trivial_factor_collapse(mo3):
    with criterion(10, "trivial-factor product collapse"):
        two = seplat.build_two()
        prod = seplat.aerts_product_general(two, mo3[0])
        assert seplat.isomorphic(prod.base, mo3[0]) is not None
