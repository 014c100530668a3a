"""Workload definitions: seeded inputs, instance lists and frozen verdicts.

A workload is an ordered list of instances; an instance is one job that
drives the public seplat API (or the in-process CLI) and compares every
output with a value frozen below.  A pass runs the list once.

Inputs are generated per pass: every factor lattice gets an atom
relabeling drawn from the run seed and the pass index, and is re-validated
through `Lattice.from_closed_family` and `validate_ortho` before any timed
job sees it.  The frozen values are invariants of the isomorphism class,
so they hold for every seed.  Every atom permutation is an automorphism
of MO(n) and of B3, so for those factors a relabeling changes the
orthocomplementation pairing, the atom labels and the documents but not
the closed family; GF(2)^3 gets a different family.  Equal inputs on
later passes cannot hit a cache, because run.py runs every pass in a fresh
process; within one pass, copies of one MO(n) are still equal lattices.
"""

from __future__ import annotations

import contextlib
import filecmp
import io as _stdio
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import seplat
from seplat import axioms, cli, io
from seplat.perm import AutoGroup

# Steps `characterize` reports with and without its hypothesis stage.
CONSTRUCTIVE_STEPS = [
    "delta-bijection",
    "order-isomorphism",
    "induced-orthocomplementations",
    "sharp-rebuild",
]
ALL_STEPS = ["hypotheses"] + CONSTRUCTIVE_STEPS


class Mismatch(Exception):
    """An output differs from its frozen value."""


def expect(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


# -- seeded inputs --------------------------------------------------------


def relabel(lattice, ortho, rng: random.Random):
    """Copy of (lattice, ortho) with atoms permuted by a random bijection,
    rebuilt and validated through the public constructors."""
    n = lattice.atom_count
    sigma = list(range(n))
    rng.shuffle(sigma)

    def move(mask: int) -> int:
        out = 0
        for a in seplat.atoms_of(mask):
            out |= 1 << sigma[a]
        return out

    old = lattice.atom_labels or tuple(str(a) for a in range(n))
    labels = [""] * n
    for a in range(n):
        labels[sigma[a]] = old[a]
    lat = seplat.Lattice.from_closed_family(
        n, [move(m) for m in lattice.closed_sets], atom_labels=labels
    )
    if ortho is None:
        return lat, None
    images = {move(x): move(y) for x, y in ortho.images.items()}
    return lat, seplat.validate_ortho(lat, images)


def _factor(name: str):
    if name.startswith("mo"):
        return seplat.build_mo(int(name[2]))
    if name == "gf2_3":
        return seplat.build_subspace_lattice(2, 3), None
    if name == "b3":
        return seplat.build_boolean(3)
    raise ValueError(name)


# Factors each workload relabels before a pass; a trailing letter marks an
# independent copy (the left and right factor of a square product).
FACTORS = {
    "certify": ("mo2a", "mo2b", "mo3", "mo4", "gf2_3", "b3"),
    "construct": ("mo3a", "mo3b", "mo4a", "mo4b"),
    "documents": ("mo2a", "mo2b", "mo3", "mo4a", "mo4b", "gf2_3"),
}


@dataclass
class Inputs:
    """Relabeled factors of one pass, keyed like FACTORS, plus the
    directory holding their documents (documents workload only)."""

    factors: dict
    workdir: Optional[str] = None

    def lat(self, name):
        return self.factors[name][0]

    def path(self, name):
        return os.path.join(self.workdir, name + ".json")


def make_inputs(workload: str, seed: int, pass_index: int, workdir=None) -> Inputs:
    rng = random.Random(f"{seed}:{pass_index}")
    factors = {name: relabel(*_factor(name), rng) for name in FACTORS[workload]}
    inputs = Inputs(factors, workdir)
    if workload == "documents":
        for name, (lat, om) in factors.items():
            io.dump_lattice(inputs.path(name), lat, om, {"input": name})
    return inputs


# -- shared checks ----------------------------------------------------------


def _routes(left, o1, right, o2, size: int):
    gen = seplat.aerts_product_general(left, right)
    sharp = seplat.aerts_product_sharp(left, o1, right, o2)
    expect(len(gen.base), size, "generator-route element count")
    expect(gen.base.closed_sets == sharp.base.closed_sets, True, "route equality")
    return sharp


def _factor_hypotheses(lat, group, name: str) -> None:
    """The factor hypotheses `characterize` checks, one stage at a time."""
    expect(lat.is_coatomistic(), True, f"{name} coatomistic")
    cov = seplat.Covering.single_block(lat)
    expect(seplat.weakly_connected(lat, cov).ok, True, f"{name} weakly connected")
    expect(seplat.strongly_transitive(lat, group).ok, True, f"{name} strongly transitive")


def _axioms(prod, t1, t2, counts: dict) -> None:
    report = seplat.check_sproduct(prod, t1, t2)
    expect(report.passed, True, "P0-P5 pass")
    got = {name: r.checked for name, r in report.reports.items()}
    expect(got, counts, "P0-P5 check counts")


def _automorphisms(lat, order: int, name: str):
    group = seplat.enumerate_automorphisms(lat)
    expect(len(group), order, f"|Aut({name})|")
    return group


def _characterize_constructive(prod, t1, t2, o1, o2) -> None:
    res = seplat.characterize(prod, aut1=t1, aut2=t2, check_hypotheses=False)
    expect(res.steps, CONSTRUCTIVE_STEPS, "characterize steps")
    expect(res.induced_left == o1, True, "induced left orthocomplementation")
    expect(res.induced_right == o2, True, "induced right orthocomplementation")


def _axiom_counts(p0, p1, p2, p4):
    return {"P0": p0, "P1": p1, "P2": p2, "P3": 1, "P4": p4, "P5": 1}


# -- certify: the group layer -----------------------------------------------


def certify_mo2xmo2(x: Inputs) -> None:
    (a, oa), (b, ob) = x.factors["mo2a"], x.factors["mo2b"]
    prod = _routes(a, oa, b, ob, 114)
    ta = _automorphisms(a, 24, "MO(2)")
    tb = _automorphisms(b, 24, "MO(2)")
    _factor_hypotheses(a, ta, "left")
    _factor_hypotheses(b, tb, "right")
    _axioms(prod, ta, tb, _axiom_counts(252, 16, 576, 576))
    _characterize_constructive(prod, ta, tb, oa, ob)
    result = seplat.classify_invariant_subsets(
        prod, axioms.induced_pair_group(prod, ta, tb), mode="exact"
    )
    tags = {tag: len(masks) for tag, masks in result.tags().items()}
    expect(tags, {"full": 1, "singleton": 16, "row": 4, "column": 4}, "classification tags")
    group = _automorphisms(prod.base, 1152, "MO(2)xMO(2)")
    sides = {"straight": 0, "swapped": 0}
    for u in group:
        sides[seplat.factor_automorphism(prod, u).side] += 1
    expect(sides, {"straight": 576, "swapped": 576}, "product automorphism split")


def certify_mo2xmo3(x: Inputs) -> None:
    (a, oa), (c, oc) = x.factors["mo2a"], x.factors["mo3"]
    prod = _routes(a, oa, c, oc, 240)
    ta = _automorphisms(a, 24, "MO(2)")
    tc = _automorphisms(c, 720, "MO(3)")
    _factor_hypotheses(a, ta, "left")
    _factor_hypotheses(c, tc, "right")
    _axioms(prod, ta, tc, _axiom_counts(354, 24, 1152, 17280))
    _characterize_constructive(prod, ta, tc, oa, oc)


def certify_gf2_3xmo2(x: Inputs) -> None:
    g, (b, _) = x.lat("gf2_3"), x.factors["mo2b"]
    prod = seplat.aerts_product_general(g, b)
    expect(len(prod.base), 1728, "generator-route element count")
    tg = _automorphisms(g, 168, "GF(2)^3")
    tb = _automorphisms(b, 24, "MO(2)")
    _axioms(prod, tg, tb, _axiom_counts(1562, 28, 2688, 4032))


def certify_mo4_hypotheses(x: Inputs) -> None:
    lat = x.lat("mo4")
    _factor_hypotheses(lat, _automorphisms(lat, 40320, "MO(4)"), "MO(4)")


def certify_b3xmo2_fails(x: Inputs) -> None:
    (b3, o3), (b, ob) = x.factors["b3"], x.factors["mo2b"]
    prod = seplat.aerts_product_sharp(b3, o3, b, ob)
    expect(len(prod.base), 216, "B3xMO(2) element count")
    try:
        seplat.characterize(prod)
    except seplat.CharacterizationError as e:
        expect((e.step, e.witness[0]), ("factors-weakly-connected", "left"), "failure step")
    else:
        raise Mismatch("characterize accepted B3xMO(2)")


def certify_ortho_counts(x: Inputs) -> None:
    expect(len(seplat.enumerate_orthocomplementations(x.lat("mo4"))), 105, "MO(4) orthocomplementations")
    (a, oa), (b, ob) = x.factors["mo2a"], x.factors["mo2b"]
    prod = seplat.aerts_product_sharp(a, oa, b, ob)
    expect(len(seplat.enumerate_orthocomplementations(prod.base)), 9, "MO(2)xMO(2) orthocomplementations")


# -- construct: lattice, kernel and product layers --------------------------

# name -> (left factor, right factor, elements, lateral checks, join-lemma
#          checks, P0, P1, P2 check counts with identity groups)
CONSTRUCT_CASES = {
    "mo3xmo3": ("mo3a", "mo3b", 536, 406, 1044, 456, 36, 2304),
    "mo3xmo4": ("mo3a", "mo4a", 952, 597, 1872, 622, 48, 3840),
    "mo4xmo4": ("mo4a", "mo4b", 1714, 840, 3392, 788, 64, 6400),
}


def construct_case(name: str) -> Callable[[Inputs], None]:
    lname, rname, size, lateral, lemma, p0, p1, p2 = CONSTRUCT_CASES[name]

    def job(x: Inputs) -> None:
        (left, o1), (right, o2) = x.factors[lname], x.factors[rname]
        prod = _routes(left, o1, right, o2, size)
        prod.base.validate()
        seplat.validate_ortho(prod.base, prod.ortho)
        report = seplat.lateral_join_check(prod)
        expect((report.passed, report.checked), (True, lateral), "lateral joins")
        report = seplat.sproduct_join_lemma_check(prod)
        expect((report.passed, report.checked), (True, lemma), "join lemma")
        ids = AutoGroup.identity_only(left), AutoGroup.identity_only(right)
        _axioms(prod, *ids, _axiom_counts(p0, p1, p2, 1))
        _characterize_constructive(prod, None, None, o1, o2)

    return job


# -- documents: io and cli layers ---------------------------------------------


def _cli_ok(*argv: str) -> list[str]:
    """Run one CLI command in-process and return its stdout lines.  Every
    command here must exit 0 and write nothing to stderr."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    expect((code, err.getvalue()), (0, ""), f"exit code and stderr of {argv[0]}")
    return out.getvalue().splitlines()


def _product_document(x: Inputs, left: str, right: str, route: str, size: int) -> str:
    """`seplat product`, then a load/dump round trip that must reproduce
    the written document byte for byte."""
    path = os.path.join(x.workdir, f"{left}x{right}.json")
    _cli_ok("product", x.path(left), x.path(right), "--route", route, "-o", path)
    prod = io.load_product(path, x.path(left), x.path(right))
    expect(len(prod.base), size, "reloaded element count")
    expect(prod.route, route, "reloaded route")
    again = path + ".again"
    io.dump_product(again, prod)
    expect(filecmp.cmp(path, again, shallow=False), True, "product document round trip")
    return path


def documents_build_mo4(x: Inputs) -> None:
    path = os.path.join(x.workdir, "built_mo4.json")
    _cli_ok("build", "mo", "4", "-o", path)
    doc = io.load_document(path)
    lat, om = doc.build()
    want_lat, want_om = seplat.build_mo(4)
    expect((lat == want_lat, om == want_om), (True, True), "built MO(4)")
    again = path + ".again"
    io.dump_lattice(again, lat, om, doc.meta)
    expect(filecmp.cmp(path, again, shallow=False), True, "lattice document round trip")


def documents_mo4xmo4(x: Inputs) -> None:
    path = _product_document(x, "mo4a", "mo4b", "sharp", 1714)
    lines = _cli_ok("check", path, "--ortho", "--coatomistic")
    expect(lines, ["coatomistic: pass", "ortho: pass"], "check output")


def documents_mo3xmo4(x: Inputs) -> None:
    path = _product_document(x, "mo3", "mo4a", "sharp", 952)
    lines = _cli_ok("sproduct-check", path, x.path("mo3"), x.path("mo4a"), "--T", "id")
    want = [
        "P0: pass (622 checks)",
        "P1: pass (48 checks)",
        "P2: pass (3840 checks)",
        "P3: pass (1 checks)",
        "P4: pass (1 checks)",
        "P5: pass (1 checks)",
    ]
    expect(lines, want, "sproduct-check output")
    dot = path + ".dot"
    _cli_ok("export", path, "-o", dot)
    with open(dot) as fh:
        text = fh.read()
    counts = (text.count("[label="), text.count(" -> "))
    expect(counts, (952, 3648), "DOT nodes and cover edges")


def documents_mo2xmo2(x: Inputs) -> None:
    path = _product_document(x, "mo2a", "mo2b", "sharp", 114)
    found = path + ".orthos"
    lines = _cli_ok("ortho-search", path, "-o", found)
    expect(lines, ["orthocomplementations: 9"], "ortho-search output")
    with open(found) as fh:
        expect(len(json.load(fh)), 9, "ortho-search documents")
    lines = _cli_ok("characterize", path, x.path("mo2a"), x.path("mo2b"))
    want = [f"step {s}: pass" for s in ALL_STEPS] + ["characterization: success"]
    expect(lines, want, "characterize output")


def documents_gf2_3xmo2(x: Inputs) -> None:
    _product_document(x, "gf2_3", "mo2b", "generators", 1728)


# -- the instance lists -----------------------------------------------------

# Each list starts with its smallest instance; the self-test runs only that.
WORKLOADS = {
    "certify": [
        ("mo2xmo2", certify_mo2xmo2),
        ("mo2xmo3", certify_mo2xmo3),
        ("gf2_3xmo2", certify_gf2_3xmo2),
        ("mo4_hypotheses", certify_mo4_hypotheses),
        ("b3xmo2_fails", certify_b3xmo2_fails),
        ("ortho_counts", certify_ortho_counts),
    ],
    "construct": [(name, construct_case(name)) for name in CONSTRUCT_CASES],
    "documents": [
        ("mo2xmo2", documents_mo2xmo2),
        ("build_mo4", documents_build_mo4),
        ("mo4xmo4", documents_mo4xmo4),
        ("mo3xmo4", documents_mo3xmo4),
        ("gf2_3xmo2", documents_gf2_3xmo2),
    ],
}


def run_pass(workload: str, inputs: Inputs, only: Optional[int] = None) -> dict:
    """Run the workload's instances (the first `only` of them if given);
    return {instance name: None on success, else the failure text}."""
    outcome = {}
    for name, job in WORKLOADS[workload][:only]:
        try:
            job(inputs)
        except Exception as e:  # every raised error is a failed instance
            outcome[name] = f"{type(e).__name__}: {e}"
        else:
            outcome[name] = None
    return outcome
