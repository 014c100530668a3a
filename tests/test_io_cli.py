"""JSON document round-trips, DOT export, and the command-line interface."""

import dataclasses
import json
import random
import tracemalloc
from pathlib import Path

import pytest

import oracles
import seplat
from seplat import io
from seplat.builders import BUILDERS
from seplat.cli import build_parser, main
from seplat.errors import OrthoViolation, ValidationError


# -- document round-trips -----------------------------------------------------


def test_lattice_roundtrip_without_ortho(tmp_path):
    lat = seplat.build_subspace_lattice(2, 2)
    path = str(tmp_path / "sub.json")
    io.dump_lattice(path, lat)
    back, om = io.load_lattice_file(path)
    assert back == lat and om is None
    assert back.atom_labels == lat.atom_labels


def test_lattice_roundtrip_with_ortho(tmp_path, mo3):
    lat, om = mo3
    path = str(tmp_path / "mo3.json")
    io.dump_lattice(path, lat, om, meta={"note": "round-trip"})
    back, om_back = io.load_lattice_file(path)
    assert back == lat and om_back == om
    assert io.load_document(path).meta == {"note": "round-trip"}


def test_dumping_a_map_of_another_lattice_is_refused(tmp_path, mo3):
    # {0, 1} added to the MO(3) x MO(4) base leaves the product's ortho map
    # on the old base
    prod = seplat.aerts_product_sharp(*mo3, *seplat.build_mo(4))
    sets = set(prod.base.closed_sets) | {0b11}
    base = seplat.Lattice.from_closed_family(prod.base.atom_count, sets)
    bad = dataclasses.replace(prod, base=base)
    path = str(tmp_path / "bad.json")
    for dump in (lambda: io.dump_product(path, bad), lambda: io.dump_lattice(path, base, prod.ortho)):
        with pytest.raises(ValidationError) as exc:
            dump()
        assert exc.value.law == "ortho map belongs to the lattice"


def test_dump_is_deterministic(tmp_path, mo2):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    io.dump_lattice(a, mo2[0], mo2[1])
    io.dump_lattice(b, mo2[0], mo2[1])
    assert Path(a).read_text() == Path(b).read_text()


def test_readme_document_is_the_build_output(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Document format", 1)[1].split("```json\n", 1)[1]
    out = tmp_path / "mo2.json"
    assert main(["build", "mo", "2", "-o", str(out)]) == 0
    assert out.read_text() == block.split("```", 1)[0]


def test_documents_round_trip_byte_for_byte(tmp_path, mo3, prod22):
    # dump, load and dump again; also from a document written with indent=2
    lat, om = mo3
    first, second, indented = (str(tmp_path / n) for n in ("1.json", "2.json", "i.json"))
    io.dump_lattice(first, lat, om, meta={"note": "round-trip"})
    doc = io.load_document(first)
    io._write_json(second, doc.to_dict())
    assert Path(first).read_bytes() == Path(second).read_bytes()
    with open(indented, "w") as fh:
        json.dump(doc.to_dict(), fh, indent=2, sort_keys=True)
    assert io.load_lattice_file(indented) == (lat, om)
    io.dump_product(first, prod22)
    io._write_json(second, io.load_document(first).to_dict())
    assert Path(first).read_bytes() == Path(second).read_bytes()


def test_written_lists_hold_one_item_per_line(tmp_path):
    path = tmp_path / "found.json"
    assert main(["build", "mo", "2", "-o", str(tmp_path / "mo2.json")]) == 0
    assert main(["ortho-search", str(tmp_path / "mo2.json"), "-o", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "[" and lines[-1] == "]" and len(lines) == 5  # MO(2) has three
    assert [d["meta"]["index"] for d in json.loads(path.read_text())] == [0, 1, 2]
    io._write_json(str(path), [])
    assert json.loads(path.read_text()) == []


def test_product_roundtrip(tmp_path, mo2, prod22):
    ppath, lpath, rpath = (str(tmp_path / n) for n in ("p.json", "l.json", "r.json"))
    io.dump_product(ppath, prod22)
    io.dump_lattice(lpath, mo2[0], mo2[1])
    io.dump_lattice(rpath, mo2[0], mo2[1])
    back = io.load_product(ppath, lpath, rpath)
    assert back.base == prod22.base
    assert back.h1 == prod22.h1 and back.h2 == prod22.h2
    assert back.route == "sharp" and back.ortho == prod22.ortho


def test_wide_product_roundtrip_checks_embeddings(tmp_path, prod_wide, mo17, mo1):
    ppath, lpath, rpath = (str(tmp_path / n) for n in ("p.json", "l.json", "r.json"))
    io.dump_product(ppath, prod_wide)
    io.dump_lattice(lpath, *mo17)
    io.dump_lattice(rpath, *mo1)
    back = io.load_product(ppath, lpath, rpath)
    assert back.base.atom_count == 68
    assert back.base == prod_wide.base and back.ortho == prod_wide.ortho
    assert back.h1 == prod_wide.h1 and back.h2 == prod_wide.h2
    with open(ppath) as fh:
        data = json.load(fh)
    data["meta"]["h2"][1] = data["meta"]["h2"][2]
    with open(ppath, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(ValidationError, match="h2 is the rectangle embedding"):
        io.load_product(ppath, lpath, rpath)


def test_generator_product_roundtrip_has_no_ortho(tmp_path, mo2):
    prod = seplat.aerts_product_general(mo2[0], mo2[0])
    ppath, fpath = str(tmp_path / "p.json"), str(tmp_path / "f.json")
    io.dump_product(ppath, prod)
    io.dump_lattice(fpath, mo2[0], mo2[1])
    back = io.load_product(ppath, fpath, fpath)
    assert back.ortho is None and back.route == "generators"


def test_load_product_rejects_wrong_factors(tmp_path, prod22, mo2, mo3):
    ppath, good, bad = (str(tmp_path / n) for n in ("p.json", "g.json", "b.json"))
    io.dump_product(ppath, prod22)
    io.dump_lattice(good, mo2[0], mo2[1])
    io.dump_lattice(bad, mo3[0], mo3[1])
    with pytest.raises(ValidationError):
        io.load_product(ppath, good, bad)
    with pytest.raises(ValidationError):
        io.load_product(good, good, good)  # not a product document


def test_load_product_checks_the_route_and_the_atom_counts(tmp_path, docs, two, mo2, capsys):
    path = str(tmp_path / "edited.json")

    def edited(source, **meta):
        """`source` with the given meta fields set, or dropped for None."""
        data = json.loads(Path(source).read_text())
        data["meta"].update(meta)
        data["meta"] = {k: v for k, v in data["meta"].items() if v is not None}
        with open(path, "w") as fh:
            json.dump(data, fh)

    # an absent route is an external one
    for route, read in (("generators",) * 2, ("sharp",) * 2, ("external",) * 2, (None, "external")):
        edited(docs["prod"], route=route)
        assert io.load_product(path, docs["mo2"], docs["mo2"]).route == read
    for route in (5, ["x"], "bogus", ""):
        edited(docs["prod"], route=route)
        with pytest.raises(ValidationError) as exc:
            io.load_product(path, docs["mo2"], docs["mo2"])
        assert exc.value.law.startswith("meta.route is") and exc.value.witness == route
        assert main(["characterize", path, docs["mo2"], docs["mo2"]]) == 2
        assert "meta.route" in capsys.readouterr().err
    # true and 2.0 compare equal to 1 and 2 but are no JSON integers
    factor, product = str(tmp_path / "two.json"), str(tmp_path / "prod.json")
    io.dump_lattice(factor, two)
    io.dump_product(product, seplat.aerts_product_general(two, mo2[0]))
    assert io.load_product(product, factor, docs["mo2"]).left.atom_count == 1
    for key, value in (("left_atoms", True), ("right_atoms", 2.0), ("left_atoms", "1")):
        edited(product, **{key: value})
        with pytest.raises(ValidationError) as exc:
            io.load_product(path, factor, docs["mo2"])
        assert (exc.value.law, exc.value.witness) == (f"meta.{key} is an integer", value)
    edited(product, right_atoms=None)
    with pytest.raises(ValidationError, match="meta.right_atoms is an integer"):
        io.load_product(path, factor, docs["mo2"])


def test_malformed_documents_are_rejected(tmp_path, mo2):
    path = str(tmp_path / "doc.json")

    def write(payload):
        with open(path, "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))

    write("{not json")
    with pytest.raises(ValidationError):
        io.load_document(path)

    write({"closed_sets": [[0]]})
    with pytest.raises(ValidationError):
        io.load_document(path)

    good = io.LatticeDocument.from_lattice(mo2[0], mo2[1]).to_dict()

    truncated = dict(good, ortho_elements=good["ortho_elements"][:-1])
    write(truncated)
    with pytest.raises(ValidationError):
        io.load_lattice_file(path)

    out_of_range = dict(good, ortho_elements=[99] * len(good["closed_sets"]))
    write(out_of_range)
    with pytest.raises(ValidationError):
        io.load_lattice_file(path)

    identity = dict(good, ortho_elements=list(range(len(good["closed_sets"]))))
    write(identity)
    with pytest.raises(OrthoViolation):
        io.load_lattice_file(path)


def test_ortho_requires_canonical_set_order(mo2):
    doc = io.LatticeDocument.from_lattice(mo2[0], mo2[1])
    doc.closed_sets = list(reversed(doc.closed_sets))
    with pytest.raises(ValidationError) as exc:
        doc.build()
    assert "canonical order" in str(exc.value)
    # without an orthocomplementation the order does not matter
    doc.ortho_elements = None
    lat, om = doc.build()
    assert lat == mo2[0] and om is None


def test_dot_export(mo2):
    text = io.to_dot(mo2[0], name="sample")
    assert text.startswith("digraph sample {")
    assert text.count(" -> ") == len(list(mo2[0].covers()))
    for label in mo2[0].atom_labels:
        assert label in text


# -- whole-document passes against the per-element reference -------------------
#
# `LatticeDocument.from_dict` and `build` check the types and ranges of all
# indices at once and name a witness only after that check fails; law and
# witness must be those of the per-element loop.


def _document_violation(data):
    try:
        io.LatticeDocument.from_dict(data).build()
    except ValidationError as e:
        return e.law, e.witness
    return None


def _bad_values(value, bound):
    """Replacements of the index `value`, below `bound`, that are not
    indices: past the range, negative, a bool and a float."""
    return [bound, -1, value == 0, float(value)]


def test_document_index_witnesses_match_the_per_element_loop(mo2, prod22):
    rng = random.Random(26)
    for lat, om in (mo2, (prod22.base, prod22.ortho)):
        good = io.LatticeDocument.from_lattice(lat, om).to_dict()
        assert _document_violation(good) is None
        members, ortho = good["closed_sets"], good["ortho_elements"]
        for i in rng.sample(range(len(members)), min(len(members), 12)):
            for j, atom in enumerate(members[i]):
                for bad in _bad_values(atom, len(good["atoms"])):
                    data = json.loads(json.dumps(good))
                    data["closed_sets"][i][j] = bad
                    want = oracles.first_bad_member(data["closed_sets"], len(data["atoms"]))
                    assert want == tuple(data["closed_sets"][i])
                    assert _document_violation(data) == ("members use atoms 0..atom_count-1", want)
        for i in rng.sample(range(len(ortho)), min(len(ortho), 12)):
            past, negative, boolean, real = _bad_values(ortho[i], len(ortho))
            for bad, law in (
                (past, "orthocomplement indices in range"),
                (negative, "orthocomplement indices in range"),
                (boolean, "ortho_elements lists element indices"),
                (real, "ortho_elements lists element indices"),
            ):
                data = dict(good, ortho_elements=ortho[:i] + [bad] + ortho[i + 1 :])
                assert _document_violation(data) == (law, bad)


# -- command-line interface -----------------------------------------------------


@pytest.fixture()
def docs(tmp_path, mo2, prod22):
    """Standard documents: mo2 factor, sharp product, generator product."""
    paths = {
        "mo2": str(tmp_path / "mo2.json"),
        "prod": str(tmp_path / "prod.json"),
        "gen": str(tmp_path / "gen.json"),
    }
    io.dump_lattice(paths["mo2"], mo2[0], mo2[1])
    io.dump_product(paths["prod"], prod22)
    io.dump_product(paths["gen"], seplat.aerts_product_general(mo2[0], mo2[0]))
    return paths


def test_cli_build_and_check(tmp_path, capsys):
    out = str(tmp_path / "mo2.json")
    assert main(["build", "mo", "2", "-o", out]) == 0
    lat, om = io.load_lattice_file(out)
    assert lat.atom_count == 4 and om is not None
    assert io.load_document(out).meta["builder"] == "mo"

    assert main(["check", out]) == 0
    assert "well-formed: pass" in capsys.readouterr().out

    assert main(["check", out, "--ortho", "--orthomodular", "--coatomistic"]) == 0
    text = capsys.readouterr().out
    for line in ("ortho: pass", "orthomodular: pass", "coatomistic: pass"):
        assert line in text


def test_cli_builds_every_kind_of_the_builder_table(tmp_path, capsys):
    # one parameter list per kind of `BUILDERS`, and the table's count of each
    params = {"mo": ["2"], "boolean": ["3"], "subspace": ["2", "3"], "two": []}
    assert set(params) == set(BUILDERS)
    out = str(tmp_path / "built.json")
    for kind, given in params.items():
        assert len(given) == BUILDERS[kind][0]
        assert main(["build", kind, *given, "-o", out]) == 0
        want = BUILDERS[kind][1](*map(int, given))
        assert io.load_lattice_file(out) == want
        assert io.load_document(out).meta == {"builder": kind, "params": list(map(int, given))}
        assert main(["build", kind, *given, "1"]) == 2
        assert f"builder '{kind}' takes {len(given)} parameter(s)" in capsys.readouterr().err


def test_cli_build_rejects_bad_params(capsys):
    assert main(["build", "subspace", "2"]) == 2
    assert "parameter" in capsys.readouterr().err
    assert main(["build", "mo", "many"]) == 2
    assert main(["build", "mo", "0"]) == 2


def test_cli_product_routes(tmp_path, capsys):
    factor = str(tmp_path / "mo2.json")
    main(["build", "mo", "2", "-o", factor])
    gen_out = str(tmp_path / "gen.json")
    sharp_out = str(tmp_path / "sharp.json")
    assert main(["product", factor, factor, "-o", gen_out]) == 0
    assert main(["product", factor, factor, "--route", "sharp", "-o", sharp_out]) == 0
    gen_doc = io.load_document(gen_out)
    sharp_doc = io.load_document(sharp_out)
    assert gen_doc.ortho_elements is None
    assert sharp_doc.ortho_elements is not None
    assert gen_doc.closed_sets == sharp_doc.closed_sets

    bare = str(tmp_path / "sub.json")
    main(["build", "subspace", "2", "2", "-o", bare])
    assert main(["product", bare, factor, "--route", "sharp"]) == 2
    assert "orthocomplemented" in capsys.readouterr().err


def test_cli_check_failures_and_json_report(tmp_path, docs, capsys):
    report = str(tmp_path / "report.json")
    code = main(["check", docs["prod"], "--orthomodular", "--json", report])
    assert code == 1
    assert "orthomodular: FAIL" in capsys.readouterr().out
    data = json.loads(Path(report).read_text())
    assert data["passed"] is False
    assert data["checks"]["orthomodular"]["ok"] is False
    assert data["checks"]["ortho"]["ok"] is True


def test_cli_check_weak_connectedness(tmp_path, docs, mo1, prod23, capsys, monkeypatch):
    assert main(["check", docs["mo2"], "--weakly-connected"]) == 0
    assert "weakly-connected: pass" in capsys.readouterr().out

    # mo2 is connectable: the refuted line fails and names a covering
    assert main(["check", docs["mo2"], "--weakly-connected", "--covering", "0,1;2,3"]) == 1
    text = capsys.readouterr().out
    assert "weakly-connected: FAIL" in text
    assert "weak-connectedness-refuted: FAIL (connected covering 0,1,2,3)" in text

    assert main(["check", docs["mo2"], "--weakly-connected", "--covering", "auto"]) == 0

    b3_path = str(tmp_path / "b3.json")
    main(["build", "boolean", "3", "-o", b3_path])
    assert main(["check", b3_path, "--weakly-connected"]) == 1
    assert "weak-connectedness-refuted: pass" in capsys.readouterr().out

    # the single block fails, and the named covering of three triangles passes
    five = str(tmp_path / "five.json")
    io.dump_lattice(five, seplat.Lattice.from_closed_family(5, [1, 6, 8, 12, 16, 18], mode="complete"))
    assert main(["check", five, "--weakly-connected"]) == 1
    text = capsys.readouterr().out
    assert "weak-connectedness-refuted: FAIL (connected covering 0,1,3;0,2,4;0,3,4)" in text
    assert main(["check", five, "--weakly-connected", "--covering", "0,1,3;0,2,4;0,3,4"]) == 0
    graphs = []
    build = seplat.axioms._third_atom_graph
    monkeypatch.setattr(
        seplat.axioms, "_third_atom_graph", lambda lat: graphs.append(lat) or build(lat)
    )
    assert main(["check", five, "--weakly-connected", "--covering", "auto"]) == 0
    assert len(graphs) == 1  # the covering `auto` builds is not checked again
    assert "weakly-connected: pass" in capsys.readouterr().out
    # a given covering that fails and the refutation share one graph
    graphs.clear()
    assert main(["check", five, "--weakly-connected"]) == 1
    assert len(graphs) == 1
    assert "weak-connectedness-refuted: FAIL (connected covering 0,1,3;0,2,4;0,3,4)" in (
        capsys.readouterr().out
    )

    # `auto` on a lattice with no connected covering is a refutation
    prod = str(tmp_path / "prod23.json")
    io.dump_product(prod, prod23)
    assert main(["check", prod, "--weakly-connected", "--covering", "auto"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "weak-connectedness-refuted: pass",
        "weakly-connected: FAIL (no connected covering exists)",
    ]

    # `auto` on a factor without one stops sproduct-check, naming the side
    mo1_path = str(tmp_path / "mo1.json")
    io.dump_lattice(mo1_path, *mo1)
    for paths, flag, side in (
        ([mo1_path, docs["mo2"]], "--covering1", "left"),
        ([docs["mo2"], mo1_path], "--covering2", "right"),
    ):
        assert main(["product", *paths, "--route", "sharp", "-o", prod]) == 0
        assert main(["sproduct-check", prod, *paths, "--T", "id", flag, "auto"]) == 2
        assert f"no connected covering exists for the {side} factor" in capsys.readouterr().err


def test_cli_rejects_negative_covering_atoms(docs, capsys):
    for argv in (
        ["check", docs["mo2"], "--weakly-connected", "--covering=0,-1"],
        ["sproduct-check", docs["prod"], docs["mo2"], docs["mo2"], "--covering1=0,-1"],
        ["sproduct-check", docs["prod"], docs["mo2"], docs["mo2"], "--covering2=-2,1"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "blocks use atoms of the lattice" in err and "Traceback" not in err


def test_cli_rejects_covering_atoms_past_the_lattice_before_building_a_mask(docs, capsys):
    # An index at or above the atom count is refused before it becomes a
    # mask: atom 10**8 would otherwise allocate a 12 MB int.
    for argv in (
        ["check", docs["mo2"], "--weakly-connected", "--covering=0,4"],
        ["sproduct-check", docs["prod"], docs["mo2"], docs["mo2"], "--covering2=1,4"],
    ):
        assert main(argv) == 2
        assert "blocks use atoms of the lattice" in capsys.readouterr().err
    tracemalloc.start()
    try:
        code = main(["check", docs["mo2"], "--weakly-connected", f"--covering=0,{10**8}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "blocks use atoms of the lattice" in capsys.readouterr().err
    assert peak < 1 << 20


def test_cli_sproduct_check(tmp_path, docs, capsys):
    report = str(tmp_path / "axioms.json")
    code = main(
        ["sproduct-check", docs["prod"], docs["mo2"], docs["mo2"], "--json", report]
    )
    assert code == 0
    text = capsys.readouterr().out
    for axiom in ("P0", "P1", "P2", "P3", "P4", "P5"):
        assert f"{axiom}: pass" in text
    data = json.loads(Path(report).read_text())
    assert data["passed"] is True and len(data["axioms"]) == 6

    assert main(["sproduct-check", docs["prod"], docs["mo2"], docs["mo2"], "--T", "id"]) == 0
    capsys.readouterr()


def test_cli_aut(tmp_path, docs, mo3, prod23, capsys):
    assert main(["aut", docs["mo2"]]) == 0
    assert "automorphisms: 24" in capsys.readouterr().out

    assert main(["aut", docs["mo2"], "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 25  # header plus one line per member
    assert lines[1] == "0,1,2,3"

    assert main(["aut", docs["prod"], "--factor", docs["mo2"], docs["mo2"]]) == 0
    text = capsys.readouterr().out
    assert "automorphisms: 1152" in text
    assert "straight: 576  swapped: 576" in text

    # the split comes from the generators; the members are listed on request
    assert main(["aut", docs["prod"], "--factor", docs["mo2"], docs["mo2"], "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1152 + 2 and lines[-1] == "straight: 576  swapped: 576"
    assert sum(" swapped " in line for line in lines) == 576

    paths = {name: str(tmp_path / f"{name}.json") for name in ("mo3", "prod23", "b2", "b22")}
    io.dump_lattice(paths["mo3"], *mo3)
    io.dump_product(paths["prod23"], prod23)
    assert main(["aut", paths["prod23"], "--factor", docs["mo2"], paths["mo3"]]) == 0
    text = capsys.readouterr().out
    assert "automorphisms: 17280" in text and "straight: 17280  swapped: 0" in text

    # every atom permutation of B(2) x B(2) is an automorphism; most do not factor
    b2 = seplat.build_boolean(2)
    io.dump_lattice(paths["b2"], *b2)
    io.dump_product(paths["b22"], seplat.aerts_product_general(b2[0], b2[0]))
    assert main(["aut", paths["b22"], "--factor", paths["b2"], paths["b2"]]) == 2
    err = capsys.readouterr().err
    assert "FactorizationError" in err and "'generator'" in err


def test_cli_ortho_search(tmp_path, docs, capsys):
    # MO(2) has three orthocomplementations, so a limit of 2 stops the search
    out = str(tmp_path / "found.json")
    assert main(["ortho-search", docs["mo2"], "--limit", "2", "-o", out]) == 0
    assert capsys.readouterr().out == (
        "orthocomplementations: more than 2 (stopped at --limit 2)\n"
    )
    docs_found = json.loads(Path(out).read_text())
    assert len(docs_found) == 2
    for payload in docs_found:
        lat, om = io.LatticeDocument.from_dict(payload).build()
        assert om is not None


def test_cli_ortho_search_reads_a_stopped_search_apart(tmp_path, mo3, capsys):
    # MO(3) has 15 orthocomplementations: a limit below that stops the
    # search and says so, and a limit at or above it gives the exact count.
    path, out = str(tmp_path / "mo3.json"), str(tmp_path / "found.json")
    io.dump_lattice(path, *mo3)
    full = seplat.enumerate_orthocomplementations(mo3[0])
    assert len(full) == 15
    for limit, line, written in (
        ("1", "orthocomplementations: more than 1 (stopped at --limit 1)", 1),
        ("5", "orthocomplementations: more than 5 (stopped at --limit 5)", 5),
        ("14", "orthocomplementations: more than 14 (stopped at --limit 14)", 14),
        ("15", "orthocomplementations: 15", 15),
        ("16", "orthocomplementations: 15", 15),
    ):
        assert main(["ortho-search", path, "--limit", limit, "-o", out]) == 0
        assert capsys.readouterr().out == line + "\n"
        found = [
            io.LatticeDocument.from_dict(d).build()[1]
            for d in json.loads(Path(out).read_text())
        ]
        assert found == full[:written]
    for limit in ("0", "-3"):
        assert main(["ortho-search", path, "--limit", limit, "-o", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--limit must be at least 1, got {limit}" in captured.err


def test_cli_characterize(docs, capsys):
    assert main(["characterize", docs["prod"], docs["mo2"], docs["mo2"]]) == 0
    text = capsys.readouterr().out
    assert "characterization: success" in text
    assert "step hypotheses: pass" in text
    assert "step sharp-rebuild: pass" in text

    assert main(["characterize", docs["gen"], docs["mo2"], docs["mo2"]]) == 1
    assert "FAIL at step orthocomplementation-present" in capsys.readouterr().out


def test_cli_export(tmp_path, docs, capsys):
    out = str(tmp_path / "mo2.dot")
    assert main(["export", docs["mo2"], "-o", out]) == 0
    text = Path(out).read_text()
    assert text.startswith("digraph") and "->" in text

    assert main(["export", docs["mo2"]]) == 0
    assert capsys.readouterr().out == text

    with pytest.raises(SystemExit):  # DOT is the only format, so no flag selects it
        main(["export", docs["mo2"], "--dot"])


@pytest.mark.parametrize("key", ["h1", "h2"])
@pytest.mark.parametrize("index", [999, -1])
def test_cli_rejects_embedding_index_out_of_range(tmp_path, docs, capsys, key, index):
    data = json.loads(Path(docs["prod"]).read_text())
    data["meta"][key][1] = index
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(data, fh)
    code = main(["sproduct-check", bad, docs["mo2"], docs["mo2"], "--T", "id"])
    assert code == 2
    assert f"{key} indices in range" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["h1", "h2"])
def test_cli_rejects_wrong_embedding_index_in_range(tmp_path, docs, capsys, key):
    data = json.loads(Path(docs["prod"]).read_text())
    data["meta"][key][1] = data["meta"][key][2]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(data, fh)
    code = main(["sproduct-check", bad, docs["mo2"], docs["mo2"], "--T", "id"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{key} is the rectangle embedding" in captured.err
    assert "FAIL" not in captured.out


def test_cli_rejects_indices_that_are_not_integers(tmp_path, docs, capsys):
    # a float atom index (MO(2) has no atom 3.7) and a numeric string as an
    # orthocomplement index; bools are not indices either
    good = json.loads(Path(docs["mo2"]).read_text())
    bad = str(tmp_path / "bad.json")
    cases = [
        ("closed_sets", 5, [3.7], "members use atoms"),
        ("closed_sets", 1, [0.0], "members use atoms"),
        ("closed_sets", 1, [False], "members use atoms"),
        ("ortho_elements", 0, str(good["ortho_elements"][0]), "ortho_elements lists"),
        ("ortho_elements", 0, float(good["ortho_elements"][0]), "ortho_elements lists"),
    ]
    for key, position, value, law in cases:
        data = json.loads(json.dumps(good))
        data[key][position] = value
        Path(bad).write_text(json.dumps(data))
        assert main(["check", bad, "--ortho"]) == 2, (key, value)
        assert law in capsys.readouterr().err
    data = json.loads(Path(docs["prod"]).read_text())
    data["meta"]["h1"][0] = True
    Path(bad).write_text(json.dumps(data))
    assert main(["sproduct-check", bad, docs["mo2"], docs["mo2"], "--T", "id"]) == 2
    assert "h1 indices in range" in capsys.readouterr().err


def test_cli_rejects_atoms_that_are_not_string_labels(tmp_path, docs, capsys):
    # integer labels, a nested list, and a string that would split into
    # one label per character
    good = json.loads(Path(docs["mo2"]).read_text())
    bad = str(tmp_path / "bad.json")
    for atoms in ([0, 1, 2, 3], [["a"], "b", "c", "d"], "abcd"):
        Path(bad).write_text(json.dumps(dict(good, atoms=atoms)))
        for argv in (["check", bad], ["export", bad]):
            assert main(argv) == 2, (argv, atoms)
            err = capsys.readouterr().err
            assert "atoms is a list of strings" in err and "Traceback" not in err
        with pytest.raises(ValidationError):
            io.load_document(bad)


def test_load_product_reads_indices_in_document_order(tmp_path, docs, capsys):
    # generator-route documents carry no orthocomplementation, so nothing
    # forces their closed_sets into canonical order
    data = json.loads(Path(docs["gen"]).read_text())
    last = len(data["closed_sets"]) - 1
    data["closed_sets"].reverse()
    for key in ("h1", "h2"):
        data["meta"][key] = [last - i for i in data["meta"][key]]
    path = str(tmp_path / "reversed.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    back = io.load_product(path, docs["mo2"], docs["mo2"])
    want = io.load_product(docs["gen"], docs["mo2"], docs["mo2"])
    assert back.base == want.base
    assert back.h1 == want.h1 and back.h2 == want.h2
    assert main(["sproduct-check", path, docs["mo2"], docs["mo2"], "--T", "id"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_calls_share_the_parser_but_not_the_options(tmp_path, docs, capsys):
    assert build_parser() is build_parser()
    report = tmp_path / "report.json"
    assert main(["check", docs["mo2"], "--json", str(report)]) == 0
    report.unlink()
    assert main(["check", docs["mo2"]]) == 0
    assert not report.exists()
    out = tmp_path / "prod.json"
    routes = []
    for extra in (["--route", "sharp"], []):
        assert main(["product", docs["mo2"], docs["mo2"], *extra, "-o", str(out)]) == 0
        routes.append(json.loads(out.read_text())["meta"]["route"])
    assert routes == ["sharp", "generators"]
    capsys.readouterr()


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{broken")
    assert main(["check", bad]) == 2
    assert "error:" in capsys.readouterr().err


# -- fuzzed documents ---------------------------------------------------------


def _json_paths(node, prefix=()):
    """Every path of keys and list positions inside a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _mutant(text, kind, rng):
    """One seeded mutation of a JSON document: a key deleted, a value of
    another type, an integer out of range, an integer written as a float or
    as a numeric string, or the text truncated."""
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    data = json.loads(text)
    paths = list(_json_paths(data))

    def parent(path):
        node = data
        for key in path[:-1]:
            node = node[key]
        return node

    if kind == "delete":
        path = rng.choice([p for p in paths if isinstance(p[-1], str)])
        del parent(path)[path[-1]]
    elif kind == "retype":
        path = rng.choice(paths)
        parent(path)[path[-1]] = rng.choice(["x", 1.5, None, True, [], {}, [[0]], {"a": 1}])
    else:
        path = rng.choice([p for p in paths if type(parent(p)[p[-1]]) is int])
        value = parent(path)[path[-1]]
        if kind == "float":
            value = rng.choice([float(value), value + 0.5])
        elif kind == "numeric-string":
            value = str(value)
        else:
            value = rng.choice([-1, -100, 16, 114, 10**6, 2**70])
        parent(path)[path[-1]] = value
    return json.dumps(data)


def test_cli_exits_cleanly_on_mutated_documents(tmp_path, docs, capsys):
    # Every mutant of a lattice and a product document gives exit code 0, 1
    # or 2 on check, sproduct-check --T id and characterize, never an
    # exception out of main.
    rng = random.Random(17)
    mutant = str(tmp_path / "mutant.json")
    codes = set()
    for name in ("mo2", "prod"):
        text = Path(docs[name]).read_text()
        for kind in ("delete", "retype", "index", "float", "numeric-string", "truncate"):
            for _ in range(12):
                Path(mutant).write_text(_mutant(text, kind, rng))
                if name == "mo2":
                    triple = [docs["prod"], docs["mo2"], mutant]
                else:
                    triple = [mutant, docs["mo2"], docs["mo2"]]
                for argv in (
                    ["check", mutant],
                    ["sproduct-check", *triple, "--T", "id"],
                    ["characterize", *triple],
                ):
                    code = main(argv)
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2), (argv, code)
                    assert "Traceback" not in err
                    codes.add(code)
    assert 2 in codes
