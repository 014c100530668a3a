"""JSON document round-trips, DOT export, and the command-line interface."""

import json

import pytest

import seplat
from seplat import io
from seplat.cli import main
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


def test_dump_is_deterministic(tmp_path, mo2):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    io.dump_lattice(a, mo2[0], mo2[1])
    io.dump_lattice(b, mo2[0], mo2[1])
    assert open(a).read() == open(b).read()


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
    data = json.load(open(report))
    assert data["passed"] is False
    assert data["checks"]["orthomodular"]["ok"] is False
    assert data["checks"]["ortho"]["ok"] is True


def test_cli_check_weak_connectedness(tmp_path, docs, capsys):
    assert main(["check", docs["mo2"], "--weakly-connected"]) == 0
    assert "weakly-connected: pass" in capsys.readouterr().out

    assert main(["check", docs["mo2"], "--weakly-connected", "--covering", "0,1;2,3"]) == 1
    text = capsys.readouterr().out
    assert "weakly-connected: FAIL" in text
    assert "weak-connectedness-refuted: FAIL" in text  # mo2 is connectable

    assert main(["check", docs["mo2"], "--weakly-connected", "--covering", "auto"]) == 0

    b3_path = str(tmp_path / "b3.json")
    main(["build", "boolean", "3", "-o", b3_path])
    assert main(["check", b3_path, "--weakly-connected"]) == 1
    assert "weak-connectedness-refuted: pass" in capsys.readouterr().out


def test_cli_sproduct_check(tmp_path, docs, capsys):
    report = str(tmp_path / "axioms.json")
    code = main(
        ["sproduct-check", docs["prod"], docs["mo2"], docs["mo2"], "--json", report]
    )
    assert code == 0
    text = capsys.readouterr().out
    for axiom in ("P0", "P1", "P2", "P3", "P4", "P5"):
        assert f"{axiom}: pass" in text
    data = json.load(open(report))
    assert data["passed"] is True and len(data["axioms"]) == 6

    assert main(["sproduct-check", docs["prod"], docs["mo2"], docs["mo2"], "--T", "id"]) == 0
    capsys.readouterr()


def test_cli_aut(docs, capsys):
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


def test_cli_ortho_search(tmp_path, docs, capsys):
    out = str(tmp_path / "found.json")
    assert main(["ortho-search", docs["mo2"], "--limit", "2", "-o", out]) == 0
    assert "orthocomplementations: 2" in capsys.readouterr().out
    docs_found = json.load(open(out))
    assert len(docs_found) == 2
    for payload in docs_found:
        lat, om = io.LatticeDocument.from_dict(payload).build()
        assert om is not None


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
    assert main(["export", docs["mo2"], "--dot", "-o", out]) == 0
    text = open(out).read()
    assert text.startswith("digraph") and "->" in text

    assert main(["export", docs["mo2"]]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("key", ["h1", "h2"])
@pytest.mark.parametrize("index", [999, -1])
def test_cli_rejects_embedding_index_out_of_range(tmp_path, docs, capsys, key, index):
    data = json.load(open(docs["prod"]))
    data["meta"][key][1] = index
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(data, fh)
    code = main(["sproduct-check", bad, docs["mo2"], docs["mo2"], "--T", "id"])
    assert code == 2
    assert f"{key} indices in range" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["h1", "h2"])
def test_cli_rejects_wrong_embedding_index_in_range(tmp_path, docs, capsys, key):
    data = json.load(open(docs["prod"]))
    data["meta"][key][1] = data["meta"][key][2]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(data, fh)
    code = main(["sproduct-check", bad, docs["mo2"], docs["mo2"], "--T", "id"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{key} is the rectangle embedding" in captured.err
    assert "FAIL" not in captured.out


def test_load_product_reads_indices_in_document_order(tmp_path, docs, capsys):
    # generator-route documents carry no orthocomplementation, so nothing
    # forces their closed_sets into canonical order
    data = json.load(open(docs["gen"]))
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


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{broken")
    assert main(["check", bad]) == 2
    assert "error:" in capsys.readouterr().err
