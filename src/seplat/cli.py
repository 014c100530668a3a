"""Command-line interface.

Exit codes: 0 when the requested operation (and any checks it ran)
succeeded, 1 when a check executed and failed, 2 for usage errors or
malformed input documents.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import axioms, io, morphisms, ortho as ortho_mod, product as product_mod
from .builders import LatticeSpec
from .errors import CharacterizationError, SeplatError
from .lattice import Lattice
from .perm import AutoGroup


def _parse_covering(spec: Optional[str], lattice: Lattice) -> axioms.Covering:
    if spec is None:
        return axioms.Covering.single_block(lattice)
    if spec == "auto":
        cov = axioms.find_connected_covering(lattice)
        if cov is None:
            raise SeplatError(
                "no connected covering found heuristically; give one explicitly"
            )
        return cov
    try:
        blocks = [
            [int(a) for a in block.split(",") if a != ""]
            for block in spec.split(";")
            if block != ""
        ]
    except ValueError as e:
        raise SeplatError(f"covering spec must look like '0,1;2,3': {e}") from e
    return axioms.Covering.from_lists(blocks)


def _cmd_build(args) -> int:
    wanted = {"mo": 1, "boolean": 1, "subspace": 2, "two": 0}[args.kind]
    if len(args.params) != wanted:
        raise SeplatError(
            f"builder '{args.kind}' takes {wanted} parameter(s),"
            f" got {len(args.params)}"
        )
    try:
        params = tuple(int(p) for p in args.params)
    except ValueError as e:
        raise SeplatError(f"builder parameters must be integers: {e}") from e
    spec = LatticeSpec(args.kind, params)
    lat, omap = spec.build()
    meta = {"builder": args.kind, "params": [int(p) for p in args.params]}
    io.dump_lattice(args.output or sys.stdout, lat, omap, meta)
    return 0


def _cmd_product(args) -> int:
    left, o1 = io.load_lattice_file(args.left)
    right, o2 = io.load_lattice_file(args.right)
    if args.route == "sharp":
        if o1 is None or o2 is None:
            raise SeplatError(
                "the sharp route needs orthocomplemented factor documents"
            )
        prod = product_mod.aerts_product_sharp(left, o1, right, o2)
    else:
        prod = product_mod.aerts_product_general(left, right)
    io.dump_product(args.output or sys.stdout, prod)
    return 0


def _cmd_check(args) -> int:
    lat, omap = io.load_lattice_file(args.file)
    results: dict[str, dict] = {}

    def record(name: str, ok: bool, detail=None):
        results[name] = {"ok": bool(ok), "detail": detail}

    if args.ortho or args.orthomodular:
        if omap is None:
            record("ortho", False, "document has no orthocomplementation")
        else:
            record("ortho", True, "validated")
    if args.orthomodular and omap is not None:
        record("orthomodular", ortho_mod.is_orthomodular(lat, omap))
    if args.coatomistic:
        record("coatomistic", lat.is_coatomistic())
    if args.covering_property:
        record("covering-property", lat.has_covering_property())
    if args.weakly_connected:
        cov = _parse_covering(args.covering, lat)
        res = axioms.weakly_connected(lat, cov)
        record("weakly-connected", res.ok, None if res.ok else (res.condition, res.witness))
        if not res.ok:
            record(
                "weak-connectedness-refuted",
                axioms.refute_weak_connectedness(lat),
            )
    if not results:
        record("well-formed", True, f"{lat.atom_count} atoms, {len(lat)} elements")
    passed = all(r["ok"] for r in results.values())
    for name in sorted(results):
        r = results[name]
        line = f"{name}: {'pass' if r['ok'] else 'FAIL'}"
        if r["detail"] not in (None, "validated"):
            line += f" ({r['detail']})"
        print(line)
    if args.json:
        io._write_json(
            args.json, {"file": args.file, "passed": passed, "checks": results}
        )
    return 0 if passed else 1


def _cmd_sproduct_check(args) -> int:
    prod = io.load_product(args.product, args.left, args.right)
    cov1 = _parse_covering(args.covering1, prod.left)
    cov2 = _parse_covering(args.covering2, prod.right)
    if args.groups == "id":
        t1 = AutoGroup.identity_only(prod.left)
        t2 = AutoGroup.identity_only(prod.right)
    else:
        t1 = morphisms.enumerate_automorphisms(prod.left)
        t2 = morphisms.enumerate_automorphisms(prod.right)
    report = axioms.check_sproduct(prod, t1, t2, cov1, cov2)
    for line in report.lines():
        print(line)
    if args.json:
        payload = {
            "product": args.product,
            "passed": report.passed,
            "axioms": {
                name: {"ok": r.passed, "checked": r.checked, "failures": r.failures[:5]}
                for name, r in report.reports.items()
            },
        }
        io._write_json(args.json, payload)
    return 0 if report.passed else 1


def _cmd_aut(args) -> int:
    if args.factor:
        prod = io.load_product(args.file, *args.factor)
        group = morphisms.enumerate_automorphisms(prod.base)
        print(f"automorphisms: {group.order}")
        sides = {"straight": 0, "swapped": 0}
        for k, u in enumerate(group):
            res = morphisms.factor_automorphism(prod, u)
            sides[res.side] += 1
            if args.list:
                left = ",".join(map(str, res.left_map))
                right = ",".join(map(str, res.right_map))
                print(f"u{k}: {res.side} left=({left}) right=({right})")
        print(f"straight: {sides['straight']}  swapped: {sides['swapped']}")
    else:
        lat, _ = io.load_lattice_file(args.file)
        group = morphisms.enumerate_automorphisms(lat)
        print(f"automorphisms: {group.order}")
        if args.list:
            for u in group:
                print(",".join(map(str, u.perm)))
    return 0


def _cmd_ortho_search(args) -> int:
    lat, _ = io.load_lattice_file(args.file)
    found = morphisms.enumerate_orthocomplementations(lat, limit=args.limit)
    print(f"orthocomplementations: {len(found)}")
    if args.output:
        docs = [
            io.LatticeDocument.from_lattice(
                lat, om, {"kind": "ortho-search-result", "index": k}
            ).to_dict()
            for k, om in enumerate(found)
        ]
        io._write_json(args.output, docs)
    return 0


def _cmd_characterize(args) -> int:
    prod = io.load_product(args.product, args.left, args.right)
    try:
        result = morphisms.characterize(prod)
    except CharacterizationError as e:
        print(f"characterization: FAIL at step {e.step}")
        if e.witness is not None:
            print(f"witness: {e.witness}")
        return 1
    for step in result.steps:
        print(f"step {step}: pass")
    print("characterization: success")
    return 0


def _cmd_export(args) -> int:
    lat, _ = io.load_lattice_file(args.file)
    text = io.to_dot(lat)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seplat",
        description="Separated products of finite atomistic lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a standard lattice and write it as JSON")
    p.add_argument("kind", choices=["mo", "boolean", "subspace", "two"])
    p.add_argument("params", nargs="*", help="builder parameters (e.g. n, or q d)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("product", help="build a separated product of two documents")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--route", choices=["generators", "sharp"], default="generators")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("check", help="validate a document and run structure checks")
    p.add_argument("file")
    p.add_argument("--ortho", action="store_true")
    p.add_argument("--orthomodular", action="store_true")
    p.add_argument("--coatomistic", action="store_true")
    p.add_argument("--covering-property", dest="covering_property", action="store_true")
    p.add_argument("--weakly-connected", dest="weakly_connected", action="store_true")
    p.add_argument("--covering", help="blocks like '0,1;2,3', or 'auto'")
    p.add_argument("--json", help="also write a JSON report to this path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sproduct-check", help="verify the product axioms")
    p.add_argument("product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--covering1", help="left covering spec")
    p.add_argument("--covering2", help="right covering spec")
    p.add_argument(
        "--T",
        dest="groups",
        choices=["full", "id"],
        default="full",
        help="factor automorphism groups for P4: full enumerated groups or identity only",
    )
    p.add_argument("--json", help="also write a JSON report to this path")
    p.set_defaults(func=_cmd_sproduct_check)

    p = sub.add_parser("aut", help="enumerate automorphisms")
    p.add_argument("file")
    p.add_argument("--list", action="store_true")
    p.add_argument(
        "--factor",
        nargs=2,
        metavar=("LEFT", "RIGHT"),
        help="treat FILE as a product of these factors and factor each automorphism",
    )
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("ortho-search", help="search for orthocomplementations")
    p.add_argument("file")
    p.add_argument("--limit", type=int)
    p.add_argument("-o", "--output", help="write found maps as a JSON document array")
    p.set_defaults(func=_cmd_ortho_search)

    p = sub.add_parser("characterize", help="run the product characterization")
    p.add_argument("product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("export", help="export a document to Graphviz DOT")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="Hasse diagram as DOT (the default)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SeplatError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
