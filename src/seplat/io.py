"""JSON documents and DOT export.

A lattice document holds the atom labels, the closed family as lists of
atom indices in canonical order, the orthocomplementation as a list of
element indices (image of element i at position i) or null, and a free
`meta` object.  Product documents additionally record the route, the
factor atom counts and the embeddings as element-index lists, so a
product can be reattached to its factor documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, TextIO, Union

from .bitset import atoms_of, mask_of
from .errors import ValidationError
from .lattice import Lattice
from .ortho import OrthoMap, validate_ortho
from .product import ProductLattice, _attach_embeddings


@dataclass
class LatticeDocument:
    atoms: list[str]
    closed_sets: list[list[int]]
    ortho_elements: Optional[list[int]] = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_lattice(
        cls,
        lattice: Lattice,
        ortho: Optional[OrthoMap] = None,
        meta: Optional[dict] = None,
    ) -> "LatticeDocument":
        atoms = list(lattice.atom_labels or (str(i) for i in range(lattice.atom_count)))
        closed = [list(atoms_of(m)) for m in lattice.closed_sets]
        ortho_elements = None
        if ortho is not None:
            ortho_elements = [
                lattice.element_index(ortho.images[m]) for m in lattice.closed_sets
            ]
        return cls(atoms, closed, ortho_elements, dict(meta or {}))

    @classmethod
    def from_product(cls, product: ProductLattice) -> "LatticeDocument":
        doc = cls.from_lattice(product.base, product.ortho)
        left_sets = product.left.closed_sets
        right_sets = product.right.closed_sets
        doc.meta = {
            "kind": "product",
            "route": product.route,
            "left_atoms": product.left.atom_count,
            "right_atoms": product.right.atom_count,
            "h1": [product.base.element_index(product.h1[m]) for m in left_sets],
            "h2": [product.base.element_index(product.h2[m]) for m in right_sets],
        }
        return doc

    def to_dict(self) -> dict:
        return {
            "atoms": self.atoms,
            "closed_sets": self.closed_sets,
            "ortho_elements": self.ortho_elements,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeDocument":
        try:
            atoms = list(data["atoms"])
            closed = [list(map(int, s)) for s in data["closed_sets"]]
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError("document has atoms and closed_sets", str(e)) from e
        ortho = data.get("ortho_elements")
        if ortho is not None:
            ortho = list(map(int, ortho))
        return cls(atoms, closed, ortho, dict(data.get("meta") or {}))

    def build(self) -> tuple[Lattice, Optional[OrthoMap]]:
        """Validate and reconstruct the lattice and its
        orthocomplementation."""
        lat = Lattice.from_closed_family(
            len(self.atoms),
            (mask_of(s) for s in self.closed_sets),
            mode="validate",
            atom_labels=self.atoms,
        )
        if self.ortho_elements is None:
            return lat, None
        if len(self.ortho_elements) != len(self.closed_sets):
            raise ValidationError(
                "one orthocomplement index per closed set",
                len(self.ortho_elements),
            )
        order = [mask_of(s) for s in self.closed_sets]
        if order != list(lat.closed_sets):
            raise ValidationError(
                "document closed_sets are in canonical order", self.closed_sets
            )
        images = {}
        for i, target in enumerate(self.ortho_elements):
            if not 0 <= target < len(order):
                raise ValidationError("orthocomplement indices in range", target)
            images[order[i]] = order[target]
        return lat, validate_ortho(lat, images)


def dump_lattice(
    dest: Union[str, TextIO],
    lattice: Lattice,
    ortho: Optional[OrthoMap] = None,
    meta: Optional[dict] = None,
) -> None:
    doc = LatticeDocument.from_lattice(lattice, ortho, meta)
    _write_json(dest, doc.to_dict())


def dump_product(dest: Union[str, TextIO], product: ProductLattice) -> None:
    _write_json(dest, LatticeDocument.from_product(product).to_dict())


def _write_json(dest: Union[str, TextIO], payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            fh.write(text)
    else:
        dest.write(text)


def load_document(path: str) -> LatticeDocument:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError("document is valid JSON", str(e)) from e
    return LatticeDocument.from_dict(data)


def load_lattice_file(path: str) -> tuple[Lattice, Optional[OrthoMap]]:
    return load_document(path).build()


def load_product(
    product_path: str, left_path: str, right_path: str
) -> ProductLattice:
    """Reattach a product document to its factor documents.

    The embeddings must be the rectangle maps a1 -> A(a1) x A(L2) and
    a2 -> A(L1) x A(a2) that both product routes build."""
    doc = load_document(product_path)
    base, ortho = doc.build()
    left, _ = load_lattice_file(left_path)
    right, _ = load_lattice_file(right_path)
    meta = doc.meta
    if meta.get("kind") != "product":
        raise ValidationError("document is a product (meta.kind)", meta.get("kind"))
    if (
        meta.get("left_atoms") != left.atom_count
        or meta.get("right_atoms") != right.atom_count
    ):
        raise ValidationError(
            "factor atom counts match the product document",
            (meta.get("left_atoms"), meta.get("right_atoms")),
        )
    prod = ProductLattice(
        base=base,
        left=left,
        right=right,
        h1={},
        h2={},
        route=meta.get("route", "external"),
        ortho=ortho,
    )
    _attach_embeddings(prod)
    # the indices point into the document's own closed_sets order
    order = [mask_of(s) for s in doc.closed_sets]
    for key, factor, emb in (("h1", left, prod.h1), ("h2", right, prod.h2)):
        indices = meta.get(key)
        if not isinstance(indices, list) or len(indices) != len(factor.closed_sets):
            raise ValidationError(f"product document carries {key}", indices)
        for src, dst in zip(factor.closed_sets, indices):
            if not isinstance(dst, int) or not 0 <= dst < len(order):
                raise ValidationError(f"{key} indices in range", dst)
            if order[dst] != emb[src]:
                raise ValidationError(
                    f"{key} is the rectangle embedding", (atoms_of(src), dst)
                )
    return prod


def to_dot(lattice: Lattice, name: str = "lattice") -> str:
    """Graphviz digraph of the covering relation, edges pointing upward."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    for i, m in enumerate(lattice.closed_sets):
        label = lattice.label_of(m).replace('"', r"\"")
        lines.append(f'  n{i} [label="{label}"];')
    for x, y in lattice.covers():
        lines.append(f"  n{lattice.element_index(x)} -> n{lattice.element_index(y)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
