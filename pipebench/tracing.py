"""Per-layer spans and counts for the nine seplat modules, recorded from
outside the library.

`Tracer.install` wraps the public functions of each traced module, and the
public methods plus `__init__` and `__call__` of the classes it defines,
then rebinds every reference any `seplat` module holds to a wrapped
function (`from .axioms import check_sproduct` copies the name).  No
library file changes, and an untraced run never calls `install`.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Spans are aggregated per
function as they close (call count, self time and inclusive time of the
outermost activation), so memory stays flat however many calls a pass
makes.

The kernel layer is the dispatch API of `seplat._kernels`; helpers that
other modules call straight from `seplat._kernels.pure` count toward the
caller's layer.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# metric prefix -> traced module
LAYERS = {
    "kernels": "seplat._kernels",
    "lattice": "seplat.lattice",
    "perm": "seplat.perm",
    "ortho": "seplat.ortho",
    "product": "seplat.product",
    "axioms": "seplat.axioms",
    "morphisms": "seplat.morphisms",
    "io": "seplat.io",
    "cli": "seplat.cli",
}

# Private functions traced anyway: the CLI calls io._write_json directly
# to write its reports, so it is the io layer's write boundary.
PRIVATE_BOUNDARIES = {"seplat.io": ("_write_json",)}
CLASS_DUNDERS = ("__init__", "__call__")

# Functions whose inclusive times are summed as one group, counting only
# the outermost activation (load_product calls load_lattice_file, which
# calls load_document).
GROUPS = {
    "io.load_document": "io.load",
    "io.load_lattice_file": "io.load",
    "io.load_product": "io.load",
    "io.dump_lattice": "io.dump",
    "io.dump_product": "io.dump",
    "io._write_json": "io.dump",
    "product.lateral_join_check": "product.join_checks",
    "product.sproduct_join_lemma_check": "product.join_checks",
}

CLI_COMMANDS = (
    "build",
    "product",
    "check",
    "sproduct-check",
    "ortho-search",
    "characterize",
    "export",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _add(counter: str, amount):
    def hook(c, args, kwargs, result, dt):
        c[counter] += amount(args, kwargs, result)

    return hook


def _count_check_sproduct(c, args, kwargs, result, dt):
    c["axioms.P4.checks"] += result.reports["P4"].checked
    c["axioms.checks"] += sum(r.checked for r in result.reports.values())


def _count_written(c, args, kwargs, result, dt):
    dest = _arg(args, kwargs, 0, "dest")
    if isinstance(dest, str):  # writes to an open stream are not counted
        c["io.dump.bytes"] += os.path.getsize(dest)


def _count_cli(c, args, kwargs, result, dt):
    argv = _arg(args, kwargs, 0, "argv")
    c[f"cli.{argv[0]}.s"] += dt


_family_size = _add("product.family_size", lambda a, k, r: len(r.base))

# Counters read off a call's arguments or result once it returns.
HOOKS = {
    "kernels.invariant_subsets": _add(
        "kernels.invariant_subsets.masks_swept",
        lambda a, k, r: (1 << _arg(a, k, 1, "n_atoms")) - 1,
    ),
    "kernels.close_under_intersection": _add(
        "kernels.close_under_intersection.sets_out", lambda a, k, r: len(r)
    ),
    "axioms.check_sproduct": _count_check_sproduct,
    "morphisms.enumerate_automorphisms": _add(
        "morphisms.enumerate_automorphisms.members", lambda a, k, r: len(r)
    ),
    "morphisms.enumerate_orthocomplementations": _add(
        "morphisms.enumerate_orthocomplementations.found", lambda a, k, r: len(r)
    ),
    "product.aerts_product_general": _family_size,
    "product.aerts_product_sharp": _family_size,
    "io.load_document": _add(
        "io.load.bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))
    ),
    "io._write_json": _count_written,
    "cli.main": _count_cli,
}


# Calls counted only when made directly from one traced function:
# callee key -> (caller key, counter).
DIRECT_CALLS = {
    "kernels.family_preserved": (
        "morphisms.enumerate_automorphisms",
        "morphisms.enumerate_automorphisms.leaves",
    ),
    "ortho.validate_ortho": (
        "morphisms.enumerate_orthocomplementations",
        "morphisms.enumerate_orthocomplementations.candidates",
    ),
}


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class _Group:
    __slots__ = ("depth", "total_s")

    def __init__(self):
        self.depth = 0
        self.total_s = 0.0


class Tracer:
    """Aggregated spans of the traced seplat modules since `install`;
    `metrics` reads them."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.groups: dict[str, _Group] = {}
        self.counters = defaultdict(float)
        self.spanned_s = 0.0  # time covered by top-level spans
        self._stack: list = []
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn):
        st = self.stats[key] = _Stat()
        group = self.groups.setdefault(GROUPS.get(key, key), _Group())
        hook = HOOKS.get(key)
        caller, direct_counter = DIRECT_CALLS.get(key, (None, None))
        stack, counters = self._stack, self.counters
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]  # key, time covered by child spans
            stack.append(frame)
            group.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                group.depth -= 1
                if group.depth == 0:
                    group.total_s += dt
                st.calls += 1
                st.self_s += dt - frame[1]
                if parent is None:
                    tracer.spanned_s += dt
                else:
                    parent[1] += dt
                    if parent[0] == caller:
                        counters[direct_counter] += 1
            if hook is not None:
                hook(counters, args, kwargs, result, dt)
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        wrapped = {}  # original function -> wrapper
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            extra = PRIVATE_BOUNDARIES.get(modname, ())
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and (not name.startswith("_") or name in extra):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "seplat" and not modname.startswith("seplat."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, name, wrapped[obj])

    def _install_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in CLASS_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, name, type(raw)(self._wrap(key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(key, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- metrics ----------------------------------------------------------

    def metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of everything traced since `install`."""
        st, total, c = self.stats, self.groups, self.counters

        def calls(key):
            return st[key].calls if key in st else 0

        def seconds(key):
            return total[key].total_s if key in total else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_s for k, s in st.items() if k.startswith(layer + "."))
        out["kernels.calls"] = sum(s.calls for k, s in st.items() if k.startswith("kernels."))
        for name in ("family_preserved", "invariant_subsets", "close_under_intersection"):
            out[f"kernels.{name}.calls"] = calls(f"kernels.{name}")
            out[f"kernels.{name}.s"] = seconds(f"kernels.{name}")
        out["kernels.invariant_subsets.masks_swept"] = int(c["kernels.invariant_subsets.masks_swept"])
        out["kernels.close_under_intersection.sets_out"] = int(
            c["kernels.close_under_intersection.sets_out"]
        )
        out["perm.automorphisms_built"] = calls("perm.Automorphism.__init__")
        for name in (
            "check_sproduct",
            "laterally_connected",
            "strongly_transitive",
            "classify_invariant_subsets",
        ):
            out[f"axioms.{name}.s"] = seconds(f"axioms.{name}")
        out["axioms.P4.checks"] = int(c["axioms.P4.checks"])
        out["axioms.checks"] = int(c["axioms.checks"])
        for name in (
            "enumerate_automorphisms",
            "enumerate_orthocomplementations",
            "factor_automorphism",
            "characterize",
        ):
            out[f"morphisms.{name}.s"] = seconds(f"morphisms.{name}")
        leaves = int(c["morphisms.enumerate_automorphisms.leaves"])
        out["morphisms.enumerate_automorphisms.leaves"] = leaves
        out["morphisms.enumerate_automorphisms.leaf_yield"] = ratio(
            c["morphisms.enumerate_automorphisms.members"], leaves
        )
        out["morphisms.enumerate_orthocomplementations.leaf_yield"] = ratio(
            c["morphisms.enumerate_orthocomplementations.found"],
            c["morphisms.enumerate_orthocomplementations.candidates"],
        )
        out["lattice.join.calls"] = calls("lattice.Lattice.join")
        out["lattice.join.s"] = seconds("lattice.Lattice.join")
        out["lattice.validate.s"] = seconds("lattice.Lattice.validate")
        out["ortho.validate_ortho.calls"] = calls("ortho.validate_ortho")
        out["ortho.validate_ortho.s"] = seconds("ortho.validate_ortho")
        out["ortho.closure_from_orthogonality.s"] = seconds("ortho.closure_from_orthogonality")
        out["product.aerts_product_general.s"] = seconds("product.aerts_product_general")
        out["product.aerts_product_sharp.s"] = seconds("product.aerts_product_sharp")
        out["product.family_size"] = int(c["product.family_size"])
        out["product.join_checks.s"] = seconds("product.join_checks")
        out["io.load.s"] = seconds("io.load")
        out["io.load.bytes"] = int(c["io.load.bytes"])
        out["io.dump.s"] = seconds("io.dump")
        out["io.dump.bytes"] = int(c["io.dump.bytes"])
        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = c[f"cli.{command}.s"]
        out["bench.self_s"] = pass_s - self.spanned_s
        return out


# Counts that must repeat exactly across passes, runs and seeds.
EXACT_COUNTS = (
    "kernels.calls",
    "kernels.family_preserved.calls",
    "kernels.invariant_subsets.calls",
    "kernels.invariant_subsets.masks_swept",
    "kernels.close_under_intersection.calls",
    "kernels.close_under_intersection.sets_out",
    "perm.automorphisms_built",
    "axioms.P4.checks",
    "axioms.checks",
    "morphisms.enumerate_automorphisms.leaves",
    "morphisms.enumerate_automorphisms.leaf_yield",
    "morphisms.enumerate_orthocomplementations.leaf_yield",
    "lattice.join.calls",
    "ortho.validate_ortho.calls",
    "product.family_size",
)
