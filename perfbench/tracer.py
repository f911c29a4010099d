"""Spans and counters around the public functions of each monokit module.

The tracer wraps functions from the outside: it replaces the module
attribute and every other monokit module attribute bound to the same
object (for example monokit.report.fueter_power_permutation_sum), and it
replaces methods on their class.  Nothing in the package changes.

A span is (name, start, end, parent, op id); spans stay in memory and are
written out once, by dump().  Quaternion construction and multiplication
are counted without spans, because they run millions of times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute, span name); "Class.method" attributes patch the class
SPANS = [
    ("monokit.mpoly", "MPoly.__mul__", "mpoly.mul"),
    ("monokit.mpoly", "MPoly.dirac", "mpoly.dirac"),
    ("monokit.mpoly", "MPoly.eval_grid", "mpoly.eval_grid"),
    ("monokit.mpoly", "MPoly.from_json", "mpoly.from_json"),
    ("monokit.legendre", "assoc_body", "legendre.assoc_body"),
    ("monokit.basis", "spherical_monogenic", "basis.spherical_monogenic"),
    ("monokit.moments", "norm_sq_sphere", "moments.norm_sq_sphere"),
    ("monokit.fueter", "fueter_power_permutation_sum", "fueter.fueter_power_permutation_sum"),
    ("monokit.fueter", "taylor_coefficients", "fueter.taylor_coefficients"),
    ("monokit.fueter", "taylor_reconstruct", "fueter.taylor_reconstruct"),
    ("monokit.quadrature", "fourier_expand", "quadrature.fourier_expand"),
    ("monokit.quadrature", "fourier_synthesize", "quadrature.fourier_synthesize"),
    ("monokit.quadrature", "gram_matrix_ball", "quadrature.gram_matrix_ball"),
    ("monokit.bohr", "empirical_bohr_sum", "bohr.empirical_bohr_sum"),
    ("monokit.bohr", "random_test_function", "bohr.random_test_function"),
    ("monokit.bohr", "verify_pointwise_bounds", "bohr.verify_pointwise_bounds"),
    ("monokit.cli", "render", "cli.render"),
]

COUNTED = [
    ("monokit.quaternion", "Quaternion.__mul__", "quaternion.mul.calls"),
    ("monokit.quaternion", "Quaternion.__init__", "quaternion.init.calls"),
]

# Report sections: the functions build_report calls for each section.
# bohr functions are reached through report's `bohr_mod`, so they are
# wrapped on a stand-in for that module as seen from report only.
SECTIONS = {
    "monogenicity": ["check_monogenicity"],
    "gram": ["check_gram"],
    "ball_sphere_relation": ["check_ball_sphere_relation"],
    "norms": ["check_norms"],
    "taylor": ["check_taylor"],
    "bounds": ["bohr_mod.verify_pointwise_bounds", "bohr_mod.verify_corollary_bounds",
               "bohr_mod.verify_sc_ratio_lemmas", "bohr_mod.verify_constants_ratio_lemma"],
    "bohr": ["bohr_mod.bohr_radius", "bohr_mod.empirical_bohr_sweep"],
    "closed_form_agreement": ["axial_agreement", "taylor_agreement"],
}

HIT_RATIOS = [
    ("monokit.basis", "basis_for_degree", "basis.basis_for_degree.hit_ratio"),
    ("monokit.fueter", "fueter_power", "fueter.fueter_power.hit_ratio"),
]


class _ModuleView:
    """A module as one importer sees it, with some attributes replaced."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self._replaced = replaced

    def __getattr__(self, name):
        if name in self._replaced:
            return self._replaced[name]
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1  # -1 while setting up, then the index of the running op
        self.counts: Counter = Counter()
        self.geometries: set = set()
        self.caches: dict = {}
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------------------

    def span(self, name: str, fn, count=None):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self.stack)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; a target the package no longer has is skipped."""
        from monokit.mpoly import MPoly

        counts = self.counts

        def mul_pairs(args):
            if len(args) == 2 and isinstance(args[1], MPoly):
                counts["mpoly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def grid_points(args):
            import numpy as np

            counts["mpoly.eval_grid.term_points"] += (
                len(args[0].terms) * np.broadcast(*args[1:4]).size)

        # caches are read through the originals, before any wrapper hides them
        for module, attr, key in HIT_RATIOS:
            fn = getattr(importlib.import_module(module), attr, None)
            if hasattr(fn, "cache_info"):
                self.caches[key] = fn
            else:
                self.missing.append(f"{module}.{attr}.cache_info")
        self.caches["basis.cache_entries"] = [
            fn for fn in vars(importlib.import_module("monokit.basis")).values()
            if hasattr(fn, "cache_info") and fn.__module__ == "monokit.basis"]
        extra = {"mpoly.mul": mul_pairs, "mpoly.eval_grid": grid_points}
        for module, attr, name in SPANS:
            self._replace(module, attr, lambda fn, n=name: self.span(n, fn, extra.get(n)))
        for module, attr, key in COUNTED:
            self._replace(module, attr, lambda fn, k=key: self.counter(k, fn))
        self._replace("monokit.quadrature", "QuadratureRule.for_degree", self._rule_counter)
        self._install_sections()

    def _rule_counter(self, fn):
        geometries = self.geometries

        def wrapper(*args, **kwargs):
            rule = fn(*args, **kwargs)
            geometries.add((len(rule.t_nodes), rule.n_phi))
            return rule

        return wrapper

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(method) if cls is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(make(raw.__func__)))
            else:
                setattr(cls, method, make(raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "monokit" or name.startswith("monokit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _install_sections(self) -> None:
        report = importlib.import_module("monokit.report")
        view: dict = {}
        for section, targets in SECTIONS.items():
            name = f"report.{section}"
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(report, owner_name, None) if owner_name else report
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"monokit.report.{target}")
                    continue
                if owner_name:
                    view.setdefault(owner_name, {})[attr] = self.span(name, fn)
                else:
                    setattr(report, attr, self.span(name, fn))
        for owner_name, replaced in view.items():
            setattr(report, owner_name, _ModuleView(getattr(report, owner_name), replaced))

    # -- output -------------------------------------------------------------------

    def counters(self) -> dict:
        out = dict(self.counts)
        for key, fn in self.caches.items():
            if isinstance(fn, list):
                out[key] = sum(f.cache_info().currsize for f in fn)
            else:
                info = fn.cache_info()
                total = info.hits + info.misses
                out[key] = info.hits / total if total else 0.0
        out["quadrature.rule_geometries"] = len(self.geometries)
        return out

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        doc = {"names": table, "name": [code[n] for n in self.names],
               "start": self.starts, "end": self.ends, "parent": self.parents,
               "op": self.ops, "counters": self.counters(), "missing": self.missing}
        with open(path, "w") as handle:
            json.dump(doc, handle)


def summarize(doc: dict) -> tuple[dict, dict, float]:
    """Calls and self seconds per span name, and self seconds inside ops.

    A span's self time is its duration minus the durations of its direct
    children; children nest inside their parent because the load runs on
    one thread.
    """
    starts, ends, parents = doc["start"], doc["end"], doc["parent"]
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    in_ops = 0.0
    for i, code in enumerate(doc["name"]):
        name = doc["names"][code]
        calls[name] += 1
        self_s[name] += own[i]
        if doc["op"][i] >= 0:
            in_ops += own[i]
    return calls, self_s, in_ops
