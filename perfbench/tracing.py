"""Spans around calls into the package's modules, recorded from outside it.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``temperedk`` module namespace that binds it, so calls that
``cli``, ``langlands`` and ``ktheory`` (or the benchmark) make through
those names are recorded; ``Tracer.remove`` puts the originals back.
Spans stay in memory (name, start, end, parent, request id) until the run
ends.  Counts are taken at the same call boundaries from the arguments and
the result, after the span has closed.

A layer's self time is the time of its spans minus the time of their
child spans.  ``layer_metrics`` turns the spans into the per-layer metrics
listed in BENCHMARK.json, each averaged over the traced requests.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# span group -> (defining module, traced functions); a function missing
# from the module is skipped and its metrics read 0
GROUPS = {
    "cli.main": ("cli", ("main",)),
    "cli.parse_command": ("cli", ("parse_command",)),
    "serialize.decode": ("serialize", ("component_from_doc", "point_from_doc", "parameter_from_doc",
                                       "kclass_from_doc", "repring_from_doc")),
    "serialize.encode": ("serialize", ("component_to_doc", "point_to_doc", "parameter_to_doc",
                                       "kclass_to_doc", "repring_to_doc", "kgroup_to_doc")),
    "serialize.render": ("serialize", ("render",)),
    "weil.canonical_form": ("weil", ("canonical_form",)),
    "weil.restrict_induce": ("weil", ("restrict_to_C", "induce_to_R")),
    "weil.equivalent": ("weil", ("equivalent",)),
    "dual.canonicalize_point": ("dual", ("canonicalize_point",)),
    "dual.enumerate": ("dual", ("enumerate_components_real", "enumerate_components_complex")),
    "langlands.llc": ("langlands", ("llc_real", "llc_complex", "llc_real_inv", "llc_complex_inv")),
    "langlands.point_maps": ("langlands", ("base_change_point", "auto_induce_point")),
    "ktheory.k_group": ("ktheory", ("k_group",)),
    "ktheory.apply_hom": ("ktheory", ("apply_hom",)),
}

# counts read from (args, result) at the call boundary
COUNTERS = {
    "cli.main": lambda args, result: int(result != 0),
    "serialize.render": lambda args, result: len(result),
    "dual.enumerate": lambda args, result: len(result),
    "ktheory.k_group": lambda args, result: result.rank(0) + result.rank(1),
    "ktheory.apply_hom": lambda args, result: (len(args[1].terms), len(result.terms)),
}

# apply_hom calls are split by input size to show how per-term cost grows
SMALL_TERMS = range(1, 100)
LARGE_TERMS = range(400, 1 << 62)

PER_LAYER = (
    ("cli.parse_command.calls", "count/req"),
    ("cli.parse_command.self_ms", "ms/req"),
    ("cli.main.self_ms", "ms/req"),
    ("cli.errors", "count/req"),
    ("serialize.decode.calls", "count/req"),
    ("serialize.decode.self_ms", "ms/req"),
    ("serialize.encode.self_ms", "ms/req"),
    ("serialize.render.self_ms", "ms/req"),
    ("serialize.render.bytes", "bytes/req"),
    ("serialize.errors", "count/req"),
    ("weil.canonical_form.calls", "count/req"),
    ("weil.canonical_form.self_ms", "ms/req"),
    ("weil.restrict_induce.self_ms", "ms/req"),
    ("weil.equivalent.self_ms", "ms/req"),
    ("dual.canonicalize_point.calls", "count/req"),
    ("dual.canonicalize_point.self_ms", "ms/req"),
    ("dual.enumerate.self_ms", "ms/req"),
    ("dual.enumerate.components", "count/req"),
    ("langlands.llc.calls", "count/req"),
    ("langlands.llc.self_ms", "ms/req"),
    ("langlands.point_maps.calls", "count/req"),
    ("langlands.point_maps.self_ms", "ms/req"),
    ("ktheory.k_group.calls", "count/req"),
    ("ktheory.k_group.self_ms", "ms/req"),
    ("ktheory.k_group.generators", "count/req"),
    ("ktheory.apply_hom.self_ms", "ms/req"),
    ("ktheory.apply_hom.terms_in", "count/req"),
    ("ktheory.apply_hom.terms_out", "count/req"),
    ("ktheory.apply_hom.us_per_term.small", "us/term"),
    ("ktheory.apply_hom.us_per_term.large", "us/term"),
    ("ktheory.kmap.useful_ratio", "ratio"),
    ("trace.overhead_frac", "frac"),
)

REQUEST = "request"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: dict[int, object] = {}
        self.raised: list[int] = []
        self.group_of: dict[str, str] = {REQUEST: REQUEST}
        self.request = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.requests.append(self.request)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        begin, end, counts, raised = self.begin, self.end, self.counts, self.raised

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(idx)
                raised.append(idx)
                raise
            end(idx)
            if counter is not None:
                counts[idx] = counter(args, result)
            return result

        return traced

    # -- patching

    def install(self) -> None:
        wrappers = {}
        for group, (module_name, functions) in GROUPS.items():
            module = importlib.import_module(f"temperedk.{module_name}")
            for fn_name in functions:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    continue
                name = f"{module_name}.{fn_name}"
                self.group_of[name] = group
                wrappers[id(fn)] = self._wrap(name, fn, COUNTERS.get(group))
        for module_name, module in list(sys.modules.items()):
            if module_name != "temperedk" and not module_name.startswith("temperedk."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- output

    def write(self, path) -> None:
        """A header line naming the fields, then one JSON array per span.

        Times are ns from the first span; parent is a span index, -1 at a root.
        """
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "request"]}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i] - t0, self.ends[i] - t0,
                                     self.parents[i], self.requests[i]]) + "\n")

    def layer_metrics(self, requests: int) -> dict:
        """Per-layer metrics over the traced spans, per request where it applies."""
        child = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls, self_ns, totals = Counter(), Counter(), Counter()
        small = [0, 0]  # apply_hom self ns and terms in, by input size
        large = [0, 0]
        for i, name in enumerate(self.names):
            group = self.group_of[name]
            own = self.ends[i] - self.starts[i] - child[i]
            calls[group] += 1
            self_ns[group] += own
            count = self.counts.get(i)
            if count is None:  # the call raised
                continue
            if group == "ktheory.apply_hom":
                terms_in, terms_out = count
                totals["terms_in"] += terms_in
                totals["terms_out"] += terms_out
                for bucket, sizes in ((small, SMALL_TERMS), (large, LARGE_TERMS)):
                    if terms_in in sizes:
                        bucket[0] += own
                        bucket[1] += terms_in
            else:
                totals[group] += count
        # an exception leaving the serialize layer, counted once at its outermost span
        serialize_errors = sum(
            1 for i in self.raised
            if self.group_of[self.names[i]].startswith("serialize.")
            and (self.parents[i] < 0 or not self.group_of[self.names[self.parents[i]]].startswith("serialize."))
        )

        per = 1 / max(requests, 1)

        def ms(group):
            return self_ns[group] / 1e6 * per

        def rate(group):
            return calls[group] * per

        generators = totals["ktheory.k_group"]
        return {
            "cli.parse_command.calls": rate("cli.parse_command"),
            "cli.parse_command.self_ms": ms("cli.parse_command"),
            "cli.main.self_ms": ms("cli.main"),
            "cli.errors": totals["cli.main"] * per,
            "serialize.decode.calls": rate("serialize.decode"),
            "serialize.decode.self_ms": ms("serialize.decode"),
            "serialize.encode.self_ms": ms("serialize.encode"),
            "serialize.render.self_ms": ms("serialize.render"),
            "serialize.render.bytes": totals["serialize.render"] * per,
            "serialize.errors": serialize_errors * per,
            "weil.canonical_form.calls": rate("weil.canonical_form"),
            "weil.canonical_form.self_ms": ms("weil.canonical_form"),
            "weil.restrict_induce.self_ms": ms("weil.restrict_induce"),
            "weil.equivalent.self_ms": ms("weil.equivalent"),
            "dual.canonicalize_point.calls": rate("dual.canonicalize_point"),
            "dual.canonicalize_point.self_ms": ms("dual.canonicalize_point"),
            "dual.enumerate.self_ms": ms("dual.enumerate"),
            "dual.enumerate.components": totals["dual.enumerate"] * per,
            "langlands.llc.calls": rate("langlands.llc"),
            "langlands.llc.self_ms": ms("langlands.llc"),
            "langlands.point_maps.calls": rate("langlands.point_maps"),
            "langlands.point_maps.self_ms": ms("langlands.point_maps"),
            "ktheory.k_group.calls": rate("ktheory.k_group"),
            "ktheory.k_group.self_ms": ms("ktheory.k_group"),
            "ktheory.k_group.generators": generators * per,
            "ktheory.apply_hom.self_ms": ms("ktheory.apply_hom"),
            "ktheory.apply_hom.terms_in": totals["terms_in"] * per,
            "ktheory.apply_hom.terms_out": totals["terms_out"] * per,
            "ktheory.apply_hom.us_per_term.small": small[0] / 1e3 / small[1] if small[1] else 0.0,
            "ktheory.apply_hom.us_per_term.large": large[0] / 1e3 / large[1] if large[1] else 0.0,
            "ktheory.kmap.useful_ratio": totals["terms_in"] / generators if generators else 0.0,
        }
