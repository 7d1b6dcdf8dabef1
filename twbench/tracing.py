"""Spans at the layer boundaries of the program, recorded from outside it.

``Tracer.install()`` replaces the public functions listed in ``LAYERS`` by
wrappers on their modules, so calls between the program's own modules are
seen too (``universal_witness`` calling ``vondyck``, ``multiplier_set``
calling the kernel).  Each call adds one span: name, start, end, parent
span and case id (0 for set-up), kept in flat arrays until ``write`` saves
them.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import gzip
import json
from array import array
from functools import wraps
from time import perf_counter

from triangle_words import classify, groups, lattice, psl2, residue, words
from triangle_words._kernels import backend

# (metric prefix, module, attribute).  Metric names must start with a letter,
# so the _kernels layer is reported as "kernels".
LAYERS = (
    ("classify.classify_burnside", classify, "classify_burnside"),
    ("classify.classify_honda", classify, "classify_honda"),
    ("classify.classify_honda_via_burnside", classify, "classify_honda_via_burnside"),
    ("residue.segment_perm_check", residue, "segment_perm_check"),
    ("lattice.fiber_count", lattice, "fiber_count"),
    ("lattice.multiplier_set", lattice, "multiplier_set"),
    ("kernels.multiplier_units", backend, "multiplier_units"),
    ("groups.vondyck", groups, "vondyck"),
    ("groups.universal_witness", groups, "universal_witness"),
    ("groups.lemma42_check", groups, "lemma42_check"),
    ("groups.burnside_count_check", groups, "burnside_count_check"),
    ("groups.multiplier_set_finite", groups, "multiplier_set_finite"),
    ("groups.enumerate_group", groups, "enumerate_group"),
    ("words.eliminate_b", words, "eliminate_b"),
    ("words.search_twisted_solution", words, "search_twisted_solution"),
    ("kernels.twisted_search", backend, "twisted_search"),
    ("words.normalize", words, "normalize"),
    ("words.multiply", words, "multiply"),
    ("words.apply_twisted", words, "apply_twisted"),
    ("psl2.numeric_triple_solvable", psl2, "numeric_triple_solvable"),
    ("kernels.grid_class_distance", backend, "grid_class_distance"),
)

# Call counts reported besides "<layer>.ms" for every layer above.
COUNTS = (
    "groups.vondyck.calls",
    "groups.enumerate_group.calls",
    "words.eliminate_b.calls",
    "kernels.twisted_search.calls",
    "kernels.grid_class_distance.calls",
)


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.case_id = 0
        self._stack: list[int] = []
        self._saved = []
        self.signatures: set[tuple] = set()
        self.solved = 0
        self.largest_group = None  # (order, args, kwargs) of enumerate_group

    def install(self):
        for index, (name, module, attr) in enumerate(LAYERS):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(index, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, index, fn):
        name = self.names[index]
        stack = self._stack
        on_result = {
            "groups.vondyck": self._on_vondyck,
            "words.eliminate_b": self._on_eliminate,
            "groups.enumerate_group": self._on_enumerate,
        }.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.case.append(self.case_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def _on_vondyck(self, result, args, kwargs):
        self.signatures.add(tuple(args))

    def _on_eliminate(self, result, args, kwargs):
        self.solved += result is not None

    def _on_enumerate(self, result, args, kwargs):
        if self.largest_group is None or result.order > self.largest_group[0]:
            self.largest_group = (result.order, args, kwargs)

    def layer_table(self) -> dict[str, tuple[int, float, float]]:
        """Calls, total ms and self ms per layer function over every span.
        Self time is the span's duration minus its direct children's."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            duration = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += duration * 1000.0
            own[k] += (duration - child[i]) * 1000.0
        return {name: (calls[k], total[k], own[k]) for k, name in enumerate(self.names)}

    def layer_metrics(self, table) -> dict[str, tuple[float, str]]:
        """"<layer>.ms" is the total time inside that function, what it
        calls included, except for universal_witness, whose figure is its
        self time: without the realization it rebuilds through vondyck."""
        out = {}
        for name, (calls, total, own) in table.items():
            out[f"{name}.ms"] = (own if name == "groups.universal_witness" else total, "ms")
        for name in COUNTS:
            layer = name.rsplit(".", 1)[0]
            out[name] = (table[layer][0], "count")
        out["groups.vondyck.distinct_signatures"] = (len(self.signatures), "count")
        out["words.eliminate_b.solved"] = (self.solved, "count")
        return out

    def write(self, path) -> int:
        """Save the spans as gzipped JSON, one span per line, times in
        microseconds from the first span and names as indices into
        "names"."""
        t0 = self.start[0] if len(self.start) else 0.0
        header = json.dumps({"names": self.names, "fields": ["name", "start_us", "end_us", "parent", "case"]})
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(header[:-1] + ', "spans": [\n')
            for i in range(len(self.start)):
                f.write(
                    f"{',' if i else ''}[{self.name[i]}, {(self.start[i] - t0) * 1e6:.1f}, "
                    f"{(self.end[i] - t0) * 1e6:.1f}, {self.parent[i]}, {self.case[i]}]\n"
                )
            f.write("]}\n")
        return len(self.start)
