"""Spans around orelab's public functions, and the per-layer metrics they give.

``install`` replaces each target function with a wrapper that records one
span per call: name, parent span, start, end, and a small tag taken from
the arguments or result.  Every attribute of every loaded ``orelab``
module (and class) that is bound to the target is replaced, so calls made
through another module's import, such as ``ore.canonical_form`` or
``col.is_k_colorable``, are seen too.  Spans stay in memory until
``dump`` writes them; ``layer_metrics`` turns the spans of one traced
run into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _tag_canonical(args, kwargs, result):
    return _digest(result[0])


def _tag_colorable(args, kwargs, result):
    # a tuple of ints hashes the same in every interpreter
    G = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return [result is not None, hash((G.adj, k))]


def _tag_ore5(args, kwargs, result):
    subsets = None
    for check in result.checks:
        match = re.match(r"subsets=(\d+)", check.note)
        if check.name == "ore5-low-ky-collapsible" and match:
            subsets = int(match.group(1))
    return [args[0].n, subsets]


# (span name, module, attribute path, tag function); the attribute path of
# a method is "Class.method".
TARGETS = (
    ("graph_core.canonical_form", "orelab.graph_core", "canonical_form", _tag_canonical),
    ("ore.compose_graphs", "orelab.ore", "compose_graphs", None),
    ("ore.enumerate_5_ore", "orelab.ore", "enumerate_5_ore", None),
    ("ore.is_5_ore", "orelab.ore", "is_5_ore", None),
    ("coloring.is_5_critical", "orelab.coloring", "is_5_critical", None),
    ("coloring.is_k_colorable", "orelab.coloring", "is_k_colorable", _tag_colorable),
    ("coloring.extract_5_critical", "orelab.coloring", "extract_5_critical", None),
    ("coloring.seeded_coloring", "orelab.coloring", "seeded_coloring", None),
    ("coloring.is_collapsible", "orelab.coloring", "is_collapsible", None),
    ("packing.t_number", "orelab.packing", "t_number", None),
    ("packing.mic", "orelab.packing", "mic", None),
    ("potential.critical_extension", "orelab.potential", "critical_extension", None),
    ("potential.verify_extension_inequalities", "orelab.potential",
     "verify_extension_inequalities", None),
    ("potential.verify_main_theorem", "orelab.potential", "verify_main_theorem", None),
    ("potential.verify_ore5_bounds", "orelab.potential", "verify_ore5_bounds", _tag_ore5),
    ("discharge.closing_inequalities", "orelab.discharge", "closing_inequalities", None),
    ("corpus.add", "orelab.corpus", "Corpus.add", None),
    ("corpus.compute_invariants", "orelab.corpus", "compute_invariants", None),
    ("corpus.load", "orelab.corpus", "Corpus.load", None),
    ("corpus.verify_entry", "orelab.corpus", "Corpus.verify_entry", None),
    ("lab_cli", "orelab.lab_cli", "main", None),
)
GENERATORS = {"ore.enumerate_5_ore"}


class Tracer:
    """Spans as lists ``[name, parent, start, end, busy, tag]``; ``busy`` is
    the time a generator actually ran, None for a plain call."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _open(self, name: str) -> int:
        self.spans.append([name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None, None])
        return len(self.spans) - 1

    def wrap(self, name, fn, tag):
        spans, stack = self.spans, self.stack

        def call(*args, **kwargs):
            idx = self._open(name)
            span = spans[idx]
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if tag is not None:
                span[5] = tag(args, kwargs, result)
            return result

        def generate(*args, **kwargs):
            idx = self._open(name)
            span = spans[idx]
            span[4], span[5] = 0.0, 0
            inner = fn(*args, **kwargs)
            span[2] = span[3] = perf_counter()
            while True:
                stack.append(idx)
                start = perf_counter()
                try:
                    item = next(inner, StopIteration)
                finally:
                    span[3] = perf_counter()
                    span[4] += span[3] - start
                    stack.pop()
                if item is StopIteration:
                    return
                span[5] += 1
                yield item

        return generate if name in GENERATORS else call

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets this orelab does not have."""
    missing = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "orelab" or name.startswith("orelab."))]
    for name, module, path, tag in TARGETS:
        owner = sys.modules.get(module)
        *cls, attr = path.split(".")
        if owner is not None and cls:
            owner = getattr(owner, cls[0], None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, tag)
        holders = [owner] if cls else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CALLS = ("graph_core.canonical_form", "ore.compose_graphs", "ore.is_5_ore",
         "coloring.is_5_critical", "coloring.extract_5_critical", "coloring.is_collapsible",
         "packing.t_number", "packing.mic", "corpus.add", "corpus.load")
SELF = ("graph_core.canonical_form", "ore.enumerate_5_ore", "ore.is_5_ore",
        "coloring.is_5_critical", "coloring.extract_5_critical", "coloring.seeded_coloring",
        "coloring.is_collapsible", "packing.t_number", "packing.mic",
        "potential.critical_extension", "potential.verify_extension_inequalities",
        "potential.verify_main_theorem", "potential.verify_ore5_bounds",
        "discharge.closing_inequalities", "corpus.compute_invariants", "corpus.load",
        "corpus.verify_entry", "lab_cli")

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "graph_core.canonical_form.calls": ("count", "lower"),
    "graph_core.canonical_form.self_s": ("s", "lower"),
    "graph_core.canonical_form.new_class_ratio": ("ratio", "higher"),
    "ore.compose_graphs.calls": ("count", "lower"),
    "ore.classes_per_site": ("ratio", "higher"),
    "ore.enumerate_5_ore.self_s": ("s", "lower"),
    "ore.is_5_ore.calls": ("count", "lower"),
    "ore.is_5_ore.self_s": ("s", "lower"),
    "coloring.is_5_critical.calls": ("count", "lower"),
    "coloring.is_5_critical.self_s": ("s", "lower"),
    "coloring.is_k_colorable.colorable_calls": ("count", "lower"),
    "coloring.is_k_colorable.colorable_s": ("s", "lower"),
    "coloring.solves_per_critical": ("ratio", "lower"),
    "coloring.is_k_colorable.repeat_ratio": ("ratio", "lower"),
    "coloring.is_k_colorable.uncolorable_calls": ("count", "lower"),
    "coloring.is_k_colorable.uncolorable_s": ("s", "lower"),
    "coloring.extract_5_critical.calls": ("count", "lower"),
    "coloring.extract_5_critical.self_s": ("s", "lower"),
    "coloring.seeded_coloring.self_s": ("s", "lower"),
    "coloring.is_collapsible.calls": ("count", "lower"),
    "coloring.is_collapsible.self_s": ("s", "lower"),
    "packing.t_number.calls": ("count", "lower"),
    "packing.t_number.self_s": ("s", "lower"),
    "packing.mic.calls": ("count", "lower"),
    "packing.mic.self_s": ("s", "lower"),
    "potential.critical_extension.self_s": ("s", "lower"),
    "potential.verify_extension_inequalities.self_s": ("s", "lower"),
    "potential.verify_main_theorem.self_s": ("s", "lower"),
    "potential.verify_ore5_bounds.self_s": ("s", "lower"),
    "potential.ore5_subsets": ("count", "higher"),
    "potential.ore5_coverage": ("ratio", "higher"),
    "discharge.closing_inequalities.self_s": ("s", "lower"),
    "corpus.add.calls": ("count", "lower"),
    "corpus.compute_invariants.self_s": ("s", "lower"),
    "corpus.load.calls": ("count", "lower"),
    "corpus.load.self_s": ("s", "lower"),
    "corpus.verify_entry.self_s": ("s", "lower"),
    "lab_cli.self_s": ("s", "lower"),
}


def _swept_space(n: int) -> int:
    """Subsets R of an n-vertex graph with 5 <= |R| < n."""
    return (1 << n) - 1 - sum(comb(n, k) for k in range(5))


def layer_metrics(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over the spans of every traced process of a run."""
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    keys: set[str] = set()
    colorings: Counter = Counter()
    coloring_s: dict[bool, float] = defaultdict(float)
    seen_adj: set[int] = set()
    repeats = solves_in_critical = sites = classes = 0
    subsets = space = 0
    for spans in processes:
        dur = [(s[3] - s[2]) if s[4] is None else s[4] for s in spans]
        child = [0.0] * len(spans)
        in_enum = [False] * len(spans)
        for i, (name, parent, _, _, _, tag) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
                in_enum[i] = in_enum[parent]
            in_enum[i] = in_enum[i] or name == "ore.enumerate_5_ore"
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "graph_core.canonical_form":
                keys.add(tag)
            elif name == "coloring.is_k_colorable":
                colorings[tag[0]] += 1
                coloring_s[tag[0]] += dur[i]
                repeats += tag[1] in seen_adj
                seen_adj.add(tag[1])
                solves_in_critical += parent_name == "coloring.is_5_critical"
            elif name == "ore.compose_graphs":
                sites += in_enum[i]
            elif name == "ore.enumerate_5_ore":
                classes += tag
            elif name == "potential.verify_ore5_bounds" and tag[1] is not None:
                subsets += tag[1]
                space += _swept_space(tag[0])
        for i, s in enumerate(spans):
            calls[s[0]] += 1
            self_s[s[0]] += dur[i] - child[i]
    coloring_calls = sum(colorings.values())
    out = {f"{name}.calls": calls[name] for name in CALLS}
    out.update({f"{name}.self_s": self_s[name] for name in SELF})
    out.update({
        "graph_core.canonical_form.new_class_ratio":
            len(keys) / calls["graph_core.canonical_form"] if keys else 0.0,
        "ore.classes_per_site": classes / sites if sites else 0.0,
        "coloring.is_k_colorable.colorable_calls": colorings[True],
        "coloring.is_k_colorable.colorable_s": coloring_s[True],
        "coloring.is_k_colorable.uncolorable_calls": colorings[False],
        "coloring.is_k_colorable.uncolorable_s": coloring_s[False],
        "coloring.solves_per_critical":
            solves_in_critical / calls["coloring.is_5_critical"]
            if calls["coloring.is_5_critical"] else 0.0,
        "coloring.is_k_colorable.repeat_ratio": repeats / coloring_calls if coloring_calls else 0.0,
        "potential.ore5_subsets": subsets,
        "potential.ore5_coverage": subsets / space if space else 0.0,
    })
    return {name: out[name] for name in PER_LAYER}
