"""Per-layer tracing of cluster_presents from outside the program.

``Tracer.install`` replaces every public function of each layer module (the
names in its ``__all__`` that are not classes) at every module attribute of the
package that refers to it, so calls between modules and inside one module are
both seen.  Each call becomes a span (name, start, end, parent span, op id)
plus counts read from its return value.  ``uninstall`` puts the originals
back; nothing in the package's source changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "formats", "dynkin", "exchange", "diagram", "presentation", "coset", "roots")
# cli has no __all__: its entry point and the labeled-seed search of `pipeline`.
CLI_FUNCTIONS = ("main", "_seed_basis_path")


def _counts(name: str, result) -> tuple:
    """What a span records from its return value."""
    if name == "coset.coset_enumerate":
        return (result.cosets_defined, result.coset_count, result.status == "overflow")
    if name == "diagram.mutation_class":
        return (len(result),)
    if name in ("presentation.full_presentation", "presentation.reduced_presentation"):
        return (len(result.relations),)
    return ()


def package_modules(package: str) -> list:
    """The package and all its modules; the layers are imported first, as the CLI imports some lazily."""
    for layer in LAYERS:
        importlib.import_module(f"{package}.{layer}")
    return [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]


class Tracer:
    """Spans of the calls into each layer, kept in memory until taken."""

    def __init__(self, package: str = "cluster_presents"):
        self.package = package
        self.op = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # name, start, end, parent, op, time covered by child spans, counts
            span = [name, 0.0, 0.0, parent, self.op, 0.0, ()]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            span[6] = _counts(name, result)
            return result

        return traced

    def install(self) -> None:
        modules = package_modules(self.package)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        originals = {}
        for layer in LAYERS:
            module = by_name[layer]
            names = CLI_FUNCTIONS if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if callable(fn) and not inspect.isclass(fn):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last take, which start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        self._stack.clear()
        return spans


def layer_metrics(spans: list[list], names) -> dict[str, float]:
    """The named per-layer metrics of one round's spans.

    A name is ``<key>.calls`` or ``<key>.self_s``, where the key is a function
    (``coset.perm_rep``), a whole layer (``formats``) or the exchange checks,
    or one of the derived counts and ratios below."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for name, start, end, _parent, _op, child, _counts_ in spans:
        own = end - start - child
        layer = name.split(".", 1)[0]
        keys = [name, layer]
        if layer == "exchange" and name != "exchange.mutate_matrix":
            keys.append("exchange.checks")
        for key in keys:
            calls[key] += 1
            self_s[key] += own
    enumerations = [s[6] for s in spans if s[0] == "coset.coset_enumerate"]
    classes = [s[6][0] for s in spans if s[0] == "diagram.mutation_class"]
    relations = [s[6][0] for s in spans if s[0].startswith("presentation.") and s[6]]
    defined = sum(c[0] for c in enumerations)
    final = sum(c[1] for c in enumerations)
    members = sum(classes)
    canonical = calls["diagram.canonical_representative"]
    special = {
        "coset.cosets_defined": defined,
        "coset.cosets_final": final,
        "coset.useful_ratio": final / defined if defined else 0.0,
        "coset.overflows": sum(1 for c in enumerations if c[2]),
        "diagram.class_members": members,
        "diagram.class_new_ratio": members / canonical if canonical else 0.0,
        "presentation.relations": sum(relations),
    }
    out = {}
    for name in names:
        key, stat = name.rsplit(".", 1)
        if name in special:
            out[name] = special[name]
        elif stat == "calls":
            out[name] = calls[key]
        else:
            out[name] = self_s[key]
    return out


def write_spans(path, spans: list[list]) -> None:
    """One JSON array per line: name, start, end, parent index, op id, counts."""
    with open(path, "w") as fh:
        for name, start, end, parent, op, _child, counts in spans:
            fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op, list(counts)]) + "\n")
