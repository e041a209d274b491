"""Spans around the public functions of the five layer modules.

The tracer replaces a function at every place it is bound: the module that
defines it, every nestoqsym module that imported it by name (for example
``invariants.mul`` or ``nestopoly.maximal_members``) and the package
namespace.  Calls inside a module go through its globals, so replacing the
attribute catches them too.  Every replaced binding is put back by
``restore``.

Spans (name, start, end, parent) are kept in flat arrays and written out when
the run ends.  A span's self time is its duration minus the durations of its
direct children.  Work the benchmark adds only to count something (the
walked nested sets, for example) runs inside ``untimed()``: no spans are
recorded there and its time is taken off the span clock.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from contextlib import contextmanager
from math import comb
from time import perf_counter

from nestoqsym import nestopoly

LAYERS = ("qsym", "graphs", "buildset", "nestopoly", "invariants")

# Not wrapped, so their time counts toward the caller: value constructors
# and comparisons called per term or per word, which are cheaper than a
# span, and realization_failures, the body of check_realization.  Functions
# behind functools.lru_cache (compositions_of, enumerate_tree_shapes, ...)
# are not plain functions and are not wrapped either.
UNTRACED = {
    "qsym": {
        "composition", "partition_of", "term_key", "refines", "element",
        "zero", "one", "monomial", "fundamental", "binomial",
        "descent_composition", "descent_permutation",
    },
    "buildset": {"hopf_word", "hopf_monomial"},
    "nestopoly": {"realization_failures"},
}

SELF_S = (
    "invariants.F_splitting", "invariants.F_graph_colorings",
    "invariants.F_graph_recurrence", "graphs.canonical_form",
    "graphs.enumerate_graphs", "invariants.chromatic_symmetric",
    "nestopoly.maximal_nested_sets", "nestopoly.b_tree",
    "nestopoly.vertex_coordinates", "nestopoly.linear_extensions",
    "nestopoly.check_realization", "buildset.maximal_members",
    "invariants.F_btree_route", "invariants.F_fundamental",
    "buildset.takeuchi_antipode", "buildset.coproduct", "invariants.F_of_hopf",
    "qsym.antipode", "qsym.to_fundamental", "qsym.coproduct", "qsym.mul",
    "buildset.from_graph",
)
CALLS = (
    "graphs.canonical_form", "graphs.induced", "nestopoly.is_nested",
    "buildset.maximal_members", "qsym.mul", "qsym.shift1",
)
RATIOS = (
    "graphs.canonical_form.distinct_ratio",
    "nestopoly.walk_useful_ratio",
    "buildset.takeuchi_antipode.useful_ratio",
)


def metric_names() -> list:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{name}.self_s", "s") for name in SELF_S]
    out += [(f"{name}.calls", "count") for name in CALLS]
    out += [(name, "ratio") for name in RATIOS]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def targets() -> list:
    """(qualified name, function) for every traced public function."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"nestoqsym.{layer}"]
        skip = UNTRACED.get(layer, set())
        for attr, obj in sorted(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in skip
            ):
                out.append((f"{layer}.{attr}", obj))
    return out


def ordered_set_partitions(n: int) -> int:
    """Fubini number: the chains a Takeuchi walk on [n] visits."""
    if n == 0:
        return 1
    return sum(comb(n, k) * ordered_set_partitions(n - k) for k in range(1, n + 1))


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.paused = 0.0
        self.active = False
        self.bindings = []
        # counts taken at the boundaries, for the useful-work ratios
        self.canonical_keys = set()
        self.nested_kept = 0
        self.nested_walked = 0
        self._walked_by_bs = {}
        self.takeuchi_words = 0
        self.takeuchi_chains = 0

    # -- clock --------------------------------------------------------------

    def clock(self) -> float:
        return perf_counter() - self.paused

    @contextmanager
    def untimed(self):
        was, self.active = self.active, False
        t0 = perf_counter()
        try:
            yield
        finally:
            self.paused += perf_counter() - t0
            self.active = was

    # -- observers ----------------------------------------------------------

    def _canonical_form(self, args, result):
        self.canonical_keys.add(result)

    def _maximal_nested_sets(self, args, result):
        b = args[0]
        if b not in self._walked_by_bs:
            self._walked_by_bs[b] = sum(nestopoly.nested_sets_by_size(b))
        self.nested_kept += len(result)
        self.nested_walked += self._walked_by_bs[b]

    def _takeuchi_antipode(self, args, result):
        self.takeuchi_words += len(result.terms)
        self.takeuchi_chains += ordered_set_partitions(args[0].n)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        observer = {
            "graphs.canonical_form": self._canonical_form,
            "nestopoly.maximal_nested_sets": self._maximal_nested_sets,
            "buildset.takeuchi_antipode": self._takeuchi_antipode,
        }.get(name)
        tracer = self
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(span_start)
            span_name.append(sid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(perf_counter() - tracer.paused)
            span_end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter() - tracer.paused
                stack.pop()
            if observer is not None:
                with tracer.untimed():
                    observer(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items()) if k == "nestoqsym" or k.startswith("nestoqsym.")]
        for name, fn in targets():
            wrapper = self._wrap(fn, name)
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self.bindings.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, fn in self.bindings:
            setattr(mod, attr, fn)
        left = [f"{m.__name__}.{a}" for m, a, fn in self.bindings if getattr(m, a) is not fn]
        if left:
            raise RuntimeError(f"bindings not restored: {left}")
        self.bindings.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, self seconds]."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric but the overhead ratio, as plain numbers."""
        tot = self.totals()
        out = {f"{name}.self_s": tot[name][1] for name in SELF_S}
        out.update({f"{name}.calls": tot[name][0] for name in CALLS})
        calls = tot["graphs.canonical_form"][0]
        out["graphs.canonical_form.distinct_ratio"] = (
            len(self.canonical_keys) / calls if calls else 0.0
        )
        out["nestopoly.walk_useful_ratio"] = (
            self.nested_kept / self.nested_walked if self.nested_walked else 0.0
        )
        out["buildset.takeuchi_antipode.useful_ratio"] = (
            self.takeuchi_words / self.takeuchi_chains if self.takeuchi_chains else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, (_, s) in tot.items() if name.startswith(layer + ".")
            )
        return out

    def write(self, path):
        """One tab-separated line per span: name, start, end, parent index."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
