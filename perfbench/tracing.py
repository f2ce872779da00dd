"""Spans and counters for the traced run, recorded from outside bdr.

Each public function is wrapped where its caller looks it up (a module
attribute such as ``bdr.decider.find_equal_sum_split``), so nothing under
``src/`` changes.  A span's self time is its duration minus the durations
of the spans it encloses.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import gc
import tracemalloc
from collections import defaultdict
from time import perf_counter

# (module attribute holding the binding, function name, span name)
SPANS = [
    ("cli", "main", "cli"),
    ("core", "parse_sequence", "core.parse_sequence"),
    ("decider", "in_class", "core.in_class"),
    ("reduction", "in_class", "core.in_class"),
    ("decider", "decide_bdr", "decider.decide_bdr"),
    ("decider", "precheck", "decider.precheck"),
    ("reduction", "compute_rational_r", "reduction.compute_rational_r"),
    ("reduction", "choose_padding_n", "reduction.choose_padding_n"),
    ("reduction", "build_hard_instance", "reduction.build_hard_instance"),
    ("reduction", "semiregular_bipartite", "reduction.semiregular_bipartite"),
    ("reduction", "project_realization", "reduction.project_realization"),
    ("oracle", "brute_force_bipartite_realizable",
     "oracle.brute_force_bipartite_realizable"),
]


class Tracer:
    """Accumulates self time per span name and named counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_mb = 0.0
        self.gc_s = 0.0
        self._open: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- span bookkeeping ---------------------------------------------------
    def _enter(self) -> float:
        self._open.append(0.0)
        return perf_counter()

    def _exit(self, name: str, start: float) -> None:
        took = perf_counter() - start
        self.self_s[name] += took - self._open.pop()
        self.counts[name + ".calls"] += 1
        if self._open:
            self._open[-1] += took

    def _declare(self, span: str | None = None, counter: str | None = None) -> None:
        """Report a span or counter even if no traced operation reaches it."""
        if span is not None:
            self.self_s[span] += 0.0
            self.counts[span + ".calls"] += 0
        if counter is not None:
            self.counts[counter] += 0

    def span(self, name: str, fn):
        self._declare(span=name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)
        return wrapper

    # -- wrappers with counters ------------------------------------------------
    def _construct(self, fn):
        inner = self.span("gale_ryser.construct_realization", fn)
        self._declare(counter="gale_ryser.edges_built")

        def wrapper(*args, **kwargs):
            g = inner(*args, **kwargs)
            if g is not None:
                self.counts["gale_ryser.edges_built"] += len(g.edges)
            return g
        return wrapper

    def _is_bigraphic(self, fn):
        inner = self.span("gale_ryser.is_bigraphic", fn)
        self._declare(counter="gale_ryser.is_bigraphic.accepted")

        def wrapper(*args, **kwargs):
            ok = inner(*args, **kwargs)
            self.counts["gale_ryser.is_bigraphic.accepted"] += bool(ok)
            return ok
        return wrapper

    def _decide_exact(self, fn, budget_error):
        inner = self.span("decider.decide_exact", fn)
        self._declare(counter="decider.budget_exceeded")

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except budget_error:
                self.counts["decider.budget_exceeded"] += 1
                raise
        return wrapper

    def _enumerate(self, fn):
        name = "partition.enumerate_equal_sum_splits"
        self._declare(span=name, counter="partition.splits_yielded")

        def wrapper(*args, **kwargs):
            splits = fn(*args, **kwargs)
            while True:
                start = self._enter()
                try:
                    split = next(splits)
                except StopIteration:
                    return
                finally:
                    self._exit(name, start)
                self.counts["partition.splits_yielded"] += 1
                yield split
        return wrapper

    def _find_split(self, fn):
        inner = self.span("partition.find_equal_sum_split", fn)

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb = max(self.peak_mb, peak / 2**20)
        return wrapper

    def _lift(self, fn):
        inner = self.span("reduction.lift_realization", fn)
        self._declare(counter="reduction.lifted_edges")

        def wrapper(*args, **kwargs):
            lifted = inner(*args, **kwargs)
            self.counts["reduction.lifted_edges"] += len(lifted.edges)
            return lifted
        return wrapper

    def _count(self, name: str, fn):
        self._declare(counter=name)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.gc_s += perf_counter() - self._gc_start
        self.counts["process.gc_collections_gen2"] += info["generation"] == 2

    # -- install / uninstall -----------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib) -> None:
        for module, attr, name in SPANS:
            owner = getattr(lib, module)
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        for module in (lib.decider, lib.reduction):
            self._patch(module, "construct_realization",
                        self._construct(module.construct_realization))
        d = lib.decider
        self._patch(d, "is_bigraphic", self._is_bigraphic(d.is_bigraphic))
        self._patch(d, "decide_exact",
                    self._decide_exact(d.decide_exact, lib.errors.BudgetExceededError))
        self._patch(d, "enumerate_equal_sum_splits",
                    self._enumerate(d.enumerate_equal_sum_splits))
        self._patch(d, "find_equal_sum_split", self._find_split(d.find_equal_sum_split))
        self._patch(lib.reduction, "lift_realization",
                    self._lift(lib.reduction.lift_realization))
        self._patch(lib.oracle, "_gale_ryser_lists",
                    self._count("oracle.gr_checks", lib.oracle._gale_ryser_lists))
        cls = lib.gale_ryser.BipartiteRealization
        self._patch(cls, "__post_init__",
                    self.span("gale_ryser.BipartiteRealization.init", cls.__post_init__))
        self._patch(cls, "sorted_edges",
                    self.span("gale_ryser.BipartiteRealization.sorted_edges",
                              cls.sorted_edges))
        self._declare(counter="process.gc_collections_gen2")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- report ----------------------------------------------------------------
    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation means over ``ops`` traced operations: the self time
        of every span and every counter, plus four derived figures."""
        c = self.counts
        out = {f"{name}.self_s": (took / ops, "s/op") for name, took in self.self_s.items()}
        out.update({name: (count / ops, "count/op") for name, count in c.items()})
        out["partition.splits_per_exact_call"] = (
            c["partition.splits_yielded"] / max(c["decider.decide_exact.calls"], 1), "ratio")
        out["gale_ryser.is_bigraphic.accept_ratio"] = (
            c["gale_ryser.is_bigraphic.accepted"] / max(c["gale_ryser.is_bigraphic.calls"], 1),
            "ratio")
        out["partition.find_equal_sum_split.peak_mb"] = (self.peak_mb, "MB")
        out["process.gc_s"] = (self.gc_s / ops, "s/op")
        return out
