"""Per-layer spans and counts around ``fdl``'s public functions.

``Tracer.install()`` replaces the functions below where ``fdl.cli``,
``fdl.minimize`` and ``fdl.kb`` look them up, and ``uninstall()`` puts
the originals back.  ``fdl`` itself is not changed.  Each call made during
an operation records a span (name, start, end, parent, operation id) in
memory; a call made inside a span of the same name records none, so
recursion and nested parsing count once.  A layer's self time is its
spans' time minus the time of their child spans.

In a counted pass a ``cProfile`` profiler per operation and span name
counts the Python calls made while that span is the innermost one, and
``tracemalloc`` gives the peak of new memory inside load, evaluation and
fixpoint spans.  Times from a counted pass are not used.
"""

from __future__ import annotations

import cProfile
import fractions
import os
import time
import tracemalloc
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import fdl.cli
import fdl.kb
import fdl.minimize

ROOT = "cli.main"

# (module, attribute, span name)
WRAPPED = [
    (fdl.cli, "load_interpretation", "interp.load"),
    (fdl.cli, "eval_concept", "interp.eval"),
    (fdl.cli, "parse_concept", "parsing.parse"),
    (fdl.cli, "load_kb", "parsing.parse"),
    (fdl.kb, "parse_concept", "parsing.parse"),
    (fdl.kb, "parse_role", "parsing.parse"),
    (fdl.cli, "validates", "kb.validate"),
    (fdl.cli, "greatest_bisim", "bisim.fixpoint"),
    (fdl.cli, "bisimilar", "bisim.fixpoint"),
    (fdl.minimize, "greatest_bisim", "bisim.fixpoint"),
    (fdl.minimize, "strong_partition", "minimize.partition"),
    (fdl.cli, "quotient", "minimize.quotient"),
    (fdl.cli, "prune_unreachable", "minimize.prune"),
    (fdl.cli, "dump_relation", "cli.output"),
    (fdl.cli, "dump_interpretation", "cli.output"),
]
# spans whose peak of new memory the counted pass records; they never nest
PEAK_SPANS = ("interp.load", "interp.eval", "bisim.fixpoint")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_FRACTIONS_FILE = fractions.__file__


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "mem")

    def __init__(self, name: str, parent: int, op: int):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.mem = 0


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1
        self._saved: list = []
        self.counting = False
        self._profilers: Dict[Tuple[int, str], cProfile.Profile] = {}
        self.peaks_kb: Dict[Tuple[int, str], float] = {}

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> Optional[int]:
        stack = self._stack
        if stack and self.spans[stack[-1]].name == name:
            return None
        index = len(self.spans)
        span = Span(name, stack[-1] if stack else -1, self._op)
        if self.counting:
            if stack:
                self._profilers[self.spans[stack[-1]].op, self.spans[stack[-1]].name].disable()
            if name in PEAK_SPANS:
                tracemalloc.reset_peak()
                span.mem = tracemalloc.get_traced_memory()[0]
            self._profiler(span.op, name).enable()
        self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def end(self, index: Optional[int]) -> None:
        if index is None:
            return
        now = time.perf_counter()
        span = self.spans[index]
        self._stack.pop()
        if self.counting:
            self._profilers[span.op, span.name].disable()
            if span.name in PEAK_SPANS:
                key = span.op, span.name
                extra = (tracemalloc.get_traced_memory()[1] - span.mem) / 1024
                self.peaks_kb[key] = max(self.peaks_kb.get(key, 0.0), extra)
            if self._stack:
                parent = self.spans[self._stack[-1]]
                self._profilers[parent.op, parent.name].enable()
        span.end = now

    def _profiler(self, op: int, name: str) -> cProfile.Profile:
        if (op, name) not in self._profilers:
            self._profilers[op, name] = cProfile.Profile()
        return self._profilers[op, name]

    def call(self, op: int, fn, *args, **kwargs):
        """Run operation number ``op`` under a root span."""
        self._op = op
        index = self.begin(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        tracer, base = self, fdl.kb.ConceptEvaluator

        class TracedEvaluator(base):
            """The evaluator ``fdl.kb`` builds per item, with eval spans."""

            def concept_values(self, c):
                index = tracer.begin("interp.eval")
                try:
                    return base.concept_values(self, c)
                finally:
                    tracer.end(index)

            def role_values(self, r):
                index = tracer.begin("interp.eval")
                try:
                    return base.role_values(self, r)
                finally:
                    tracer.end(index)

        self._saved.append((fdl.kb, "ConceptEvaluator", base))
        fdl.kb.ConceptEvaluator = TracedEvaluator

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- counted pass --------------------------------------------------

    def start_counting(self) -> None:
        self.spans.clear()
        self._profilers.clear()
        self.peaks_kb.clear()
        self.counting = True
        tracemalloc.start()

    def stop_counting(self) -> Dict[Tuple[int, str], Dict[str, int]]:
        """Python calls and calls into ``fractions`` per operation number
        and innermost span name."""
        self.counting = False
        tracemalloc.stop()
        counts: Dict[Tuple[int, str], Dict[str, int]] = {}
        for key, profiler in self._profilers.items():
            py = frac = 0
            for entry in profiler.getstats():
                code = entry.code
                if isinstance(code, str) or code.co_filename.startswith(_BENCH_DIR):
                    continue  # built-in functions, and the benchmark's own wrappers
                py += entry.callcount
                if code.co_filename == _FRACTIONS_FILE:
                    frac += entry.callcount
            counts[key] = {"py_calls": py, "fraction_calls": frac}
        return counts


def self_times(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Self seconds per operation id and span name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, inner in zip(spans, child_time):
        out[span.op][span.name] += span.end - span.start - inner
    return out
