"""Traced run: spans around nbhood's public functions, kept in memory.

Each module of nbhood is a layer. The tracer wraps the layer's public
functions and records one span per call (name, start, end, parent, span
id, and the id of the CLI call it belongs to) plus counts taken from the
arguments and results. A span's self time is its duration minus the time
covered by its direct children. ``make_word`` and ``NeighborhoodResult``
construction run once per member, so they get an aggregate timer instead
of a span; their time is still subtracted from the enclosing span.

``from .x import f`` copies the function into each consumer module, and
cli and verify also keep the enumerators in dispatch tables built at
import time, so rebinding module attributes would miss calls. Instead the
tracer swaps the body (``__code__``) of each function object for a
trampoline into the timing wrapper, which reaches every binding at once
and names no private symbol of nbhood. ``uninstall`` restores every body.

Self time is also kept per op, for comparison with the untraced run's
per-op figures. The harness calls ``cut`` when an op starts and ends (and
the tracer cuts after each reported ``verify`` step), which closes a
``Segment``. Between cuts, every interval is charged to the innermost open
span or timer, or to ``harness`` when none is open, so a segment's charges
add up to exactly its duration. Counts land in the segment where the span
starts (``calls``) or ends (the rest).
"""
from __future__ import annotations

import importlib
import inspect
import json
import re
import types
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter


def _trampoline(*args, __traced__, **kwargs):
    return __traced__(*args, **kwargs)


@dataclass
class Span:
    id: int
    name: str
    call: int
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


@dataclass
class Segment:
    """One op's time: exclusive seconds per layer metric, and counts."""

    start: float
    end: float = 0.0
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _members(kind=None):
    def counts(a, r):
        return {"members": r if isinstance(r, int) else r.count,
                "query": (a["w"].text, a["d"], a["alphabet"].spec(), kind or a["kind"])}
    return counts


def _oracle(a, r):
    s, top = a["alphabet"].size, len(a["w"]) + a["d"]
    return {"members": r.count, "candidates": sum(s**k for k in range(top + 1))}


def _cells(a, r):
    return {"cells": (len(a["top"]) + 1) * (len(a["bottom"]) + 1)}


# (module, public function, span name, counts from (arguments, result))
SPANNED = (
    ("cli", "main", "cli", None),
    ("neighborhood", "count", "neighborhood.count", _members()),
    ("neighborhood", "enumerate_full", "neighborhood.enumerate.full", _members("full")),
    ("neighborhood", "enumerate_condensed", "neighborhood.enumerate.condensed",
     _members("condensed")),
    ("neighborhood", "enumerate_super_condensed", "neighborhood.enumerate.super-condensed",
     _members("super-condensed")),
    ("neighborhood", "brute_force_enumerate", "neighborhood.oracle", _oracle),
    ("distance", "levenshtein", "distance.levenshtein", None),
    ("distance", "leftmost_optimal_alignment", "distance.leftmost", _cells),
    ("distance", "enumerate_optimal_alignments", "distance.exhaustive",
     lambda a, r: {"alignments": len(r)}),
    ("counting", "check_bound_lemmas", "counting.lemmas", None),
    ("counting", "alignment_profile_bound", "counting.bounds", None),
    ("counting", "closed_form_bound_exact", "counting.bounds", None),
    ("counting", "bound_report", "counting.bounds", None),
    ("counting", "bound_table_rows", "counting.bounds", None),
    ("counting", "unary_condensed_count", "counting.bounds", None),
    ("counting", "unary_super_condensed_count", "counting.bounds", None),
    ("extremal", "scan_extremal", "extremal.scan", lambda a, r: {"words": r.scanned}),
    ("verify", "run_verification", "verify", None),
)

# verify step names as printed by run_verification, and their metric slugs
VERIFY_STEPS = {
    "enumerator-oracle equivalence": "oracle",
    "prefix/subword freeness": "freeness",
    "condensed members at exact distance": "exact_distance",
    "unary condensed-member structure": "unary_structure",
    "leftmost alignment structure": "leftmost",
    "unary formulas vs enumeration": "unary_formulas",
    "bound sandwich": "sandwich",
    "reference table reproduction": "table",
    "bound lemma chain": "lemmas",
}
_STEP_LINE = re.compile(r"^(.+): (\d+) cases, ")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.segments: list[Segment] = []  # closed by ``cut``, in order
        self._stack: list[Span] = []
        self._charged: list[str] = []  # innermost last: span or timer metric names
        self._segment = Segment(perf_counter())
        self._mark = self._segment.start
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _charge(self, now: float) -> None:
        """Charge the time since the last event to the innermost open layer."""
        layer = self._charged[-1] if self._charged else "harness"
        self._segment.self_s[layer] += now - self._mark
        self._mark = now

    def cut(self, now: float, keep: bool = True) -> Segment:
        """Close the current segment at ``now`` (kept unless ``keep`` is false)."""
        self._charge(now)
        done = self._segment
        done.end = now
        if keep:
            self.segments.append(done)
        self._segment = Segment(now)
        return done

    def _spanned(self, name: str, impl, counts):
        sig = inspect.signature(impl)
        stack, spans, charged = self._stack, self.spans, self._charged
        layer = f"{name}.self_s"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent.call if parent else len(spans),
                        parent.id if parent else None, 0.0)
            spans.append(span)
            bound = sig.bind(*args, **kwargs) if counts or name == "verify" else None
            if name == "verify":
                self._stamp_steps(bound)
            self._segment.counts[f"{name}.calls"] += 1
            stack.append(span)
            span.start = perf_counter()
            self._charge(span.start)
            charged.append(layer)
            try:
                result = impl(*bound.args, **bound.kwargs) if bound else impl(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._charge(span.end)
                charged.pop()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if counts:
                span.attrs = counts(bound.arguments, result)
                self._count(span)
            return result

        return traced

    def _count(self, span: Span) -> None:
        counts = self._segment.counts
        for k, v in span.attrs.items():
            if k == "query":
                # the super-condensed filter: t(SCN) - t(CN), both kinds being issued
                sign = {"condensed": -1, "super-condensed": 1}.get(v[3], 0)
                if span.name == "neighborhood.count" and sign:
                    counts["neighborhood.scn_filter_s"] += sign * (span.end - span.start)
            else:
                counts[f"{span.name}.{k}"] += v

    def _stamp_steps(self, bound) -> None:
        report = bound.arguments.get("report")

        def stamped(line: str):
            name, cases = _STEP_LINE.match(line).groups()
            slug = VERIFY_STEPS[name]
            self._segment.counts[f"verify.step.{slug}.cases"] += int(cases)
            if report is not None:
                report(line)
            step = self.cut(perf_counter())
            step.counts[f"verify.step.{slug}.s"] += step.seconds

        bound.arguments["report"] = stamped

    def _timed(self, name: str, impl):
        stack, charged = self._stack, self._charged
        layer = f"{name}.s"

        def timed(*args, **kwargs):
            t0 = perf_counter()
            self._charge(t0)
            charged.append(layer)
            try:
                return impl(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._charge(t1)
                charged.pop()
                self._segment.counts[f"{name}.calls"] += 1
                if stack:
                    stack[-1].child += t1 - t0

        return timed

    # -- installing ------------------------------------------------------

    def _swap(self, fn, wrap) -> None:
        if fn.__closure__ is not None:
            raise TypeError(f"cannot trace {fn.__qualname__}: it is a closure")
        impl = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                  fn.__defaults__, fn.__closure__)
        impl.__kwdefaults__ = fn.__kwdefaults__
        self._restore.append((fn, fn.__code__, fn.__defaults__, fn.__kwdefaults__))
        fn.__code__ = _trampoline.__code__
        fn.__defaults__ = None
        fn.__kwdefaults__ = {"__traced__": wrap(impl)}

    def install(self) -> None:
        for module, attr, name, counts in SPANNED:
            fn = getattr(importlib.import_module(f"nbhood.{module}"), attr)
            self._swap(fn, lambda impl, n=name, c=counts: self._spanned(n, impl, c))
        core = importlib.import_module("nbhood.core")
        self._swap(core.make_word, lambda impl: self._timed("core.make_word", impl))
        cls = core.NeighborhoodResult
        init = cls.__init__
        cls.__init__ = self._timed("core.result", init)
        self._restore.append((cls, init, None, None))

    def uninstall(self) -> None:
        while self._restore:
            target, code, defaults, kwdefaults = self._restore.pop()
            if isinstance(target, type):
                target.__init__ = code
            else:
                target.__code__, target.__defaults__ = code, defaults
                target.__kwdefaults__ = kwdefaults

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def keep_ratio(self) -> tuple[int, int]:
        """(|SCN| summed, |CN| summed) over queries issued as both kinds."""
        # (entry point, word, d, alphabet) -> kind -> members
        queries: dict[tuple, dict[str, int]] = defaultdict(dict)
        for s in self.spans:
            if "query" in s.attrs:
                word, d, alphabet, kind = s.attrs["query"]
                queries[(s.name == "neighborhood.count", word, d, alphabet)][kind] = (
                    s.attrs["members"])
        pairs = [k for k in queries.values() if "condensed" in k and "super-condensed" in k]
        return sum(k["super-condensed"] for k in pairs), sum(k["condensed"] for k in pairs)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "segments": [{"start": s.start, "end": s.end, "self_s": dict(s.self_s),
                                     "counts": dict(s.counts)} for s in self.segments]}, fh)


def layer_metrics(segments: list[Segment]) -> dict[str, float]:
    """Per-layer self times and counts summed over the given op segments."""
    m: dict[str, float] = defaultdict(float)
    for seg in segments:
        for k, v in seg.self_s.items():
            m[k] += v
        for k, v in seg.counts.items():
            m[k] += v
    m.pop("harness", None)  # the trampolines' and the harness's own time
    m["trace.self_sum_s"] = sum(
        v for seg in segments for k, v in seg.self_s.items() if k != "harness")
    m["trace.wall_s"] = sum(seg.seconds for seg in segments)
    if m["neighborhood.oracle.candidates"]:
        m["neighborhood.oracle.hit_ratio"] = (
            m["neighborhood.oracle.members"] / m["neighborhood.oracle.candidates"])
    return dict(m)
