"""Span recorder for the traced run, installed from outside the program.

``install`` wraps the public callables of each divcorr module and rebinds
every name a caller resolves them by (``divcorr.divisor.sieve_tau`` and
``divcorr.correlation.sieve_tau`` alike, methods on their class).  The
untraced run never calls it, so it runs the program unchanged.

A span records its name, start, end, parent and run id (the pass index).
Its parent is the innermost open span of the same thread; a span opened on
a worker thread with nothing open there belongs to the innermost open span
of the thread that began the run, which is the call that started the pool.
Self time is the span's duration minus the part of it that its child spans
cover (the union of their intervals, since pool threads overlap).

With ``alloc=True`` the recorder also takes each main-thread span's peak
traced allocation above its starting level from ``tracemalloc``.  That
distorts the times, so the benchmark runs it as a separate pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, attribute path, counts taken from the call) for every wrapped callable
TARGETS = [
    ("divisor", "sieve_tau",
     lambda a, k, out: {"entries": _arg(a, k, 0, "limit")}),
    ("divisor", "DivisorTable.cumulative", None),
    ("divisor", "summatory_D", None),
    ("divisor", "mean_square", None),
    ("divisor", "tong_ratio_oracle", None),
    ("correlation", "correlate_grid",
     lambda a, k, out: {"pieces": max(r.breakpoints_used for r in out)}),
    ("correlation", "correlate_exact",
     lambda a, k, out: {"pieces": out.breakpoints_used}),
    ("voronoi", "spectral_j",
     lambda a, k, out: {"terms": out.term_count_lower + out.term_count_upper,
                        "terms_lower": out.term_count_lower}),
    ("voronoi", "lambda_kernel", None),
    ("voronoi", "q_n", None),
    ("diophantine", "approximability_scan",
     lambda a, k, out: {"events": len(out.events),
                        "certified_to": out.certified_to}),
    ("diophantine", "cf_expand", None),
    ("diophantine", "legendre_hits", None),
    ("diophantine", "Theta.best_enclosure",
     lambda a, k, out: {"bits": _arg(a, k, 1, "bits")}),
    ("realfield", "PsiFunction.eval", None),
    ("realfield", "PsiFunction.log2", None),
    ("realfield", "PsiFunction.eval_fraction", None),
    ("realfield", "PsiFunction.ceil_div", None),
    ("realfield", "PsiFunction.inverse", None),
]


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    run: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)
    # tracemalloc bookkeeping (alloc mode, main thread only)
    base: int = 0
    carry: int = 0
    peak_bytes: int = 0


class Recorder:
    """Keeps spans in memory; nothing is recorded outside begin()/end()."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[Span] = []
        self.on = False
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, run: int) -> None:
        self.run = run
        self._root = self._stack()
        self.on = True

    def end(self) -> None:
        self.on = False

    def enter(self, name: str) -> Span:
        stack = self._stack()
        top = stack or self._root
        span = Span(next(self._ids), top[-1].sid if top else None, name,
                    self.run, time.perf_counter())
        if self.alloc and stack is self._root:
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].carry = max(stack[-1].carry, peak)
            span.base = span.carry = cur
            tracemalloc.reset_peak()
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if self.alloc and stack is self._root:
            peak = max(tracemalloc.get_traced_memory()[1], span.carry)
            span.peak_bytes = peak - span.base
            if stack:
                stack[-1].carry = max(stack[-1].carry, peak)
        self.spans.append(span)


def _wrap(rec: Recorder, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        span = rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit(span)
        if counts is not None:
            span.attrs = counts(args, kwargs, out)
        return out
    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every TARGETS callable; returns the bindings for uninstall()."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "divcorr" or n.startswith("divcorr.")]
    undo = []
    for mod_name, path, counts in TARGETS:
        owner = importlib.import_module(f"divcorr.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = _wrap(rec, f"{mod_name}.{path}", original, counts)
        # a class binds a method under each of its aliases (__call__ = eval);
        # a function is bound in its own module and wherever it is imported
        holders = [owner] if outer else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of `intervals`."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - covered(s.t0, s.t1, children[s.sid])
            for s in spans}


# metric -> unit, for every per-layer metric the traced run reports
UNITS = {
    "divisor.sieve_s": "s", "divisor.sieve_entries": "count",
    "divisor.cumulative_s": "s", "divisor.summatory_s": "s",
    "divisor.summatory_calls": "count", "divisor.mean_square_s": "s",
    "divisor.tong_oracle_s": "s", "divisor.peak_alloc_mb": "MB",
    "correlation.sweep_s": "s", "correlation.pieces": "count",
    "correlation.pieces_per_s": "1/s", "correlation.peak_alloc_mb": "MB",
    "voronoi.spectral_s": "s", "voronoi.terms": "count",
    "voronoi.terms_lower": "count", "voronoi.terms_per_s": "1/s",
    "voronoi.lambda_calls": "count", "voronoi.lambda_s": "s",
    "voronoi.qn_s": "s",
    "diophantine.scan_s": "s", "diophantine.scan_events": "count",
    "diophantine.certified_to": "count", "diophantine.enclosure_calls": "count",
    "diophantine.enclosure_s": "s", "diophantine.enclosure_bits_max": "bits",
    "diophantine.enclosure_per_event": "ratio", "diophantine.cf_expand_s": "s",
    "diophantine.legendre_s": "s",
    "realfield.psi_exact_calls": "count", "realfield.psi_exact_s": "s",
    "realfield.psi_eval_s": "s", "realfield.psi_log2_s": "s",
}

#: counts that must repeat exactly from pass to pass
EXACT = ("divisor.sieve_entries", "divisor.summatory_calls",
         "correlation.pieces", "voronoi.terms", "voronoi.terms_lower",
         "voronoi.lambda_calls", "diophantine.scan_events",
         "diophantine.certified_to", "diophantine.enclosure_calls",
         "diophantine.enclosure_bits_max", "realfield.psi_exact_calls")

ALLOC = ("divisor.peak_alloc_mb", "correlation.peak_alloc_mb")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (all but ALLOC).

    `_s` metrics are self times summed over the function's spans; rates
    divide a count by the function's whole duration."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur = defaultdict(float)
    attr = defaultdict(int)
    bits_max = 0
    scan_enclosures = 0
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += selfs[s.sid]
        dur[s.name] += s.t1 - s.t0
        for k, v in s.attrs.items():
            attr[s.name, k] += v
        if s.name == "diophantine.Theta.best_enclosure":
            bits_max = max(bits_max, s.attrs.get("bits", 0))
            p = s.parent
            while p is not None and by_id[p].name != "diophantine.approximability_scan":
                p = by_id[p].parent
            scan_enclosures += p is not None

    sweep = ("correlation.correlate_grid", "correlation.correlate_exact")
    pieces = sum(attr[n, "pieces"] for n in sweep)
    terms = attr["voronoi.spectral_j", "terms"]
    events = attr["diophantine.approximability_scan", "events"]
    return {
        "divisor.sieve_s": self_s["divisor.sieve_tau"],
        "divisor.sieve_entries": attr["divisor.sieve_tau", "entries"],
        "divisor.cumulative_s": self_s["divisor.DivisorTable.cumulative"],
        "divisor.summatory_s": self_s["divisor.summatory_D"],
        "divisor.summatory_calls": calls["divisor.summatory_D"],
        "divisor.mean_square_s": self_s["divisor.mean_square"],
        "divisor.tong_oracle_s": self_s["divisor.tong_ratio_oracle"],
        "correlation.sweep_s": sum(self_s[n] for n in sweep),
        "correlation.pieces": pieces,
        "correlation.pieces_per_s": _ratio(pieces, sum(dur[n] for n in sweep)),
        "voronoi.spectral_s": self_s["voronoi.spectral_j"],
        "voronoi.terms": terms,
        "voronoi.terms_lower": attr["voronoi.spectral_j", "terms_lower"],
        "voronoi.terms_per_s": _ratio(terms, dur["voronoi.spectral_j"]),
        "voronoi.lambda_calls": calls["voronoi.lambda_kernel"],
        "voronoi.lambda_s": self_s["voronoi.lambda_kernel"],
        "voronoi.qn_s": self_s["voronoi.q_n"],
        "diophantine.scan_s": self_s["diophantine.approximability_scan"],
        "diophantine.scan_events": events,
        "diophantine.certified_to":
            attr["diophantine.approximability_scan", "certified_to"],
        "diophantine.enclosure_calls": calls["diophantine.Theta.best_enclosure"],
        "diophantine.enclosure_s": self_s["diophantine.Theta.best_enclosure"],
        "diophantine.enclosure_bits_max": bits_max,
        "diophantine.enclosure_per_event": _ratio(scan_enclosures, events),
        "diophantine.cf_expand_s": self_s["diophantine.cf_expand"],
        "diophantine.legendre_s": self_s["diophantine.legendre_hits"],
        "realfield.psi_exact_calls": calls["realfield.PsiFunction.eval_fraction"],
        "realfield.psi_exact_s": self_s["realfield.PsiFunction.eval_fraction"],
        "realfield.psi_eval_s": self_s["realfield.PsiFunction.eval"],
        "realfield.psi_log2_s": self_s["realfield.PsiFunction.log2"],
    }


def alloc_metrics(spans: list[Span]) -> dict[str, float]:
    """Peak traced allocation of any divisor / correlation span, in MB."""
    peak = defaultdict(int)
    for s in spans:
        layer = s.name.partition(".")[0]
        peak[layer] = max(peak[layer], s.peak_bytes)
    return {m: peak[m.partition(".")[0]] / 2 ** 20 for m in ALLOC}
