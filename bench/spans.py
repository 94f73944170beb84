"""Span tracing of the program's public functions, from outside the program.

``Tracer`` replaces each traced function at the name its caller looks up
(``cli.wirtinger`` because ``cli`` imports that name, ``hfk.smith_diagonal``
because ``hfk`` and ``verify`` resolve it through ``hfk``'s globals, and so
on) with a wrapper that records a span, and restores every original on
exit.  A span is ``(name, start_ns, end_ns, parent, knot)``: ``parent`` is
the index of the enclosing span (-1 at the root) and ``knot`` the ordinal
of the enclosing ``cli.run_single`` call in the pass (-1 outside any
knot).  Spans stay in memory until the run writes them out.

``LaurentCounter`` counts ``LaurentPoly`` constructions, multiplications
and exact divisions.  It runs in a separate pass because a wrapper on
every polynomial operation would distort the span times.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# (module, attribute) pairs, grouped by the module that defines them.
_TARGETS = [
    ("cli", "main"), ("cli", "run_sweep"), ("cli", "run_single"),
    ("cli", "render_json"), ("cli", "render_csv"), ("cli", "render_pretty"),
    ("cli", "classify"), ("cli", "wirtinger"),
    ("alexander", "fox_alexander"), ("alexander", "fox_derivative"),
    ("alexander", "bareiss_determinant"), ("alexander", "euler_characteristic"),
    ("kauffman", "chain_summary"),
    ("hfk", "reduce_two_lines"), ("hfk", "theorem1_closed_form"),
    ("hfk", "theorem2_closed_form"), ("hfk", "all_pairings"),
    ("hfk", "homology_via_matrix"), ("hfk", "smith_diagonal"),
]
_KNOT_SPAN = "cli.run_single"


def _measure_result(counts: Counter, name: str, args: tuple, result) -> None:
    """Exact work counts read off a traced call's arguments and result."""
    if name == "pretzel.wirtinger":
        counts["pretzel.generators"] += result.generator_count
    elif name == "alexander.bareiss_determinant":
        counts["alexander.minor_dim_sum"] += len(args[0])
    elif name == "kauffman.chain_summary":
        counts["kauffman.states"] += result.total()
    elif name == "hfk.all_pairings":
        counts["hfk.pairs"] += len(result)
    elif name == "hfk.homology_via_matrix":
        counts["hfk.complete_spins"] += sum(result.complete_by_spin.values())
        counts["hfk.spins"] += len(result.complete_by_spin)
    elif name.startswith("verify.check_"):
        counts["verify.checks_failed"] += not result.passed and not result.informational


def _modules():
    return {name: importlib.import_module(f"pretzelhfk.{name}")
            for name in ("cli", "alexander", "kauffman", "hfk", "verify")}


def targets() -> list[tuple[object, str]]:
    """Every (owner module, attribute) the tracer replaces."""
    mods = _modules()
    found = [(mods[m], attr) for m, attr in _TARGETS]
    found += [(mods["verify"], attr) for attr in sorted(vars(mods["verify"]))
              if attr.startswith("check_")]
    return found


class _Patches:
    """Replaces attributes on enter and puts every original back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr in self.attributes():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(_Patches):
    def __init__(self):
        super().__init__()
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._knot = -1
        self._knots = 0

    def attributes(self):
        return targets()

    def wrap(self, attr: str, fn):
        module = fn.__module__.rsplit(".", 1)[-1]
        name = f"{module}.{fn.__name__}"
        spans, stack, counts = self.spans, self._stack, self.counts
        is_knot = name == _KNOT_SPAN

        def traced(*args, **kwargs):
            outer_knot = self._knot
            if is_knot:
                self._knot = self._knots
                self._knots += 1
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._knot)
                self._knot = outer_knot
            _measure_result(counts, name, args, result)
            return result

        return traced

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, traced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans recorded so far, as (value, unit)."""
        dur: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), self_ns in zip(self.spans, self.self_times()):
            dur[name] += end - start
            own[name] += self_ns
            calls[name] += 1

        def s(ns) -> tuple[float, str]:
            return (ns / 1e9, "s")

        def n(value) -> tuple[float, str]:
            return (value, "count")

        checks = [k for k in dur if k.startswith("verify.check_")]
        c = self.counts
        spins = c["hfk.spins"]
        return {
            "pretzel.wirtinger_s": s(dur["pretzel.wirtinger"]),
            "pretzel.generators": n(c["pretzel.generators"]),
            "alexander.fox_s": s(dur["alexander.fox_alexander"]),
            "alexander.bareiss_self_s": s(own["alexander.bareiss_determinant"]),
            "alexander.fox_derivative_s": s(dur["alexander.fox_derivative"]),
            "alexander.fox_calls": n(calls["alexander.fox_alexander"]),
            "alexander.minor_dim_sum": n(c["alexander.minor_dim_sum"]),
            "alexander.euler_s": s(dur["alexander.euler_characteristic"]),
            "kauffman.chain_summary_s": s(dur["kauffman.chain_summary"]),
            "kauffman.chain_summary_calls": n(calls["kauffman.chain_summary"]),
            "kauffman.states": n(c["kauffman.states"]),
            "hfk.reduce_s": s(dur["hfk.reduce_two_lines"]),
            "hfk.reduce_calls": n(calls["hfk.reduce_two_lines"]),
            "hfk.closed_form_s": s(dur["hfk.theorem1_closed_form"]
                                   + dur["hfk.theorem2_closed_form"]),
            "hfk.pairings_s": s(dur["hfk.all_pairings"]),
            "hfk.pairs": n(c["hfk.pairs"]),
            "hfk.matrix_s": s(dur["hfk.homology_via_matrix"]),
            "hfk.smith_s": s(dur["hfk.smith_diagonal"]),
            "hfk.complete_spin_ratio": (c["hfk.complete_spins"] / spins if spins else 0.0,
                                        "ratio"),
            "verify.fox_column_independence_s":
                s(dur["verify.check_fox_column_independence"]),
            "verify.checks_s": s(sum(dur[k] for k in checks)),
            "verify.checks_run": n(sum(calls[k] for k in checks)),
            "verify.checks_failed": n(c["verify.checks_failed"]),
            "cli.self_s": s(own["cli.main"] + own["cli.run_sweep"] + own["cli.run_single"]),
            "cli.render_s": s(dur["cli.render_json"] + dur["cli.render_csv"]
                              + dur["cli.render_pretty"]),
            "trace.spans": n(len(self.spans)),
            "trace.self_time_share": (sum(self.self_times()) / 1e9 / traced_wall, "ratio"),
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")


class LaurentCounter(_Patches):
    _COUNTED = {"__init__": "laurent.init_calls", "__mul__": "laurent.mul_calls",
                "__rmul__": "laurent.mul_calls", "exact_divide": "laurent.exact_divide_calls"}

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter({name: 0 for name in self._COUNTED.values()})

    def attributes(self):
        poly = importlib.import_module("pretzelhfk.laurent").LaurentPoly
        return [(poly, attr) for attr in self._COUNTED]

    def wrap(self, attr: str, fn):
        counts, name = self.counts, self._COUNTED[attr]

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted
