"""Span tracing for the traced benchmark run, installed from outside the package.

The tracer replaces public seqalloc functions by timing wrappers.  The
package calls its own functions through module globals (``dp.solve_dp``
calls ``build_state_graph`` as a global of ``seqalloc.dp``), so rebinding
every module attribute that holds the original function makes the
wrappers see internal calls too, without touching any source file.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends.  A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute, span name).  ``Instance.from_json`` is a classmethod
# and is addressed as "Instance.from_json".
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("seqalloc.dp", "solve_dp", "dp.solve"),
    ("seqalloc.dp", "build_state_graph", "dp.build"),
    ("seqalloc.dp", "backward_induction", "dp.induce"),
    ("seqalloc.achievability", "solve_subset_enum", "achievability.subset"),
    ("seqalloc.achievability", "is_achievable", "achievability.is_achievable"),
    ("seqalloc.core", "simulate", "core.simulate"),
    ("seqalloc.core", "profile_metrics", "core.profile_metrics"),
    ("seqalloc.core", "Instance.from_json", "core.from_json"),
    ("seqalloc.analysis", "check_state_bounds", "analysis.check_state_bounds"),
    ("seqalloc.generators", "gen_random", "generators.gen"),
    ("seqalloc.generators", "gen_correlated", "generators.gen"),
    ("seqalloc.generators", "gen_tight_family", "generators.gen"),
    ("seqalloc.generators", "gen_clique_reduction", "generators.gen"),
    ("seqalloc.ilp", "build_model", "ilp.build_model"),
    ("seqalloc.ilp", "export_lp", "ilp.export_lp"),
    ("seqalloc.cli", "main", "cli.main"),
)

# Modules whose globals may hold a target, imported by name from another module.
PACKAGE_MODULES = (
    "seqalloc",
    "seqalloc.core",
    "seqalloc.dp",
    "seqalloc.achievability",
    "seqalloc.analysis",
    "seqalloc.generators",
    "seqalloc.ilp",
    "seqalloc.cli",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    info: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans around the wrapped seqalloc functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func: Callable) -> Callable:
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()
            _annotate(spans[index], result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = []
        for name in PACKAGE_MODULES:
            try:
                modules.append(importlib.import_module(name))
            except ImportError:
                continue
        for module_name, attribute, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._mark_absent(f"{module_name}.{attribute}")
                continue
            if attribute == "Instance.from_json":
                owner = getattr(module, "Instance", None)
                method = getattr(owner, "__dict__", {}).get("from_json")
                if not isinstance(method, classmethod):
                    self._mark_absent(f"{module_name}.{attribute}")
                    continue
                self._patch(owner, "from_json", classmethod(self._wrap(span_name, method.__func__)))
                continue
            original = getattr(module, attribute, None)
            if not callable(original):
                self._mark_absent(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(span_name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _mark_absent(self, qualified: str) -> None:
        if qualified not in self.absent:
            self.absent.append(qualified)

    def _patch(self, holder: object, key: str, value: object) -> None:
        self._patches.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            holder, key, value = self._patches.pop()
            setattr(holder, key, value)

    def to_json_dict(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [[s.name, s.start, s.end, s.parent, s.info] for s in self.spans],
        }


def _annotate(span: Span, result: object) -> None:
    """Counts taken where the work happens, from each layer's own result."""
    if span.name == "dp.solve":
        span.info = {"states": result.stats.get("states", 0), "arcs": result.stats.get("arcs", 0)}
    elif span.name == "achievability.subset":
        span.info = {"subsets": result.stats.get("subsets_enumerated", 0)}
    elif span.name == "achievability.is_achievable":
        span.info = {"achievable": bool(result.achievable)}
    elif span.name == "ilp.export_lp":
        span.info = {"bytes": len(result.encode("utf-8"))}


def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one traced pass; times in ms, counts exact."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, seconds in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start) * 1000.0
        self_ms[span.name] = self_ms.get(span.name, 0.0) + seconds * 1000.0
        calls[span.name] = calls.get(span.name, 0) + 1

    def info_sum(name: str, key: str) -> int:
        return sum(span.info.get(key, 0) for span in spans if span.name == name)

    states = info_sum("dp.solve", "states")
    build_ms = total.get("dp.build", 0.0)
    induce_ms = total.get("dp.induce", 0.0)
    subsets = info_sum("achievability.subset", "subsets")
    in_subset = [
        span
        for span in spans
        if span.name == "achievability.is_achievable"
        and span.parent >= 0
        and spans[span.parent].name == "achievability.subset"
    ]
    achievable = sum(1 for span in in_subset if span.info.get("achievable"))
    # Only outermost generator spans count, so a generator that calls
    # another is not counted twice.
    gen_ms = sum(
        (span.end - span.start) * 1000.0
        for span in spans
        if span.name == "generators.gen" and (span.parent < 0 or spans[span.parent].name != "generators.gen")
    )
    return {
        "dp.calls": calls.get("dp.solve", 0),
        "dp.states": states,
        "dp.arcs": info_sum("dp.solve", "arcs"),
        "dp.build_ms": build_ms,
        "dp.induce_ms": induce_ms,
        "dp.us_per_state": (build_ms + induce_ms) * 1000.0 / states if states else 0.0,
        "dp.solve_self_ms": self_ms.get("dp.solve", 0.0),
        "achievability.subset_self_ms": self_ms.get("achievability.subset", 0.0),
        "achievability.subsets_enumerated": subsets,
        "achievability.is_achievable_calls": calls.get("achievability.is_achievable", 0),
        "achievability.is_achievable_ms": total.get("achievability.is_achievable", 0.0),
        "achievability.check_ratio": len(in_subset) / subsets if subsets else 0.0,
        "achievability.achievable_ratio": achievable / len(in_subset) if in_subset else 0.0,
        "core.simulate_calls": calls.get("core.simulate", 0),
        "core.simulate_ms": total.get("core.simulate", 0.0),
        "core.profile_metrics_ms": total.get("core.profile_metrics", 0.0),
        "core.from_json_ms": total.get("core.from_json", 0.0),
        "analysis.check_state_bounds_self_ms": self_ms.get("analysis.check_state_bounds", 0.0),
        "generators.gen_ms": gen_ms,
        "ilp.build_model_ms": total.get("ilp.build_model", 0.0),
        "ilp.export_lp_ms": total.get("ilp.export_lp", 0.0),
        "ilp.lp_bytes": info_sum("ilp.export_lp", "bytes"),
        "cli.main_ms": total.get("cli.main", 0.0),
    }
