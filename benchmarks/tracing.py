"""Spans around calls into parobs's public functions, recorded from outside.

The tracer swaps each traced function for a wrapper in every ``parobs``
module that refers to it by name, so calls from the CLI, the config
builders and the runners all land in a span. Nothing inside ``src/parobs``
changes. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# span name -> (defining module, function name); the span name is the
# module's short name and the function, as in the per-layer metric names
TRACED = {
    f"{mod.rsplit('.', 1)[1]}.{fn}": (mod, fn)
    for mod, fns in {
        "parobs.config": ("load_config", "validate_config", "build_design", "build_scenario"),
        "parobs.simulator": ("simulate",),
        "parobs.analysis": ("check_ios_bound", "lyapunov_oracle", "fit_decay_rate"),
        "parobs.observer_design": (
            "make_design",
            "max_diameter",
            "small_gain_zoh",
            "small_gain_predictor",
        ),
        "parobs.sturm_liouville": ("analytic_eigensystem", "numeric_eigensystem", "basis_to_csv"),
    }.items()
    for fn in fns
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    run: str  # which traced run the span belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def patched(self):
        """Route every traced function through a span while the block runs."""
        swaps = []
        for name, (mod_name, fn_name) in TRACED.items():
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = self._wrap(name, original)
            for mod_key, mod in list(sys.modules.items()):
                if mod is None or not (mod_key == "parobs" or mod_key.startswith("parobs.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        swaps.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(swaps):
                setattr(mod, attr, original)

    @contextmanager
    def run_as(self, label: str):
        """Tag the spans recorded inside the block with a run label."""
        previous, self.run = self.run, label
        try:
            yield
        finally:
            self.run = previous

    def of_run(self, label: str) -> list[Span]:
        return [s for s in self.spans if s.run == label]

    def self_times(self, label: str) -> dict[str, float]:
        """Total self time per span name: each span minus its direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        totals: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.run == label:
                totals[s.name] = totals.get(s.name, 0.0) + s.duration - child_time[i]
        return totals

    def top_level_time(self, label: str) -> float:
        return sum(s.duration for s in self.of_run(label) if s.parent is None)

    def median_call(self, names: tuple[str, ...], labels: tuple[str, ...]) -> float | None:
        """Median duration of one call of any of ``names``, taken from the
        first run label that has such calls."""
        for label in labels:
            durations = [s.duration for s in self.of_run(label) if s.name in names]
            if durations:
                return statistics.median(durations)
        return None

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}
            for s in self.spans
        ]
