"""In-memory span tracer that wraps frosim functions from the outside.

Each trace point names a module attribute through which a caller looks a
function up (``frosim.synth.simulate_step`` is the step kernel as the search
loops see it, ``frosim.dynamics.simulate_step`` as ``simulate`` sees it).
Installing the tracer replaces those attributes with timing wrappers;
uninstalling puts the originals back.  Nothing inside the package changes.

Three kinds of point:

- ``span``: one record per call (name, start, end, parent, op id).  A span's
  self time is its duration minus the time its child spans cover.
- ``leaf``: hot calls (one per kernel step) folded into their parent span as
  child time plus a call count and total, so memory stays bounded.
- ``count``: calls counted against the nearest enclosing span whose name is
  in ``PHASES``; used for replays, one ``initial_state`` call each.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

#: (module, attribute, span name, kind).  The attribute is the one the caller
#: reads at call time, so wrapping it intercepts exactly that caller.
TRACE_POINTS = (
    ("frosim.cli", "run", "cli.run", "span"),
    ("frosim.cli", "load_config", "config.load", "span"),
    ("frosim.cli", "config_from_dict", "config.load", "span"),
    ("frosim.cli", "simulate", "dynamics.simulate", "span"),
    ("frosim.synth", "simulate", "dynamics.simulate", "span"),
    ("frosim.cli", "write_trace_csv", "dynamics.trace_csv", "span"),
    ("frosim.dynamics", "simulate_step", "dynamics.step", "leaf"),
    ("frosim.synth", "simulate_step", "dynamics.step", "leaf"),
    ("frosim.cli", "synthesize_min_attack", "synth.bisect", "span"),
    ("frosim.sweep", "synthesize_min_attack", "synth.bisect", "span"),
    ("frosim.cli", "exhaustive_min_attack", "synth.scan", "span"),
    ("frosim.synth", "probe_monotonicity", "synth.probe", "span"),
    ("frosim.synth", "feasibility", "synth.certify", "span"),
    ("frosim.synth", "initial_state", "synth.replay", "count"),
    ("frosim.dynamics", "initial_state", "synth.replay", "count"),
    ("frosim.cli", "run_sweep", "sweep.run", "span"),
    ("frosim.cli", "write_records_csv", "sweep.records_csv", "span"),
    ("frosim.cli", "read_records_csv", "sweep.records_csv", "span"),
    ("frosim.cli", "trend_report", "sweep.report", "span"),
    ("frosim.cli", "write_trend_outputs", "sweep.report", "span"),
)

#: Spans that replays are attributed to, by per-layer metric prefix.
PHASES = {
    "synth.probe": "probe",
    "synth.bisect": "bisect",
    "synth.scan": "scan",
    "synth.certify": "certify",
}

#: The synthesis entry points; each call that returns is one answer.
ANSWER_SPANS = ("synth.bisect", "synth.scan")


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self, points=TRACE_POINTS):
        self.points = points
        # [name, start, end, parent index, child seconds, op id, returned]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op = None
        self.installed: set[str] = set()  # span names whose points all exist
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        make = {"span": self._span, "leaf": self._leaf, "count": self._count}
        self.missing = []
        incomplete = set()
        for module_name, attr, name, kind in self.points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr} ({name})")
                incomplete.add(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, make[kind](original, name))
        # a span with any point missing would undercount: treat it as absent
        self.installed = {p[2] for p in self.points} - incomplete

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def active(self, op):
        """Wrappers installed, and spans tagged with *op*, for the block only."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[6] = True
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]

        return wrapper

    def _leaf(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, seconds = self.leaf_calls, self.leaf_seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                calls[name] += 1
                seconds[name] += d
                if stack:
                    spans[stack[-1]][4] += d

        return wrapper

    def _count(self, fn, name):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = next((spans[i][0] for i in reversed(stack)
                          if spans[i][0] in PHASES), None)
            counts[(name, phase)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def total_seconds(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def metrics(self, combos: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics this trace can give, keyed by metric name.

        *combos* is the number of sweep combinations the traced pass ran.

        A metric whose span has no installed trace point is left out (and
        the point is listed in :attr:`missing`) rather than reported as 0.
        A span that is installed but never entered gives a measured 0.
        """
        have = self.installed
        out: dict[str, tuple[float, str]] = {}

        def put(name, needs, value, unit):
            if all(n in have for n in needs):
                out[name] = (value(), unit)

        ms = 1e3
        put("cli.self_ms", ["cli.run"],
            lambda: self.self_seconds("cli.run") * ms, "ms")
        put("config.load_ms", ["config.load"],
            lambda: self.self_seconds("config.load") * ms, "ms")
        steps = self.leaf_calls["dynamics.step"]
        put("dynamics.steps", ["dynamics.step"], lambda: steps, "count")
        put("dynamics.step_us", ["dynamics.step"],
            lambda: self.leaf_seconds["dynamics.step"] / steps * 1e6 if steps else 0.0,
            "us")
        put("dynamics.simulate_self_ms", ["dynamics.simulate"],
            lambda: self.self_seconds("dynamics.simulate") * ms, "ms")
        put("dynamics.trace_csv_ms", ["dynamics.trace_csv"],
            lambda: self.self_seconds("dynamics.trace_csv") * ms, "ms")
        replays = 0
        for span, phase in PHASES.items():
            n = self.counts[("synth.replay", span)]
            replays += n
            put(f"synth.{phase}_replays", ["synth.replay", span], lambda n=n: n, "count")
            put(f"synth.{phase}_ms", [span],
                lambda span=span: self.self_seconds(span) * ms, "ms")
        answers = sum(1 for s in self.spans if s[0] in ANSWER_SPANS and s[6])
        put("synth.replays_per_answer", ["synth.replay", *PHASES, *ANSWER_SPANS],
            lambda: replays / answers if answers else 0.0, "ratio")
        put("sweep.combo_ms", ["sweep.run"],
            lambda: self.total_seconds("sweep.run") / combos * ms if combos else 0.0,
            "ms")
        put("sweep.records_csv_ms", ["sweep.records_csv"],
            lambda: self.self_seconds("sweep.records_csv") * ms, "ms")
        put("sweep.report_ms", ["sweep.report"],
            lambda: self.self_seconds("sweep.report") * ms, "ms")
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, then the folded leaf totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, child, op, returned) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "child_s": child, "op": op,
                    "returned": returned,
                }) + "\n")
            fh.write(json.dumps({
                "leaf_calls": dict(self.leaf_calls),
                "leaf_seconds": dict(self.leaf_seconds),
                "counts": {f"{k[0]}@{k[1]}": v for k, v in self.counts.items()},
                "missing": self.missing,
            }) + "\n")
