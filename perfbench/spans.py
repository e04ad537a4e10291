"""In-memory spans and the layer hooks that record them.

The benchmark records spans from its own files: it wraps the public entry
points of each layer of ``repro`` for the duration of a traced round and
restores them afterwards.  Nothing here imports ``repro`` at module level,
so the parent process can import this file without loading the program.

A span carries a name, a start, an end and the index of its parent span.
A layer's self time is the sum, over its spans, of the span's duration
minus the part its child spans cover.  Because every span nests inside the
workload's root span, the self times of all spans add up to the root
span's duration exactly; the root's own self time is the time no layer
span covers (``unattributed_s``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Policies whose figure-matrix jobs count as the IPV family (``runner.ipv``);
#: every other policy is ``runner.other``.
IPV_FAMILY = frozenset(
    {"lru", "plru", "ipv-lru", "giplr", "gippr", "dgippr"}
)


class Spans:
    """Flat list of ``[name, start, end, parent]`` records, in start order."""

    def __init__(self):
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``{"self": seconds, "inclusive": seconds}``."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.records):
            entry = out.setdefault(name, {"self": 0.0, "inclusive": 0.0})
            entry["self"] += (end - start) - child_time[index]
            entry["inclusive"] += end - start
        return out

    def write(self, path) -> None:
        """Write the spans as JSON (``name``/``start``/``end``/``parent``)."""
        payload = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.records
        ]
        with open(path, "w") as handle:
            json.dump({"spans": payload}, handle)
            handle.write("\n")


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._undo: List[tuple] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _spanned(spans: Spans, name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            with spans.span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


class LayerHooks:
    """Spans around every layer's public calls, plus the counts they see.

    ``install()`` patches the layers; ``restore()`` puts the originals
    back.  The counts (``runner_accesses``, ``evaluate_batches``) and the
    GA's first generation batch after the initial population
    (``captured_batch``) are read after the round.
    """

    def __init__(self, spans: Spans):
        self.spans = spans
        self.runner_accesses = {"runner.ipv": 0, "runner.other": 0}
        self.evaluate_batches = 0
        self.captured_batch: Optional[list] = None
        self._families: Dict[int, str] = {}
        self._patches = _Patches()

    def install(self) -> "LayerHooks":
        from repro.engine import columnar
        from repro.eval import parallel, runner
        from repro.ga import fitness
        from repro.serve import frontend, telemetry
        from repro.workloads import spec

        spans, patch = self.spans, self._patches
        patch.wrap(spec.SpecBenchmark, "trace",
                   _spanned(spans, "workloads.trace"))
        patch.wrap(parallel, "make_policy", self._make_policy)
        patch.wrap(parallel, "run_trace", self._run_trace)
        patch.wrap(runner.BenchmarkResult, "__init__",
                   _spanned(spans, "eval.aggregate"))
        patch.wrap(fitness.FitnessEvaluator, "__init__",
                   _spanned(spans, "fitness.init"))
        patch.wrap(fitness.FitnessEvaluator, "evaluate_many",
                   self._evaluate_many)
        patch.wrap(columnar.ColumnarTrace, "__init__",
                   _spanned(spans, "engine.transpose"))
        patch.wrap(frontend.ShardedFrontend, "ingest",
                   _spanned(spans, "serve.bin"))
        patch.wrap(frontend.ShardedFrontend, "drain",
                   _spanned(spans, "serve.engine"))
        for method in ("record_batch", "publish", "snapshot", "finalize"):
            patch.wrap(telemetry.ServeTelemetry, method,
                       _spanned(spans, "serve.telemetry"))
        return self

    def restore(self) -> None:
        self._patches.restore()

    # -- wrappers that also count ----------------------------------------
    def _make_policy(self, original):
        def wrapper(name, *args, **kwargs):
            with self.spans.span("policies.make"):
                policy = original(name, *args, **kwargs)
            self._families[id(policy)] = (
                "runner.ipv" if name in IPV_FAMILY else "runner.other"
            )
            return policy

        return wrapper

    def _run_trace(self, original):
        def wrapper(policy, trace, *args, **kwargs):
            family = self._families.pop(id(policy), "runner.other")
            with self.spans.span(family):
                result = original(policy, trace, *args, **kwargs)
            self.runner_accesses[family] += len(trace)
            return result

        return wrapper

    def _evaluate_many(self, original):
        def wrapper(evaluator, ipvs):
            self.evaluate_batches += 1
            if self.evaluate_batches <= 2:
                self.captured_batch = [tuple(entries) for entries in ipvs]
            with self.spans.span("fitness.evaluate_many"):
                return original(evaluator, ipvs)

        return wrapper


class BatchTimer:
    """Wall time of every call to one method, without spans.

    Used in untraced rounds too: one clock pair per call to a method that
    runs for milliseconds costs nothing measurable.
    """

    def __init__(self, owner, attr: str):
        self.seconds: List[float] = []
        self._patches = _Patches()
        self._patches.wrap(owner, attr, self._make)

    def _make(self, original):
        def wrapper(*args, **kwargs):
            begin = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - begin)

        return wrapper

    def restore(self) -> None:
        self._patches.restore()
