"""Span tracing from outside the program, for the traced benchmark run.

The tracer wraps public entry points of each layer (module functions and
class methods) while it is installed, and restores the originals when it
is removed, so untraced rounds run the program unmodified.  Every call
of a wrapped entry point becomes a span with its name, start, end, the
span that was open on the same thread when it started (its parent), and
the operation id the benchmark set.  Point location and fsync are
counted, not timed: a span per call would cost more than the call.

Spans stay in memory and are written at the end as Chrome trace-event
JSON (load the file in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "tid")

    def __init__(self, sid, name, start, parent, op, tid):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped entry points while ``recording``."""

    def __init__(self):
        self.spans: List[Span] = []
        self.setup_spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[str] = None
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.recording:
            yield
            return
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        span = Span(
            sid, name, time.perf_counter(),
            stack[-1].id if stack else None, self.op, threading.get_ident(),
        )
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Stop recording (used around the benchmark's own checks)."""
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    def count(self, name: str) -> None:
        if self.recording:
            with self._lock:
                self.counts[name] += 1

    # -- wrapping -------------------------------------------------------------------

    def _timed(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, timed, counted=()) -> None:
        """Wrap ``(owner, attribute, span name)`` entry points; ``counted``
        entries only count calls."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for entries, make in ((timed, self._timed), (counted, self._counted)):
            for owner, attr, name in entries:
                raw = (
                    owner.__dict__[attr]
                    if isinstance(owner, type) else getattr(owner, attr)
                )
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(make(raw.__func__, name))
                else:
                    wrapped = make(raw, name)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, total self seconds).  Self time is the
        span's duration minus the time its same-thread children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: Dict[str, List] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.duration - child_time.get(span.id, 0.0)
        return {name: (c, s) for name, (c, s) in out.items()}

    def outermost(self, prefix: str) -> float:
        """Seconds inside spans whose name starts with ``prefix``,
        counting a nested span of the same layer only once."""
        by_id = {span.id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if not span.name.startswith(prefix):
                continue
            parent = by_id.get(span.parent)
            if parent is not None and parent.name.startswith(prefix):
                continue
            total += span.duration
        return total

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write_chrome(self, path: str) -> None:
        if not self.spans:
            raise ValueError("no spans recorded")
        t0 = min(s.start for s in self.spans)
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.tid, len(tids) + 1)
            events.append({
                "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": 1, "tid": tid,
                "args": {"id": s.id, "parent": s.parent, "op": s.op},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def entry_points():
    """The wrapped public entry points, one span name per layer call."""
    import os as _os

    from repro.eo import seviri
    from repro.geometry import algorithms, overlay
    from repro.ingest.harvest import Ingestor
    from repro.mdb.database import Database
    from repro.mdb.sciql import SciArray
    from repro.mdb.storage.engine import StorageEngine
    from repro.mining import pipeline as mining_pipeline
    from repro.mining.annotate import SemanticAnnotator
    from repro.mining.classify import Classifier
    from repro.mining.models import ModelStore
    from repro.noa import chain as noa_chain
    from repro.noa import refinement as noa_refinement
    from repro.noa.mapping import FireMapBuilder
    from repro.parallel import TaskScheduler
    from repro.server.service import QueryServer
    from repro.strabon.store import StrabonStore
    from repro.vo import services as vo_services
    from repro.vo.observatory import VirtualEarthObservatory

    timed = [
        (seviri, "generate_scene", "eo.simulate"),
        (seviri, "write_scene", "eo.io"),
        (seviri, "read_scene", "eo.io"),
        (overlay, "intersection", "geometry.overlay"),
        (overlay, "union", "geometry.overlay"),
        (overlay, "difference", "geometry.overlay"),
        (overlay, "union_all", "geometry.overlay"),
        (noa_chain, "union_all", "geometry.overlay"),
        (noa_refinement, "union_all", "geometry.overlay"),
        (Ingestor, "ingest_file", "ingest.file"),
        (Ingestor, "materialize_array", "ingest.materialize"),
        (noa_chain.ProcessingChain, "run", "noa.chain"),
        (noa_chain.ProcessingChain, "run_batch", "noa.batch"),
        (noa_refinement.Refiner, "apply", "noa.refine"),
        (FireMapBuilder, "build", "noa.map"),
        (mining_pipeline, "extract_patch_grid", "mining.extract"),
        (vo_services, "extract_patch_grid", "mining.extract"),
        (Classifier, "predict", "mining.classify"),
        (Classifier, "fit", "mining.fit"),
        (SemanticAnnotator, "annotate", "mining.annotate"),
        (mining_pipeline.MiningPipeline, "run_batch", "mining.batch"),
        (vo_services.DataMiningService, "train_classifier", "mining.train"),
        (ModelStore, "save", "mining.models"),
        (ModelStore, "load", "mining.models"),
        (Database, "execute", "mdb.sql"),
        (SciArray, "tile_aggregate", "mdb.tile_aggregate"),
        (StorageEngine, "open", "storage.open"),
        (StorageEngine, "checkpoint", "storage.checkpoint"),
        (StorageEngine, "close", "storage.close"),
        (StrabonStore, "query", "strabon.query"),
        (StrabonStore, "update", "strabon.update"),
        (StrabonStore, "load_graph", "strabon.load"),
        (StrabonStore, "_flush_bulk", "strabon.bulk_emit"),
        (TaskScheduler, "map", "parallel.map"),
        (QueryServer, "_run_quantum", "server.quantum"),
        (VirtualEarthObservatory, "__init__", "vo.observatory"),
        (VirtualEarthObservatory, "ingest_archive", "vo.ingest_archive"),
    ]
    counted = [
        (algorithms, "point_in_ring", "geometry.point_location_calls"),
        (_os, "fsync", "storage.fsync_calls"),
    ]
    return timed, counted
