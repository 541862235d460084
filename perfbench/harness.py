"""Round runner, recorder and metric assembly shared by the workloads.

A workload object does its set-up in ``__init__`` and one *round* of
operations per ``run_round(rec, index)`` call, with inputs drawn from the
seed and the round index.  The runner
times the cold set-up from process start, runs one untimed warm-up round
(it fills the kernel and plan caches), then whole rounds until the run
length is reached and the workload's minimum sample count is met.

With tracing on, untraced and traced rounds alternate on the same inputs:
the per-layer metrics come from the traced rounds, and the tracing
overhead is the difference between the two kinds' median operation
latencies.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import sys
import threading
import time
import traceback
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  A layer a workload does not use
#: reports 0.
PER_LAYER = {
    "eo.simulate_ms": "ms",
    "eo.io_ms": "ms",
    "geometry.point_location_calls": "count",
    "geometry.overlay_ms": "ms",
    "ingest.file_ms": "ms",
    "noa.stage.ingestion_ms": "ms",
    "noa.stage.cropping_ms": "ms",
    "noa.stage.georeference_ms": "ms",
    "noa.stage.classification_ms": "ms",
    "noa.stage.shapefile_ms": "ms",
    "noa.refine_ms": "ms",
    "noa.map_ms": "ms",
    "noa.batch_ms": "ms",
    "mining.extract_us_per_patch": "us",
    "mining.classify_us_per_patch": "us",
    "mining.annotate_us_per_patch": "us",
    "mining.train_ms": "ms",
    "mdb.sciql_ms": "ms",
    "mdb.tile_aggregate_calls": "count",
    "kernels.cache_hit_ratio": "ratio",
    "kernels.refusals": "count",
    "storage.wal_records": "count",
    "storage.wal_bytes": "bytes",
    "storage.segment_bytes": "bytes",
    "storage.fsync_calls": "count",
    "storage.checkpoint_ms": "ms",
    "storage.recovery_ms": "ms",
    "storage.disk_kb_per_scene": "KB",
    "parallel.utilization": "ratio",
    "strabon.query_ms": "ms",
    "strabon.update_ms": "ms",
    "strabon.bulk_emit_ms": "ms",
    "strabon.query_ms.catalog_window": "ms",
    "strabon.query_ms.valid_during": "ms",
    "strabon.query_ms.rare_concept": "ms",
    "strabon.query_ms.towns_near": "ms",
    "strabon.query_ms.census": "ms",
    "strabon.query_ms.hotspot_join": "ms",
    "strabon.plan_cache_hit_ratio": "ratio",
    "strabon.rtree_node_visits_per_probe": "count",
    "strabon.triples": "count",
    "server.queue_wait_ms": "ms",
    "server.quantum_max_ms": "ms",
    "server.suspends": "count",
    "server.oneshot": "count",
    "server.scan_rows_per_s": "1/s",
    "vo.unattributed_ms": "ms",
    "vo.unattributed_pct": "%",
    "vo.trace_overhead_pct": "%",
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: List[float]) -> float:
    return percentile(values, 50.0)


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Times operations and rounds, excluding the benchmark's own checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: List[Tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self.failures: List[str] = []
        self.wall = 0.0
        self.round_walls: List[float] = []
        self.work = 0.0
        self._paused = 0.0
        self._ops = 0

    @contextlib.contextmanager
    def op(self, kind: str, work: float = 1.0) -> Iterator[None]:
        """One operation; an exception counts it as failed."""
        self.attempted += 1
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op = f"{kind}#{self._ops}"
        paused0 = self._paused
        t0 = time.perf_counter()
        try:
            yield
        except Exception:  # noqa: BLE001 -- counted, run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            took = time.perf_counter() - t0 - (self._paused - paused0)
            self.samples.append((kind, took))
            self.work += work

    def add_sample(self, kind: str, seconds: float, work: float = 1.0):
        """An operation timed by the workload (concurrent clients)."""
        self.attempted += 1
        self.samples.append((kind, seconds))
        self.work += work

    def discard_last(self, kind: str, work: float = 1.0) -> None:
        """Count the last completed ``kind`` operation as failed: its
        output showed a fault that every run meets the same way."""
        for i in range(len(self.samples) - 1, -1, -1):
            if self.samples[i][0] == kind:
                del self.samples[i]
                break
        else:
            raise ValueError(f"no {kind} operation to discard")
        self.failed += 1
        self.work -= work

    def add_failure(self) -> None:
        self.attempted += 1
        self.failed += 1

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Untimed, untraced section (the output checks)."""
        t0 = time.perf_counter()
        ctx = (self.tracer.paused() if self.tracer is not None
               else contextlib.nullcontext())
        try:
            with ctx:
                yield
        finally:
            self._paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def round(self) -> Iterator[None]:
        paused0 = self._paused
        t0 = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - t0 - (self._paused - paused0)
            self.round_walls.append(took)
            self.wall += took

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.checks[name]
        entry[1] += 1
        if ok:
            entry[0] += 1
        elif len(self.failures) < 20:
            self.failures.append(f"{name}: {detail}")

    @property
    def correct(self) -> bool:
        return all(p == t for p, t in self.checks.values())

    def latencies(self, kind: str) -> List[float]:
        return [s for k, s in self.samples if k == kind]


class ObsDelta:
    """What the program's own metrics registry counted during the traced
    rounds (``MetricsService.snapshot()`` before and after each)."""

    def __init__(self):
        self.counters: Dict[str, float] = defaultdict(float)
        self.caches: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.gauges: List[Dict[str, float]] = []

    def add(self, before: Dict, after: Dict) -> None:
        for name, value in after["counters"].items():
            self.counters[name] += value - before["counters"].get(name, 0)
        for name, stats in after["caches"].items():
            old = before["caches"].get(name, {})
            for key in ("hits", "misses", "refusals"):
                self.caches[name][key] += stats[key] - old.get(key, 0)
        self.gauges.append(dict(after["gauges"]))

    def cache(self, prefix: str) -> Dict[str, float]:
        out = {"hits": 0.0, "misses": 0.0, "refusals": 0.0}
        for name, stats in self.caches.items():
            if name.startswith(prefix):
                for key in out:
                    out[key] += stats[key]
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload_cls, seed: int, seconds: int, traced: bool,
        workdir: str, t_start: float, out_dir: str, name: str) -> Dict:
    """Set up, warm up and measure one workload; returns the result."""
    from repro.vo.services import MetricsService

    from spans import Tracer, entry_points

    tracer = Tracer() if traced else None
    timed, counted = entry_points() if traced else ([], [])
    if traced:
        tracer.install(timed, counted)
        tracer.recording = True
        tracer.op = "setup"
    workload = workload_cls(seed, workdir)
    setup_s = time.perf_counter() - t_start
    setup_counts = {}
    if traced:
        tracer.recording = False
        tracer.uninstall()
        setup_counts = dict(tracer.counts)
        tracer.counts.clear()
        tracer.setup_spans, tracer.spans = tracer.spans, []

    warm = Recorder()
    index = 1
    workload.run_round(warm, index)
    plain = Recorder()
    traced_rec = Recorder(tracer) if traced else None
    unattributed: List[float] = []
    delta = ObsDelta()
    metrics = MetricsService()
    started = time.perf_counter()
    limit = started + max(3 * seconds, seconds + 60)
    while True:
        now = time.perf_counter()
        enough = (now - started >= seconds
                  and workload.enough(plain)
                  and (not traced or workload.enough(traced_rec)))
        if enough or (now > limit and plain.round_walls):
            break
        index += 1
        workload.run_round(plain, index)
        if traced:
            tracer.install(timed, counted)
            tracer.recording = True
            first = len(tracer.spans)
            main = threading.get_ident()
            before = metrics.snapshot()
            try:
                walls = len(traced_rec.round_walls)
                # The same inputs as the untraced round just before.
                workload.run_round(traced_rec, index)
            finally:
                tracer.recording = False
                tracer.uninstall()
            delta.add(before, metrics.snapshot())
            covered = sum(
                s.duration for s in tracer.spans[first:]
                if s.tid == main and s.parent is None
            )
            unattributed.append(
                sum(traced_rec.round_walls[walls:]) - covered
            )

    recs = [warm, plain] + ([traced_rec] if traced else [])
    correct = all(r.correct for r in recs)
    for r in recs:
        for failure in r.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": plain.attempted + (traced_rec.attempted if traced else 0),
        "failed": plain.failed + (traced_rec.failed if traced else 0),
    }
    if not traced:
        lat = [s * 1000.0 for s in plain.latencies(workload.primary)]
        values = {
            "setup_s": setup_s,
            "throughput_per_s": plain.work / plain.wall,
            "latency_p50_ms": median(lat),
            "latency_tail_ms": percentile(lat, workload.tail_q),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        values = {name_: 0.0 for name_ in PER_LAYER}
        values.update(workload.layer_metrics(
            tracer, traced_rec, setup_counts, delta))
        ops = traced_rec.attempted
        values["vo.unattributed_ms"] = 1000.0 * ratio(sum(unattributed), ops)
        values["vo.unattributed_pct"] = 100.0 * ratio(
            sum(unattributed), traced_rec.wall)
        base = median(plain.latencies(workload.primary))
        values["vo.trace_overhead_pct"] = 100.0 * (
            median(traced_rec.latencies(workload.primary)) / base - 1.0)
        units = PER_LAYER
        stem = os.path.join(out_dir, f"{name}-seed{seed}")
        tracer.write_chrome(stem + ".trace.json")
        write_layer_table(stem + ".layers.txt", name, tracer, traced_rec,
                          unattributed, values)
    workload.close()
    result["metrics"] = {
        key: {"value": float(values[key]), "unit": unit}
        for key, unit in units.items()
    }
    return result


def write_layer_table(path: str, name: str, tracer, rec: Recorder,
                      unattributed: List[float], values: Dict) -> None:
    """Per-span self-time table of the traced rounds."""
    wall = rec.wall
    ops = max(rec.attempted, 1)
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][1])
    lines = [
        f"# {name}: self time per span over {len(rec.round_walls)} traced "
        f"rounds, {wall:.3f} s timed wall, {ops} operations",
        f"{'span':<28}{'calls':>9}{'self ms':>12}{'ms/op':>10}{'% wall':>9}",
    ]
    for span_name, (calls, self_s) in rows:
        lines.append(
            f"{span_name:<28}{calls:>9}{self_s * 1000:>12.1f}"
            f"{self_s * 1000 / ops:>10.2f}{100 * self_s / wall:>9.1f}"
        )
    rest = sum(unattributed)
    lines.append(
        f"{'vo.unattributed':<28}{'':>9}{rest * 1000:>12.1f}"
        f"{rest * 1000 / ops:>10.2f}{100 * rest / wall:>9.1f}"
    )
    lines.append(
        "# self times of spans on worker threads overlap the main "
        "thread's wait, so the % column can sum past 100 with workers."
    )
    lines.append(
        f"# tracing overhead: {values['vo.trace_overhead_pct']:+.1f}% "
        "median operation latency, traced vs untraced rounds"
    )
    for key in sorted(tracer.counts):
        lines.append(f"# count {key}: {tracer.counts[key]}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def common_layer_metrics(tracer, delta: ObsDelta, scenes: float,
                         rounds: int, plans: List[int]) -> Dict[str, float]:
    """Layer metrics every workload derives the same way; ``scenes`` is
    the per-scene denominator (0 leaves per-scene metrics at 0) and
    ``plans`` the [hits, misses] of the Strabon plan caches the traced
    rounds used (read from the stores: each store has its own cache)."""

    def per_scene(value: float) -> float:
        return ratio(value, scenes)

    def mean_ms(name: str) -> float:
        return 1000.0 * mean(tracer.durations(name))

    kernels = delta.cache("kernels.")
    c = delta.counters
    return {
        "eo.io_ms": per_scene(1000.0 * tracer.outermost("eo.io")),
        "geometry.overlay_ms": per_scene(
            1000.0 * tracer.outermost("geometry.overlay")),
        "ingest.file_ms": mean_ms("ingest.file"),
        "mdb.sciql_ms": per_scene(1000.0 * tracer.outermost("mdb.")),
        "mdb.tile_aggregate_calls": per_scene(
            c["sciql.tile_aggregate.calls"]),
        "kernels.cache_hit_ratio": ratio(
            kernels["hits"], kernels["hits"] + kernels["misses"]),
        "kernels.refusals": ratio(kernels["refusals"], rounds),
        "strabon.query_ms": mean_ms("strabon.query"),
        "strabon.update_ms": mean_ms("strabon.update"),
        "strabon.bulk_emit_ms": mean_ms("strabon.bulk_emit"),
        "strabon.plan_cache_hit_ratio": ratio(plans[0], sum(plans)),
        # Batched probes count no node visits, so only single probes.
        "strabon.rtree_node_visits_per_probe": ratio(
            c["rtree.query.node_visits"], c["rtree.query.calls"]),
    }
