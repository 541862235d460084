"""``archive``: a reprocessing and knowledge-discovery campaign.

The archive (POOL seeded SEVIRI scenes with fires and burn scars) is
simulated once, in set-up.  One round is one operation, a campaign over
SCENES of them on a fresh durable observatory; successive rounds take
successive slices of the pool, so a run averages over all of it:

1. open an observatory on a new ``data_dir`` and ingest the slice;
2. ``ProcessingChain.run_batch`` and ``BurnScarChain.run_batch`` on a
   pool of WORKERS workers;
3. train and persist a classifier, then ``mine_batch`` the archive;
4. checkpoint, close, and reopen through recovery.

Scene planes are rounded to 1/64 K before they are written.  With such
dyadic values every patch statistic is exact in float64 whatever the
summation order, so the feature check can demand bit equality.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import Counter
from datetime import datetime, timedelta
from typing import Dict, List, Tuple

import numpy as np

import checks
from harness import Recorder, common_layer_metrics, mean, ratio

from repro.eo import seviri
from repro.eo.linkeddata import GreeceLikeWorld
from repro.mining.queries import concept_census
from repro.noa.burnscar import BurnScarChain
from repro.noa.chain import ProcessingChain
from repro.vo import VirtualEarthObservatory

#: Few large scenes: the storage engine does a fixed number of fsyncs
#: per scene, so large scenes keep the host disk's fsync latency, which
#: swings a lot on shared machines, a small share of a campaign.
SCENES = 3
POOL = 12
SIZE = 128
PATCH = 8
WORKERS = 2
MODEL = "archive_knn"
#: Patches per round whose features are recomputed by brute force.
FEATURE_SAMPLE = 6
STAGES = ("ingestion", "cropping", "georeference", "classification",
          "shapefile")
MINING_STAGES = ("extract", "classify", "annotate")


def _dyadic(plane: np.ndarray) -> np.ndarray:
    return (np.round(plane.astype(np.float64) * 64.0) / 64.0).astype(
        np.float32)


def _dir_bytes(path: str, prefix: str = "") -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            if name.startswith(prefix):
                total += os.path.getsize(os.path.join(root, name))
    return total


class Workload:
    primary = "campaign"
    tail_q = 75.0  # >= 40 campaigns per run: at least 10 lie beyond it.

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.world = GreeceLikeWorld()
        rng = random.Random(seed)
        start = datetime(2007, 8, 25, 10, 0)
        self.slices: List[Tuple[str, List[str], List]] = []
        for k in range(POOL):
            if k % SCENES == 0:
                archive_dir = os.path.join(workdir, f"archive-{k // SCENES}")
                os.makedirs(archive_dir)
                self.slices.append((archive_dir, [], []))
            archive_dir, paths, planes = self.slices[-1]
            spec = seviri.SceneSpec(
                width=SIZE, height=SIZE, seed=rng.randrange(2**31),
                acquired=start + timedelta(minutes=15 * k),
                n_fires=3, n_clouds=2, n_glints=2, n_burn_scars=2,
            )
            scene = seviri.generate_scene(spec, self.world.land)
            scene.bands = {b: _dyadic(p) for b, p in scene.bands.items()}
            path = os.path.join(archive_dir, f"msg2_{k:03d}.nat")
            seviri.write_scene(scene, path)
            paths.append(path)
            planes.append(scene.bands)
        self.stage_ms: Dict[str, List[float]] = {s: [] for s in STAGES}
        self.mining_s: Dict[str, float] = {s: 0.0 for s in MINING_STAGES}
        self.patches = 0
        self.storage: Dict[str, List[float]] = {
            "wal_records": [], "wal_bytes": [], "segment_bytes": [],
            "disk_bytes": [], "triples": [],
        }
        self.plans = [0, 0]

    def enough(self, rec: Recorder) -> bool:
        return len(rec.latencies(self.primary)) >= 40

    def run_round(self, rec: Recorder, index: int) -> None:
        self.round_index = index
        data_dir = os.path.join(self.workdir, f"campaign-{self.round_index}")
        try:
            with rec.round(), rec.op(self.primary, work=SCENES):
                self._campaign(rec, data_dir)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    def _campaign(self, rec: Recorder, data_dir: str) -> None:
        archive_dir, paths, self.planes = self.slices[
            self.round_index % len(self.slices)]
        vo = VirtualEarthObservatory(world=self.world, data_dir=data_dir)
        vo.ingest_archive(archive_dir)
        fire = ProcessingChain(vo.ingestor).run_batch(paths, workers=WORKERS)
        scar = BurnScarChain(vo.ingestor).run_batch(paths, workers=WORKERS)
        vo.data_mining.train_classifier(paths, model_name=MODEL)
        mined = vo.data_mining.mine_batch(paths, MODEL, workers=WORKERS)
        with rec.paused():
            before = checks.plane_hashes(vo.db)
            self._check_batches(rec, vo, fire, scar, mined)
            if rec.tracer is not None:
                engine = vo.engine
                wal = _dir_bytes(engine.directory, "wal")
                segments = _dir_bytes(
                    os.path.join(engine.directory, "segments"))
                self.storage["wal_records"].append(engine.wal_records)
                self.storage["wal_bytes"].append(wal)
                self.storage["segment_bytes"].append(segments)
                self.storage["triples"].append(len(vo.store))
        vo.checkpoint()
        with rec.paused():
            disk = _dir_bytes(data_dir)
            rec.check("disk.bytes_positive", disk > 0, "empty data_dir")
            if rec.tracer is not None:
                self.storage["disk_bytes"].append(disk)
        vo.close()
        reopened = VirtualEarthObservatory(world=self.world, data_dir=data_dir)
        with rec.paused():
            error = checks.hash_errors(before, checks.plane_hashes(
                reopened.db))
            rec.check("recovery.plane_hashes", error is None, str(error))
            features = np.vstack([m.grid.feature_matrix() for m in mined])
            labels = [label for m in mined for label in m.labels]
            again = reopened.data_mining.load_model(MODEL).predict(features)
            rec.check("recovery.model_labels", list(again) == labels,
                      "reloaded model predicts other labels")
            if rec.tracer is not None:
                for store in (vo.store, reopened.store):
                    self.plans[0] += store.plan_cache.stats.hits
                    self.plans[1] += store.plan_cache.stats.misses
        reopened.close()

    def _check_batches(self, rec, vo, fire, scar, mined) -> None:
        ok = all(r.ok for r in fire + scar + mined)
        rec.check("batch.no_failures", ok,
                  str([r for r in fire + scar + mined if not r.ok]))
        if not ok:
            return
        if rec.tracer is not None:
            for result in fire + scar:
                for stage in STAGES:
                    self.stage_ms[stage].append(
                        1000.0 * result.timings[stage])
            for m in mined:
                for stage in MINING_STAGES:
                    self.mining_s[stage] += m.timings[stage]
                self.patches += len(m.grid)
        expected = checks.expected_patches(
            [p["t039"].shape for p in self.planes], PATCH)
        annotated = sum(len(m.grid) for m in mined)
        rec.check("annotations.count", annotated == expected,
                  f"{annotated} annotations, expected {expected}")
        census = [(str(b.get("label")), int(b.get("n").to_python()))
                  for b in vo.store.query(concept_census())]
        tally = Counter(label for m in mined for label in m.labels)
        error = checks.census_errors(census, dict(tally), expected)
        rec.check("annotations.census", error is None, str(error))
        rng = random.Random(self.seed * 1000 + self.round_index)
        for _ in range(FEATURE_SAMPLE):
            k = rng.randrange(SCENES)
            patch = mined[k].grid.patches[rng.randrange(len(mined[k].grid))]
            planes = self.planes[k]
            error = checks.feature_errors(
                patch.features, planes["t039"], planes["t108"],
                patch.row, patch.col, PATCH)
            rec.check("mining.features", error is None, str(error))

    def layer_metrics(self, tracer, rec, setup_counts, delta) -> Dict:
        rounds = len(rec.round_walls)
        scenes = SCENES * rounds
        values = common_layer_metrics(tracer, delta, scenes, rounds,
                                      self.plans)
        simulated = [s.duration for s in tracer.setup_spans
                     if s.name == "eo.simulate"]
        opens: Dict[str, object] = {}
        for span in tracer.spans:
            if span.name == "storage.open":
                last = opens.get(span.op)
                if last is None or span.start > last.start:
                    opens[span.op] = span
        st = self.storage
        values.update({
            "eo.simulate_ms": 1000.0 * mean(simulated),
            "geometry.point_location_calls": ratio(
                setup_counts.get("geometry.point_location_calls", 0),
                len(simulated)),
            "noa.batch_ms": ratio(
                1000.0 * sum(tracer.durations("noa.batch")), 2 * scenes),
            "mining.train_ms": 1000.0 * mean(
                tracer.durations("mining.train")),
            "storage.wal_records": ratio(sum(st["wal_records"]), scenes),
            "storage.wal_bytes": ratio(sum(st["wal_bytes"]), scenes),
            "storage.segment_bytes": ratio(sum(st["segment_bytes"]),
                                           scenes),
            "storage.fsync_calls": ratio(
                tracer.counts["storage.fsync_calls"], scenes),
            "storage.checkpoint_ms": 1000.0 * mean(
                tracer.durations("storage.checkpoint")),
            "storage.recovery_ms": 1000.0 * mean(
                [s.duration for s in opens.values()]),
            "storage.disk_kb_per_scene": ratio(
                sum(st["disk_bytes"]), scenes) / 1024.0,
            "parallel.utilization": mean(
                [g.get("parallel.utilization", 0.0) for g in delta.gauges]),
            "strabon.triples": mean(st["triples"]),
        })
        for stage in STAGES:
            values[f"noa.stage.{stage}_ms"] = mean(self.stage_ms[stage])
        for stage in MINING_STAGES:
            values[f"mining.{stage}_us_per_patch"] = ratio(
                1e6 * self.mining_s[stage], self.patches)
        return values

    def close(self) -> None:
        pass
