"""``acquisition``: the NOA real-time fire service, one closed-loop client.

Each round opens a fresh in-memory observatory and serves ACQUISITIONS
SEVIRI acquisitions in order, on scenes drawn anew every round.  One
acquisition is one operation:

1. simulate a seeded scene over ``GreeceLikeWorld``, write it to the
   round's vault directory and ingest it;
2. run the fire chain with the ``static`` and the ``contextual``
   classifier (demo scenario 1);
3. apply the stSPARQL refinement and build the fire map (scenario 2).

The Strabon store grows through a round, so every round starts from an
empty store and every run does the same work per operation however many
rounds fit in it.

Each round starts with one more acquisition whose scene does not depend
on the seed (PROBE_SEED).  Two of its sun glints lie on open sea outside
the land's bounding box, where the refinement's ``delete-in-sea`` step
leaves them in place: ``FILTER(!strdf:intersects(?g, land))`` does not
select geometries outside the land's envelope.  That acquisition is
counted as failed while the fault stands, and as a normal operation once
its refined hotspots stay off the sea.  The seeded acquisitions place
glints by seed, so the same check on them would fail on some seeds only;
it is not applied to them.
"""

from __future__ import annotations

import os
import random
import shutil
from datetime import datetime, timedelta
from typing import Dict, List

import checks
from harness import Recorder, common_layer_metrics, mean, ratio

from repro.eo import seviri
from repro.eo.linkeddata import GreeceLikeWorld
from repro.ingest.metadata import NOA_PREFIXES
from repro.noa.chain import ChainResult
from repro.vo import VirtualEarthObservatory

ACQUISITIONS = 8
SIZE = 64
CLASSIFIERS = ("static", "contextual")
#: Floors on the share of the round's clear-sky land fire pixels each
#: classifier detects (30 seeds of 8 scenes gave at least 0.83 and 0.61).
RECALL_FLOOR = {"static": 0.75, "contextual": 0.4}
#: Scene seed of the seed-independent acquisition that opens each round.
PROBE_SEED = 1001
#: The fire map's town radius (``FireMapBuilder`` default).
TOWN_RADIUS = 0.25
STAGES = ("ingestion", "cropping", "georeference", "classification",
          "shapefile")


class Workload:
    primary = "acquisition"
    tail_q = 75.0  # >= 40 samples per run: at least 10 lie beyond it.

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.world = GreeceLikeWorld()
        self.towns = [(n, lon, lat) for n, lon, lat, _ in self.world.TOWNS]
        self.stage_ms: Dict[str, List[float]] = {s: [] for s in STAGES}
        self.triples: List[int] = []
        self.plans = [0, 0]

    def _specs(self) -> List[seviri.SceneSpec]:
        """This round's scenes: the probe scene, then ACQUISITIONS scenes
        seeded by (--seed, round), so a run averages over many scenes."""
        rng = random.Random(self.seed * 100003 + self.round_index)
        start = datetime(2007, 8, 25, 9, 0)
        seeds = [PROBE_SEED] + [rng.randrange(2**31)
                                for _ in range(ACQUISITIONS)]
        return [
            seviri.SceneSpec(
                width=SIZE, height=SIZE, seed=scene_seed,
                acquired=start + timedelta(minutes=15 * k),
                n_fires=4, n_clouds=3, n_glints=3, n_warm_surfaces=1,
            )
            for k, scene_seed in enumerate(seeds)
        ]

    def enough(self, rec: Recorder) -> bool:
        return len(rec.latencies(self.primary)) >= 40

    def run_round(self, rec: Recorder, index: int) -> None:
        self.round_index = index
        specs = self._specs()
        vault_dir = os.path.join(self.workdir, f"vault-{self.round_index}")
        os.makedirs(vault_dir)
        try:
            self.recall = {name: [0, 0] for name in CLASSIFIERS}
            with rec.round():
                vo = VirtualEarthObservatory(world=self.world)
                for k, spec in enumerate(specs):
                    self._acquisition(rec, vo, k, spec, vault_dir)
            with rec.paused():
                if rec.tracer is not None:
                    self.triples.append(len(vo.store))
                    stats = vo.store.plan_cache.stats
                    self.plans[0] += stats.hits
                    self.plans[1] += stats.misses
                for name, (hit, total) in self.recall.items():
                    recall = hit / total if total else 1.0
                    rec.check(
                        f"recall.{name}", recall >= RECALL_FLOOR[name],
                        f"{name} recall {recall:.3f} over the round",
                    )
                count = vo.catalog.count_products()
                rec.check(
                    "catalog.product_count",
                    count == len(specs) * (1 + len(CLASSIFIERS)),
                    f"{count} products after {len(specs)} acquisitions",
                )
        finally:
            shutil.rmtree(vault_dir, ignore_errors=True)

    def _acquisition(self, rec, vo, k, spec, vault_dir) -> None:
        path = os.path.join(vault_dir, f"msg2_{k:03d}.nat")
        results: Dict[str, ChainResult] = {}
        with rec.op(self.primary):
            scene = seviri.generate_scene(spec, self.world.land)
            seviri.write_scene(scene, path)
            vo.ingestor.ingest_file(path)
            for name in CLASSIFIERS:
                results[name] = vo.rapid_mapping.run_chain(
                    path, classifier=name)
            vo.rapid_mapping.refine()
            fire_map = vo.rapid_mapping.build_map(f"Fire map {k}")
        if len(results) < len(CLASSIFIERS):
            return
        with rec.paused():
            self._check(rec, vo, scene, results, fire_map, probe=k == 0)

    def _check(self, rec, vo, scene, results, fire_map, probe) -> None:
        on_sea = 0
        for name, result in results.items():
            truth = scene.fire_mask & ~scene.cloud_mask & ~scene.sea_mask
            self.recall[name][0] += int(
                (truth & result.hotspot_mask.astype(bool)).sum())
            self.recall[name][1] += int(truth.sum())
            if rec.tracer is not None:
                for stage in STAGES:
                    self.stage_ms[stage].append(
                        1000.0 * result.timings[stage])
            if probe:
                on_sea += len(checks.hotspots_on_sea(
                    self._refined_envelopes(vo, result),
                    scene.sea_mask, scene.spec.window))
        if on_sea:
            rec.discard_last(self.primary)
        error = checks.town_layer_errors(
            [f["name"] for f in fire_map.layer("affected_towns")],
            [f["wkt"] for f in fire_map.layer("hotspots")],
            self.towns, TOWN_RADIUS,
        )
        rec.check("map.towns", error is None, str(error))

    @staticmethod
    def _refined_envelopes(vo, result):
        derived = result.derived_product.product_id
        rows = vo.store.query(
            NOA_PREFIXES
            + "SELECT ?wkt WHERE {\n"
            f"  ?h noa:isProducedBy <{_product_iri(derived)}> ;\n"
            "     noa:hasGeometry ?g .\n"
            "  BIND(strdf:asText(?g) AS ?wkt)\n}"
        )
        envelopes = []
        for binding in rows:
            coords = [xy for ring in checks.wkt_rings(
                str(binding.get("wkt"))) for xy in ring]
            xs = [x for x, _ in coords]
            ys = [y for _, y in coords]
            envelopes.append((min(xs), min(ys), max(xs), max(ys)))
        return envelopes

    def layer_metrics(self, tracer, rec, setup_counts, delta) -> Dict:
        n = rec.attempted
        rounds = len(rec.round_walls)
        values = common_layer_metrics(tracer, delta, n, rounds,
                                      self.plans)
        values.update({
            "eo.simulate_ms": 1000.0 * mean(tracer.durations("eo.simulate")),
            "geometry.point_location_calls": ratio(
                tracer.counts["geometry.point_location_calls"], n),
            "noa.refine_ms": 1000.0 * mean(tracer.durations("noa.refine")),
            "noa.map_ms": 1000.0 * mean(tracer.durations("noa.map")),
            "strabon.triples": mean(self.triples),
        })
        for stage in STAGES:
            values[f"noa.stage.{stage}_ms"] = mean(self.stage_ms[stage])
        return values

    def close(self) -> None:
        pass


def _product_iri(product_id: str) -> str:
    from repro.rdf.namespace import NOA

    return f"{NOA}product/{product_id}"
