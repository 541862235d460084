"""``catalog_serving``: two tenants on one read-only ``QueryServer``.

Set-up generates a seeded catalogue of about 10^5 triples (see
``catalog_gen``) and bulk-loads it into a Strabon store.  One round runs
two tenants as coroutines on one event loop:

* the interactive tenant, a closed loop, issues the PER_KIND short
  queries (time window plus region searches, valid-time searches, a rare
  concept, towns near one product's hotspots), each paged to the end;
* the analytic tenant, paced at one request per PACE short queries,
  alternates ``concept_census`` (GROUP BY: one unbounded quantum) and
  ``annotation_hotspot_join``, which the server preempts at every quantum.

A short query's latency runs from its first submit to its last page.
The store is never written; every round draws new short queries of the
same kinds and counts.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import Counter
from typing import Dict, List, Tuple

import checks
from catalog_gen import Catalogue
from harness import Recorder, common_layer_metrics, mean, ratio

from repro.server import QueryServer
from repro.strabon import StrabonStore

#: Short queries per round, by kind.  Unequal counts keep the median
#: inside one kind's latency band rather than on the edge between two.
PER_KIND = {"catalog_window": 5, "valid_during": 4, "rare_concept": 10,
            "towns_near": 5}
KINDS = tuple(PER_KIND)
#: The analytic tenant sends one request per PACE short queries.
PACE = 4
#: The projected variables each kind's ground truth covers.
TRUTH_VARS = {
    "catalog_window": ["product"],
    "valid_during": ["patch"],
    "rare_concept": ["patch", "product"],
    "towns_near": ["town"],
}


def _row(binding, variables) -> Tuple:
    out = []
    for var in variables:
        term = binding.get(var)
        out.append(term.to_python() if var == "conf" else str(term))
    return tuple(out)


class Workload:
    primary = "short"
    tail_q = 95.0  # >= 200 short queries per run: >= 10 lie beyond it.

    def __init__(self, seed: int, workdir: str):
        self.catalogue = Catalogue(seed)
        self.store = StrabonStore()
        with self.store.bulk():
            self.store.load_graph(self.catalogue.graph)
        self.seed = seed
        self.census_text, self.census_tally = self.catalogue.census_query()
        self.join_text, self.join_expected = self.catalogue.join_query()
        self.loop = asyncio.new_event_loop()
        self.server = QueryServer(self.store)
        self.kind_ms: Dict[str, List[float]] = {k: [] for k in KINDS}
        self.kind_ms.update(census=[], hotspot_join=[])
        self.queue_wait_ms: List[float] = []
        self.quantum_max_ms = 0.0
        self.scan_rows = 0
        self.scan_seconds = 0.0
        self.plans = [0, 0]

    def _short_queries(self) -> List[Tuple[str, str, frozenset]]:
        """This round's short queries with their answers: new windows,
        regions and products every round, the same kinds and counts."""
        rng = random.Random(self.seed * 100003 + self.round_index)
        makers = {
            "catalog_window": lambda: self.catalogue.window_query(rng),
            "valid_during": lambda: self.catalogue.valid_during_query(rng),
            "rare_concept": self.catalogue.rare_concept_query,
            "towns_near": lambda: self.catalogue.towns_near_query(rng),
        }
        short = [(kind, *makers[kind]()) for kind in KINDS
                 for _ in range(PER_KIND[kind])]
        rng.shuffle(short)
        return short

    def enough(self, rec: Recorder) -> bool:
        return len(rec.latencies(self.primary)) >= 200

    async def _paged(self, tenant: str, text: str, pages: List):
        """Submit and page to the end; returns the rows."""
        sent = time.perf_counter()
        page = await self.server.submit(tenant, query=text)
        pages.append((time.perf_counter() - sent, page))
        rows = list(page.rows)
        while not page.done:
            sent = time.perf_counter()
            page = await self.server.submit(tenant, token=page.token)
            pages.append((time.perf_counter() - sent, page))
            rows.extend(page.rows)
        return page, rows

    async def _interactive(self, rec: Recorder, short: List, answers: List,
                           pages: List, turns: asyncio.Queue):
        try:
            for i, (kind, text, _) in enumerate(short):
                if i % PACE == 0:
                    turns.put_nowait(True)
                start = time.perf_counter()
                mine: List = []
                try:
                    last, rows = await self._paged("interactive", text, mine)
                except Exception:  # noqa: BLE001 -- counted as failed
                    rec.add_failure()
                    answers.append(None)
                    continue
                rec.add_sample(self.primary, time.perf_counter() - start)
                answers.append((last.variables, rows))
                pages.append((kind, mine))
        finally:
            turns.put_nowait(False)

    async def _analytic(self, answers: Dict, pages: List,
                        turns: asyncio.Queue):
        """Census, join, census, ...: one request per PACE short queries.
        A query still paging when the round ends is dropped (tokens hold
        no state)."""
        while True:
            for kind, text in (("census", self.census_text),
                               ("hotspot_join", self.join_text)):
                mine: List = []
                rows: List = []
                page = None
                seconds = 0.0
                while page is None or not page.done:
                    if not await turns.get():
                        break
                    sent = time.perf_counter()
                    if page is None:
                        page = await self.server.submit("analytic",
                                                        query=text)
                    else:
                        page = await self.server.submit("analytic",
                                                        token=page.token)
                    took = time.perf_counter() - sent
                    seconds += took
                    mine.append((took, page))
                    rows.extend(page.rows)
                if page is None:
                    return
                pages.append((kind, mine))
                answers.setdefault(kind, []).append(
                    (page.done, page.result, rows, seconds))
                if not page.done:
                    return

    def run_round(self, rec: Recorder, index: int) -> None:
        self.round_index = index
        short = self._short_queries()
        short_answers: List = []
        analytic: Dict = {}
        pages: List = []

        async def both():
            turns: asyncio.Queue = asyncio.Queue()
            await asyncio.gather(
                self._interactive(rec, short, short_answers, pages, turns),
                self._analytic(analytic, pages, turns),
            )

        stats = self.store.plan_cache.stats
        before = (stats.hits, stats.misses)
        with rec.round():
            self.loop.run_until_complete(both())
        with rec.paused():
            if rec.tracer is not None:
                stats = self.store.plan_cache.stats
                self.plans[0] += stats.hits - before[0]
                self.plans[1] += stats.misses - before[1]
                self._record_layers(pages, analytic)
            self._check(rec, short, short_answers, analytic)

    def _check(self, rec, short, short_answers, analytic) -> None:
        for (kind, _, truth), answer in zip(short, short_answers):
            if answer is None:
                continue
            _, rows = answer
            got = [_row(b, TRUTH_VARS[kind]) for b in rows]
            error = checks.multiset_errors(got, Counter(truth))
            rec.check(f"short.{kind}", error is None, f"{kind}: {error}")
        for complete, _, rows, _ in analytic.get("hotspot_join", []):
            if complete:
                got = [_row(b, ["patch", "hotspot", "conf"]) for b in rows]
                error = checks.multiset_errors(got, self.join_expected)
                rec.check("join.rows", error is None, str(error))
        for complete, result, _, _ in analytic.get("census", []):
            if complete:
                census = [(str(b.get("label")), int(b.get("n").to_python()))
                          for b in result]
                error = checks.census_errors(census, self.census_tally,
                                             len(self.catalogue.patches))
                rec.check("census.counts", error is None, str(error))

    def _record_layers(self, pages, analytic) -> None:
        for kind, query_pages in pages:
            if query_pages[-1][1].done:
                self.kind_ms[kind].append(
                    sum(p.elapsed_ms for _, p in query_pages))
            for latency, page in query_pages:
                self.quantum_max_ms = max(self.quantum_max_ms,
                                          page.elapsed_ms)
                if kind in KINDS:
                    self.queue_wait_ms.append(
                        1000.0 * latency - page.elapsed_ms)
        joins = analytic.get("hotspot_join", [])
        self.scan_rows += sum(len(rows) for _, _, rows, _ in joins)
        self.scan_seconds += sum(seconds for _, _, _, seconds in joins)

    def layer_metrics(self, tracer, rec, setup_counts, delta) -> Dict:
        rounds = len(rec.round_walls)
        values = common_layer_metrics(tracer, delta, 0, rounds, self.plans)
        values.update({
            f"strabon.query_ms.{kind}": mean(ms)
            for kind, ms in self.kind_ms.items()
        })
        values.update({
            "strabon.triples": float(len(self.store)),
            "server.queue_wait_ms": mean(self.queue_wait_ms),
            "server.quantum_max_ms": self.quantum_max_ms,
            "server.suspends": ratio(
                delta.counters["server.suspends"], rounds),
            "server.oneshot": ratio(delta.counters["server.oneshot"], rounds),
            "server.scan_rows_per_s": ratio(self.scan_rows,
                                            self.scan_seconds),
        })
        return values

    def close(self) -> None:
        self.loop.run_until_complete(self.server.close())
        self.loop.close()
