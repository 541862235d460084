"""Seeded catalogue generator for the ``catalog_serving`` workload.

Builds a Strabon catalogue of about 10^5 triples with the shapes the
observatory itself publishes: raw and derived products from
``product_to_rdf``, hotspots with the fire chain's predicates, and patch
annotations from ``SemanticAnnotator`` (concept type, label, footprint,
valid-time period, product link).  The generator keeps its own ground
truth, computed from its parameters and never from the store, for every
query the workload issues.

All footprints are axis-aligned rectangles whose corners are multiples of
1/64 degree, and every query rectangle and distance is chosen off that
grid, so the brute-force answers below never sit on a boundary.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from datetime import datetime, timedelta
from typing import Dict, List, Tuple

from repro.eo.linkeddata import GreeceLikeWorld
from repro.eo.products import Product, ProcessingLevel
from repro.geometry import Polygon
from repro.ingest.features import Patch, PatchGrid
from repro.ingest.metadata import NOA_PREFIXES, product_to_rdf, product_uri
from repro.mining import queries
from repro.mining.annotate import DEFAULT_VALIDITY, SemanticAnnotator
from repro.rdf import Graph, Literal, URIRef
from repro.rdf.namespace import NOA, RDF, XSD
from repro.strabon.strdf import geometry_literal
from repro.vo.catalog import CatalogQuery

#: Products in the catalogue; each has one derived hotspot product.
N_PRODUCTS = 220
#: Patch grid per product (GRID x GRID annotations).
GRID = 8
#: Label mix of ordinary patches; ``lake`` is the rare concept.
LABEL_WEIGHTS = (
    ("other", 40), ("forest", 20), ("farmland", 15), ("sea", 15),
    ("cloud", 8), ("lake", 2),
)
RARE_CONCEPT = "lake"
#: Share of products with detected fires (and so in the streamed join).
FIRE_SHARE = 0.35
HOTSPOTS_PER_FIRE = 2
#: Side of the region of a window search (degrees).
REGION_DEG = (0.2, 0.5)
#: Town search radius of the "towns near hotspots" query (degrees).
TOWN_RADIUS = 0.3
EPOCH = datetime(2007, 8, 20, 0, 0)
STEP = timedelta(minutes=15)
_Q = 1.0 / 64.0

_TYPE = URIRef(str(RDF) + "type")


def _rect(x0: float, y0: float, x1: float, y1: float) -> Polygon:
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], srid=4326)


def _q(value: float) -> float:
    return round(value / _Q) * _Q


def _rects_intersect(a, b) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def rect_point_distance(rect, x: float, y: float) -> float:
    """Distance from a point to a closed axis-aligned rectangle."""
    dx = max(rect[0] - x, 0.0, x - rect[2])
    dy = max(rect[1] - y, 0.0, y - rect[3])
    return math.hypot(dx, dy)


class Catalogue:
    """The generated catalogue: its graph plus the generator's truth."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.world = GreeceLikeWorld()
        self.graph = Graph()
        self.products: List[Dict] = []
        self.hotspots: List[Dict] = []
        self.patches: List[Dict] = []
        labels = [name for name, _ in LABEL_WEIGHTS]
        weights = [w for _, w in LABEL_WEIGHTS]
        annotator = SemanticAnnotator(classifier=None)
        towns = [(lon, lat) for _, lon, lat, _ in GreeceLikeWorld.TOWNS]
        self.burning = sorted(rng.sample(range(N_PRODUCTS),
                                         round(FIRE_SHARE * N_PRODUCTS)))
        burning = set(self.burning)
        for i in range(N_PRODUCTS):
            # Footprints: 1.5-2.5 degree boxes inside the demo window.
            w = _q(rng.uniform(1.5, 2.5))
            h = _q(rng.uniform(1.5, 2.5))
            x0 = _q(rng.uniform(20.0, 28.0 - w))
            y0 = _q(rng.uniform(34.0, 42.0 - h))
            rect = (x0, y0, x0 + w, y0 + h)
            acquired = EPOCH + STEP * (i * 2 + rng.randrange(2))
            product = Product(
                f"MSG2_{i:05d}", "MSG2", "SEVIRI", ProcessingLevel.L0_RAW,
                acquired, _rect(*rect), path=f"archive/scene_{i:05d}.nat",
            )
            derived = product.derive(
                f"MSG2_{i:05d}_hotspots_static",
                ProcessingLevel.L2_DERIVED,
                metadata={"hasClassifier": "static"},
            )
            self.graph.update(product_to_rdf(product))
            self.graph.update(product_to_rdf(derived))
            for prod in (product, derived):
                self.products.append(
                    {"uri": str(product_uri(prod)), "rect": rect,
                     "acquired": acquired}
                )
            # Each hotspot lies inside one patch of its own, which is then
            # labelled "fire" (what a trained classifier would do), so the
            # streamed join has the same size on every seed.
            pw, ph = w / GRID, h / GRID
            hot: List[Tuple] = []
            fire_cells: List[Tuple[int, int]] = []
            for k in range(HOTSPOTS_PER_FIRE if i in burning else 0):
                if k == 0 and rng.random() < 0.5:
                    # Half the burning products burn near a town.
                    tx, ty = towns[rng.randrange(len(towns))]
                    c = min(max(int((tx - x0) // pw), 0), GRID - 1)
                    r = min(max(int((y0 + h - ty) // ph), 0), GRID - 1)
                else:
                    r, c = rng.randrange(GRID), rng.randrange(GRID)
                while (r, c) in fire_cells:
                    r, c = rng.randrange(GRID), rng.randrange(GRID)
                fire_cells.append((r, c))
                size = _q(rng.uniform(0.03, 0.09))
                cx = _q(rng.uniform(x0 + c * pw + _Q,
                                    x0 + (c + 1) * pw - size - 2 * _Q))
                cy = _q(rng.uniform(y0 + h - (r + 1) * ph + _Q,
                                    y0 + h - r * ph - size - 2 * _Q))
                hot.append((cx, cy, cx + size, cy + size))
            derived_node = product_uri(derived)
            for k, hrect in enumerate(hot):
                node = URIRef(f"{NOA}hotspot/{derived.product_id}/{k}")
                conf = round(rng.uniform(0.3, 1.0), 4)
                self.graph.add(
                    (node, _TYPE, URIRef(str(NOA) + "Hotspot")))
                self.graph.add((node, URIRef(str(NOA) + "hasGeometry"),
                                geometry_literal(_rect(*hrect))))
                self.graph.add((node, URIRef(str(NOA) + "hasConfidence"),
                                Literal(conf)))
                self.graph.add((node, URIRef(str(NOA) + "hasPixelCount"),
                                Literal(rng.randrange(1, 12))))
                self.graph.add((node, URIRef(str(NOA) + "isProducedBy"),
                                derived_node))
                self.graph.add((
                    node, URIRef(str(NOA) + "hasAcquisitionTime"),
                    Literal(acquired.isoformat(),
                            datatype=str(XSD) + "dateTime"),
                ))
                self.hotspots.append(
                    {"uri": str(node), "rect": hrect, "conf": conf,
                     "derived": str(derived_node),
                     "product": str(product_uri(product))}
                )
            grid_patches = []
            grid_labels = []
            for r in range(GRID):
                for c in range(GRID):
                    prect = (
                        x0 + c * pw, y0 + h - (r + 1) * ph,
                        x0 + (c + 1) * pw, y0 + h - r * ph,
                    )
                    label = ("fire" if (r, c) in fire_cells
                             else rng.choices(labels, weights)[0])
                    grid_patches.append(
                        Patch(r * 8, c * 8, 8, None, _rect(*prect), 0.0)
                    )
                    grid_labels.append(label)
                    self.patches.append(
                        {"uri": f"{product_uri(product)}/patch/{r * 8}_{c * 8}",
                         "rect": prect, "label": label,
                         "product": str(product_uri(product)),
                         "acquired": acquired}
                    )
            self.graph.update(annotator.annotate(
                product, PatchGrid(grid_patches, 8), labels=grid_labels
            ))
        self.graph.update(self.world.to_rdf())
        self.last_acquired = max(p["acquired"] for p in self.products)

    # -- queries and their answers -------------------------------------------

    def window_query(self, rng: random.Random) -> Tuple[str, frozenset]:
        """``CatalogQuery`` time window plus region search."""
        t0 = EPOCH + timedelta(
            minutes=rng.uniform(0, (self.last_acquired - EPOCH)
                                .total_seconds() / 60 - 600) + 7)
        t1 = t0 + timedelta(hours=rng.uniform(3.0, 9.0))
        x0 = rng.uniform(20.0, 26.0) + 0.003
        y0 = rng.uniform(34.0, 40.0) + 0.003
        region = (x0, y0, x0 + rng.uniform(*REGION_DEG),
                  y0 + rng.uniform(*REGION_DEG))
        text = (CatalogQuery().acquired_between(t0, t1)
                .covering(_rect(*region)).to_stsparql())
        truth = frozenset(
            (p["uri"],) for p in self.products
            if t0 <= p["acquired"] <= t1 and _rects_intersect(p["rect"], region)
        )
        return text, truth

    def valid_during_query(self, rng: random.Random) -> Tuple[str, frozenset]:
        """Annotations of a common concept valid inside a time window."""
        concept = rng.choice(["forest", "farmland", "sea"])
        start = EPOCH + timedelta(
            minutes=rng.uniform(0, (self.last_acquired - EPOCH)
                                .total_seconds() / 60 - 300) + 7)
        end = start + timedelta(hours=rng.uniform(1.0, 4.0))
        text = queries.annotations_valid_during(concept, start, end)
        truth = frozenset(
            (p["uri"],) for p in self.patches
            if p["label"] == concept and start <= p["acquired"]
            and p["acquired"] + DEFAULT_VALIDITY <= end
        )
        return text, truth

    def rare_concept_query(self) -> Tuple[str, frozenset]:
        text = queries.annotations_by_concept(RARE_CONCEPT)
        truth = frozenset(
            (p["uri"], p["product"]) for p in self.patches
            if p["label"] == RARE_CONCEPT
        )
        return text, truth

    def towns_near_query(self, rng: random.Random) -> Tuple[str, frozenset]:
        """Towns within ``TOWN_RADIUS`` of one derived product's hotspots."""
        i = rng.choice(self.burning)
        derived = f"{NOA}product/MSG2_{i:05d}_hotspots_static"
        text = (
            NOA_PREFIXES
            + "PREFIX gn: <http://sws.geonames.org/ontology#>\n"
            "SELECT DISTINCT ?town WHERE {\n"
            f"  ?h noa:isProducedBy <{derived}> ; noa:hasGeometry ?hg .\n"
            "  ?town a gn:PopulatedPlace ; gn:hasGeometry ?tg .\n"
            f"  FILTER(strdf:distance(?hg, ?tg) < {TOWN_RADIUS})\n"
            "}"
        )
        names = {name: (lon, lat) for name, lon, lat, _ in
                 GreeceLikeWorld.TOWNS}
        truth = frozenset(
            (f"http://teleios.di.uoa.gr/synthetic/town/{name}",)
            for name, (lon, lat) in names.items()
            if any(rect_point_distance(h["rect"], lon, lat) < TOWN_RADIUS
                   for h in self.hotspots if h["derived"] == derived)
        )
        return text, truth

    def census_query(self) -> Tuple[str, Dict[str, int]]:
        return queries.concept_census(), dict(
            Counter(p["label"] for p in self.patches)
        )

    def join_query(self) -> Tuple[str, Counter]:
        """The streamed cross-pillar join and its expected multiset."""
        by_product: Dict[str, List[Dict]] = {}
        for h in self.hotspots:
            by_product.setdefault(h["product"], []).append(h)
        expected: Counter = Counter()
        for p in self.patches:
            if p["label"] != "fire":
                continue
            for h in by_product.get(p["product"], []):
                if _rects_intersect(p["rect"], h["rect"]):
                    expected[(p["uri"], h["uri"], h["conf"])] += 1
        return queries.annotation_hotspot_join("fire"), expected
