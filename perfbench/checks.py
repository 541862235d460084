"""Output checks that compute the expected answer apart from the program.

Each function takes plain data (arrays, WKT text, rows) and returns what
was wrong, so the workloads can record a check and the tests can show
that every check fails on a perturbed output.  Nothing here calls the
program's query engine, geometry predicates or feature extractor.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Ring = List[Tuple[float, float]]

# -- acquisition ----------------------------------------------------------------


def clear_land_fire_recall(
    fire: np.ndarray, cloud: np.ndarray, sea: np.ndarray,
    detected: np.ndarray,
) -> float:
    """Share of the simulator's clear-sky land fire pixels detected."""
    truth = fire & ~cloud & ~sea
    total = int(truth.sum())
    if total == 0:
        return 1.0
    return int((truth & detected.astype(bool)).sum()) / total


def pixel_span(lo: float, hi: float, origin: float, step: float,
               n: int) -> Tuple[int, int]:
    """Index range of the pixels a closed interval overlaps with positive
    length (an edge that only touches a pixel does not count)."""
    first = math.floor((lo - origin) / step + 1e-9)
    last = math.ceil((hi - origin) / step - 1e-9) - 1
    return max(first, 0), min(max(last, first), n - 1)


def hotspots_on_sea(
    envelopes: Iterable[Tuple[float, float, float, float]],
    sea: np.ndarray, window: Tuple[float, float, float, float],
) -> List[Tuple[float, float, float, float]]:
    """Hotspot envelopes that cover only sea pixels of the truth mask.

    Rows run north to south, as in the simulator."""
    lon0, lat0, lon1, lat1 = window
    h, w = sea.shape
    dlon = (lon1 - lon0) / w
    dlat = (lat1 - lat0) / h
    bad = []
    for env in envelopes:
        minx, miny, maxx, maxy = env
        c0, c1 = pixel_span(minx, maxx, lon0, dlon, w)
        r0, r1 = pixel_span(lat1 - maxy, lat1 - miny, 0.0, dlat, h)
        if sea[r0:r1 + 1, c0:c1 + 1].all():
            bad.append(env)
    return bad


_RING_RE = re.compile(r"\(([^()]*)\)")


def wkt_rings(wkt: str) -> List[Ring]:
    """Every ring of a (MULTI)POLYGON WKT as a coordinate list."""
    rings = []
    for body in _RING_RE.findall(wkt):
        coords = []
        for pair in body.split(","):
            x, y = pair.split()[:2]
            coords.append((float(x), float(y)))
        rings.append(coords)
    return rings


def _segment_distance(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    t = 0.0 if length2 == 0 else max(
        0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def point_rings_distance(rings: Sequence[Ring], x: float, y: float) -> float:
    """Distance from a point to the area bounded by ``rings``; 0 inside.

    Even-odd crossing over all rings handles holes and multipolygon
    members alike."""
    inside = False
    best = math.inf
    for ring in rings:
        n = len(ring)
        for i in range(n):
            ax, ay = ring[i]
            bx, by = ring[(i + 1) % n]
            best = min(best, _segment_distance(x, y, ax, ay, bx, by))
            if (ay > y) != (by > y):
                cross = ax + (y - ay) * (bx - ax) / (by - ay)
                if x < cross:
                    inside = not inside
    return 0.0 if inside else best


def towns_within(
    hotspot_wkts: Iterable[str],
    towns: Iterable[Tuple[str, float, float]],
    radius: float, margin: float = 1e-9,
) -> Tuple[set, set]:
    """(towns surely within ``radius`` of some hotspot, towns too close
    to the radius to call)."""
    geoms = [wkt_rings(w) for w in hotspot_wkts]
    near, unsure = set(), set()
    for name, lon, lat in towns:
        d = min((point_rings_distance(g, lon, lat) for g in geoms),
                default=math.inf)
        if abs(d - radius) <= margin:
            unsure.add(name)
        elif d < radius:
            near.add(name)
    return near, unsure


def town_layer_errors(
    layer_names: Iterable[str], hotspot_wkts: Iterable[str],
    towns: Iterable[Tuple[str, float, float]], radius: float,
) -> Optional[str]:
    """None when the map's town layer equals the brute-force answer."""
    got = list(layer_names)
    if len(got) != len(set(got)):
        return f"duplicate towns in layer: {sorted(got)}"
    near, unsure = towns_within(hotspot_wkts, towns, radius)
    got_set = set(got) - unsure
    if got_set != near:
        return (f"missing {sorted(near - got_set)}, "
                f"unexpected {sorted(got_set - near)}")
    return None


# -- archive ----------------------------------------------------------------------


def _grad(plane: np.ndarray, r: int, c: int, axis: int) -> float:
    """``np.gradient``-style central difference at one cell."""
    n = plane.shape[axis]
    i = r if axis == 0 else c

    def at(k):
        return float(plane[k, c]) if axis == 0 else float(plane[r, k])

    if n < 2:
        return 0.0
    if i == 0:
        return at(1) - at(0)
    if i == n - 1:
        return at(n - 1) - at(n - 2)
    return (at(i + 1) - at(i - 1)) * 0.5


def context_features(t039: np.ndarray, t108: np.ndarray,
                     row: int, col: int, p: int) -> List[float]:
    """The 8-feature descriptor of one patch by plain loops, with the
    gradient and contrast taken in the context of the whole scene."""
    area = p * p
    w = t039.shape[1]
    s039 = s108 = q039 = q108 = grad = con = 0.0
    mx = -math.inf
    for r in range(row, row + p):
        for c in range(col, col + p):
            a, b = float(t039[r, c]), float(t108[r, c])
            s039 += a
            s108 += b
            q039 += a * a
            q108 += b * b
            mx = max(mx, a)
            gx, gy = _grad(t039, r, c, 0), _grad(t039, r, c, 1)
            grad += gx * gx + gy * gy
            if c + 1 < w:
                con += (float(t108[r, c + 1]) - b) ** 2
    m039, m108 = s039 / area, s108 / area
    return [
        m039, max(q039 / area - m039 * m039, 0.0),
        m108, max(q108 / area - m108 * m108, 0.0),
        m039 - m108, mx, grad / area, con / area,
    ]


def oracle_features(t039: np.ndarray, t108: np.ndarray,
                    row: int, col: int, p: int) -> List[float]:
    """The testkit oracle's descriptor of one isolated patch block.  Its
    first six features do not depend on neighbouring pixels."""
    from repro.testkit.oracles import naive_mining_features

    block = {
        "t039": t039[row:row + p, col:col + p].tolist(),
        "t108": t108[row:row + p, col:col + p].tolist(),
    }
    return naive_mining_features([block], p)[0]


def feature_errors(got: Sequence[float], t039: np.ndarray,
                   t108: np.ndarray, row: int, col: int,
                   p: int) -> Optional[str]:
    """None when a patch's features equal both references bit for bit."""
    got = [float(v) for v in got]
    context = context_features(t039, t108, row, col, p)
    oracle = oracle_features(t039, t108, row, col, p)
    if got != context:
        return f"patch ({row},{col}): {got} != brute force {context}"
    if got[:6] != [float(v) for v in oracle[:6]]:
        return f"patch ({row},{col}): {got[:6]} != oracle {oracle[:6]}"
    return None


def expected_patches(shapes: Iterable[Tuple[int, int]], p: int) -> int:
    """Sum of floor(h/p) * floor(w/p) over the scenes."""
    return sum((h // p) * (w // p) for h, w in shapes)


def plane_hashes(db) -> Dict[Tuple[str, str], str]:
    """SHA-256 of every attribute plane of every SciQL array."""
    out = {}
    for name in db.arrays():
        array = db.array(name)
        for attr, _ in array.attributes:
            plane = np.ascontiguousarray(array.attribute(attr))
            digest = hashlib.sha256(plane.dtype.str.encode())
            digest.update(repr(plane.shape).encode())
            digest.update(plane.tobytes())
            out[(name, attr)] = digest.hexdigest()
    return out


def hash_errors(before: Dict, after: Dict) -> Optional[str]:
    if before == after:
        return None
    missing = sorted(set(before) - set(after))
    extra = sorted(set(after) - set(before))
    changed = sorted(k for k in set(before) & set(after)
                     if before[k] != after[k])
    return f"missing {missing}, extra {extra}, changed {changed}"


# -- catalog serving -------------------------------------------------------------


def multiset_errors(got: Iterable, expected: Counter) -> Optional[str]:
    """None when ``got`` holds exactly the expected rows, counted."""
    have = Counter(got)
    if have == expected:
        return None
    lost = expected - have
    dup = have - expected
    return (f"{sum(lost.values())} rows lost, {sum(dup.values())} rows "
            f"extra (e.g. lost {list(lost)[:2]}, extra {list(dup)[:2]})")


def census_errors(rows: Iterable[Tuple[str, int]], tally: Dict[str, int],
                  total: int) -> Optional[str]:
    got = {}
    for label, n in rows:
        if label in got:
            return f"label {label!r} twice in census"
        got[label] = int(n)
    if got != tally:
        return f"census {got} != tally {tally}"
    if sum(got.values()) != total:
        return f"census sums to {sum(got.values())}, not {total}"
    return None
