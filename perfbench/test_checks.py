"""Each output check accepts the right answer and rejects a perturbed one.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import struct
from collections import Counter

import numpy as np
import pytest

import checks
from catalog_gen import Catalogue, rect_point_distance

from repro.mdb import Database
from repro.mdb.sciql import Dimension, SciArray
from repro.mdb.types import DOUBLE
from repro.mining.features import extract_patch_grid


def _flip_low_bit(value: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


@pytest.fixture(scope="module")
def scene_planes():
    rng = np.random.default_rng(7)
    shape = (24, 32)
    t039 = np.round(rng.uniform(250.0, 340.0, shape) * 64.0) / 64.0
    t108 = np.round(rng.uniform(250.0, 310.0, shape) * 64.0) / 64.0
    return t039.astype(np.float32), t108.astype(np.float32)


@pytest.fixture(scope="module")
def program_grid(scene_planes):
    t039, t108 = scene_planes
    h, w = t039.shape
    array = SciArray("scene", [Dimension("row", 0, h),
                               Dimension("col", 0, w)],
                     [("t039", DOUBLE), ("t108", DOUBLE)])
    array.set_attribute("t039", t039.astype(float))
    array.set_attribute("t108", t108.astype(float))
    return extract_patch_grid(array, (20.0, 34.0, 28.0, 42.0), patch_size=8)


# -- archive ----------------------------------------------------------------------


def test_features_equal_program_on_every_patch(scene_planes, program_grid):
    t039, t108 = scene_planes
    assert len(program_grid) == checks.expected_patches([t039.shape], 8)
    for patch in program_grid:
        assert checks.feature_errors(
            patch.features, t039, t108, patch.row, patch.col, 8) is None


@pytest.mark.parametrize("index", range(8))
def test_one_feature_bit_flipped_fails(scene_planes, program_grid, index):
    t039, t108 = scene_planes
    patch = program_grid.patches[5]
    features = [float(v) for v in patch.features]
    features[index] = _flip_low_bit(features[index])
    assert checks.feature_errors(
        features, t039, t108, patch.row, patch.col, 8) is not None


def test_expected_patches_drops_partial_patches():
    assert checks.expected_patches([(64, 64), (20, 17)], 8) == 64 + 4


def test_recovered_plane_corrupted_fails():
    db = Database()
    array = SciArray("a", [Dimension("row", 0, 4), Dimension("col", 0, 4)],
                     [("v", DOUBLE), ("w", DOUBLE)])
    array.set_attribute("v", np.arange(16.0).reshape(4, 4))
    array.set_attribute("w", np.ones((4, 4)))
    db.catalog.add_array(array)
    before = checks.plane_hashes(db)
    assert checks.hash_errors(before, checks.plane_hashes(db)) is None
    corrupted = np.arange(16.0).reshape(4, 4)
    corrupted[2, 3] += 1.0
    array.set_attribute("v", corrupted)
    assert "changed" in checks.hash_errors(before, checks.plane_hashes(db))
    assert checks.hash_errors(before, {}) is not None


def test_census_count_changed_fails():
    tally = {"fire": 3, "sea": 5}
    assert checks.census_errors([("fire", 3), ("sea", 5)], tally, 8) is None
    assert checks.census_errors([("fire", 3), ("sea", 4)], tally, 8)
    assert checks.census_errors([("fire", 3)], tally, 8)
    assert checks.census_errors([("fire", 3), ("sea", 5)], tally, 9)


# -- acquisition --------------------------------------------------------------------

TOWNS = [("A", 21.0, 37.0), ("B", 22.0, 38.0), ("C", 25.0, 40.0)]
HOTSPOTS = [
    "POLYGON ((21.1 37.1, 21.2 37.1, 21.2 37.2, 21.1 37.2, 21.1 37.1))",
    "MULTIPOLYGON (((21.9 37.9, 22.05 37.9, 22.05 38.05, 21.9 38.05, "
    "21.9 37.9)), ((24 39, 24.1 39, 24.1 39.1, 24 39.1, 24 39)))",
]


def test_town_layer_matches_brute_force():
    assert checks.town_layer_errors(["A", "B"], HOTSPOTS, TOWNS, 0.25) is None


def test_one_town_missing_fails():
    error = checks.town_layer_errors(["B"], HOTSPOTS, TOWNS, 0.25)
    assert error is not None and "'A'" in error


def test_extra_or_duplicate_town_fails():
    assert checks.town_layer_errors(["A", "B", "C"], HOTSPOTS, TOWNS, 0.25)
    assert checks.town_layer_errors(["A", "B", "B"], HOTSPOTS, TOWNS, 0.25)


def test_point_inside_hole_is_outside():
    donut = checks.wkt_rings(
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 3 3, 1 3, 1 1))")
    assert checks.point_rings_distance(donut, 0.5, 0.5) == 0.0
    assert checks.point_rings_distance(donut, 2.0, 2.0) == pytest.approx(1.0)
    assert checks.point_rings_distance(donut, 6.0, 4.0) == pytest.approx(2.0)


def test_hotspot_on_sea_is_flagged():
    sea = np.zeros((8, 8), dtype=bool)
    sea[:, 4:] = True  # the east half is sea
    window = (0.0, 0.0, 8.0, 8.0)
    on_land = (1.0, 1.0, 2.0, 2.0)
    on_sea = (5.0, 5.0, 6.0, 6.0)
    coast = (3.5, 1.0, 4.5, 2.0)
    touching = (4.0, 1.0, 5.0, 2.0)  # shares an edge with land pixels
    assert checks.hotspots_on_sea([on_land, coast], sea, window) == []
    assert checks.hotspots_on_sea([on_sea, touching], sea, window) == [
        on_sea, touching]


def test_recall_counts_only_clear_land_fire():
    fire = np.array([[1, 1, 1, 1]], dtype=bool)
    cloud = np.array([[0, 0, 1, 0]], dtype=bool)
    sea = np.array([[0, 0, 0, 1]], dtype=bool)
    assert checks.clear_land_fire_recall(
        fire, cloud, sea, np.array([[1, 0, 0, 0]])) == 0.5
    assert checks.clear_land_fire_recall(
        fire, cloud, sea, np.array([[1, 1, 0, 0]])) == 1.0


# -- catalog serving -------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalogue():
    return Catalogue(3)


def test_join_row_dropped_or_duplicated_fails(catalogue):
    _, expected = catalogue.join_query()
    rows = list(expected.elements())
    assert len(rows) > 10
    assert checks.multiset_errors(rows, expected) is None
    assert "1 rows lost" in checks.multiset_errors(rows[1:], expected)
    assert "1 rows extra" in checks.multiset_errors(rows + rows[:1],
                                                    expected)


def test_short_answer_row_dropped_fails(catalogue):
    import random

    rng = random.Random(1)
    _, truth = catalogue.valid_during_query(rng)
    rows = sorted(truth)
    assert rows
    assert checks.multiset_errors(rows, Counter(truth)) is None
    assert checks.multiset_errors(rows[:-1], Counter(truth)) is not None


def test_census_tally_sums_to_patches(catalogue):
    _, tally = catalogue.census_query()
    assert sum(tally.values()) == len(catalogue.patches)


def test_rect_point_distance():
    rect = (0.0, 0.0, 1.0, 1.0)
    assert rect_point_distance(rect, 0.5, 0.5) == 0.0
    assert rect_point_distance(rect, 4.0, 5.0) == pytest.approx(5.0)
