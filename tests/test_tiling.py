"""Digit tiles: cloud generation, subdivision identity, coverage counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import mp_min_singular
from toraldecay import lattice, rng, tiling
from toraldecay.errors import InputError, NotExpanding, SingularMatrix, TooLarge

TWIN = lattice.validate_expanding([[1, -1], [1, 1]])
DOUBLE = lattice.validate_expanding([[2]])
TWIN_DIGITS = lattice.digit_set(TWIN)
DOUBLE_DIGITS = lattice.digit_set(DOUBLE)


def test_neumann_tail_geometric():
    # ||A^-k|| = 2^-k/2 for the similarity, so the tail sums exactly
    want = sum(2.0 ** (-k / 2.0) for k in range(1, 200))
    assert tiling.neumann_tail(TWIN) == pytest.approx(want, rel=1e-10)
    assert tiling.neumann_tail(DOUBLE) == pytest.approx(1.0, rel=1e-10)


def test_neumann_tail_steps_one_product_per_term(monkeypatch):
    # lambda_min = 1.06: the tail sums 424 terms, each one step adj(A) adj(A)^(k-1);
    # forming every adj(A)^k afresh took 424 binary powers
    matrix = lattice.validate_expanding([[0, 1, 1], [2, -2, 1], [-1, -1, -1]])
    calls = {"mat_mul": 0, "mat_pow": 0}
    for name in calls:
        def counted(*args, name=name, kernel=getattr(lattice, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(lattice, name, counted)
    tiling.neumann_tail(matrix)
    assert calls == {"mat_mul": 424, "mat_pow": 0}


@pytest.mark.parametrize("entries, level, window", [
    ([[0, 1, 1], [2, -2, 1], [-1, -1, -1]], 3, 54),  # float A^k read a radius 6.7 % short
    ([[1, 1, 1], [-1, 2, -1], [0, -1, 2]], 3, 7),  # ... and a window of 1.3e69 translates
    ([[-1, -2, -1], [0, -1, 2], [2, 2, 0]], 1, 9),  # ... and sigma_min(A^k) = 0.0
])
def test_neumann_tail_and_cell_radius_vs_mpmath(entries, level, window):
    # the same sum, stopped by the same rule, with each term 1 / sigma_min(A^k)
    # from mpmath's SVD of the exact A^k
    mp = pytest.importorskip("mpmath")
    m = lattice.validate_expanding(entries)
    tile = tiling.tile_points(m, lattice.digit_set(m), level)
    digits = np.array(tile.digits, dtype=float)
    diameter = float(np.sqrt(((digits[:, None] - digits[None]) ** 2).sum(axis=2)).max())
    with mp.workdps(30):
        tail, k = mp.mpf(0), 0
        while True:
            k += 1
            term = 1 / mp_min_singular(m, k)
            tail += term
            if k >= 4 and term < tiling.NEUMANN_REL_TOL * tail:
                break
        radius = tail * diameter / mp_min_singular(m, level)
        assert tile.window == int(mp.ceil(tail * np.sqrt((digits**2).sum(axis=1)).max())) + 1
    assert tile.window == window
    assert tiling.neumann_tail(m) == pytest.approx(float(tail), rel=1e-12, abs=0)
    assert tile.cell_radius == pytest.approx(float(radius), rel=1e-12, abs=0)


def test_tile_points_counts_and_radius():
    for level in (1, 3, 6):
        tile = tiling.tile_points(TWIN, TWIN_DIGITS, level)
        assert tile.points.shape == (2**level, 2)
        assert tile.cell_radius > 0
    t1 = tiling.tile_points(TWIN, TWIN_DIGITS, 4)
    t2 = tiling.tile_points(TWIN, TWIN_DIGITS, 8)
    assert t2.cell_radius < t1.cell_radius  # cells shrink with the level


def test_tile_points_dyadic_line():
    # for [[2]] with digits {0,1} the level-n cloud is {k/2^n}
    tile = tiling.tile_points(DOUBLE, DOUBLE_DIGITS, 5)
    got = np.sort(tile.points.ravel())
    want = np.arange(32) / 32.0
    assert np.max(np.abs(got - want)) < 1e-12


def test_tile_keys_are_the_scaled_cloud():
    for entries, level in (([[-3]], 6), ([[1, -1], [1, 1]], 9), ([[2, 1], [0, 2]], 5),
                           ([[1, 1, 0], [-1, 1, 0], [0, 0, 2]], 4)):
        m = lattice.validate_expanding(entries)
        tile = tiling.tile_points(m, lattice.digit_set(m), level)
        assert tile.keys.dtype == np.int64 and tile.keys.shape == tile.points.shape
        scaled = tile.points @ np.array(lattice.mat_pow(m.entries, level), dtype=float).T
        assert np.abs(scaled - tile.keys).max() < 1e-9
        # distinct residues mod A^n Z^d: one owner per key
        owner = tiling._Residues(tile).owner
        assert np.array_equal(np.sort(owner), np.arange(len(tile.keys)))


def test_census_guards():
    # keys past tiling.KEY_LIMIT: the cloud and the self-affinity check need none
    wide = lattice.validate_expanding([[2, 10**15], [0, 2]])
    tile = tiling.tile_points(wide, lattice.digit_set(wide), 4)
    assert len(tile.points) == 256
    with pytest.raises(TooLarge):
        tile.keys
    assert tiling.check_self_affinity(tile) == 0.0
    # windows far too wide to list their translates
    skew = lattice.validate_expanding([[2, 10**6], [0, 2]])
    for tile in (tile, tiling.tile_points(skew, lattice.digit_set(skew), 10)):
        with pytest.raises(TooLarge):
            tiling.check_tiling(tile, 10, seed=1)


def test_tile_level_guard():
    with pytest.raises(TooLarge):
        tiling.tile_points(TWIN, TWIN_DIGITS, 40)
    with pytest.raises(InputError):
        tiling.tile_points(TWIN, TWIN_DIGITS, 0)


def test_self_affinity_exact_zero():
    for level in (2, 5, 9):
        tile = tiling.tile_points(TWIN, TWIN_DIGITS, level)
        assert tiling.check_self_affinity(tile) == 0.0
    # det 3: A^-1 is not dyadic, so at level 5 the two sides differ in the
    # last bits, well inside the tolerance
    for entries in ([[-3]], [[0, -3], [1, 0]], [[0, 0, 3], [1, 0, 0], [0, 1, 0]]):
        m = lattice.validate_expanding(entries)
        for level in (2, 5):
            tile = tiling.tile_points(m, lattice.digit_set(m), level)
            assert tiling.check_self_affinity(tile) == 0.0
    with pytest.raises(InputError):
        tiling.check_self_affinity(tiling.tile_points(TWIN, TWIN_DIGITS, 1))


def test_self_affinity_catches_a_wrong_kernel(monkeypatch):
    # a cloud kernel stepping with A^-T instead of A^-1 builds the mirrored
    # twin dragon; the check's own A^-n side must not follow it
    def transposed_branch_points(matrix, digits, n):
        inv_t = np.linalg.inv(np.array(matrix.entries, dtype=float))
        pts = np.zeros((1, matrix.dim))
        for _ in range(n):
            pts = np.concatenate([(pts + g) @ inv_t for g in np.array(digits, dtype=float)])
        return pts

    monkeypatch.setattr(lattice, "branch_points", transposed_branch_points)
    for level in (2, 5, 9):
        tile = tiling.tile_points(TWIN, TWIN_DIGITS, level)
        assert tiling.check_self_affinity(tile) > 0.0


def test_attractor_points_stay_in_bound():
    tile = tiling.tile_points(TWIN, TWIN_DIGITS, 12)
    r = tiling.neumann_tail(TWIN) * np.sqrt((np.array(TWIN_DIGITS, dtype=float) ** 2).sum(axis=1)).max()
    norms = np.sqrt((tile.points**2).sum(axis=1))
    assert norms.max() <= r + 1e-12
    assert tile.window == math.ceil(r) + 1


def test_check_tiling_dyadic_exact():
    # the interval tile covers [0,1) exactly, so every sample hits once
    tile = tiling.tile_points(DOUBLE, DOUBLE_DIGITS, 10)
    stats = tiling.check_tiling(tile, 4000, seed=1)
    assert stats.samples == 4000
    assert stats.fraction_one >= 0.99
    assert sum(stats.histogram.values()) == 4000


def test_check_tiling_deterministic_across_threads():
    tile = tiling.tile_points(TWIN, TWIN_DIGITS, 9)
    a = tiling.check_tiling(tile, 3000, seed=5, threads=1)
    b = tiling.check_tiling(tile, 3000, seed=5, threads=4)
    assert a.histogram == b.histogram
    c = tiling.check_tiling(tile, 3000, seed=6, threads=1)
    assert c.histogram != a.histogram  # seed actually matters


def test_check_tiling_coverage_improves_with_level():
    lo = tiling.check_tiling(tiling.tile_points(TWIN, TWIN_DIGITS, 8), 2000, seed=2)
    hi = tiling.check_tiling(tiling.tile_points(TWIN, TWIN_DIGITS, 14), 2000, seed=2)
    assert hi.fraction_one > lo.fraction_one
    # nothing is ever uncovered: the clouds cover T and T tiles the plane
    assert lo.histogram.get(0, 0) == 0
    assert hi.histogram.get(0, 0) == 0


REFERENCE_QUERY = 2**18  # translates the reference census queries at once


def all_translates_census(tile, samples, seed):
    """Reference census: query every window translate, without pruning."""
    d, window = tile.matrix.dim, tile.window
    offsets = np.stack(
        np.meshgrid(*([np.arange(-window, window + 1)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    tree = cKDTree(tile.points)
    histogram = {}
    for block, start, stop in rng.block_ranges(samples):
        x = rng.substream(seed, block).random((stop - start, d))
        counts = np.zeros(len(x), dtype=int)
        for lo in range(0, len(offsets), REFERENCE_QUERY):
            part = offsets[lo:lo + REFERENCE_QUERY]
            rows = REFERENCE_QUERY // len(part)
            for first in range(0, len(x), rows):
                dist, _ = tree.query((x[first:first + rows, None, :] - part).reshape(-1, d))
                counts[first:first + rows] += (
                    (dist <= tile.cell_radius).reshape(-1, len(part)).sum(axis=1)
                )
        for hits in counts:
            histogram[int(hits)] = histogram.get(int(hits), 0) + 1
    return window, histogram


def test_check_tiling_matches_all_translates():
    # levels 1 and 2 have a cell radius near the tile's size, so the padded
    # box can be wider than the window; the last level is a deep one
    cases = [
        ([[2]], 12),
        ([[-3]], 8),
        ([[1, -1], [1, 1]], 14),
        ([[2, 1], [0, 2]], 7),
        ([[0, -2], [1, 0]], 12),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 5),
        ([[1, 1, 0], [-1, 1, 0], [0, 0, 2]], 4),
    ]
    samples = rng.BLOCK + 100  # two blocks, so two threads split the work
    for entries, deep in cases:
        m = lattice.validate_expanding(entries)
        digits = lattice.digit_set(m)
        for level in (1, 2, deep):
            tile = tiling.tile_points(m, digits, level)
            window, want = all_translates_census(tile, samples, seed=level)
            for threads in (1, 2):
                stats = tiling.check_tiling(tile, samples, seed=level, threads=threads)
                assert stats.window == window
                assert stats.histogram == want, (entries, level, threads)


def window_cells(tile):
    """Translates in the census window, (2 window + 1)^d."""
    return (2 * tile.window + 1) ** tile.matrix.dim


@st.composite
def census_tiles(draw):
    """An expanding matrix with entries in [-2, 2] (d = 1..3; a diagonal
    of modulus 2d replaces one that is not expanding, or whose window
    holds more than 2^20 translates, beyond what the reference can
    query) and a level with q^level <= 1024."""
    d = draw(st.integers(1, 3))
    entries = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
    try:
        m = lattice.validate_expanding(entries)
        # the window does not depend on the level
        usable = window_cells(tiling.tile_points(m, lattice.digit_set(m), 1)) <= 2**20
    except (NotExpanding, SingularMatrix):
        usable = False
    if not usable:
        for i in range(d):
            entries[i][i] = draw(st.sampled_from([-1, 1])) * 2 * d
        m = lattice.validate_expanding(entries)
    deepest = max(1, int(math.log(1024) / math.log(m.det_abs)))
    return tiling.tile_points(m, lattice.digit_set(m), draw(st.integers(1, deepest)))


@settings(max_examples=30, deadline=None)
@given(census_tiles(), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_census_matches_all_translates_on_random_matrices(tile, samples, seed):
    # at most 2^18 reference queries, and at least one sample
    samples = max(1, min(samples, 2**18 // window_cells(tile)))
    window, want = all_translates_census(tile, samples, seed)
    for stats in census_by_each_path(tile, samples, seed):
        assert stats.window == window
        assert stats.histogram == want


def census_by_each_path(tile, samples, seed):
    """check_tiling as it chooses, then with the lattice census where the
    offset set allows it, then with the digit-tree census alone."""
    runs = [tiling.check_tiling(tile, samples, seed, threads=1)]
    for limit in (2**13, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tiling, "LATTICE_OFFSETS", limit)
            runs.append(tiling.check_tiling(tile, samples, seed, threads=1))
    return runs


@pytest.mark.parametrize("entries, level", [
    ([[0, 2, -1], [-1, 2, -2], [-2, -1, 1]], 1),  # cell radius 31.5: every window translate
    ([[-2, 0, -1], [1, -1, 2], [1, -2, 2]], 4),  # cell radius 7.2: about 2,800 translates
    ([[3, 1], [1, 2]], 5),  # 16,542 lattice offsets a sample
    ([[1, -1], [1, 1]], 14),  # 32 lattice offsets a sample
    ([[-1, -2, -1], [0, -1, 2], [2, 2, 0]], 2),  # sigma_min of a float A^k read 0.0
])
def test_census_matches_all_translates_where_the_cell_is_wide(entries, level):
    m = lattice.validate_expanding(entries)
    tile = tiling.tile_points(m, lattice.digit_set(m), level)
    samples = 40
    window, want = all_translates_census(tile, samples, seed=7)
    for stats in census_by_each_path(tile, samples, seed=7):
        assert stats.window == window
        assert stats.histogram == want


def test_census_without_keys(monkeypatch):
    # keys past KEY_LIMIT leave the census to the digit tree
    tile = tiling.tile_points(TWIN, TWIN_DIGITS, 10)
    want = tiling.check_tiling(tile, 500, seed=4).histogram
    monkeypatch.setattr(tiling, "KEY_LIMIT", 8)
    tile = tiling.tile_points(TWIN, TWIN_DIGITS, 10)
    with pytest.raises(TooLarge):
        tile.keys
    assert tiling.check_tiling(tile, 500, seed=4).histogram == want
