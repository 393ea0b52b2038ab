"""Self-affine tile approximations and tiling checks.

The tile T is the attractor of the maps S_gamma x = A^-1(x + gamma).
A level-n approximation is the point cloud b_gamma = S_gamma 0 over all
digit strings gamma in D^n, together with a certified upper bound on the
diameter of one level-n cell. Membership in T is always approximate
(within cell_radius of some cloud point); the boundary fuzz that
introduces is quantified by the coverage statistics instead of resolved.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import lattice, rng, spectral
from .errors import DegenerateBound, InputError, TooLarge

LEVEL_GUARD = 10**7  # max q^n cloud points


def neumann_tail(matrix, rel_tol=1e-12, cap=2048):
    """sum over k >= 1 of ||A^-k||_2, summed to relative convergence.

    Converges because the spectral radius of A^-1 is below 1. Failure to
    converge within the cap signals a degenerate input, not a guard.
    """
    total = 0.0
    for k in range(1, cap + 1):
        term = 1.0 / spectral.min_singular_power(matrix, k)
        total += term
        if k >= 4 and term < rel_tol * total:
            return total
    raise DegenerateBound("Neumann tail sum did not converge within %d terms" % cap)


def digit_diameter(digits):
    """Largest pairwise Euclidean distance inside the digit set."""
    arr = digits.as_array()
    diff = arr[:, None, :] - arr[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def digit_radius(digits):
    arr = digits.as_array()
    return float(np.sqrt((arr**2).sum(axis=1)).max())


def attractor_radius(matrix, digits):
    """All cloud points lie within this Euclidean distance of the origin."""
    return neumann_tail(matrix) * digit_radius(digits)


def tile_diameter_bound(matrix, digits):
    """diam(T) <= sum ||A^-k|| * diam(D), from the difference-set expansion."""
    return neumann_tail(matrix) * digit_diameter(digits)


@dataclass
class TileApproximation:
    matrix: object
    digits: object
    level: int
    points: np.ndarray
    cell_radius: float


def tile_points(matrix, digits, level):
    """Level-n cloud b_gamma = S_gamma 0 for gamma in D^n.

    cell_radius is ||A^-n||_2 times the attractor diameter bound, an
    upper bound for diam(A^-n T), so every point of T sits within
    cell_radius of some cloud point.
    """
    level = int(level)
    if level < 1:
        raise InputError("level must be >= 1")
    q = matrix.det_abs
    if q**level > LEVEL_GUARD:
        raise TooLarge(
            "q^level = %d exceeds the cloud guard %d" % (q**level, LEVEL_GUARD)
        )
    pts = lattice.branch_points(matrix, digits, level)
    radius = tile_diameter_bound(matrix, digits) / spectral.min_singular_power(matrix, level)
    return TileApproximation(matrix, digits, level, pts, radius)


@dataclass
class CoverageStats:
    level: int
    samples: int
    seed: int
    cell_radius: float
    window: int
    histogram: dict = field(default_factory=dict)

    @property
    def fraction_one(self):
        if self.samples == 0:
            return 0.0
        return self.histogram.get(1, 0) / self.samples

    def fraction(self, count):
        if self.samples == 0:
            return 0.0
        return self.histogram.get(count, 0) / self.samples


def check_tiling(tile, samples, seed, threads=None):
    """Monte Carlo check of the unit-translate tiling identity.

    Draws uniform points x in [0,1)^d and counts lattice translates k
    in the window |k|_inf <= ceil(attractor radius) + 1 with x - k
    within cell_radius of some cloud point. For an exact tile the count
    is 1 away from the boundary, so fraction(count=1) must climb toward
    1 as the level grows. Deterministic for any thread count.
    """
    samples = int(samples)
    d = tile.matrix.dim
    window = int(np.ceil(attractor_radius(tile.matrix, tile.digits))) + 1
    stats = CoverageStats(tile.level, samples, int(seed), tile.cell_radius, window)
    if samples == 0:
        return stats
    offsets = np.stack(
        np.meshgrid(*([np.arange(-window, window + 1)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    tree = cKDTree(tile.points)

    def worker(run):
        counts = []
        for block, start, stop in run:
            count = stop - start
            x = rng.substream(seed, block).random((count, d))
            shifted = (x[:, None, :] - offsets[None, :, :]).reshape(-1, d)
            dist, _ = tree.query(shifted, k=1)
            hits = (dist <= tile.cell_radius).reshape(count, -1).sum(axis=1)
            counts.append(np.bincount(hits, minlength=2))
        return counts

    parts = [p for counts in rng.map_blocks(samples, worker, threads) for p in counts]
    width = max(len(p) for p in parts)
    total = np.zeros(width, dtype=np.int64)
    for p in parts:  # summed in block order; integer adds are order-exact anyway
        total[: len(p)] += p
    stats.histogram = {int(i): int(c) for i, c in enumerate(total) if c > 0}
    return stats


def check_self_affinity(tile):
    """Fraction of level-n points not matched by expanding level n-1.

    The subdivision identity makes the two clouds equal as point sets;
    the fraction must be exactly 0. Both sides are computed separately
    and matched after lexicographic sorting with a 1e-12 per-coordinate
    tolerance.
    """
    if tile.level < 2:
        raise InputError("self-affinity check needs level >= 2")
    prev = lattice.branch_points(tile.matrix, tile.digits, tile.level - 1)
    expanded = lattice.branch_points(tile.matrix, tile.digits, 1, points=prev)

    def sorted_rows(arr):
        order = np.lexsort(arr.T[::-1])
        return arr[order]

    lhs = sorted_rows(np.array(tile.points))
    rhs = sorted_rows(expanded)
    mismatched = int((np.abs(lhs - rhs) > 1e-12).any(axis=1).sum())
    return mismatched / len(lhs)
