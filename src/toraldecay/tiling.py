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

from . import lattice, rng, spectral
from .errors import DegenerateBound, InputError, TooLarge

LEVEL_GUARD = 10**7  # max q^n cloud points
NEUMANN_REL_TOL = 1e-12  # the tail sum stops at a term this small relative to the total
NEUMANN_CAP = 2048  # terms summed before the tail is declared divergent


def neumann_tail(matrix):
    """sum over k >= 1 of ||A^-k||_2, summed to relative convergence.

    Converges because the spectral radius of A^-1 is below 1. Failure to
    converge within the cap signals a degenerate input, not a guard.
    """
    total = 0.0
    for k in range(1, NEUMANN_CAP + 1):
        term = 1.0 / spectral.min_singular_power(matrix, k)
        total += term
        if k >= 4 and term < NEUMANN_REL_TOL * total:
            return total
    raise DegenerateBound("Neumann tail sum did not converge within %d terms" % NEUMANN_CAP)


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
        return self.fraction(1)

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

    Only translates that can hit are queried. A point outside the
    cloud's bounding box padded by margin = 2 cell_radius is more than
    cell_radius from every cloud point, so per axis the candidates are
    the integers k with x - k inside that box: ceil(x - hi) plus a fixed
    local grid of floor(hi - lo) + 1 steps (at most the window's width),
    masked to the box and to the window. The hit test is unchanged, so
    the histogram equals the one from querying every window translate.
    """
    samples = int(samples)
    if samples < 0:
        raise InputError("samples must be >= 0")
    d = tile.matrix.dim
    window = int(np.ceil(attractor_radius(tile.matrix, tile.digits))) + 1
    stats = CoverageStats(tile.level, samples, int(seed), tile.cell_radius, window)
    if samples == 0:
        return stats
    margin = 2.0 * tile.cell_radius
    lo = tile.points.min(axis=0) - margin
    hi = tile.points.max(axis=0) + margin
    side = np.minimum(np.floor(hi - lo).astype(np.int64) + 1, 2 * window + 1)
    local = np.stack(
        np.meshgrid(*[np.arange(s) for s in side], indexing="ij"), axis=-1
    ).reshape(-1, d)
    from scipy.spatial import cKDTree  # imported here so only `tile` loads scipy

    tree = cKDTree(tile.points)

    def worker(run):
        counts = []
        for block, start, stop in run:
            count = stop - start
            x = rng.substream(seed, block).random((count, d))
            # clamping the first candidate to -window keeps the window
            # covered when the padded box is wider than the window
            first = np.maximum(np.ceil(x - hi), -window)
            k = first[:, None, :] + local[None, :, :]
            shifted = x[:, None, :] - k
            keep = ((shifted >= lo) & (shifted <= hi) & (np.abs(k) <= window)).all(axis=2)
            dist, _ = tree.query(shifted[keep], distance_upper_bound=margin)
            hit = np.zeros(keep.shape, dtype=bool)
            hit[keep] = dist <= tile.cell_radius
            counts.append(np.bincount(hit.sum(axis=1), minlength=2))
        return counts

    parts = [p for counts in rng.map_blocks(samples, worker, threads) for p in counts]
    width = max(len(p) for p in parts)
    total = np.zeros(width, dtype=np.int64)
    for p in parts:  # summed in block order; integer adds are order-exact anyway
        total[: len(p)] += p
    stats.histogram = {int(i): int(c) for i, c in enumerate(total) if c > 0}
    return stats


def check_self_affinity(tile):
    """Fraction of level-n points not matched by an independent cloud.

    The subdivision identity b_(g1..gn) = b_(g1..g(n-1)) + A^-n g_n
    builds the level-n cloud from level n-1 by appending the deepest
    digit. A^-n = adj(A)^n / det(A)^n comes once from exact integers, so
    the last level is not built by the A^-1 step of lattice.branch_points
    that tile.points came from. Each of these points is matched to its
    nearest neighbour in tile.points in the max norm, with a 1e-12
    tolerance; the fraction must be exactly 0.
    """
    if tile.level < 2:
        raise InputError("self-affinity check needs level >= 2")
    n = tile.level
    inv_n = np.array(lattice.mat_pow(tile.matrix.adjugate, n), dtype=float) / float(
        tile.matrix.det**n
    )
    prev = lattice.branch_points(tile.matrix, tile.digits, n - 1)
    deepest = tile.digits.as_array() @ inv_n.T
    independent = (prev[:, None, :] + deepest[None, :, :]).reshape(-1, tile.matrix.dim)
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(tile.points).query(independent, p=np.inf)
    return int((dist > 1e-12).sum()) / len(independent)
