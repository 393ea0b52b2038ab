"""Self-affine tile approximations and tiling checks.

The tile T is the attractor of the maps S_gamma x = A^-1(x + gamma).
A level-n approximation is the point cloud b_gamma = S_gamma 0 over all
digit strings gamma in D^n, together with a certified upper bound on the
diameter of one level-n cell. Membership in T is always approximate
(within cell_radius of some cloud point); the boundary fuzz that
introduces is quantified by the coverage statistics instead of resolved.

Each cloud point also has an exact integer key A^n b_gamma. The keys
form a complete residue system mod A^n Z^d, so cloud + Z^d is the
lattice A^-n Z^d with every point counted once; the census finds cloud
points through that lattice instead of through a spatial search tree.
Where that lattice is too fine for the cell radius, it descends the
digit tree instead: the points that share their first j digits lie
close together in consecutive rows of the cloud.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lattice, rng, spectral
from .errors import DegenerateBound, InputError, InternalError, TooLarge

KEY_LIMIT = 2**62 // lattice.CLOUD_GUARD  # keys and A^n: exact in float64, residue products inside int64
CENSUS_BUDGET = 2**15  # candidates one census batch holds; results do not depend on it
LATTICE_OFFSETS = 2**11  # past this many lattice offsets a sample, the census uses the digit tree
TRANSLATE_GUARD = 2**24  # max window translates the digit-tree census tests for one sample
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


@dataclass
class TileApproximation:
    matrix: object
    digits: object
    level: int
    points: np.ndarray
    cell_radius: float
    window: int

    @cached_property
    def keys(self):
        """Exact int64 A^n b_gamma, row for row with points."""
        return _cloud_keys(self.matrix, self.digits, self.level)

    # built once per tile, on the first census that needs them
    @cached_property
    def _residues(self):
        return _Residues(self)

    @cached_property
    def _reach(self):
        return _block_reach(self.points, self.matrix.det_abs, self.level)


def _cloud_keys(matrix, digits, level):
    """Exact keys A^n b_gamma in the order of lattice.branch_points.

    b' = A^-1 (b + g) gives A^(j+1) b' = A^j b + A^j g, so the keys grow
    digit by digit in integers.
    """
    d = matrix.dim
    keys = np.zeros((1, d), dtype=np.int64)
    power = lattice.identity(d)
    bound = 0
    for _ in range(level):
        shifts = [lattice.mat_vec(power, g) for g in digits]
        bound += max(abs(v) for shift in shifts for v in shift)
        power = lattice.mat_mul(matrix.entries, power)
        if max(bound, max(sum(abs(v) for v in row) for row in power)) >= KEY_LIMIT:
            raise TooLarge("A^n or the level-n keys exceed %d" % KEY_LIMIT)
        keys = (np.array(shifts, dtype=np.int64)[:, None, :] + keys[None, :, :]).reshape(-1, d)
    return keys


def tile_points(matrix, digits, level):
    """Level-n cloud b_gamma = S_gamma 0 for gamma in D^n.

    With N = neumann_tail(A), T lies within N max|g| of the origin and
    diam(T) <= N diam(D), from the difference-set expansion. cell_radius
    is ||A^-n||_2 N diam(D), an upper bound for diam(A^-n T), so every
    point of T sits within cell_radius of some cloud point; the census
    counts translates k with |k|_inf <= window = ceil(N max|g|) + 1.
    """
    level = int(level)
    if level < 1:
        raise InputError("level must be >= 1")
    q = matrix.det_abs  # >= 2, so q^level exceeds the guard from level = its bit length
    if level >= lattice.CLOUD_GUARD.bit_length() or q**level > lattice.CLOUD_GUARD:
        raise TooLarge("q^level = %d^%d exceeds the cloud guard %d"
                       % (q, level, lattice.CLOUD_GUARD))
    pts = lattice.branch_points(matrix, digits, level)
    tail, arr = neumann_tail(matrix), np.array(digits, dtype=float)
    diameter = float(np.sqrt(((arr[:, None] - arr[None]) ** 2).sum(axis=2)).max())
    radius = tail * diameter / spectral.min_singular_power(matrix, level)
    window = int(np.ceil(tail * float(np.sqrt((arr**2).sum(axis=1)).max()))) + 1
    return TileApproximation(matrix, digits, level, pts, radius, window)


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
        return self.histogram.get(1, 0) / self.samples if self.samples else 0.0


class _Residues:
    """Owner table of A^-n Z^d = cloud + Z^d over a lower-triangular basis.

    Every integer m splits as m = H c + r with 0 <= r_i < H_ii (H the
    Hermite basis of A^n Z^d, c its quotients), and the residue index of
    r is one of q^n. Each key sits in its own residue, so owner[rho] is
    the cloud index g with m = key_g + A^n k. The table also holds
    shift[rho] = V c_g, so k = V c - shift[rho] follows from the
    quotients in integers. drift is the largest measured distance between
    a cloud point and A^-n key, both in floats; power and inverse are
    A^n and A^-n in floats.
    """

    def __init__(self, tile):
        power = lattice.mat_pow(tile.matrix.entries, tile.level)
        self.hermite, self.unimodular = lattice.hermite(power)
        keys = tile.keys
        self.power = np.array(power, dtype=float)
        self.inverse = lattice.inverse_power(tile.matrix, tile.level)
        count = len(keys)
        self.owner = np.full(count, -1, dtype=np.intp)
        self.shift = np.empty((tile.matrix.dim, count), dtype=np.int64)
        self.drift = 0.0
        for start in range(0, count, CENSUS_BUDGET):
            stop = min(start + CENSUS_BUDGET, count)
            rho, quotients = lattice.residue(self.hermite, keys[start:stop].T)
            self.owner[rho] = np.arange(start, stop)
            self.shift[:, rho] = self._apply(quotients)
            gap = np.abs(tile.points[start:stop] - keys[start:stop] @ self.inverse.T).max()
            self.drift = max(self.drift, gap)
        if (self.owner < 0).any():
            raise InternalError("cloud keys are not a complete residue system mod A^n Z^d")

    def _apply(self, quotients):
        """V c, one int64 array per coordinate."""
        return [sum(v * c for v, c in zip(row, quotients) if v) for row in self.unimodular]

    def locate(self, m):
        """Cloud index g and translate k (one array per axis) with m = key_g + A^n k."""
        rho, quotients = lattice.residue(self.hermite, m)
        return self.owner[rho], [a - s[rho] for a, s in zip(self._apply(quotients), self.shift)]


def _block_reach(points, q, level):
    """reach[j]: how far a point of a level-j block can lie from the block's first point.

    The points whose first j digits agree fill q^(n-j) consecutive rows
    (lattice.branch_points puts the first digit most significant), and
    a level-j block is q consecutive level-(j+1) blocks. So reach[j] is
    the largest distance from a block's first point to the first points
    of its sub-blocks, plus reach[j+1], rounded outward; a bound for any
    cloud, whatever order its rows are in.
    """
    d = points.shape[1]
    reach = np.zeros(level + 1)
    step = max(1, CENSUS_BUDGET // q)
    for j in range(level - 1, -1, -1):
        heads = points[:: q ** (level - j - 1)].reshape(q**j, q, d)
        gap = 0.0
        for start in range(0, q**j, step):
            part = heads[start : start + step]
            gap = max(gap, np.sqrt(((part - part[:, :1]) ** 2).sum(axis=2)).max())
        reach[j] = (gap + reach[j + 1]) * (1.0 + 1e-12)
    return reach


def _distance(points, g, y):
    """||points[g] - y||_2 with y one array per axis: the census hit test
    compares it with cell_radius."""
    dist2 = 0.0
    for i, y_i in enumerate(y):
        dist2 = dist2 + (points[:, i][g] - y_i) ** 2
    return np.sqrt(dist2)


def _offsets(power, gram, radius):
    """Every integer e with ||A^-n (e - f)||_2 <= radius for some f in [0, 1]^d,
    or None when there are more than LATTICE_OFFSETS of them.

    Such an e lies within radius + rho of the box centre c in that norm,
    rho being the largest ||A^-n (corner - c)||_2; the set returned is
    that ellipsoid's integer points, a few more than needed.
    """
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=len(power))))
    reach = radius + np.sqrt(np.einsum("ij,jk,ik->i", corners, gram, corners).max())
    half = np.ceil(reach * np.sqrt((power**2).sum(axis=1)))
    if np.prod(2.0 * half + 2.0) > 16 * LATTICE_OFFSETS:  # the box holds the ellipsoid
        return None
    grid = np.stack(
        np.meshgrid(*[np.arange(-h, h + 2, dtype=np.int64) for h in half], indexing="ij"), axis=-1
    ).reshape(-1, len(half))
    z = grid - 0.5
    offsets = grid[np.einsum("ij,jk,ik->i", z, gram, z) <= reach**2]
    return offsets if len(offsets) <= LATTICE_OFFSETS else None


def _lattice_census(tile):
    """Chunk size and count function of the lattice census, or None where
    the keys pass KEY_LIMIT or the offset set passes LATTICE_OFFSETS.

    A cloud point b_g with x - k within cell_radius is a lattice point
    m = A^n (b_g + k) of A^n Z^d within the ellipsoid A^n B(x, radius),
    so the candidates are m = floor(A^n x) + e over a fixed offset set
    that holds every e within the radius of some f in [0, 1]^d, the
    radius widened by the measured float error of the cloud and of
    A^n x. A prefilter in that norm drops the offsets far from this
    sample's f = frac(A^n x), and the residue table names each
    survivor's cloud point and translate.
    """
    try:
        residues = tile._residues
    except TooLarge:
        return None
    d, window = tile.matrix.dim, tile.window
    power, inverse = residues.power, residues.inverse
    gram = inverse.T @ inverse
    # Widen the radius by every float error between the hit test and the
    # exact distance ||A^-n (m - A^n x)||: the cloud's drift from its keys
    # (measured, plus the error of measuring it), A^n x, and the test itself.
    eps = np.finfo(float).eps
    extent = np.abs(tile.points).max() + 1.0
    inverse_norm = np.linalg.norm(inverse, 2)
    # cond(A^n) <= ||A^n||_F ||A^-n||_2, with no SVD of the float A^n
    drift = residues.drift + 4.0 * d * eps * np.linalg.norm(power) * inverse_norm * extent
    frac_error = 2.0 * d * eps * np.abs(power).sum(axis=1).max()
    slack = np.sqrt(d) * (drift + frac_error * inverse_norm)
    slack += 64.0 * eps * (window + extent)
    radius = (tile.cell_radius + slack) * (1.0 + 1e-6)
    offsets = _offsets(power, gram, radius * (1.0 + 1e-9))  # covers the prefilter's rounding
    if offsets is None:
        return None
    offset_gram = offsets @ gram
    offset_norm2 = (offset_gram * offsets).sum(axis=1)

    def count(x):
        ax = x @ power.T
        base = np.floor(ax)
        frac = ax - base
        # ||A^-n (e - frac)||^2, expanded so that one product covers every offset
        near = offset_norm2 - 2.0 * (frac @ offset_gram.T)
        near += ((frac @ gram) * frac).sum(axis=1)[:, None]
        keep = near <= radius**2
        sample = np.repeat(np.arange(len(x)), keep.sum(axis=1))
        j = np.flatnonzero(keep) % len(offsets)
        base = base.astype(np.int64)
        g, k = residues.locate([base[:, i][sample] + offsets[:, i][j] for i in range(d)])
        hit = _distance(tile.points, g, [x[:, i][sample] - k[i] for i in range(d)])
        hit = hit <= tile.cell_radius
        for k_i in k:
            hit &= np.abs(k_i) <= window
        # a translate hit by several cloud points counts once
        rows = [r[hit] for r in [sample] + k]
        order = np.lexsort(rows)
        rows = [r[order] for r in rows]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = np.any([r[1:] != r[:-1] for r in rows], axis=0)
        return np.bincount(np.bincount(rows[0][fresh], minlength=len(x)), minlength=2)

    return max(1, CENSUS_BUDGET // len(offsets)), count


def _tree_census(tile):
    """Chunk size and count function of the digit-tree census.

    It tests (sample, translate) pairs: the window translates k within
    cell_radius + reach[0] of x minus the first cloud point in each
    axis. A pair starts at the level-0 block, the whole cloud. A block
    whose first point passes the hit test marks its pair hit; a block
    whose first point is more than cell_radius + reach[j] away is
    dropped whole; any other block splits into its q sub-blocks. At
    level n a block is one point, so a pair is hit exactly when some
    cloud point passes the test. The translates are listed in pieces of
    at most CENSUS_BUDGET pairs, so memory does not grow with the window.
    """
    points, radius, window = tile.points, tile.cell_radius, tile.window
    d, q, n = tile.matrix.dim, tile.matrix.det_abs, tile.level
    reach = tile._reach
    ball = (radius + reach[0]) * (1.0 + 1e-9)
    side = min(int(2.0 * ball) + 3, 2 * window + 1)
    if side**d > TRANSLATE_GUARD:
        raise TooLarge(
            "the census would test %d translates per sample, above the guard %d"
            % (side**d, TRANSLATE_GUARD)
        )

    def hits(y):
        """Which of the points y (one row per pair) pass the hit test."""
        hit = np.zeros(len(y), dtype=bool)
        stack = [(0, np.arange(len(y)), np.zeros(len(y), dtype=np.int64))]
        while stack:
            j, pair, block = stack.pop()
            live = ~hit[pair]
            pair, block = pair[live], block[live]
            if len(pair) > CENSUS_BUDGET:
                half = len(pair) // 2
                stack += [(j, pair[:half], block[:half]), (j, pair[half:], block[half:])]
                continue
            dist = _distance(points, block * q ** (n - j), y[pair].T)
            near = dist <= radius
            hit[pair[near]] = True
            split = ~near & (dist <= (radius + reach[j]) * (1.0 + 1e-9))
            if j < n and split.any():
                children = (block[split, None] * q + np.arange(q)).ravel()
                stack.append((j + 1, np.repeat(pair[split], q), children))
        return hit

    def count(x):
        # clamping the first candidate to -window keeps the window covered
        # when the ball is wider than the window
        first = np.maximum(np.floor(x - points[0] - ball), -window).astype(np.int64)
        per_sample = np.zeros(len(x), dtype=np.int64)
        step = max(1, CENSUS_BUDGET // len(x))
        for start in range(0, side**d, step):
            cells = np.arange(start, min(start + step, side**d))
            k = first[:, None, :] + np.stack(np.unravel_index(cells, (side,) * d), axis=-1)
            inside = (np.abs(k) <= window).all(axis=2)
            hit = np.zeros(inside.shape, dtype=bool)
            hit[inside] = hits((x[:, None, :] - k)[inside])
            per_sample += hit.sum(axis=1)
        return np.bincount(per_sample, minlength=2)

    return max(1, CENSUS_BUDGET // side**d), count


def check_tiling(tile, samples, seed, threads=None):
    """Monte Carlo check of the unit-translate tiling identity.

    Draws uniform points x in [0,1)^d and counts lattice translates k
    in the window |k|_inf <= tile.window with x - k within cell_radius
    of some cloud point. For an exact tile the count is 1 away from the
    boundary, so fraction(count=1) must climb toward 1 as the level
    grows. Deterministic for any thread count.

    The lattice census (_lattice_census) finds the candidates through
    the residue table; where the cell radius is far above the lattice
    spacing, or the keys do not fit in int64, the digit-tree census
    (_tree_census) walks the window translates instead. Both apply the
    float test ||b_g - (x - k)||_2 <= cell_radius and drop candidates
    only where it provably fails, so the histogram equals the one from
    querying every window translate.
    """
    samples = int(samples)
    if samples < 0:
        raise InputError("samples must be >= 0")
    d = tile.matrix.dim
    stats = CoverageStats(tile.level, samples, int(seed), tile.cell_radius, tile.window)
    if samples == 0:
        return stats
    chunk, count = _lattice_census(tile) or _tree_census(tile)

    def worker(run):
        x = rng.run_draw(seed, run, lambda gen, count: gen.random((count, d)))()
        return [count(x[i : i + chunk]) for i in range(0, len(x), chunk)]

    parts = [p for counts in rng.map_blocks(samples, worker, threads) for p in counts]
    width = max(len(p) for p in parts)
    total = np.zeros(width, dtype=np.int64)
    for p in parts:  # integer adds are order-exact
        total[: len(p)] += p
    stats.histogram = {int(i): int(c) for i, c in enumerate(total) if c > 0}
    return stats


def check_self_affinity(tile):
    """Fraction of level-n points not matched by an independent cloud.

    The subdivision identity b_(g1..gn) = b_(g1..g(n-1)) + A^-n g_n
    builds the level-n cloud from level n-1 by appending the deepest
    digit. A^-n = adj(A)^n / det(A)^n comes once from exact integers
    (lattice.inverse_power), so the last level is not built by the A^-1
    step of lattice.branch_points that tile.points came from. Both clouds
    list the digit strings in the same order, first digit most
    significant, so each point is compared with the row of the same digit
    string in tile.points; it counts as matched within 1e-12 in the max
    norm. The fraction must be exactly 0. A match also confirms the row
    order that the digit-tree census relies on.
    """
    if tile.level < 2:
        raise InputError("self-affinity check needs level >= 2")
    n = tile.level
    prev = lattice.branch_points(tile.matrix, tile.digits, n - 1)
    deepest = np.array(tile.digits, dtype=float) @ lattice.inverse_power(tile.matrix, n).T
    independent = (prev[:, None, :] + deepest[None, :, :]).reshape(-1, tile.matrix.dim)
    gap = np.abs(np.subtract(independent, tile.points, out=independent), out=independent)
    return int((gap.max(axis=1) > 1e-12).sum()) / len(independent)
