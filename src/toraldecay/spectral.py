"""Trigonometric polynomials on the d-torus and the transfer operator.

The operator is implemented twice on purpose: an exact Fourier
subsampling form (frequency preimages solved in integer arithmetic) and
a spatial averaging form over digit branches. The two routes are kept
independent so each can serve as the other's oracle.
"""

import json
import math

import numpy as np

from . import lattice
from .errors import DegenerateBound, InputError, TooLarge

PRUNE_TOL = 1e-300  # exact-zero removal only; Parseval stays exact
SPATIAL_GUARD = 10**6  # max q^n branches for the spatial form
GRID_WORK_GUARD = 10**8  # max grid points x frequencies for sup scans
GOLDEN_ITERS = 48  # golden-section steps per coordinate of a sup-norm peak
MODULUS_LINE_STEPS = 1024  # d = 1: grid points on the shift segment (0, delta]
MODULUS_DIRECTIONS = 64  # d >= 2: shift directions on the sphere
MODULUS_RADII_STEPS = 32  # d >= 2: radii per shift direction
SUP_SHIFT_SCAN = 48  # d = 1: shifts scanned for the sup-norm modulus
INV_NORM_CAP = 512  # powers of A^-1 scanned before giving up on ||A^-j|| <= 1


def _freq_key(k, dim):
    if np.isscalar(k):
        k = (k,)
    key = tuple(int(v) for v in k)
    if len(key) != dim:
        raise InputError("frequency %r does not have dimension %d" % (key, dim))
    return key


def _as_points(x, dim):
    """(m, dim) float points from x, and whether x was a single point.

    A scalar (dim 1) or a 1-D input of length dim is one point. For
    dim 1 a flat 1-D array of any other length is that many points. A
    2-D input holds one point per row.
    """
    arr = np.asarray(x, dtype=float)
    if (arr.ndim == 0 and dim == 1) or (arr.ndim == 1 and len(arr) == dim):
        return arr.reshape(1, dim), True
    if arr.ndim == 1 and dim == 1:
        return arr.reshape(-1, 1), False
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise InputError("points must have dimension %d" % dim)


class TrigPolynomial:
    """Finite map frequency -> complex coefficient.

    Convention: f(x) = sum_k fhat(k) exp(2 pi i <k, x>). Coefficients of
    modulus below PRUNE_TOL are dropped, so the stored support is exact.
    """

    def __init__(self, dim, coeffs=None, real_valued=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        store = {}
        for k, c in (coeffs or {}).items():
            c = complex(c)
            if abs(c) >= PRUNE_TOL:
                store[_freq_key(k, self.dim)] = c
        self.coeffs = store
        hermitian = self._hermitian()
        if real_valued is None:
            real_valued = hermitian
        elif real_valued and not hermitian:
            raise InputError("real_valued flag set but coefficients are not hermitian")
        self.real_valued = bool(real_valued)

    def _hermitian(self):
        for k, c in self.coeffs.items():
            neg = tuple(-v for v in k)
            if abs(self.coeffs.get(neg, 0j) - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                return False
        return True

    @property
    def zero_key(self):
        return (0,) * self.dim

    def mean(self):
        return self.coeffs.get(self.zero_key, 0j)

    def centered(self):
        """Copy with the mean removed."""
        out = dict(self.coeffs)
        out.pop(self.zero_key, None)
        return TrigPolynomial(self.dim, out, real_valued=self.real_valued)

    def support(self):
        return sorted(self.coeffs)

    def freq_array(self):
        if not self.coeffs:
            return np.zeros((0, self.dim)), np.zeros(0, dtype=complex)
        keys = self.support()
        return np.array(keys, dtype=float), np.array(
            [self.coeffs[k] for k in keys], dtype=complex
        )

    def max_abs_freq(self):
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in k) for k in self.coeffs)

    def evaluate(self, x):
        """f at one point (complex) or at many points (array); see `_as_points`."""
        pts, single = _as_points(x, self.dim)
        if not self.coeffs:
            vals = np.zeros(pts.shape[0], dtype=complex)
        else:
            k, c = self.freq_array()
            vals = np.exp(2j * np.pi * (pts @ k.T)) @ c
        return complex(vals[0]) if single else vals

    @staticmethod
    def cosine(k, amplitude=1.0, dim=None):
        """amplitude * cos(2 pi <k, x>) as a hermitian pair."""
        if np.isscalar(k):
            k = (k,)
        k = tuple(int(v) for v in k)
        dim = dim or len(k)
        neg = tuple(-v for v in k)
        half = amplitude / 2.0
        if k == neg:
            return TrigPolynomial(dim, {k: amplitude})
        return TrigPolynomial(dim, {k: half, neg: half})

    def entries(self):
        """The function-file form: one {"k", "re", "im"} object per frequency."""
        return [
            {"k": list(k), "re": float(c.real), "im": float(c.imag)}
            for k, c in sorted(self.coeffs.items())
        ]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.entries(), fh, indent=1)
            fh.write("\n")

    @staticmethod
    def load(path, dim=None):
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise InputError("function file must hold a JSON list of entries")
        coeffs = {}
        for e in entries:
            try:
                k = tuple(int(v) for v in e["k"])
                coeffs[k] = complex(float(e.get("re", 0.0)), float(e.get("im", 0.0)))
            except (KeyError, TypeError) as exc:
                raise InputError("bad function file entry %r" % (e,)) from exc
            dim = dim or len(k)
        if dim is None:
            raise InputError("cannot infer dimension from an empty function file")
        return TrigPolynomial(dim, coeffs)

    def __repr__(self):
        return "TrigPolynomial(dim=%d, terms=%d)" % (self.dim, len(self.coeffs))


def transfer_fourier(f, matrix, n):
    """Exact n-step transfer: ghat(k) = fhat(A*^n k).

    For each stored frequency j the preimage k solves A*^n k = j; the
    coefficient moves iff k is integral, decided by exact adjugate
    arithmetic. No floating point touches the frequencies.
    """
    if n < 0:
        raise InputError("steps must be >= 0")
    if f.dim != matrix.dim:
        raise InputError("function and matrix dimensions differ")
    if n == 0:
        return TrigPolynomial(f.dim, dict(f.coeffs), real_valued=f.real_valued)
    star_n = lattice.mat_pow(matrix.star(), n)
    # adj(A*^n) = (adj(A)^n)^T and det(A*^n) = det(A)^n, exactly
    adj = lattice.transpose(lattice.mat_pow(matrix.adjugate, n))
    det = matrix.det**n
    out = {}
    for j, c in f.coeffs.items():
        k = lattice.exact_solve_integral(star_n, adj, det, j)
        if k is not None:
            out[k] = c
    return TrigPolynomial(f.dim, out)


def transfer_spatial_eval(f, matrix, digits, n, x):
    """Spatial form: (1/q^n) sum over gamma in D^n of f(A^-n x + b_gamma).

    Independent oracle for transfer_fourier. x is one point (returns a
    complex number) or many points (returns an array), as in `_as_points`.
    """
    if n < 0:
        raise InputError("steps must be >= 0")
    q = matrix.det_abs
    if q**n > SPATIAL_GUARD:
        raise TooLarge("q^n = %d exceeds the spatial guard %d" % (q**n, SPATIAL_GUARD))
    pts, single = _as_points(x, matrix.dim)
    if n == 0:
        vals = f.evaluate(pts)
        return complex(vals[0]) if single else vals
    a_n = np.array(lattice.mat_pow(matrix.entries, n), dtype=float)
    base = np.linalg.solve(a_n, pts.T).T  # A^-n x, well conditioned via exact A^n
    cloud = lattice.branch_points(matrix, digits, n)
    # (m, q^n, d) evaluation grid, flattened for one vectorized pass
    grid = base[:, None, :] + cloud[None, :, :]
    flat = grid.reshape(-1, matrix.dim)
    if f.coeffs:
        k, c = f.freq_array()
        vals = (np.exp(2j * np.pi * (flat @ k.T)) @ c).reshape(pts.shape[0], -1)
        out = vals.mean(axis=1)
    else:
        out = np.zeros(pts.shape[0], dtype=complex)
    return complex(out[0]) if single else out


def norm(f, r):
    """L^r(mu) norm, r in {2, inf}.

    r=2 is exact by Parseval. r=inf returns the certified grid lower
    bound; call sup_norm_bracket for the (lower, upper) pair.
    """
    if r == 2:
        return math.sqrt(sum(abs(c) ** 2 for c in f.coeffs.values()))
    if r in (np.inf, float("inf"), "inf"):
        return sup_norm_bracket(f)[0]
    raise InputError("only r in {2, inf} is supported")


def _grid_values(f, n_pts):
    """|f| on the uniform n_pts^d grid, returned as (flat values, axes)."""
    d = f.dim
    k, c = f.freq_array()
    axes = [np.arange(n_pts) / n_pts for _ in range(d)]
    if len(c) * n_pts**d > GRID_WORK_GUARD:
        raise TooLarge("sup-norm grid would need %d evaluations" % (len(c) * n_pts**d))
    if d == 1:
        vals = np.exp(2j * np.pi * np.outer(axes[0], k[:, 0])) @ c
        return np.abs(vals), axes
    if d == 2:
        e1 = np.exp(2j * np.pi * np.outer(k[:, 0], axes[0]))
        e2 = np.exp(2j * np.pi * np.outer(k[:, 1], axes[1]))
        vals = np.einsum("fm,fn->mn", c[:, None] * e1, e2)
        return np.abs(vals), axes
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    vals = np.exp(2j * np.pi * (mesh @ k.T)) @ c
    return np.abs(vals), axes


def _golden_refine(fun, lo, hi):
    """Golden-section maximization of a scalar unimodal-ish function."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(GOLDEN_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = fun(x1)
    return (a + b) / 2.0


def sup_norm_bracket(f):
    """(certified lower, l1 upper) bracket for the sup norm.

    The lower bound is a dense grid scan (at least 8 points per unit
    frequency per dimension) followed by golden-section refinement of
    each coordinate around the best grid point. The upper bound is the
    coefficient l1 norm. The true sup norm lies in between.
    """
    if not f.coeffs:
        return 0.0, 0.0
    upper = float(sum(abs(c) for c in f.coeffs.values()))
    n_pts = max(16, 8 * int(f.max_abs_freq()) + 1)
    vals, axes = _grid_values(f, n_pts)
    flat_best = int(np.argmax(vals))
    idx = np.unravel_index(flat_best, [n_pts] * f.dim)
    x = np.array([axes[i][idx[i]] for i in range(f.dim)])
    step = 1.0 / n_pts
    for _ in range(2):  # two coordinate sweeps are enough for a smooth peak
        for i in range(f.dim):

            def along(t, i=i):
                y = x.copy()
                y[i] = t
                return abs(f.evaluate(tuple(y)))

            x[i] = _golden_refine(along, x[i] - step, x[i] + step)
    lower = float(abs(f.evaluate(tuple(x))))
    lower = max(lower, float(vals.flat[flat_best]))
    return min(lower, upper), upper


class ModulusCurve:
    """Modulus-of-continuity estimates over a decreasing radius list.

    Values are certified lower bounds of the true sup over the shift
    ball; refinement metadata records the sampling density used.
    """

    def __init__(self, radii, values, norm_index, direction_count, refinement):
        self.radii = tuple(float(r) for r in radii)
        self.values = tuple(float(v) for v in values)
        self.norm_index = norm_index
        self.direction_count = int(direction_count)
        self.refinement = dict(refinement)

    def as_rows(self):
        return list(zip(self.radii, self.values))

    def check_invariants(self, f_norm, tol=1e-9):
        """Monotonicity, triangle bound, and the doubling inequality."""
        pairs = sorted(zip(self.radii, self.values))
        for (r1, v1), (r2, v2) in zip(pairs, pairs[1:]):
            if v2 < v1 - tol * max(1.0, v1):
                raise InputError(
                    "modulus not monotone: omega(%g)=%g > omega(%g)=%g"
                    % (r1, v1, r2, v2)
                )
        lookup = dict(pairs)
        for r, v in pairs:
            if v > 2.0 * f_norm * (1.0 + tol):
                raise InputError("modulus exceeds the triangle bound 2||f||")
            double = lookup.get(2.0 * r)
            if double is not None and double > 2.0 * v * (1.0 + tol):
                raise InputError("doubling inequality omega(2d) <= 2 omega(d) fails")
        return True


def _directions(dim, count):
    """Fixed direction schedule on the unit sphere (no RNG in this module)."""
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        th = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    # spherical Fibonacci points for dim 3, axis/diagonal fallback beyond
    if dim == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        theta = np.pi * (1.0 + math.sqrt(5.0)) * i
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    dirs = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    diag = np.ones(dim) / math.sqrt(dim)
    dirs.append(diag)
    dirs.append(-diag)
    return np.array(dirs)


def _pattern_search(objective, v0, delta, step0, dim, tol_factor=1e-14, iters=200):
    """Coordinate pattern search inside the Euclidean ball |v| <= delta."""
    v = np.array(v0, dtype=float)
    best = objective(v)
    step = step0
    it = 0
    while step > delta * tol_factor and it < iters:
        improved = False
        for i in range(dim):
            for s in (step, -step):
                cand = v.copy()
                cand[i] += s
                nrm = np.linalg.norm(cand)
                if nrm > delta:
                    cand *= delta / nrm
                val = objective(cand)
                if val > best:
                    best, v = val, cand
                    improved = True
        if not improved:
            step *= 0.5
        it += 1
    return best, v


def modulus_value(f, r, delta, saturate=False):
    """One certified lower estimate of Omega_{f,r}(delta).

    Shifts live on the torus, so for saturate=True the scan radius is
    capped at sqrt(d)/2, beyond which the ball of shifts already covers
    every torus displacement and the modulus is constant.
    """
    if delta <= 0:
        raise InputError("delta must be positive")
    d = f.dim
    if not f.coeffs:
        return 0.0
    cap = math.sqrt(d) / 2.0
    d_eff = min(delta, cap) if saturate else delta
    if r == 2:
        freqs, c = f.freq_array()
        wsq = np.abs(c) ** 2
        if d == 1:
            grid = np.linspace(0.0, d_eff, MODULUS_LINE_STEPS + 1)[1:]
            vals = 4.0 * (wsq @ np.sin(np.pi * freqs @ grid[None, :]) ** 2)
            v0 = np.array([grid[int(np.argmax(vals))]])
            obj = lambda v: float(
                4.0 * (wsq @ np.sin(np.pi * (freqs @ v)) ** 2)
            )
            best, _ = _pattern_search(obj, v0, d_eff, d_eff / MODULUS_LINE_STEPS, 1)
            return math.sqrt(max(best, float(np.max(vals))))
        dirs = _directions(d, MODULUS_DIRECTIONS)
        rads = d_eff * (np.arange(1, MODULUS_RADII_STEPS + 1) / MODULUS_RADII_STEPS)
        pts = (dirs[:, None, :] * rads[None, :, None]).reshape(-1, d)
        vals = 4.0 * (wsq @ np.sin(np.pi * (freqs @ pts.T)) ** 2)
        v0 = pts[int(np.argmax(vals))]
        obj = lambda v: float(4.0 * (wsq @ np.sin(np.pi * (freqs @ v)) ** 2))
        best, _ = _pattern_search(obj, v0, d_eff, d_eff / MODULUS_RADII_STEPS, d)
        return math.sqrt(max(best, float(np.max(vals))))
    if r in (np.inf, float("inf"), "inf"):
        return _omega_sup(f, d_eff)
    raise InputError("only r in {2, inf} is supported")


def _shift_diff_poly(f, v):
    """Coefficients of f(. + v) - f: c_k (exp(2 pi i <k,v>) - 1)."""
    out = {}
    for k, c in f.coeffs.items():
        factor = np.exp(2j * np.pi * float(np.dot(k, v))) - 1.0
        out[k] = c * factor
    return TrigPolynomial(f.dim, out)


def _omega_sup(f, delta):
    """Grid-sampled sup-norm differences, maximized over the shift ball."""
    d = f.dim
    if d == 1:
        shifts = np.linspace(0.0, delta, SUP_SHIFT_SCAN + 1)[1:, None]
    else:
        dirs = _directions(d, 16)
        rads = delta * (np.arange(1, 9) / 8.0)
        shifts = (dirs[:, None, :] * rads[None, :, None]).reshape(-1, d)
    best = 0.0
    best_v = shifts[-1]
    for v in shifts:
        val = sup_norm_bracket(_shift_diff_poly(f, v))[0]
        if val > best:
            best, best_v = val, v
    obj = lambda v: sup_norm_bracket(_shift_diff_poly(f, v))[0]
    best2, _ = _pattern_search(obj, best_v, delta, delta / 16.0, d, 1e-6, 60)
    return max(best, best2)


def modulus(f, r, radii):
    """Modulus-of-continuity curve over a list of radii in (0, 1/2].

    For r=2 the exact Parseval identity for the shifted difference is
    maximized over the ball |v| <= delta by direction sampling plus
    pattern-search refinement; for r=inf grid-sampled sup differences
    are maximized. Values are certified lower bounds of the true sup.
    """
    radii = sorted({float(x) for x in radii}, reverse=True)
    if not radii:
        raise InputError("need at least one radius")
    if radii[0] > 0.5 or radii[-1] <= 0.0:
        raise InputError("radii must lie in (0, 1/2]")
    values = [modulus_value(f, r, delta) for delta in radii]
    one_d = f.dim == 1
    return ModulusCurve(
        radii, values, r, 1 if one_d else MODULUS_DIRECTIONS,
        {"radial_steps": MODULUS_LINE_STEPS if one_d else MODULUS_RADII_STEPS,
         "refinement": "pattern-search"},
    )


def inv_norm_sup(matrix):
    """G = sup over j >= 0 of ||A^-j||_2, a finite expansion constant.

    Scans j upward; once some ||A^-j|| <= 1 every later value is bounded
    by the running max, so the scan can stop. Used to certify when the
    frequency support of a transferred polynomial has fully escaped a
    bounded window.
    """
    g = 1.0
    for j in range(1, INV_NORM_CAP + 1):
        val = 1.0 / min_singular_power(matrix, j)
        g = max(g, val)
        if val <= 1.0:
            return g
    raise DegenerateBound("||A^-j|| did not fall below 1 within %d powers" % INV_NORM_CAP)


def min_singular_power(matrix, n):
    """Smallest singular value of A^n (equals that of A*^n)."""
    a_n = np.array(lattice.mat_pow(matrix.entries, n), dtype=float)
    return float(np.linalg.svd(a_n, compute_uv=False)[-1])
