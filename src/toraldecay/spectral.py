"""Trigonometric polynomials on the d-torus and the transfer operator.

The operator is implemented twice on purpose: an exact Fourier
subsampling form (frequency preimages solved in integer arithmetic) and
a spatial averaging form over digit branches. The two routes are kept
independent so each can serve as the other's oracle.
"""

import itertools
import json
import math

import numpy as np

from . import lattice, serialize
from .errors import InputError, TooLarge

PRUNE_TOL = 1e-300  # exact-zero removal only; Parseval stays exact
SPATIAL_GUARD = 2**22  # max points x q^n x (d + |support|) elements per spatial chunk
GRID_WORK_GUARD = 10**8  # max grid points x frequencies per row of a sup scan
ROOT_TABLE_GUARD = 2**28  # max bytes of a sup scan's root table: 2^24 points of 16 bytes
GRID_CHUNK = 2**14  # max grid values (rows x points) one sup-norm grid call holds: ~73 bytes each
SUP_NEWTON_STEPS = 16  # damped Newton steps that polish a sup-norm grid peak
MODULUS_LINE_STEPS = 1024  # d = 1: grid points on the shift segment (0, delta]
MODULUS_DIRECTIONS = 64  # d >= 2: shift directions on the sphere
MODULUS_RADII_STEPS = 32  # d >= 2: radii per shift direction
MODULUS_SCAN_CHUNK = 2**20  # max values of one r = 2 start-scan slab or search group
MODULUS_EXPLORE_TOL = 1e-3  # r = 2 pattern search stops once its step is this * delta
MODULUS_EXPLORE_SWEEPS = 30  # ... or after this many sweeps
MODULUS_NEWTON_STEPS = 40  # safeguarded Newton steps that finish an r = 2 search
SUP_SHIFT_SCAN = 48  # d = 1: shifts scanned for the sup-norm modulus
SUP_SHIFT_DIRECTIONS = 16  # d >= 2: shift directions of the sup-norm modulus scan
SUP_SHIFT_RADII = 8  # d >= 2: radii per direction of that scan
INV_NORM_CAP = 2048  # powers A^-k any scan of ||A^-k||_2 reads before TooLarge
# Coefficient rows whose largest |c| lies in [2^-SCALE_EXP, 2^SCALE_EXP) are searched
# as they are; others are rescaled by a power of two (`_unit_scale`), since their
# squares and the Newton gradients leave float range.
SCALE_EXP = 100
_TURN = 2.0 * math.pi * 2.0**-64  # radians per unit of a 64-bit phase word


def _freq_key(k, dim):
    if type(k) is tuple and all(type(v) is int for v in k):
        key = k  # already exact, as every key of a transfer step is
    else:
        key = tuple(int(v) for v in ((k,) if np.isscalar(k) else k))
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
    Every coefficient part and sum |fhat(k)|^2 must be finite.
    """

    def __init__(self, dim, coeffs=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        items = [(k, complex(c)) for k, c in (coeffs or {}).items()]
        # products, not ** 2, which raises OverflowError instead of giving inf
        if not math.isfinite(sum(c.real * c.real + c.imag * c.imag for _, c in items)):
            raise InputError("coefficients must be finite with a finite sum of |c|^2")
        self.coeffs = {_freq_key(k, self.dim): c for k, c in items if abs(c) >= PRUNE_TOL}
        self.real_valued = self._hermitian()

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
        return TrigPolynomial(self.dim, out)

    def support(self):
        return sorted(self.coeffs)

    def freq_array(self):
        if not self.coeffs:
            return np.zeros((0, self.dim)), np.zeros(0, dtype=complex)
        keys = self.support()
        return np.array(keys, dtype=float), np.array(
            [self.coeffs[k] for k in keys], dtype=complex
        )

    def evaluate(self, x):
        """f at one point (complex) or at many points (array); see `_as_points`."""
        pts, single = _as_points(x, self.dim)
        k, c = self.freq_array()
        vals = np.exp(2j * np.pi * (pts @ k.T)) @ c
        return complex(vals[0]) if single else vals

    @staticmethod
    def cosine(k):
        """cos(2 pi <k, x>) as a hermitian pair."""
        if np.isscalar(k):
            k = (k,)
        k = tuple(int(v) for v in k)
        neg = tuple(-v for v in k)
        if k == neg:
            return TrigPolynomial(len(k), {k: 1.0})
        return TrigPolynomial(len(k), {k: 0.5, neg: 0.5})

    def entries(self):
        """The function-file form: one {"k", "re", "im"} object per frequency."""
        return [
            {"k": list(k), "re": float(c.real), "im": float(c.imag)}
            for k, c in sorted(self.coeffs.items())
        ]

    def save(self, path):
        serialize.write_text(path, json.dumps(self.entries(), indent=1) + "\n")

    @staticmethod
    def load(path, dim=None):
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise InputError("function file must hold a JSON list of entries")
        coeffs = {}
        for e in entries:
            try:
                k, re, im = e["k"], e.get("re", 0.0), e.get("im", 0.0)
                # JSON numbers load as exactly int or float; a boolean is a bool
                if type(k) is not list or any(type(v) not in (int, float) for v in k + [re, im]):
                    raise TypeError("k must be a list of numbers, and re and im numbers")
                c = complex(float(re), float(im))
            except (KeyError, TypeError, OverflowError) as exc:  # an int past float range
                raise InputError("bad function file entry %r" % (e,)) from exc
            if any(isinstance(v, float) and not v.is_integer() for v in k):
                raise InputError("frequency of entry %r is not an integer" % (e,))
            k = tuple(map(int, k))
            if k in coeffs:
                raise InputError("frequency %r is listed twice" % (k,))
            coeffs[k] = c
            dim = dim or len(k)
        if dim is None:
            raise InputError("cannot infer dimension from an empty function file")
        return TrigPolynomial(dim, coeffs)

    def __repr__(self):
        return "TrigPolynomial(dim=%d, terms=%d)" % (self.dim, len(self.coeffs))


def transfer_fourier(f, matrix, n):
    """Exact n-step transfer: ghat(k) = fhat(A*^n k).

    Each step moves every stored frequency j to the integral k with A* k = j,
    or drops it, by one exact integer-array product with adj(A*)
    (`lattice.exact_solve_integral`); survivors keep their order.
    A nonzero j dies within about log_lambda |j| steps and A* 0 = 0, so the
    steps stop once only k = 0 is left.
    """
    if n < 0:
        raise InputError("steps must be >= 0")
    if f.dim != matrix.dim:
        raise InputError("function and matrix dimensions differ")
    adj = lattice.transpose(matrix.adjugate)  # adj(A*), and det(A*) = det(A)
    coeffs = f.coeffs
    while n > 0 and any(map(any, coeffs)):
        kept, keys = lattice.exact_solve_integral(adj, matrix.det, list(coeffs))
        coeffs = dict(zip(keys, itertools.compress(coeffs.values(), kept)))
        n -= 1
    return TrigPolynomial(f.dim, coeffs)


def transfer_spatial_eval(f, matrix, digits, n, x):
    """Spatial form: (1/q^n) sum over gamma in D^n of f(A^-n x + b_gamma).

    Independent oracle for transfer_fourier. x is one point (returns a
    complex number) or many points (returns an array), as in `_as_points`.
    Points are evaluated in chunks of at most SPATIAL_GUARD elements of
    points x q^n x (d + |support|); TooLarge means one point's q^n
    branches alone exceed that.
    """
    if n < 0:
        raise InputError("steps must be >= 0")
    row = matrix.det_abs**n * (matrix.dim + len(f.coeffs))
    if row > SPATIAL_GUARD:
        raise TooLarge("one point needs %d elements, over the spatial guard %d"
                       % (row, SPATIAL_GUARD))
    pts, single = _as_points(x, matrix.dim)
    base = pts @ lattice.inverse_power(matrix, n).T
    cloud = lattice.branch_points(matrix, digits, n)
    out = np.zeros(pts.shape[0], dtype=complex)
    chunk = SPATIAL_GUARD // row
    for lo in range(0, pts.shape[0], chunk):
        # (chunk, q^n, d) evaluation grid, flattened for one vectorized pass
        grid = base[lo:lo + chunk, None, :] + cloud[None, :, :]
        vals = f.evaluate(grid.reshape(-1, matrix.dim)).reshape(len(grid), -1)
        out[lo:lo + chunk] = vals.mean(axis=1)
    return complex(out[0]) if single else out


def _is_l2(r):
    """True for r = 2, False for r = inf (np.inf, float("inf") or "inf"), else InputError."""
    if r not in (2, np.inf, float("inf"), "inf"):
        raise InputError("only r in {2, inf} is supported")
    return r == 2


def norm(f, r):
    """L^r(mu) norm, r in {2, inf}.

    r=2 is exact by Parseval, summed on the coefficients as `_unit_scale`
    leaves them and scaled back. r=inf returns the certified lower bound;
    call sup_norm_bracket for the (lower, upper) pair.
    """
    if _is_l2(r):
        c, e = _unit_scale(np.array(list(f.coeffs.values()), dtype=complex))
        return math.ldexp(math.sqrt(sum(abs(v) ** 2 for v in c.tolist())), int(e))
    return sup_norm_bracket(f)[0]


def _cos_sin_rows(k, c):
    """The rows of c as real rows P, Q with f = sum over pairs {k, -k} of P cos + Q sin.

    With a at k and b at -k (0 if absent), P = a + b and Q = i (a - b),
    and Q = 0 at k = 0. The real parts of all rows come first, then the
    imaginary parts of the rows that have any (the mask `cplx`), so a
    hermitian row costs one real row whatever else its batch holds.
    Returns (pair frequencies, P, Q, cplx).
    """
    keys = [tuple(v) for v in k.tolist()]
    index = {key: j for j, key in enumerate(keys)}
    pos, neg = [], []
    for j, key in enumerate(keys):
        minus = tuple(-v for v in key)
        if key >= minus or minus not in index:  # each pair once
            pos.append(j)
            neg.append(index.get(minus, len(keys)) if any(key) else len(keys))
    padded = np.concatenate([c, np.zeros((len(c), 1))], axis=1)
    lead, rear = padded[:, pos], padded[:, neg]
    big_p = lead + rear
    big_q = 1j * (lead - rear) * np.array([any(keys[j]) for j in pos])
    cplx = np.any(big_p.imag != 0.0, axis=1) | np.any(big_q.imag != 0.0, axis=1)
    return (k[pos], np.concatenate([big_p.real, big_p.imag[cplx]]),
            np.concatenate([big_q.real, big_q.imag[cplx]]), cplx)


def _root_table(n_pts):
    """exp(2 pi i j / n_pts) for j = 0..n_pts - 1, the angle taken in (-pi, pi].

    Entries are filled GRID_CHUNK at a time, each by the same elementwise
    expression, so no temporary is n_pts long.
    """
    roots = np.empty(n_pts, dtype=complex)
    for lo in range(0, n_pts, GRID_CHUNK):
        i = np.arange(lo, min(lo + GRID_CHUNK, n_pts))
        roots[lo:lo + len(i)] = np.exp(2j * np.pi * (np.where(2 * i > n_pts, i - n_pts, i) / n_pts))
    return roots


def _grid_values(k, c, roots, lead, cols):
    """|f| of each row of c on one slab of the uniform n^d grid, n = len(roots), and each row's argmax.

    k is the (m, d) int64 frequency set of the (rows, m) coefficients c.
    The slab holds the points whose leading indices (i_0, ..., i_{d-2}),
    flattened in C order, lie in the range `lead` (range(1) for d = 1)
    and whose last index lies in the range `cols`. The phase k_a i mod n
    of grid coordinate i / n is an exact integer into `roots`
    (`_root_table`). One pair at a time, the axes are contracted through
    U = P cos + Q sin and V = Q cos - P sin (see `_cos_sin_rows`), and
    the pairs are added in order by elementwise multiply-adds, so a value
    depends neither on the other rows nor on the slab, and every array
    is a row or a slab long. Returns ((rows, len(lead) * len(cols))
    values in flat order, argmax of each row).
    """
    kp, big_u, big_v, cplx = _cos_sin_rows(k, c)
    n_pts, d = len(roots), kp.shape[1]
    p = np.arange(lead.start, lead.stop)
    leading = [p // n_pts ** (d - 2 - a) % n_pts for a in range(d - 1)]
    i = np.arange(cols.start, cols.stop)
    out = np.zeros((len(big_u), len(p), len(i)))  # 0 + x is x up to a zero's sign, which |.| drops
    tmp = np.empty_like(out)
    for j, kj in enumerate(kp):
        u, v = big_u[:, j, None], big_v[:, j, None]
        for a, i_a in enumerate(leading):
            tab = roots[kj[a] % n_pts * i_a % n_pts]
            u, v = u * tab.real + v * tab.imag, v * tab.real - u * tab.imag
        tab = roots[kj[-1] % n_pts * i % n_pts]
        out += np.multiply(u[:, :, None], tab.real, out=tmp)
        out += np.multiply(v[:, :, None], tab.imag, out=tmp)
    out = out.reshape(len(out), -1)
    vals = np.abs(out[:len(cplx)])
    vals[cplx] = np.hypot(out[:len(cplx)][cplx], out[len(cplx):])
    return vals, np.argmax(vals, axis=1)


def _peak_slope(kw, kt, kkt, c, x):
    """|f|, and the gradient and Hessian of |f|^2, at the point x of each row of c.

    x and kw are uint64 words (x in units of 2^-64 turns), so the phase
    <k, x> mod 1 is an exact wrapping sum. With f' = 2 pi i sum c_k e(k.x) k
    and f'' = -4 pi^2 sum c_k e(k.x) k k^T, the gradient is 2 Re(conj(f) f')
    and the Hessian 2 Re(conj(f') f'^T + conj(f) f''). Sums run along each
    row's own last axis, so rows stay independent.
    """
    phase = x[:, None, 0] * kw[None, :, 0]
    for a in range(1, x.shape[1]):
        phase += x[:, None, a] * kw[None, :, a]
    ce = c * np.exp(1j * (phase.view(np.int64) * _TURN))
    f = np.sum(ce, axis=1)
    df = (2j * np.pi) * np.sum(ce[:, None, :] * kt, axis=2)
    d2f = (-4.0 * np.pi**2) * np.sum(ce[:, None, :] * kkt, axis=2).reshape(df.shape + df.shape[1:])
    cf = np.conj(f)
    grad = 2.0 * (cf[:, None] * df).real
    hess = 2.0 * (np.conj(df)[:, :, None] * df[:, None, :] + cf[:, None, None] * d2f).real
    return np.abs(f), grad, hess


def _freq_products(k):
    """k^T as a contiguous (d, m) float array, and the (d * d, m) products k_a k_b."""
    kt = np.ascontiguousarray(k.T, dtype=float)  # each sum over frequencies runs along a row
    return kt, (kt[:, None, :] * kt[None, :, :]).reshape(-1, k.shape[0])


def _lm_step(neg, rhs, grad, damp, cap):
    """Levenberg-Marquardt step p = (neg + mu I)^-1 rhs of each row, at most `cap` long.

    neg is minus the model Hessian, mu = max(0, -min eig) + damp (max |eig| + |grad| / cap),
    and an eigen-direction without a positive denominator gets no step. Returns p and its
    length before the cap.
    """
    lam, q = np.linalg.eigh(neg)
    scale = np.abs(lam).max(axis=1) + np.sqrt(_dot_last(grad, grad)) / cap
    denom = lam + (np.maximum(0.0, -lam[:, 0]) + damp * scale)[:, None]
    qtr = _dot_last(np.swapaxes(q, 1, 2), rhs[:, None, :])
    coef = np.divide(qtr, denom, out=np.zeros_like(qtr), where=denom > 0.0)
    p = _dot_last(q, coef[:, None, :])
    length = _row_norms(p)
    p *= (cap / np.maximum(length, cap))[:, None]
    return p, length


def _redamp(damp, rows, up):
    """Divide the damping of `rows` by 10 (not below 1e-15) where their step was
    kept (`up`), multiply it by 10 where it was refused; True where it stays <= 1e6."""
    damp[rows] = np.where(up, np.maximum(damp[rows] * 0.1, 1e-15), damp[rows] * 10.0)
    return damp[rows] <= 1e6


def _polish(k, c, x, cap):
    """Lockstep damped Newton ascent of |f|^2 from the point x of each row of c.

    Each step is a `_lm_step` at most `cap` long, kept only if |f|
    rises, with the damping updated by `_redamp`. A row stops once the
    model predicts a rise below rounding, once its damping passes 1e6,
    or after SUP_NEWTON_STEPS steps. Returns |f| at each row's best point.
    """
    kw = k.view(np.uint64)
    kt, kkt = _freq_products(k)
    val, grad, hess = _peak_slope(kw, kt, kkt, c, x)
    damp = np.full(len(c), 1e-3)
    live = np.ones(len(c), dtype=bool)
    for _ in range(SUP_NEWTON_STEPS):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        g = grad[rows]
        p, _ = _lm_step(-hess[rows], g, g, damp[rows], cap)
        worth = 0.5 * _dot_last(g, p) > 1e-15 * val[rows] ** 2  # the model's rise of |f|^2
        live[rows[~worth]] = False
        rows, p = rows[worth], p[worth]
        if rows.size == 0:
            break
        trial = x[rows] + np.rint(p * 2.0**64).astype(np.int64).view(np.uint64)
        t_val, t_grad, t_hess = _peak_slope(kw, kt, kkt, c[rows], trial)
        up = t_val > val[rows]
        kept = rows[up]
        x[kept], val[kept], grad[kept], hess[kept] = trial[up], t_val[up], t_grad[up], t_hess[up]
        live[rows] = _redamp(damp, rows, up)
    return val


def _unit_scale(c):
    """(c 2^-e, e) with one exponent e per row of c (its last axis).

    e is 0 where the row's largest |c| lies in [2^-SCALE_EXP, 2^SCALE_EXP)
    or is 0, so such a row keeps its bits; elsewhere e brings that largest
    |c| into [1/2, 1). The real and imaginary parts are scaled by ldexp,
    which is exact unless a part falls below the normal range, where it
    is negligible against the row's largest entry.
    """
    top = np.abs(c).max(axis=-1, initial=0.0)
    e = np.frexp(top)[1]
    e = np.where((top > 0.0) & ((e > SCALE_EXP) | (e <= -SCALE_EXP)), e, 0)
    out = np.empty_like(c)
    out.real = np.ldexp(c.real, -e[..., None])
    out.imag = np.ldexp(c.imag, -e[..., None])
    return out, e


def _sup_lower(k, c):
    """Certified lower bound of sup |f| for each row of c, on the frequencies k of `freq_array`.

    A row's bound is the larger of its best value on the grid of
    n = max(16, 8 max|k| + 1) points per axis and |f| where `_polish`
    ends from that point, each |f| at a point evaluated to rounding. A
    row is searched as `_unit_scale` leaves it, and its bound is scaled
    back. TooLarge means one row's grid values x frequencies exceed
    GRID_WORK_GUARD, or the root table's bytes exceed ROOT_TABLE_GUARD.
    The grid is scanned by `_grid_values` in calls of at most GRID_CHUNK
    grid values: several whole-grid rows while a row fits, else one row
    on slabs of leading indices (d >= 2) or columns (d = 1), walked in
    flat order. A strict > across slabs keeps the first flat argmax. A
    row's value does not depend on the other rows.
    """
    m, d = k.shape
    n_pts = max(16, 8 * int(np.abs(k).max()) + 1)
    row = m * n_pts**d
    if row > GRID_WORK_GUARD:
        raise TooLarge("sup-norm grid would need %d evaluations" % row)
    if 16 * n_pts > ROOT_TABLE_GUARD:
        raise TooLarge("sup-norm root table of %d points would take %d bytes"
                       % (n_pts, 16 * n_pts))
    k = k.astype(np.int64)
    c, e = _unit_scale(c)
    roots = _root_table(n_pts)
    n_lead = n_pts ** (d - 1)
    rows = max(1, GRID_CHUNK // n_pts**d)
    lead_step, col_step = max(1, GRID_CHUNK // n_pts), min(n_pts, GRID_CHUNK)
    best = np.full(len(c), -np.inf)
    flat = np.zeros(len(c), dtype=np.int64)
    for lo, a, b in itertools.product(range(0, len(c), rows), range(0, n_lead, lead_step),
                                      range(0, n_pts, col_step)):
        lead, cols = range(a, min(a + lead_step, n_lead)), range(b, min(b + col_step, n_pts))
        vals, idx = _grid_values(k, c[lo:lo + rows], roots, lead, cols)
        top = vals[np.arange(len(idx)), idx]
        up = top > best[lo:lo + rows]
        best[lo:lo + rows][up] = top[up]
        flat[lo:lo + rows][up] = (a + idx[up] // len(cols)) * n_pts + b + idx[up] % len(cols)
    start = np.stack(np.unravel_index(flat, (n_pts,) * d), axis=1)
    # grid index i as a 64-bit turn word, from i / n_pts in [-1/2, 1/2)
    start = np.where(2 * start >= n_pts, start - n_pts, start)
    x = np.rint(start / n_pts * 2.0**64).astype(np.int64).view(np.uint64)
    return np.ldexp(np.maximum(best, _polish(k, c, x, 1.0 / n_pts)), e)


def _independent_pairs(f):
    """(pair frequencies, adj(G), det(G)) if f's pair frequencies are linearly independent, else None.

    The pair frequencies are one of each +-k, k != 0, that f holds, and G
    is their Gram matrix, formed in exact integers; they are independent
    when det(G) != 0 (1 for no pairs). One pair always is, and more pairs
    than d never are.
    """
    pairs = []
    for k in f.coeffs:
        neg = tuple(-v for v in k)
        if any(k) and (k > neg or neg not in f.coeffs):
            pairs.append(k)
    if len(pairs) > f.dim:
        return None
    gram = [[sum(a * b for a, b in zip(p, q)) for q in pairs] for p in pairs]
    poly, adj = lattice.char_poly_and_adjugate(gram)
    det = poly[-1] * (-1) ** len(pairs)
    return (pairs, adj, det) if det else None


def _independent_real(f):
    """True if f is exactly real and its pair frequencies are linearly independent.

    Exactly real: each coefficient at k != 0 has its exact conjugate at
    -k, and the one at k = 0 is real. Independence is `_independent_pairs`.
    """
    coeffs = f.coeffs
    if coeffs.get(f.zero_key, 0j).imag != 0.0:
        return False
    if any(any(k) and coeffs.get(tuple(-v for v in k)) != c.conjugate()
           for k, c in coeffs.items()):
        return False
    return _independent_pairs(f) is not None


def sup_norm_bracket(f):
    """(certified lower, l1 upper) bracket for the sup norm.

    The upper bound is the coefficient l1 norm. Where `_independent_real`
    holds, f = c_0 + sum_j 2 |c_j| cos(2 pi (k_j.x + phi_j)) and x -> (k_j.x)_j
    maps the torus onto every phase combination, so the sup is the l1
    norm and the bracket is (l1, l1), with no grid. Otherwise the lower
    bound is the one-row case of `_sup_lower`: a grid scan with at least 8
    points per unit frequency per axis, polished by a damped Newton
    ascent. The true sup norm lies in between.
    """
    if not f.coeffs:
        return 0.0, 0.0
    upper = float(sum(abs(c) for c in f.coeffs.values()))
    if _independent_real(f):
        return upper, upper
    k, c = f.freq_array()
    lower = float(_sup_lower(k, c[None, :])[0])
    return min(lower, upper), upper


class ModulusCurve:
    """Modulus-of-continuity estimates over a decreasing radius list: certified
    lower bounds of the true sup over the shift ball."""

    def __init__(self, radii, values):
        self.radii = tuple(float(r) for r in radii)
        self.values = tuple(float(v) for v in values)

    def as_rows(self):
        return list(zip(self.radii, self.values))

    def check_invariants(self, f_norm):
        """Monotonicity, triangle bound, and the doubling inequality, to a relative 1e-9."""
        tol = 1e-9
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


def _row_norms(v):
    """Euclidean norm of each row of v, each summed as np.linalg.norm sums one vector.

    A row whose sum of squares leaves the normal range (norm below
    2^-511) is summed again scaled by 2^600, which is exact, so a tiny
    nonzero row does not get norm 0; the other rows are left as summed.
    """
    def norms(x):
        return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])

    out = norms(v)
    tiny = out < 2.0**-511
    if tiny.any():
        out[tiny] = np.ldexp(norms(np.ldexp(v[tiny], 600)), -600)
    return out


def _dot_last(a, b):
    """sum_j a[..., j] * b[..., j] over a short last axis, added in index order."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j] * b[..., j]
    return out


def _onto_ball(v, rad):
    """v with each row longer than its radius in `rad` scaled back onto that sphere (in place)."""
    nrm = _row_norms(v)
    out = nrm > rad
    if out.any():
        v[out] *= (rad[out] / nrm[out])[:, None]
    return v


def _on_sphere(nrm, rad):
    """True where a norm lies on its radius's sphere, to a relative 1e-12."""
    return nrm >= rad * (1.0 - 1e-12)


def _pattern_search(objective, v0, delta, step0, tol_factor, iters):
    """Coordinate pattern searches inside the balls |v| <= delta, one per row of v0.

    The searches run in lockstep, each with its own delta and step. A
    sweep tries +step and -step along each axis in turn and takes every
    move that raises the objective; a sweep without a move halves the
    step. A search stops once its step is at most tol_factor * delta, or
    after `iters` sweeps. `objective` maps (m, d) points to m values.
    Returns the best values and their points.
    """
    v = np.array(v0, dtype=float)
    delta = np.asarray(delta, dtype=float)
    step = np.array(step0, dtype=float)
    best = objective(v)
    for _ in range(iters):
        rows = np.flatnonzero(step > delta * tol_factor)
        if rows.size == 0:
            break
        x, val_x, h, rad = v[rows], best[rows], step[rows], delta[rows]
        moved = np.zeros(rows.size, dtype=bool)
        for i in range(v.shape[1]):
            for s in (h, -h):
                cand = x.copy()
                cand[:, i] += s
                val = objective(_onto_ball(cand, rad))
                up = val > val_x
                if up.any():
                    val_x = np.where(up, val, val_x)
                    x[up] = cand[up]
                    moved |= up
        v[rows], best[rows] = x, val_x
        step[rows[~moved]] *= 0.5
    return best, v


def _l2_objective(k, w):
    """F(v) = ||f(. + v) - f||_2^2 = 4 sum_k w_k sin^2(pi k.v), with w_k = |fhat(k)|^2.

    The function maps (m, d) shifts to m values using only elementwise
    products and sums over the last axis, so a row's value does not
    depend on the other rows.
    """
    return lambda v: 4.0 * np.sum(w * np.sin(np.pi * _dot_last(v[:, None, :], k)) ** 2, axis=1)


def _l2_slope(k, w, v):
    """Gradient 4 pi sum w_k sin(2 pi k.v) k and Hessian 8 pi^2 sum w_k cos(2 pi k.v) k k^T."""
    t = 2.0 * np.pi * _dot_last(v[:, None, :], k)
    kt, kkt = _freq_products(k)
    grad = np.sum((w * np.sin(t))[:, None, :] * kt, axis=2) * (4.0 * np.pi)
    hess = np.sum((w * np.cos(t))[:, None, :] * kkt, axis=2) * (8.0 * np.pi**2)
    return grad, hess.reshape(len(v), k.shape[1], k.shape[1])


def _newton_ascent(k, w, objective, v, best, delta):
    """Safeguarded Newton ascent of F from each row of v inside |v| <= delta.

    An interior row takes a Levenberg-Marquardt-damped Newton step
    (`_lm_step`, at most delta long). A row on the sphere whose gradient g
    points outward takes the tangent-space step instead: P = I - u u^T,
    model Hessian P H P - (u.g / delta) P, then the retraction
    v <- delta (v + p) / |v + p|. A step is kept only if F rises, with
    the damping updated by `_redamp`. A row stops after a refused step
    shorter than 1e-8 delta, or once its damping passes 1e6. Returns the
    best values.
    """
    m, d = v.shape
    eye = np.eye(d)
    damp = np.full(m, 1e-3)
    live = np.ones(m, dtype=bool)
    for _ in range(MODULUS_NEWTON_STEPS):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        x, rad = v[rows], delta[rows]
        grad, hess = _l2_slope(k, w, x)
        nrm = _row_norms(x)
        u = x / np.where(nrm > 0.0, nrm, 1.0)[:, None]
        ug = _dot_last(u, grad)
        rim = _on_sphere(nrm, rad) & (ug > 0.0)
        uu = u[:, :, None] * u[:, None, :]
        hu = _dot_last(hess, u[:, None, :])
        tangent = (hess - u[:, :, None] * hu[:, None, :] - hu[:, :, None] * u[:, None, :]
                   + _dot_last(u, hu)[:, None, None] * uu
                   - (ug / rad)[:, None, None] * (eye - uu))
        # minus the model Hessian; on the rim the normal direction gets
        # curvature 1 and no gradient, so the step stays tangent
        neg = np.where(rim[:, None, None], uu - tangent, -hess)
        rhs = np.where(rim[:, None], grad - ug[:, None] * u, grad)
        p, plen = _lm_step(neg, rhs, grad, damp[rows], rad)
        trial = x + p
        tn = _row_norms(trial)
        out = rim | (tn > rad)
        trial[out] *= (rad[out] / tn[out])[:, None]
        val = objective(trial)
        up = val > best[rows]
        best[rows[up]] = val[up]
        v[rows[up]] = trial[up]
        live[rows] = up | ((plen > 1e-8 * rad) & _redamp(damp, rows, up))
    return best


def _torus_peak(pairs, adj, det):
    """The shortest v_s = K^T (K K^T)^-1 s / 2 over signs s in {1} x {+-1}^(p-1), p >= 2.

    K holds the independent pair frequencies k_j as rows, and adj and det
    are the adjugate and determinant of their Gram matrix G = K K^T, so
    k_j.v_s = s_j / 2 and every sin^2(pi k_j.v_s) is 1: F(v_s) is the
    largest value F takes. |v_s|^2 = s^T adj(G) s / (4 det(G)), with
    det(G) > 0, so s is chosen in exact integers; each entry of
    v_s = K^T adj(G) s / (2 det(G)) is one correctly rounded int quotient.
    """
    def length(s):
        return sum(a * b for a, b in zip(s, lattice.mat_vec(adj, s)))

    s = min(((1,) + t for t in itertools.product((1, -1), repeat=len(pairs) - 1)), key=length)
    y = lattice.mat_vec(adj, s)
    return np.array([sum(b * k[i] for b, k in zip(y, pairs)) / (2 * det)
                     for i in range(len(pairs[0]))])


def _omega_l2(f, radii):
    """Omega_{f,2} at each radius: sqrt of the max of F over the ball |v| <= delta.

    Each radius starts at the best point of a fixed grid of shifts (the
    segment (0, delta] for d = 1, MODULUS_DIRECTIONS directions times
    MODULUS_RADII_STEPS radii for d >= 2; F is even, so in d = 2 only the
    directions with angle in [0, pi) are scanned), evaluated in slabs of at
    most MODULUS_SCAN_CHUNK shift x frequency values. From a start inside
    the ball a lockstep pattern search runs while its step exceeds
    MODULUS_EXPLORE_TOL * delta, for at most MODULUS_EXPLORE_SWEEPS sweeps;
    a start on the sphere (`_on_sphere`, the rim test of `_newton_ascent`)
    skips it. `_newton_ascent` finishes every row, on
    groups of radii whose Hessian terms (radii x d^2 x frequencies) fit in
    MODULUS_SCAN_CHUNK values; no value depends on the group.
    Every phase keeps only points that raise F, so each value is F at a
    feasible shift: a certified lower bound. The search runs on the
    coefficients as `_unit_scale` leaves them, and the values are scaled
    back; a weight that underflows there only lowers F.

    Two routes need no scan or search, where `_independent_pairs` holds.
    A function with one nonzero frequency k up to sign (k = 0 ignored) has
    F(v) = 4 (w_k + w_-k) sin^2(pi k.v), whose maximum over the ball is at
    v* = min(delta, 1/(2|k|)) k/|k|. There each value is F at v*, pulled
    back onto the ball as the pattern search does: still a certified lower
    bound, and the exact maximum up to rounding. With two or more
    independent pairs, every radius whose ball holds `_torus_peak` v_s
    gets F(v_s), the largest value of F on the torus, 4 sum |fhat(k)|^2,
    up to rounding: again F at a feasible shift.
    """
    k, c = f.freq_array()
    c, e = _unit_scale(c)
    w = np.abs(c) ** 2
    objective = _l2_objective(k, w)
    d = f.dim
    delta = np.array(radii, dtype=float)
    indep = _independent_pairs(f)
    if indep is not None and len(indep[0]) == 1:
        (top,) = indep[0]
        length = math.hypot(*top)
        v = np.minimum(delta, 0.5 / length)[:, None] * (np.array(top, dtype=float) / length)
        return [math.ldexp(math.sqrt(b), int(e)) for b in objective(_onto_ball(v, delta))]
    omega = np.empty(len(delta))
    rest = np.arange(len(delta))  # the radii the search serves
    if indep is not None and len(indep[0]) >= 2:
        peak = _torus_peak(*indep)[None, :]
        inside = delta >= _row_norms(peak)[0]
        omega[inside] = objective(peak)[0]
        rest = np.flatnonzero(~inside)
    dirs = _directions(d, MODULUS_DIRECTIONS)
    steps = MODULUS_LINE_STEPS if d == 1 else MODULUS_RADII_STEPS
    if d == 2:  # F(-v) = F(v), and the directions come in antipodal pairs
        dirs = dirs[:len(dirs) // 2]
    fracs = np.arange(1, steps + 1) / steps
    v0 = np.empty((len(rest), d))
    slab = max(1, MODULUS_SCAN_CHUNK // len(w))  # shifts per objective call
    for i, rad in enumerate(delta[rest]):
        pts = (dirs[:, None, :] * (rad * fracs)[None, :, None]).reshape(-1, d)
        values = np.concatenate([objective(pts[s:s + slab]) for s in range(0, len(pts), slab)])
        j = int(np.argmax(values))
        v0[i], omega[rest[i]] = pts[j], values[j]
    on_rim = _on_sphere(_row_norms(v0), delta[rest])
    group = max(1, MODULUS_SCAN_CHUNK // (d * d * len(w)))  # radii per search
    for s in range(0, len(rest), group):
        rows, part, v = rest[s:s + group], delta[rest[s:s + group]], v0[s:s + group]
        best, inner = omega[rows], ~on_rim[s:s + group]
        if inner.any():
            best[inner], v[inner] = _pattern_search(
                objective, v[inner], part[inner], part[inner] / steps,
                MODULUS_EXPLORE_TOL, MODULUS_EXPLORE_SWEEPS)
        omega[rows] = _newton_ascent(k, w, objective, v, best, part)
    return [math.ldexp(math.sqrt(b), int(e)) for b in omega]


def modulus_value(f, r, delta):
    """Certified lower estimate of Omega_{f,r}(delta); a list for a sequence of radii.

    Every radius must be > 0 (a NaN is refused too). Shifts live on the
    torus, so the scan radius is capped at sqrt(d)/2, beyond which the
    ball of shifts already covers every torus displacement and the
    modulus is constant. All radii of one call are searched together; a
    value does not depend on the other radii in the call. For r = 2 and
    a function with one nonzero frequency up to sign, the value is the
    closed form of `_omega_l2`, and with independent pair frequencies every
    radius that reaches the torus maximum of F gets it; both are exact to
    rounding.
    """
    many = np.ndim(delta) > 0
    radii = list(np.ravel(delta)) if many else [delta]
    if not radii:
        raise InputError("need at least one radius")
    if not all(x > 0 for x in radii):  # a NaN radius is refused too
        raise InputError("delta must be positive")
    l2 = _is_l2(r)
    if not f.coeffs:
        values = [0.0] * len(radii)
    else:
        cap = math.sqrt(f.dim) / 2.0
        radii = [min(x, cap) for x in radii]
        values = _omega_l2(f, radii) if l2 else _omega_sup(f, radii)
    return values if many else values[0]


def _omega_sup(f, radii):
    """Omega_{f,inf} at each radius: grid-sampled sup-norm differences over the shift ball.

    Each radius scans SUP_SHIFT_SCAN shifts on (0, delta] (d = 1) or
    SUP_SHIFT_DIRECTIONS directions times SUP_SHIFT_RADII radii (d >= 2),
    then a lockstep `_pattern_search` runs from its best shift with step
    delta / 16, to 1e-6 delta or 60 sweeps. The value at a shift v is
    `_sup_lower` of the row c_k (e(k.v) - 1), the coefficients of
    f(. + v) - f, so a batch of shifts is one kernel call and a value
    does not depend on the other radii.
    """
    k, c = f.freq_array()
    d = f.dim
    delta = np.array(radii, dtype=float)
    dirs = _directions(d, SUP_SHIFT_DIRECTIONS)
    steps = SUP_SHIFT_SCAN if d == 1 else SUP_SHIFT_RADII
    unit = (dirs[:, None, :] * (np.arange(1, steps + 1) / steps)[None, :, None]).reshape(-1, d)

    def objective(v):
        t = np.pi * _dot_last(v[:, None, :], k)
        return _sup_lower(k, c * (2j * np.sin(t) * np.exp(1j * t)))  # e(k.v) - 1, no cancellation

    shifts = delta[:, None, None] * unit[None, :, :]
    vals = objective(shifts.reshape(-1, d)).reshape(len(delta), -1)
    start = shifts[np.arange(len(delta)), np.argmax(vals, axis=1)]
    # the search re-evaluates its start, so its values already include the scan's best
    best, _ = _pattern_search(objective, start, delta, delta / 16.0, 1e-6, 60)
    return [float(v) for v in best]


def inv_norm_sup(matrix):
    """G = sup over j >= 0 of ||A^-j||_2, a finite expansion constant.

    Scans j upward; once some ||A^-j|| <= 1 every later value is bounded
    by the running max, so the scan can stop. Used to certify when the
    frequency support of a transferred polynomial has fully escaped a
    bounded window. TooLarge where the scan passes INV_NORM_CAP powers.
    """
    g = 1.0
    for sigma in min_singular_powers(matrix):
        val = 1.0 / sigma
        g = max(g, val)
        if val <= 1.0:
            return g


def min_singular_power(matrix, n):
    """Smallest singular value of A^n (equals that of A*^n), as 1 / ||A^-n||_2:
    an SVD of a float A^n has it only to about eps ||A^n||_2 (Weyl's bound)."""
    return 1.0 / float(np.linalg.svd(lattice.inverse_power(matrix, n), compute_uv=False)[0])


def min_singular_powers(matrix):
    """min_singular_power(matrix, k) for k = 1, ..., INV_NORM_CAP, one step of
    `lattice.inverse_powers` each: every scan of ||A^-k||_2 reads this one
    sequence, and TooLarge where it reads past INV_NORM_CAP."""
    for _, inverse in zip(range(INV_NORM_CAP), lattice.inverse_powers(matrix)):
        yield 1.0 / float(np.linalg.svd(inverse, compute_uv=False)[0])
    raise TooLarge("the scan of ||A^-k||_2 needs more than the scan guard of %d powers"
                   % INV_NORM_CAP)
