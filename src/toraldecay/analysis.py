"""Correlation sequences, decay-bound verification, and rate fitting.

Correlations are computed exactly on the Fourier side; Monte Carlo
estimation exists only as an independent diagnostic cross-check. The
decay bound is made falsifiable by fitting its constant at n=1 and then
demanding it hold, with 5 percent slack, at every later step.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import lattice, spectral, stochastic
from .errors import DegenerateBound, InputError

LOG_FIT_MIN_N = 10  # log log n is too flat (and near 0) below this
MIN_FIT_ROWS = 8  # fewest nonzero rows any model is fitted to


def pairing(g, h):
    """Exact L^2(mu) pairing: integral of g * h = sum ghat(-k) hhat(k)."""
    if g.dim != h.dim:
        raise InputError("dimension mismatch in pairing")
    total = 0j
    for k, c in h.coeffs.items():
        neg = tuple(-v for v in k)
        total += g.coeffs.get(neg, 0j) * c
    return total


def correlation(f, g, matrix, n, mc_samples=None, seed=0):
    """rho_{f,g}(n) = integral of f * (g o A^n) minus the mean product; a list
    for a sequence of step counts n.

    Exact Fourier-side evaluation: sum over k != 0 of ghat(-k) fhat(A*^n k).
    Passing mc_samples switches to the Monte Carlo cross-check estimator
    `stochastic.correlation_walk`, which is sampling-noisy and intended only for
    validating the exact path; its walk runs in the calling process.
    """
    if f.dim != matrix.dim or g.dim != matrix.dim:
        raise InputError("function and matrix dimensions differ")
    many = np.ndim(n) > 0
    steps = [int(v) for v in np.ravel(n)] if many else [int(n)]
    if not steps or min(steps) < 0:
        raise InputError("steps must be at least one count >= 0")
    if mc_samples is not None:  # the walk's frame refuses a count below 1
        walk = stochastic.correlation_walk(f, g, matrix, max(steps), int(mc_samples), seed)
        values = [walk[v] for v in steps]
    else:
        values = _correlation_exact(f, g, matrix, steps)
    return values if many else values[0]


def _correlation_exact(f, g, matrix, steps):
    """The exact sums at `steps`, in their order. Across the sorted steps A*^n is
    A* A*^(n-1), one product a row, or a fresh power after a gap."""
    star = matrix.star()
    power, at = lattice.identity(matrix.dim), 0
    values = {}
    for n in sorted(set(steps)):
        power = lattice.mat_mul(star, power) if n == at + 1 else lattice.mat_pow(star, n)
        at = n
        total = 0j
        for m, gm in g.coeffs.items():
            if not any(m):
                continue
            fk = f.coeffs.get(lattice.mat_vec(power, tuple(-v for v in m)))
            if fk is not None:
                total += gm * fk
        values[n] = total
    return [values[n] for n in steps]


@dataclass
class DecayRow:
    n: int
    value: float
    bound: float
    ratio: float
    # L^n f (centered) in transfer_norm mode; not part of the row's repr or equality
    transferred: object = field(default=None, repr=False, compare=False)


@dataclass
class FitResult:
    model: str  # "power", "log", "exponential", or "all-zero"
    param: float  # exponent p, or base theta for the exponential model
    amplitude: float
    residual: float
    candidates: dict = field(default_factory=dict)


@dataclass
class DecayReport:
    """Decay rows; c_fitted is the first row's ratio (the n=1 constant of
    decay_report), and fit is `fit_if_possible` of the rows."""

    rows: list
    centered: bool
    c_fitted: float = field(init=False)
    fit: FitResult = field(init=False)

    def __post_init__(self):
        self.c_fitted = self.rows[0].ratio if self.rows else 0.0
        self.fit = fit_if_possible([(row.n, row.value) for row in self.rows])

    def check_bound(self):
        """Every ratio stays within 5 percent of the n=1 constant."""
        return not any(row.ratio > self.c_fitted * 1.05 + 1e-300 for row in self.rows)


def modulus_radii(matrix, n_max):
    """The radii lambda^-n, n = 1..n_max, at which the modulus bound is taken.

    InputError, before any list is built, names the first n where
    lambda^-n underflows to 0: a step count (`--nmax`, `--steps`) past
    float range.
    """
    lam, n_max = matrix.lambda_min, int(n_max)
    if n_max >= 1 and lam ** -n_max == 0.0:
        first = next(n for n in range(1, n_max + 1) if lam ** -n == 0.0)
        raise InputError("the radius lambda^-n (lambda = %r) underflows to 0 from n = %d: "
                         "--nmax / --steps must be below %d" % (lam, first, first))
    return [lam ** -n for n in range(1, n_max + 1)]


def decay_report(f, g, matrix, n_max, mode="correlation", r=2, mc_samples=None, seed=0):
    """Per-step decay values against the modulus bound.

    mode="correlation": value = |rho_{f,g}(n)|, bound = ||g||_2 *
    Omega_{f,2}(lambda^-n), and r must be 2. mode="transfer_norm": value
    = ||L^n f||_r, bound = Omega_{f,r}(lambda^-n). f is centered
    automatically; the constant C is the n=1 ratio, so later rows make
    the bound falsifiable rather than tautological. In correlation mode
    one `correlation` call, before the modulus search, gives every row's
    value, and mc_samples and seed are passed to it; the Monte
    Carlo values are noisy, so only exact values are checked against a
    vanishing bound. A row whose value, bound or ratio leaves float range
    is bad input. In transfer_norm mode each row also keeps the
    transferred function it measured.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if mode not in ("correlation", "transfer_norm"):
        raise InputError("mode must be correlation or transfer_norm")
    if mode == "correlation" and r != 2:
        raise InputError("correlation mode bounds with r = 2 only")
    if mc_samples is not None and mode != "correlation":
        raise InputError("--mc-samples applies only to correlation mode")
    radii = modulus_radii(matrix, n_max)
    centered = abs(f.mean()) > 0
    fc = f.centered() if centered else f
    if mode == "correlation":
        # the exact sum never reads fhat(0), since A*^n m != 0 for m != 0
        values = correlation(f, g, matrix, range(1, len(radii) + 1), mc_samples=mc_samples,
                             seed=seed)
        g_norm = spectral.norm(g, 2)
    omegas = spectral.modulus_value(fc, r, radii)
    rows = []
    transferred = fc if mode == "transfer_norm" else None
    for n, omega in enumerate(omegas, start=1):
        if mode == "correlation":
            value = abs(values[n - 1])
            bound = g_norm * omega
        else:  # L^n f = L(L^(n-1) f)
            transferred = spectral.transfer_fourier(transferred, matrix, 1)
            value = spectral.norm(transferred, r)
            bound = omega
        if mc_samples is None and bound <= 0.0 and value > 1e-12:
            raise DegenerateBound(
                "modulus bound is 0 at n=%d while the value is %g" % (n, value)
            )
        ratio = value / bound if bound > 0 else 0.0
        if not all(map(math.isfinite, (value, bound, ratio))):
            raise InputError("the row at n=%d leaves float range: value %g, bound %g"
                             % (n, value, bound))
        rows.append(DecayRow(n, value, bound, ratio, transferred))
    return DecayReport(rows, centered)


def _linear_fit(x, y):
    """Least squares y = a + b x; returns (a, b, rms residual)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs, *_ = np.linalg.lstsq(np.stack([np.ones_like(x), x], axis=1), y, rcond=None)
    resid = y - (coeffs[0] + coeffs[1] * x)
    return coeffs[0], coeffs[1], float(np.sqrt(np.mean(resid**2)))


def fit_if_possible(rows):
    """fit_rate of the rows with n >= 1, or None when there are too few.

    None means no row has n >= 1, or 1 to MIN_FIT_ROWS - 1 of them are
    nonzero. Rows that are all zero give the "all-zero" result.
    """
    rows = [(n, v) for n, v in rows if n >= 1]
    nonzero = sum(1 for _, v in rows if v > 0)
    if not rows or 0 < nonzero < MIN_FIT_ROWS:
        return None
    return fit_rate(rows)


def fit_rate(rows):
    """Fit power n^-p, log (log n)^-p, and exponential theta^n models.

    Least squares on transformed coordinates; the model with the
    smallest log-space residual wins. The log model only sees rows with
    n >= 10. A model whose amplitude or base leaves float range is left
    out of the candidates. All-zero inputs are reported, not fitted.
    """
    if not rows:
        raise InputError("empty report")
    nonzero = [(n, v) for n, v in rows if v > 0 and n >= 1]
    if not nonzero:
        return FitResult("all-zero", float("nan"), 0.0, 0.0)
    if len(nonzero) < MIN_FIT_ROWS:
        raise InputError("rate fitting needs at least %d nonzero rows" % MIN_FIT_ROWS)
    ns = np.array([n for n, _ in nonzero], dtype=float)
    logv = np.log([v for _, v in nonzero])
    candidates = {}

    def fit(name, x, y, param):
        a, b, res = _linear_fit(x, y)
        try:
            candidates[name] = (param(b), math.exp(a), res)
        except OverflowError:  # a model whose amplitude or base leaves float range
            pass

    fit("power", np.log(ns), logv, operator.neg)
    fit("exponential", ns, logv, math.exp)
    mask = ns >= LOG_FIT_MIN_N
    if int(mask.sum()) >= MIN_FIT_ROWS:
        fit("log", np.log(np.log(ns[mask])), logv[mask], operator.neg)
    if not candidates:
        raise InputError("no rate model fits these rows within float range")
    best = min(candidates, key=lambda name: candidates[name][2])
    p, amp, res = candidates[best]
    return FitResult(best, p, amp, res, candidates)
