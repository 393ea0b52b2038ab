"""Correlation sequences, decay-bound verification, and rate fitting.

Correlations are computed exactly on the Fourier side; Monte Carlo
estimation exists only as an independent diagnostic cross-check. The
decay bound is made falsifiable by fitting its constant at n=1 and then
demanding it hold, with 5 percent slack, at every later step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice, rng, spectral
from .errors import DegenerateBound, InputError

LOG_FIT_MIN_N = 10  # log log n is too flat (and near 0) below this
MIN_FIT_ROWS = 8  # fewest nonzero rows any model is fitted to
# The phase-precision limit of both Monte Carlo paths:
# - correlation: draws lie on a 2^-53 grid, so g(A^n x mod 1) is off in phase by about
#   2 pi ||A^n||_inf |k|_1 2^-53, below 1e-3 (under the sampling noise) while
#   ||A^n||_inf max |k|_1 over g < MC_PHASE_LIMIT (for A = [[2]], A^n x mod 1 = 0 from n = 53 on);
# - stochastic.birkhoff_samples: phases leave out the orbit's low words, which moves
#   them by less than ||k||_1 2^-64 turns, below 2^-24 while max ||k||_1 over f < MC_PHASE_LIMIT.
MC_PHASE_LIMIT = 2**40


def pairing(g, h):
    """Exact L^2(mu) pairing: integral of g * h = sum ghat(-k) hhat(k)."""
    if g.dim != h.dim:
        raise InputError("dimension mismatch in pairing")
    total = 0j
    for k, c in h.coeffs.items():
        neg = tuple(-v for v in k)
        total += g.coeffs.get(neg, 0j) * c
    return total


def correlation(f, g, matrix, n, mc_samples=None, seed=0, threads=None):
    """rho_{f,g}(n) = integral of f * (g o A^n) minus the mean product.

    Exact Fourier-side evaluation: sum over k != 0 of ghat(-k) fhat(A*^n k).
    Passing mc_samples switches to the Monte Carlo cross-check estimator,
    which is sampling-noisy and intended only for validating the exact path;
    it refuses n where ||A^n||_inf max |k|_1 over g reaches MC_PHASE_LIMIT.
    """
    if f.dim != matrix.dim or g.dim != matrix.dim:
        raise InputError("function and matrix dimensions differ")
    if n < 0:
        raise InputError("steps must be >= 0")
    if mc_samples is not None:
        if int(mc_samples) < 1:
            raise InputError("mc_samples must be >= 1")
        a_n = _mc_power(g, matrix, n)
        return _correlation_mc(f, g, np.array(a_n, dtype=float), int(mc_samples), seed, threads)
    star_n = lattice.mat_pow(matrix.star(), n)
    zero = (0,) * matrix.dim
    total = 0j
    for m, gm in g.coeffs.items():
        if m == zero:
            continue
        freq = lattice.mat_vec(star_n, tuple(-v for v in m))
        fk = f.coeffs.get(freq)
        if fk is not None:
            total += gm * fk
    return total


def _mc_power(g, matrix, n):
    """Exact A^n; InputError once ||A^n||_inf max |k|_1 over g reaches MC_PHASE_LIMIT."""
    a_n = lattice.mat_pow(matrix.entries, n)
    reach = max(sum(map(abs, row)) for row in a_n)
    reach *= max((sum(map(abs, k)) for k in g.coeffs), default=0)
    if reach >= MC_PHASE_LIMIT:
        raise InputError("||A^n||_inf max |k|_1 = %d at n=%d reaches the Monte Carlo"
                         " precision limit %d" % (reach, n, MC_PHASE_LIMIT))
    return a_n


def _correlation_mc(f, g, a_n, samples, seed, threads):
    """The Monte Carlo estimate of rho_{f,g}(n), with a_n = A^n in floats."""
    def worker(run):
        sums = []
        for block, start, stop in run:
            x = rng.substream(seed, block).random((stop - start, len(a_n)))
            y = (x @ a_n.T) % 1.0
            sums.append(complex(np.sum(f.evaluate(x) * g.evaluate(y))))
        return sums

    total = 0j
    for sums in rng.map_blocks(samples, worker, threads):
        for p in sums:  # fixed block order keeps the float reduction reproducible
            total += p
    return total / samples - f.mean() * g.mean()


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


def decay_report(f, g, matrix, n_max, mode="correlation", r=2, mc_samples=None, seed=0,
                 threads=None):
    """Per-step decay values against the modulus bound.

    mode="correlation": value = |rho_{f,g}(n)|, bound = ||g||_2 *
    Omega_{f,2}(lambda^-n), and r must be 2. mode="transfer_norm": value
    = ||L^n f||_r, bound = Omega_{f,r}(lambda^-n). f is centered
    automatically; the constant C is the n=1 ratio, so later rows make
    the bound falsifiable rather than tautological. mc_samples, seed and
    threads are passed to correlation; the Monte Carlo values are noisy,
    so only exact values are checked against a vanishing bound. A row
    whose value, bound or ratio leaves float range is bad input. In
    transfer_norm mode each row also keeps the transferred function it
    measured.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if mode not in ("correlation", "transfer_norm"):
        raise InputError("mode must be correlation or transfer_norm")
    if mode == "correlation" and r != 2:
        raise InputError("correlation mode bounds with r = 2 only")
    if mc_samples is not None:
        if mode != "correlation":
            raise InputError("--mc-samples applies only to correlation mode")
        # the sample guard and the limit at n_max, before any search
        rng.check_samples(int(mc_samples))
        _mc_power(g, matrix, int(n_max))
    radii = modulus_radii(matrix, n_max)
    centered = abs(f.mean()) > 0
    fc = f.centered() if centered else f
    g_norm = spectral.norm(g, 2) if mode == "correlation" else 1.0
    omegas = spectral.modulus_value(fc, r, radii)
    rows = []
    for n, omega in enumerate(omegas, start=1):
        transferred = None
        if mode == "correlation":
            # the exact sum never reads fhat(0), since A*^n m != 0 for m != 0
            value = abs(correlation(f, g, matrix, n, mc_samples=mc_samples, seed=seed,
                                    threads=threads))
            bound = g_norm * omega
        else:
            transferred = spectral.transfer_fourier(fc, matrix, n)
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
    n >= 10. All-zero inputs are reported, not fitted.
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
    a, b, res = _linear_fit(np.log(ns), logv)
    candidates["power"] = (-b, math.exp(a), res)
    a, b, res = _linear_fit(ns, logv)
    candidates["exponential"] = (math.exp(b), math.exp(a), res)
    mask = ns >= LOG_FIT_MIN_N
    if int(mask.sum()) >= MIN_FIT_ROWS:
        a, b, res = _linear_fit(np.log(np.log(ns[mask])), logv[mask])
        candidates["log"] = (-b, math.exp(a), res)
    best = min(candidates, key=lambda name: candidates[name][2])
    p, amp, res = candidates[best]
    return FitResult(best, p, amp, res, candidates)
