"""Variance series, summability check, and Birkhoff-sum CLT sampling.

The variance of normalized Birkhoff sums is an exactly summable series for
trigonometric polynomials: autocorrelations vanish once the adjoint matrix
power stretches every support frequency outside the support. Sampling the
sums needs care: iterating x -> Ax mod 1 in binary floating point erases
mantissa bits (about one per step for A = [[2]]), so orbits are kept in
128-bit fixed point with fresh low-order bits injected every 40 steps.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import analysis, rng, spectral
from .errors import InputError, InternalError, NotMeanZero, TooLarge, ZeroVariance

ORBIT_GUARD = 10**9
SERIES_CAP = 512
NEGATIVE_TOL = 1e-10
REFRESH_PERIOD = 40
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK24 = np.uint64(0xFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT40 = np.uint64(40)


def sigma_squared(f, matrix):
    """Exact CLT variance: -integral(f^2) + 2 sum_{n>=0} integral(f * f o A^n).

    Each autocorrelation comes from the exact correlation routine. The series
    terminates: once sigma_min(A*^n) exceeds G' * kmax/kmin, where G' is a
    certified bound on sup_j ||A^-j||, no support frequency can map back into
    the support, so all later terms vanish identically.
    """
    if f.dim != matrix.dim:
        raise InputError("function and matrix dimensions differ")
    if abs(f.mean()) > 0:
        raise NotMeanZero("variance series requires a mean-zero function")
    if not f.real_valued:
        raise InputError("variance series requires a real-valued function")
    support = f.support()
    if not support:
        return 0.0
    norms = [math.sqrt(sum(v * v for v in k)) for k in support]
    threshold = spectral.inv_norm_sup(matrix) * max(norms) / min(norms)
    total = 0j
    n = 0
    # stop only past a relative margin: a float sigma_min may round just above
    # a threshold it equals exactly, and the term at that n need not vanish
    while spectral.min_singular_power(matrix, n) <= threshold * (1.0 + 1e-9):
        term = analysis.correlation(f, f, matrix, n)
        total += term if n == 0 else 2.0 * term
        n += 1
        if n > SERIES_CAP:
            raise InternalError("variance series did not terminate")
    if abs(total.imag) > 1e-12 * (1.0 + abs(total.real)):
        raise InternalError("variance series has a non-real value %r" % (total,))
    sigma2 = total.real
    if sigma2 < -NEGATIVE_TOL:
        raise InternalError("variance series summed to %g < 0" % sigma2)
    return max(sigma2, 0.0)


@dataclass
class DiniReport:
    terms: list  # Omega_{f,2}(lambda^-n) for n = 0..N
    partial_sums: list
    classification: str  # "convergent" or "inconclusive"
    tail_estimate: float

    @property
    def total(self):
        return self.partial_sums[-1] if self.partial_sums else 0.0


def check_dini(f, matrix, n_scales):
    """Partial sums of Omega_{f,2}(lambda^-n), n = 0..N, with a tail trend.

    Convergent for every trig polynomial (the modulus is eventually linear in
    delta, hence geometric in n); the report exercises the hypothesis pipeline
    and estimates the tail from the empirical decay ratio of the last terms.
    """
    if n_scales < 0:
        raise InputError("scale count must be >= 0")
    lam = matrix.lambda_min
    terms = [
        spectral.modulus_value(f, 2, lam ** (-n), saturate=True)
        for n in range(int(n_scales) + 1)
    ]
    partial = list(np.cumsum(terms))
    tail = [t for t in terms[-4:] if t > 0]
    if len(tail) >= 2 and tail[-1] < tail[0]:
        ratio = (tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1))
        classification = "convergent"
        tail_estimate = terms[-1] * ratio / (1.0 - ratio)
    elif all(t == 0 for t in terms):
        classification = "convergent"
        tail_estimate = 0.0
    else:
        classification = "inconclusive"
        tail_estimate = math.inf
    return DiniReport(terms, partial, classification, tail_estimate)


class SampleMoments:
    """Mean and variance of a `samples` array, 0.0 when it is empty."""

    @property
    def sample_mean(self):
        return float(np.mean(self.samples)) if len(self.samples) else 0.0

    @property
    def sample_var(self):
        return float(np.var(self.samples)) if len(self.samples) else 0.0


@dataclass
class CltExperiment(SampleMoments):
    function: object
    matrix: object
    horizon: int
    sample_count: int
    seed: int
    sigma2: float
    samples: np.ndarray
    ks_stat: float = None


def _mul_small(hi, lo, mult):
    """(hi, lo) * mult mod 2^128 for 0 <= mult < 2^31, via 32-bit limbs."""
    m = np.uint64(mult)
    p0 = (lo & _MASK32) * m
    p1 = (lo >> _SHIFT32) * m + (p0 >> _SHIFT32)
    new_lo = (p1 << _SHIFT32) | (p0 & _MASK32)
    carry = p1 >> _SHIFT32
    q0 = (hi & _MASK32) * m + carry
    q1 = (hi >> _SHIFT32) * m + (q0 >> _SHIFT32)
    new_hi = (q1 << _SHIFT32) | (q0 & _MASK32)
    return new_hi, new_lo


def _neg128(hi, lo):
    new_lo = (~lo) + np.uint64(1)
    new_hi = (~hi) + (lo == 0).astype(np.uint64)
    return new_hi, new_lo


def _add128(h1, l1, h2, l2):
    lo = l1 + l2
    hi = h1 + h2 + (lo < l1).astype(np.uint64)
    return hi, lo


def _orbit_step(hi, lo, entries):
    """x -> Ax mod 1 on fixed-point coordinates, exactly. Shapes (m, d)."""
    d = len(entries)
    out_hi = np.empty_like(hi)
    out_lo = np.empty_like(lo)
    for i in range(d):
        acc_hi = np.zeros(hi.shape[0], dtype=np.uint64)
        acc_lo = np.zeros(hi.shape[0], dtype=np.uint64)
        for j in range(d):
            a = entries[i][j]
            if a == 0:
                continue
            th, tl = _mul_small(hi[:, j], lo[:, j], abs(a))
            if a < 0:
                th, tl = _neg128(th, tl)
            acc_hi, acc_lo = _add128(acc_hi, acc_lo, th, tl)
        out_hi[:, i] = acc_hi
        out_lo[:, i] = acc_lo
    return out_hi, out_lo


def _orbit_floats(hi, lo):
    return hi * 2.0**-64 + lo * 2.0**-128


def birkhoff_samples(f, matrix, horizon, samples, seed, threads=None):
    """M normalized Birkhoff sums S_n(f)/sqrt(n) from seeded uniform starts.

    One counter-based substream per fixed-size sample block; blocks are
    reduced in index order, so results are byte-identical for any thread
    count. The orbit is exact integer arithmetic on 128-bit fixed-point
    coordinates; every 40 steps the bits below 2^-40 are redrawn, which
    perturbs the law by at most 2^-40 per coordinate but prevents the
    mod-1 dynamics from collapsing onto short floating-point cycles.
    """
    horizon = int(horizon)
    samples = int(samples)
    if horizon < 1 or samples < 1:
        raise InputError("horizon and sample count must be >= 1")
    if horizon * samples > ORBIT_GUARD:
        raise TooLarge(
            "horizon * samples = %d exceeds %d" % (horizon * samples, ORBIT_GUARD)
        )
    if not f.real_valued:
        raise InputError("Birkhoff sampling requires a real-valued function")
    if any(abs(a) >= 2**31 for row in matrix.entries for a in row):
        raise InputError("matrix entries must be below 2^31 for orbit arithmetic")
    sigma2 = sigma_squared(f, matrix)
    d = matrix.dim
    entries = matrix.entries
    scale = 1.0 / math.sqrt(horizon)

    def worker(block, start, stop):
        gen = rng.substream(seed, block)
        count = stop - start
        hi = rng.uniform64(gen, (count, d))
        lo = rng.uniform64(gen, (count, d))
        acc = np.zeros(count)
        for step in range(horizon):
            acc += f.evaluate(_orbit_floats(hi, lo)).real
            hi, lo = _orbit_step(hi, lo, entries)
            if (step + 1) % REFRESH_PERIOD == 0 and step + 1 < horizon:
                fresh = rng.uniform64(gen, (count, d)) >> _SHIFT40
                hi = (hi & ~_MASK24) | fresh
                lo = rng.uniform64(gen, (count, d))
        return acc * scale

    parts = rng.map_blocks(samples, worker, threads)
    values = np.concatenate(parts) if parts else np.zeros(0)
    experiment = CltExperiment(f, matrix, horizon, samples, seed, sigma2, values)
    if sigma2 > 0:
        experiment.ks_stat = ks_statistic(experiment)
    return experiment


def ks_statistic(experiment):
    """One-sample KS distance of samples/sigma against the standard normal."""
    sigma2 = experiment.sigma2
    if sigma2 is None or sigma2 <= 0:
        raise ZeroVariance("KS comparison needs sigma^2 > 0")
    z = np.sort(np.asarray(experiment.samples) / math.sqrt(sigma2))
    m = len(z)
    if m == 0:
        raise InputError("no samples")
    cdf = special.ndtr(z)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))
