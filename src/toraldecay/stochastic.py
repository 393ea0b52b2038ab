"""Variance series, summability check, and Birkhoff-sum CLT sampling.

The variance of normalized Birkhoff sums is an exactly summable series for
trigonometric polynomials: autocorrelations vanish once the adjoint matrix
power stretches every support frequency outside the support. Sampling the
sums needs care: iterating x -> Ax mod 1 in binary floating point erases
mantissa bits (about one per step for A = [[2]]), so orbits are kept in
128-bit fixed point with fresh low-order bits injected every 40 steps,
and f is evaluated from exact integer phases <k, x> mod 1 rather than
from float coordinates.
"""

import math
from dataclasses import dataclass

import numpy as np

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
_TURN = 2.0 * math.pi * 2.0**-64  # radians per unit of a 64-bit phase word


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
    terms = spectral.modulus_value(
        f, 2, [lam ** (-n) for n in range(int(n_scales) + 1)], saturate=True
    )
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


def _scale(hi, lo, a):
    """(hi, lo) * a mod 2^128 for 1 <= a < 2^31, as cheaply as `a` allows.

    1 is free, a power of two is a shift, anything else is a wrapping
    product on each word plus the high half of lo * a as the carry.
    """
    if a == 1:
        return hi, lo
    shift = a.bit_length() - 1
    if a == 1 << shift:
        return (hi << shift) | (lo >> (64 - shift)), lo << shift
    m = np.uint64(a)
    carry = (((lo & _MASK32) * m >> _SHIFT32) + (lo >> _SHIFT32) * m) >> _SHIFT32
    return hi * m + carry, lo * m


def _accumulate(acc, term, subtract):
    """acc + term, or acc - term, mod 2^128 on (hi, lo) word pairs."""
    (acc_hi, acc_lo), (hi, lo) = acc, term
    if subtract:
        return acc_hi - hi - (acc_lo < lo), acc_lo - lo
    new_lo = acc_lo + lo
    return acc_hi + hi + (new_lo < lo), new_lo


def _orbit_step(hi, lo, entries):
    """x -> Ax mod 1 on 128-bit fixed-point coordinates, exactly. Shapes (d, m)."""
    new_hi = np.empty_like(hi)
    new_lo = np.empty_like(lo)
    for i, row in enumerate(entries):
        acc = None  # positive terms sort first, so a row rarely starts from zero
        for negative, a, j in sorted((a < 0, abs(a), j) for j, a in enumerate(row) if a):
            term = _scale(hi[j], lo[j], a)
            if acc is None and not negative:
                acc = term
            else:
                acc = _accumulate(acc or (0, 0), term, negative)
        new_hi[i], new_lo[i] = acc or (0, 0)
    return new_hi, new_lo


def _phase_terms(f):
    """Mean-zero f as sum a cos(2 pi <k, x>) + b sin(2 pi <k, x>).

    Each +-k pair folds into one frequency k with weights a, b, so the
    value equals Re sum c_k e(<k, x>) term by term; a missing partner,
    which the hermitian tolerance allows for tiny coefficients, counts
    as 0. Returns [(k, a, b), ...].
    """
    terms = []
    done = {f.zero_key}
    for k in f.support():
        if k in done:
            continue
        neg = tuple(-v for v in k)
        done.update((k, neg))
        c, cn = f.coeffs[k], f.coeffs.get(neg, 0j)
        terms.append((k, c.real + cn.real, cn.imag - c.imag))
    return terms


def _phase(hi, k):
    """<k, x> mod 1 in units of 2^-64 turns: sum_j k_j hi_j, wrapping uint64.

    k must be nonzero. The low words are left out, which moves the phase
    by less than ||k||_1 2^-64 turns.
    """
    phase = None
    for j, kj in enumerate(k):
        if kj:
            term = hi[j] if kj == 1 else hi[j] * np.uint64(kj % 2**64)
            phase = term if phase is None else phase + term
    return phase


def _phase_angles(hi, k):
    """2 pi <k, x> as float angles in [-pi, pi), from the exact phase word."""
    return _phase(hi, k).view(np.int64) * _TURN


def birkhoff_samples(f, matrix, horizon, samples, seed, threads=None):
    """M normalized Birkhoff sums S_n(f)/sqrt(n) from seeded uniform starts.

    One counter-based substream per fixed-size sample block; a worker
    advances its run of blocks as one (d, m) array, and every sample's
    value is independent of how blocks are grouped, so results are
    byte-identical for any thread count. The orbit is exact integer
    arithmetic on 128-bit fixed-point coordinates; every 40 steps the
    bits below 2^-40 are redrawn, which perturbs the law by at most
    2^-40 per coordinate but prevents the mod-1 dynamics from collapsing
    onto short floating-point cycles. f is evaluated from exact integer
    phases of the high words (see `_phase`).
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
    terms = _phase_terms(f)  # sigma_squared has checked that f has mean zero
    scale = 1.0 / math.sqrt(horizon)

    def worker(run):
        blocks = [(rng.substream(seed, block), stop - start) for block, start, stop in run]

        def draw():  # (d, m) words; each block draws (count, d) as it always has
            words = [rng.uniform64(gen, (count, d)) for gen, count in blocks]
            return np.ascontiguousarray(np.concatenate(words).T)

        hi = draw()
        lo = draw()
        acc = np.zeros(hi.shape[1])
        for step in range(horizon):
            for k, a, b in terms:
                angle = _phase_angles(hi, k)
                if a:
                    acc += a * np.cos(angle)
                if b:
                    acc += b * np.sin(angle)
            hi, lo = _orbit_step(hi, lo, entries)
            if (step + 1) % REFRESH_PERIOD == 0 and step + 1 < horizon:
                hi = (hi & ~_MASK24) | (draw() >> _SHIFT40)
                lo = draw()
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
    root2 = math.sqrt(2.0)
    cdf = 0.5 * np.array([math.erfc(-v / root2) for v in z.tolist()])  # Phi(z)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))
