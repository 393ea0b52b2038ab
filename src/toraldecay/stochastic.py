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
# Most values one window buffer of an orbit sampler holds (1 MB of
# float64); it bounds a worker's memory, and results do not depend on it.
WINDOW_BUDGET = 2**17
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


def _scale(hi, lo, a, out):
    """out = (hi, lo) * a mod 2^128 for 1 <= a < 2^31, as cheaply as `a` allows.

    A power of two is a shift (1 a copy: numpy shifts a word by 64 bits
    to 0), anything else is a wrapping product on each word plus the high
    half of lo * a as the carry. `out` is a pair of word arrays that
    share no memory with hi and lo; it is returned.
    """
    out_hi, out_lo = out
    shift = a.bit_length() - 1
    if a == 1 << shift:
        np.left_shift(hi, shift, out=out_hi)
        np.bitwise_or(out_hi, lo >> (64 - shift), out=out_hi)
        np.left_shift(lo, shift, out=out_lo)
        return out
    m = np.uint64(a)
    carry = (((lo & _MASK32) * m >> _SHIFT32) + (lo >> _SHIFT32) * m) >> _SHIFT32
    np.multiply(hi, m, out=out_hi)
    np.add(out_hi, carry, out=out_hi)
    np.multiply(lo, m, out=out_lo)
    return out


def _accumulate(acc, term, subtract, out):
    """out = acc + term, or acc - term, mod 2^128 on (hi, lo) word pairs.

    `out` is a pair of word arrays; it may be `acc` itself but shares no
    memory with `term`. Returns out.
    """
    (acc_hi, acc_lo), (hi, lo), (out_hi, out_lo) = acc, term, out
    if subtract:
        borrow = np.less(acc_lo, lo)
        np.subtract(acc_lo, lo, out=out_lo)
        np.subtract(acc_hi, hi, out=out_hi)
        np.subtract(out_hi, borrow, out=out_hi)
    else:
        np.add(acc_lo, lo, out=out_lo)
        np.add(acc_hi, hi, out=out_hi)
        np.add(out_hi, np.less(out_lo, lo), out=out_hi)  # the carry
    return out


def _orbit_step(hi, lo, entries, out, term):
    """out = Ax mod 1 on 128-bit fixed-point coordinates, exactly.

    hi, lo and the pair `out` have shape (d, m), and `term` is a pair of
    (m,) word arrays for scaled inputs; neither shares memory with hi
    and lo. Returns out.
    """
    for i, row in enumerate(entries):
        dest = out[0][i], out[1][i]
        acc = None  # positive terms sort first, so a row rarely starts from zero
        for negative, a, j in sorted((a < 0, abs(a), j) for j, a in enumerate(row) if a):
            first = acc is None and not negative
            scaled = (hi[j], lo[j]) if a == 1 else _scale(hi[j], lo[j], a, dest if first else term)
            acc = scaled if first else _accumulate(acc or (0, 0), scaled, negative, dest)
        if acc is not dest:  # a zero row, or one input row as it is
            dest[0][...], dest[1][...] = acc or (0, 0)
    return out


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


def _phase(hi, k, out, scratch):
    """<k, x> mod 1 in units of 2^-64 turns: sum_j k_j hi_j, wrapping uint64.

    hi has shape (d, ...) and k must be nonzero. The low words are left
    out, which moves the phase by less than ||k||_1 2^-64 turns. The
    phase is written to `out`, a uint64 array of shape hi.shape[1:], and
    returned; `scratch` is another such array.
    """
    (j, kj), *rest = [(j, kj) for j, kj in enumerate(k) if kj]
    if kj == 1:
        np.copyto(out, hi[j])
    else:
        np.multiply(hi[j], np.uint64(kj % 2**64), out=out)
    for j, kj in rest:
        term = hi[j] if kj == 1 else np.multiply(hi[j], np.uint64(kj % 2**64), out=scratch)
        np.add(out, term, out=out)
    return out


def _phase_angles(hi, k, out, phase):
    """2 pi <k, x> as float angles in [-pi, pi), from the exact phase word.

    The angles are written to `out` (float64, shape hi.shape[1:]) and
    returned; the phase words go to `phase` (uint64, same shape), and
    `out` doubles as the phase's scratch space.
    """
    _phase(hi, k, phase, out.view(np.uint64))
    return np.multiply(phase.view(np.int64), spectral._TURN, out=out)


class _SamplerFrame:
    """What both orbit samplers share: the size checks, made first so their errors
    come before a sampler's own, the scale 1/sqrt(horizon), and `sums`."""

    def __init__(self, horizon, samples):
        self.horizon, self.samples = int(horizon), int(samples)
        if self.horizon < 1 or self.samples < 1:
            raise InputError("horizon and sample count must be >= 1")
        if self.horizon * self.samples > ORBIT_GUARD:
            raise TooLarge("horizon * samples = %d exceeds %d"
                           % (self.horizon * self.samples, ORBIT_GUARD))
        self.scale = 1.0 / math.sqrt(self.horizon)

    def sums(self, worker, threads):
        """The per-sample sums of `worker` run on the sample blocks by `rng.map_blocks`."""
        parts = rng.map_blocks(self.samples, worker, threads)
        return np.concatenate(parts) if parts else np.zeros(0)


def _run_draw(seed, run, draw_block):
    """draw() for a run: its blocks stacked, each drawn by
    draw_block(gen, count) from its own substream, as a one-block run would."""
    blocks = [(rng.substream(seed, block), stop - start) for block, start, stop in run]
    return lambda: np.concatenate([draw_block(gen, count) for gen, count in blocks])


def _window_rows(values_per_step):
    """Steps in one window: REFRESH_PERIOD, fewer if a step records many values."""
    return max(1, min(REFRESH_PERIOD, WINDOW_BUDGET // max(1, values_per_step)))


def _window_sums(horizon, head, tail, rows, step, refresh, add_window):
    """Birkhoff sums over `horizon` steps of a run of orbits, a window at a time.

    An orbit state is a pair: `head` (shape (..., m), what the observable
    reads) and `tail` (the rest). Row w of the window holds the head of
    the window's step w: `step(head, tail, out)` writes the next head to
    `out` (the next row) and returns the next tail. `add_window(heads,
    acc)` adds the observable on a window's heads to the m sums in
    `acc`, step after step, and `refresh(head, tail)` redraws low bits
    after every REFRESH_PERIOD steps but the last. A window holds at most
    `rows` steps and never spans a refresh, so the orbit, the draws and
    the order of the additions are those of a step-by-step loop, bit for
    bit.
    """
    window = np.empty((rows + 1,) + head.shape, head.dtype)
    acc = np.zeros(head.shape[-1])
    done = 0
    while done < horizon:
        n = min(rows, horizon - done, REFRESH_PERIOD - done % REFRESH_PERIOD)
        window[0] = head
        for w in range(n):
            tail = step(window[w], tail, window[w + 1])
        add_window(window[:n], acc)
        done += n
        head = window[n]
        if done % REFRESH_PERIOD == 0 and done < horizon:
            head, tail = refresh(head, tail)
    return acc


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
    frame = _SamplerFrame(horizon, samples)
    if not f.real_valued:
        raise InputError("Birkhoff sampling requires a real-valued function")
    if any(abs(a) >= 2**31 for row in matrix.entries for a in row):
        raise InputError("matrix entries must be below 2^31 for orbit arithmetic")
    sigma2 = sigma_squared(f, matrix)
    d = matrix.dim
    entries = matrix.entries
    terms = _phase_terms(f)  # sigma_squared has checked that f has mean zero
    pieces = [(k, w, fn) for k, a, b in terms for w, fn in ((a, np.cos), (b, np.sin)) if w]

    def worker(run):
        draw_words = _run_draw(seed, run, lambda gen, count: rng.uniform64(gen, (count, d)))

        def draw():  # (d, m) words; each block draws (count, d) as it always has
            return np.ascontiguousarray(draw_words().T)

        hi = draw()
        lo = draw()
        m = hi.shape[1]
        rows = _window_rows(m * max(d, len(pieces)))
        # a window of one step may split its pieces; a longer one holds them all
        # (a zero f has none, and its sums stay 0)
        chunk = max(1, len(pieces) if rows > 1 else min(len(pieces), WINDOW_BUDGET // m))
        phase = np.empty((rows, m), np.uint64)
        angle = np.empty((rows, m))
        weighted = np.empty((rows, chunk, m))

        spare_lo = [np.empty((d, m), np.uint64) for _ in range(2)]
        term = np.empty((2, m), np.uint64)

        def step(hi, lo, out):
            new_lo = spare_lo[0] if lo is not spare_lo[0] else spare_lo[1]
            return _orbit_step(hi, lo, entries, (out, new_lo), term)[1]

        def refresh(hi, lo):
            return (hi & ~_MASK24) | (draw() >> _SHIFT40), draw()

        def add_window(heads, acc):  # heads: (n, d, m) high words
            n = len(heads)
            words = heads.transpose(1, 0, 2)
            for first in range(0, len(pieces), chunk):
                group = pieces[first:first + chunk]
                for p, (k, weight, fn) in enumerate(group):
                    if p == 0 or k is not group[p - 1][0]:
                        _phase_angles(words, k, angle[:n], phase[:n])
                    fn(angle[:n], out=weighted[:n, p])
                    np.multiply(weighted[:n, p], weight, out=weighted[:n, p])
                for step_values in weighted[:n, :len(group)]:
                    for row in step_values:
                        acc += row

        return _window_sums(frame.horizon, hi, lo, rows, step, refresh, add_window)

    values = frame.sums(worker, threads) * frame.scale
    experiment = CltExperiment(f, matrix, frame.horizon, frame.samples, seed, sigma2, values)
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
