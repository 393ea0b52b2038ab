"""Variance series and Birkhoff-sum CLT sampling.

The variance of normalized Birkhoff sums is an exactly summable series for
trigonometric polynomials: autocorrelations vanish once the adjoint matrix
power stretches every support frequency outside the support. Sampling the
sums needs care: iterating x -> Ax mod 1 in binary floating point erases
mantissa bits (about one per step for A = [[2]]), so orbits are kept in
128-bit fixed point with fresh low-order bits injected every 40 steps,
and f is evaluated from exact integer phases <k, x> mod 1 rather than
from float coordinates, through a table of each frequency's wave.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, rng, spectral
from .errors import InputError, InternalError, NotMeanZero, TooLarge, ZeroVariance

ORBIT_GUARD = 10**9
NEGATIVE_TOL = 1e-10
REFRESH_PERIOD = 40
# Both orbit walks need max |k|_1 below this over each function they read:
# - the correlation walk reads f and g at the float value of the orbit's high
#   words, a phase off by about 2 pi |k|_1 2^-53, below 1e-3 (under the sampling noise);
# - birkhoff_samples reads phase words without the orbit's low words, off by
#   less than |k|_1 2^-64 turns, below 2^-24.
MC_PHASE_LIMIT = 2**40
# Most values one window buffer of an orbit sampler holds (1 MB of
# float64); it bounds a worker's memory, and results do not depend on it.
WINDOW_BUDGET = 2**17
# Index bits of the CLT sampler's wave tables: two tables of 2^12 float64
# (64 KB) per frequency, and a remainder below pi / 2^12 radians.
WAVE_BITS = 12
_WAVE_SHIFT = np.uint64(64 - WAVE_BITS)
_WAVE_HALF = np.uint64(1 << (63 - WAVE_BITS))
_WAVE_LOW = np.uint64((1 << (64 - WAVE_BITS)) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK24 = np.uint64(0xFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT40 = np.uint64(40)


def sigma_squared(f, matrix):
    """Exact CLT variance: -integral(f^2) + 2 sum_{n>=0} integral(f * f o A^n).

    Each autocorrelation comes from the exact correlation routine. The series
    terminates: once sigma_min(A*^n) exceeds G' * kmax/kmin, where G' is a
    certified bound on sup_j ||A^-j||, no support frequency can map back into
    the support, so all later terms vanish identically. TooLarge where it
    needs more than spectral.INV_NORM_CAP terms.
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
        if n == spectral.INV_NORM_CAP:
            raise TooLarge("variance series needs more than the scan guard of %d terms"
                           % spectral.INV_NORM_CAP)
        term = analysis.correlation(f, f, matrix, n)
        total += term if n == 0 else 2.0 * term
        n += 1
    if abs(total.imag) > 1e-12 * (1.0 + abs(total.real)):
        raise InternalError("variance series has a non-real value %r" % (total,))
    sigma2 = total.real
    if sigma2 < -NEGATIVE_TOL:
        raise InternalError("variance series summed to %g < 0" % sigma2)
    return max(sigma2, 0.0)


class SampleMoments:
    """Mean and variance of a `samples` array, 0.0 when it is empty; a dataclass
    mixing it in gets ks_stat, `ks_statistic` where sigma2 > 0, else None."""

    def __post_init__(self):
        self.ks_stat = ks_statistic(self) if self.sigma2 > 0 else None

    @property
    def sample_mean(self):
        return float(np.mean(self.samples)) if len(self.samples) else 0.0

    @property
    def sample_var(self):
        with np.errstate(over="ignore"):  # past float range it reads inf
            return float(np.var(self.samples)) if len(self.samples) else 0.0


@dataclass
class CltExperiment(SampleMoments):
    horizon: int
    seed: int
    sigma2: float
    samples: np.ndarray
    ks_stat: float = field(init=False)


def _scale(hi, lo, a, out):
    """out = (hi, lo) * a mod 2^128, as cheaply as `a` allows.

    A power of two up to 2^63 is a shift (1 a copy: numpy shifts a word by
    64 bits to 0); any other a < 2^31 is a wrapping product on each word
    plus the high half of lo * a as the carry. `out` is a pair of word
    arrays that share no memory with hi and lo; it is returned.
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


def _phase_words(hi, k, out, scratch):
    """The exact phase words <k, x> mod 1, in units of 2^-64 turns.

    hi has shape (d, ...) and k must be nonzero. The word is the
    wrapping uint64 sum sum_j k_j hi_j; leaving out the low words moves
    it by less than ||k||_1 2^-64 turns. The words go to `out` (uint64,
    shape hi.shape[1:]), and `scratch` (uint64, same shape) holds the
    products; `out` is returned.
    """
    (j, kj), *rest = [(j, kj) for j, kj in enumerate(k) if kj]
    np.multiply(hi[j], np.uint64(kj % 2**64), out=out)
    for j, kj in rest:
        np.add(out, np.multiply(hi[j], np.uint64(kj % 2**64), out=scratch), out=out)
    return out


def _wave_tables(terms):
    """(P, Q) for each (k, a, b) of `_phase_terms`, at t_j = 2 pi j / 2^WAVE_BITS:
    P_j = a cos t_j + b sin t_j and Q_j = b cos t_j - a sin t_j.

    cos and sin are taken only at t_j <= pi/4, and the rest of the turn
    is filled by quarter-turn symmetry, so each entry is within an ulp.
    t_j is split as head + dt: 2 pi cut to 43 bits, whose products with
    j <= 2^10 (WAVE_BITS <= 13) are exact, and the rest of 2 pi, where
    2 pi - fl(2 pi) = 2.449e-16. The first-order correction in dt is
    exact to dt^2 < 1e-26.
    """
    n = 1 << WAVE_BITS
    j = np.arange(n // 8 + 1)
    head = math.ldexp(math.floor(math.ldexp(2.0 * math.pi, 40)), -40)
    tail = (2.0 * math.pi - head) + 2.4492935982947064e-16
    t, dt = j * (head / n), j * (tail / n)
    c0, s0 = np.cos(t), np.sin(t)
    c, s = c0 - dt * s0, s0 + dt * c0
    quarter = np.concatenate([c, s[-2::-1]])  # cos t_j for j = 0..n/4
    half = np.concatenate([quarter[:-1], -quarter[:0:-1]])  # cos(pi - t) = -cos t
    cos = np.concatenate([half, -half])  # cos(t + pi) = -cos t
    sin = np.roll(cos, n // 4)  # sin t = cos(t - pi/2)
    return [(a * cos + b * sin, b * cos - a * sin) for _, a, b in terms]


def _wave_values(phase, tables, out, spare, small):
    """a cos(2 pi p) + b sin(2 pi p) at the phase words p in `phase`, from
    the (P, Q) `tables` of `_wave_tables`.

    p splits into the nearest table index j (mod 2^WAVE_BITS) and a
    signed remainder l, |l| <= 2^(63 - WAVE_BITS), which is exact in
    float64; r = 2 pi l / 2^64 is at most pi / 2^WAVE_BITS. The value is
    P_j (1 - r^2/2 + r^4/24) + Q_j r (1 - r^2/6); the terms left out are
    below 2.3e-18 |(a, b)|. All arrays have one shape: `phase` (uint64,
    contiguous) is overwritten, `spare` and `small` (float64, contiguous)
    are scratch, and `out` (float64) gets the values and is returned.
    """
    big_p, big_q = tables
    np.add(phase, _WAVE_HALF, out=phase)
    rem = np.bitwise_and(phase, _WAVE_LOW, out=spare.view(np.uint64)).view(np.int64)
    np.subtract(rem, np.int64(_WAVE_HALF), out=rem)
    np.copyto(small, rem)  # exact: no cast buffer, unlike a mixed-type multiply
    r = np.multiply(small, spectral._TURN, out=small)
    index = np.right_shift(phase, _WAVE_SHIFT, out=phase).view(np.int64)
    sin_part = np.take(big_q, index, out=spare, mode="clip")
    np.multiply(sin_part, r, out=sin_part)
    r2 = np.multiply(r, r, out=small)
    np.multiply(r2, -1.0 / 6.0, out=out)
    np.add(out, 1.0, out=out)
    np.multiply(sin_part, out, out=sin_part)  # Q r (1 - r^2/6)
    np.multiply(r2, 1.0 / 24.0, out=out)
    np.add(out, -0.5, out=out)
    np.multiply(out, r2, out=out)
    np.add(out, 1.0, out=out)  # 1 - r^2/2 + r^4/24
    np.multiply(out, np.take(big_p, index, out=small, mode="clip"), out=out)
    return np.add(out, sin_part, out=out)


def _check_orbit(matrix, *functions):
    """InputError unless matrix entries < 2^31 and |k|_1 < MC_PHASE_LIMIT."""
    if any(abs(a) >= 2**31 for row in matrix.entries for a in row):
        raise InputError("matrix entries must be below 2^31 for orbit arithmetic")
    reach = max((sum(map(abs, k)) for f in functions for k in f.coeffs), default=0)
    if reach >= MC_PHASE_LIMIT:
        raise InputError("max |k|_1 = %d reaches the Monte Carlo phase precision limit %d"
                         % (reach, MC_PHASE_LIMIT))


def _torus_orbit(seed, run, d):
    """(hi, lo, refresh) for a run: its uniform 128-bit starts in d dimensions as
    (d, m) high and low words, and `refresh(hi, lo)`, which returns (hi, lo)
    with the bits below 2^-40 redrawn."""
    draw_words = rng.run_draw(seed, run, lambda gen, n: rng.uniform64(gen, (n, d)))

    def draw():  # (d, m) words; a block of n samples draws (n, d) as it always has
        return np.ascontiguousarray(draw_words().T)

    def refresh(hi, lo):
        return (hi & ~_MASK24) | (draw() >> _SHIFT40), draw()

    return draw(), draw(), refresh


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
        return np.concatenate(rng.map_blocks(self.samples, worker, threads))


def _window_rows(values_per_step):
    """Steps in one window: REFRESH_PERIOD, fewer if a step records many values."""
    return max(1, min(REFRESH_PERIOD, WINDOW_BUDGET // max(1, values_per_step)))


def _orbit_windows(seed, run, matrix, horizon, rows):
    """The one orbit walk: `horizon` steps of the run's `_torus_orbit` under
    `matrix`, a window at a time.

    Yields (first, heads) per window: heads has shape (d, n, m), its step w
    holds the high words of step first + w (step 0 is the start), each
    coordinate's heads are one contiguous block, and a consumer may
    overwrite them. A window holds at most `rows` steps and never spans a
    refresh, which redraws the low bits after every REFRESH_PERIOD steps but
    the last, so the orbit and the draws are those of a step-by-step loop,
    bit for bit.
    """
    hi, lo, refresh = _torus_orbit(seed, run, matrix.dim)
    window = np.empty((hi.shape[0], rows + 1, hi.shape[1]), np.uint64)
    lows = np.empty((2,) + lo.shape, np.uint64)  # step s writes lows[s % 2], reads s - 1's
    term = np.empty((2, hi.shape[1]), np.uint64)
    done = 0
    while done < horizon:
        if done % REFRESH_PERIOD == 0 and done:
            hi, lo = refresh(hi, lo)
        n = min(rows, horizon - done, REFRESH_PERIOD - done % REFRESH_PERIOD)
        window[:, 0] = hi
        for w in range(n):
            out = window[:, w + 1], lows[(done + w) % 2]
            lo = _orbit_step(window[:, w], lo, matrix.entries, out, term)[1]
        yield done, window[:, :n]
        done += n
        hi = window[:, n]


def _unit_function(f):
    """(f 2^-e, e), e from `spectral._unit_scale` of f's coefficients: 0, so f
    keeps its bits, unless their largest |c| leaves [2^-100, 2^100)."""
    c, e = spectral._unit_scale(np.array(list(f.coeffs.values()), dtype=complex))
    return spectral.TrigPolynomial(f.dim, dict(zip(f.coeffs, c.tolist()))), int(e)


def correlation_walk(f, g, matrix, n_max, samples, seed):
    """rho_{f,g}(n), n = 0..n_max, estimated on one `_orbit_windows` walk:
    f read at x_0 and g at every x_n, at the float value of the high words.

    Products are summed per step and per block, so a value depends neither on
    n_max nor on how blocks are grouped. f and g are read as `_unit_function`
    scales them, which keeps the block sums in float range, and the estimates
    are scaled back exactly; one past float range reads inf. The walk runs in
    the calling process: a step is a few short numpy calls, too little to
    repay a forked worker.
    """
    rng.check_samples(samples)
    frame = _SamplerFrame(n_max + 1, samples)
    _check_orbit(matrix, f, g)
    (f, f_exp), (g, g_exp) = _unit_function(f), _unit_function(g)

    def worker(run):
        starts = [start - run[0][1] for _, start, _ in run]
        sums = np.empty((frame.horizon, len(run)), complex)
        rows = _window_rows(matrix.dim * (run[-1][2] - run[0][1]))
        for first, heads in _orbit_windows(seed, run, matrix, frame.horizon, rows):
            if not first:
                f_start = f.evaluate(heads[:, 0].T * 2.0**-64)
            for w in range(heads.shape[1]):
                sums[first + w] = np.add.reduceat(f_start * g.evaluate(heads[:, w].T * 2.0**-64),
                                                  starts)
        return sums

    sums = np.concatenate(rng.map_blocks(samples, worker, 1), axis=1)  # in block order
    values = sums.sum(axis=1) / samples - f.mean() * g.mean()
    with np.errstate(over="ignore"):
        values.real = np.ldexp(values.real, f_exp + g_exp)
        values.imag = np.ldexp(values.imag, f_exp + g_exp)
    return values.tolist()


def birkhoff_samples(f, matrix, horizon, samples, seed, threads=None):
    """M normalized Birkhoff sums S_n(f)/sqrt(n) from seeded uniform starts.

    One counter-based substream per fixed-size sample block; a worker
    advances its run of blocks as one (d, m) array, and every sample's
    value is independent of how blocks are grouped, so results are
    byte-identical for any thread count. The orbit is `_torus_orbit`'s,
    exact integer arithmetic on 128-bit fixed-point coordinates; every
    40 steps the bits below 2^-40 are redrawn, which perturbs the law by
    at most 2^-40 per coordinate but prevents the mod-1 dynamics from
    collapsing onto short floating-point cycles. f is evaluated from
    exact integer phases of the high words (`_phase_words`) through each
    frequency's wave tables (`_wave_values`), so `_check_orbit` holds
    max |k|_1 over f below MC_PHASE_LIMIT.
    """
    frame = _SamplerFrame(horizon, samples)
    if not f.real_valued:
        raise InputError("Birkhoff sampling requires a real-valued function")
    _check_orbit(matrix, f)
    sigma2 = sigma_squared(f, matrix)
    terms = _phase_terms(f)  # sigma_squared has checked that f has mean zero
    tables = _wave_tables(terms)

    def worker(run):
        m = run[-1][2] - run[0][1]
        rows = _window_rows(matrix.dim * m)  # no buffer holds more than WINDOW_BUDGET values
        spare = np.empty((rows, m))
        small = np.empty((rows, m))
        f_values = np.zeros((rows, m))  # a zero f has no terms, and its sums stay 0
        # slots for a later term's values and, unless it is the last, its phase words
        extra = np.empty((min(2, max(0, len(terms) - 1)), rows, m))
        sums = np.zeros(m)
        for _, heads in _orbit_windows(seed, run, matrix, frame.horizon, rows):
            n = heads.shape[1]  # heads: (d, n, m) high words; f's values, term after term
            out = f_values[:n]
            for t, (k, _, _) in enumerate(terms):
                # a term's phase words go where nothing reads any more: a spare
                # slot, or for the last term the first coordinate's heads
                words = heads[0] if t == len(terms) - 1 else extra[0, :n].view(np.uint64)
                _phase_words(heads, k, words, spare[:n].view(np.uint64))
                wave = _wave_values(words, tables[t], extra[-1, :n] if t else out,
                                    spare[:n], small[:n])
                if t:
                    np.add(out, wave, out=out)
            for row in out:  # the Birkhoff sums, added step after step
                sums += row
        return sums

    values = frame.sums(worker, threads) * frame.scale
    return CltExperiment(frame.horizon, seed, sigma2, values)


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
