"""Variance series, fixed-point orbits, CLT sampling, KS statistic."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import mp_min_singular

from toraldecay import lattice, stochastic
from toraldecay import rng as rng_module
from toraldecay.errors import InputError, NotMeanZero, TooLarge, ZeroVariance
from toraldecay.spectral import TrigPolynomial

DOUBLE = lattice.validate_expanding([[2]])
TWIN = lattice.validate_expanding([[1, -1], [1, 1]])
MASK128 = (1 << 128) - 1


def to_int128(hi, lo):
    return (int(hi) << 64) | int(lo)


def rand_u64(rng, n):
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def test_mul_small_matches_python_ints():
    rng = np.random.default_rng(30)
    hi, lo = rand_u64(rng, 200), rand_u64(rng, 200)
    lo[:4] = 0
    lo[4:8] = np.uint64(2**64 - 1)  # largest carries out of the low word
    for mult in (1, 2, 3, 7, 2**30, 2**31 - 1):
        out = np.empty((2, 200), np.uint64)
        rh, rl = stochastic._scale(hi, lo, mult, out)
        assert rh.base is out and rl.base is out
        for i in range(200):
            want = (to_int128(hi[i], lo[i]) * mult) & MASK128
            assert to_int128(rh[i], rl[i]) == want


def test_neg128_matches_python_ints():
    rng = np.random.default_rng(31)
    h1, l1 = rand_u64(rng, 100), rand_u64(rng, 100)
    h2, l2 = rand_u64(rng, 100), rand_u64(rng, 100)
    l1[:5] = 0  # exercise the borrow path
    l2[5:8] = np.uint64(2**64 - 1)
    h1[8:11] = 0
    # subtracting from zero is negation
    nh, nl = stochastic._accumulate((0, 0), (h2, l2), True, np.empty((2, 100), np.uint64))
    rh, rl = stochastic._accumulate((h1, l1), (h2, l2), True, np.empty((2, 100), np.uint64))
    for i in range(100):
        assert to_int128(nh[i], nl[i]) == (-to_int128(h2[i], l2[i])) & MASK128
        want = (to_int128(h1[i], l1[i]) - to_int128(h2[i], l2[i])) & MASK128
        assert to_int128(rh[i], rl[i]) == want


def test_add128_matches_python_ints():
    rng = np.random.default_rng(32)
    h1, l1 = rand_u64(rng, 100), rand_u64(rng, 100)
    h2, l2 = rand_u64(rng, 100), rand_u64(rng, 100)
    l1[:4] = np.uint64(2**64 - 1)  # force carries
    h1[4:8] = np.uint64(2**64 - 1)  # and wrap-around of the high word
    out = (h1.copy(), l1.copy())  # in place
    rh, rl = stochastic._accumulate(out, (h2, l2), False, out)
    for i in range(100):
        want = (to_int128(h1[i], l1[i]) + to_int128(h2[i], l2[i])) & MASK128
        assert to_int128(rh[i], rl[i]) == want


def test_orbit_step_exact():
    # entries 0, +-1, +-2, 3 and 2^31 - 1, rows led by a negative entry, and rows
    # made of a single 1, which copy their input row
    rng = np.random.default_rng(33)
    for entries in ([[2]], [[-3]], TWIN.entries, [[2, 1], [-1, 3]], [[0, -2], [3, 0]],
                    [[3, 0, 1], [-2, 1, 2**31 - 1], [-1, -2, 0]], [[0, 1], [2, 0]],
                    [[0, -1], [3, 0]], [[0, 1, 0], [0, 0, 1], [2, 0, 0]]):
        d = len(entries)
        hi = rand_u64(rng, (d, 12))
        lo = rand_u64(rng, (d, 12))
        lo[:, :3] = 0  # borrows and carries across the word boundary
        lo[:, 3:6] = np.uint64(2**64 - 1)
        hi[:, 6:8] = 0
        out = np.full((2, d, 12), 99, np.uint64)  # stale words must not leak through
        nh, nl = stochastic._orbit_step(hi, lo, entries, out, np.empty((2, 12), np.uint64))
        assert nh.base is out and nl.base is out
        for s in range(12):
            for i in range(d):
                want = sum(
                    entries[i][j] * to_int128(hi[j, s], lo[j, s]) for j in range(d)
                ) & MASK128
                assert to_int128(nh[i, s], nl[i, s]) == want


def test_orbit_phases_exact():
    rng = np.random.default_rng(34)
    hi = rand_u64(rng, (3, 50))
    for k in ((1, 0, 0), (0, -1, 0), (2, -3, 5), (-7, 1, 2**40)):
        phase = np.empty(50, np.uint64)
        stochastic._phase_words(hi, k, phase, np.empty(50, np.uint64))
        for s in range(50):
            word = sum(kj * int(hi[j, s]) for j, kj in enumerate(k)) % 2**64
            assert int(phase[s]) == word


def test_wave_tables_within_an_ulp():
    mp = pytest.importorskip("mpmath")
    (cos, minus_sin), = stochastic._wave_tables([(None, 1.0, 0.0)])
    n = 1 << stochastic.WAVE_BITS
    with mp.workprec(120):
        for j in range(n):
            t = 2 * mp.pi * j / n
            # an exact 0 is within 1e-30, the rounding of t at 120 bits
            for entry, exact in ((cos[j], mp.cos(t)), (-minus_sin[j], mp.sin(t))):
                assert abs(entry - exact) <= max(np.spacing(abs(entry)), 1e-30), j


def test_wave_values_beat_libm_against_mpmath():
    # a cos + b sin at 20,000 random phase words and the edges of the table
    # index and remainder, against 120-bit mpmath, next to the route that
    # rounds the word to an angle and calls np.cos and np.sin
    mp = pytest.importorskip("mpmath")
    words = rand_u64(np.random.default_rng(37), 20000)
    step = 2**(64 - stochastic.WAVE_BITS)
    words[:8] = [0, 1, 2**64 - 1, 2**63, 2**63 - 1, step // 2, step // 2 - 1, 3 * step // 2]
    with mp.workprec(120):
        turns = [2 * mp.pi * mp.mpf(int(w)) / 2**64 for w in words]
        exact_cos = [mp.cos(t) for t in turns]
        exact_sin = [mp.sin(t) for t in turns]
        angle = words.view(np.int64) * (2.0 * math.pi * 2.0**-64)
        for a, b in ((1.0, 0.0), (0.0, 1.0), (0.6, -0.8)):
            tables, = stochastic._wave_tables([(None, a, b)])
            m = len(words)
            got = stochastic._wave_values(words.copy(), tables, np.empty(m), np.empty(m),
                                          np.empty(m))
            libm = a * np.cos(angle) + b * np.sin(angle)
            exact = [a * c + b * s for c, s in zip(exact_cos, exact_sin)]
            err = max(float(abs(g - e)) for g, e in zip(got.tolist(), exact))
            libm_err = max(float(abs(g - e)) for g, e in zip(libm.tolist(), exact))
            assert err <= min(libm_err, 4.4e-16), (a, b, err, libm_err)


def _reference_samples(f, matrix, horizon, samples, seed, picks):
    """Slow S_n(f)/sqrt(n) for the picked samples: Python-int 128-bit orbits,
    the sampler's Philox draw order, and f.evaluate on float coordinates."""
    d = matrix.dim
    refresh = [s for s in range(1, horizon) if s % stochastic.REFRESH_PERIOD == 0]
    words = {}
    for block, start, stop in rng_module.block_ranges(samples):
        gen = rng_module.substream(seed, block)
        # per block: start hi, start lo, then (fresh, lo) at each refresh
        draws = [rng_module.uniform64(gen, (stop - start, d)) for _ in range(2 + 2 * len(refresh))]
        for i in range(start, stop):
            words[i] = [w[i - start] for w in draws]
    out = []
    for i in picks:
        draws = words[i]
        x = [(int(draws[0][j]) << 64) | int(draws[1][j]) for j in range(d)]
        total = 0.0
        for step in range(1, horizon + 1):
            total += f.evaluate(tuple(v / 2**128 for v in x)).real
            x = [sum(a * v for a, v in zip(row, x)) & MASK128 for row in matrix.entries]
            if step in refresh:
                r = 2 + 2 * refresh.index(step)
                fresh, low = draws[r], draws[r + 1]
                x = [((((v >> 64) & ~0xFFFFFF) | (int(fresh[j]) >> 40)) << 64) | int(low[j])
                     for j, v in enumerate(x)]
        out.append(total / math.sqrt(horizon))
    return np.array(out)


# near-hermitian complex coefficients (cosine and sine weights both nonzero)
# and one partnerless tiny term, on d = 1, 2, 3 with negative and
# non-power-of-two entries
EPS = 3e-13
SAMPLER_CASES = (
    (lattice.validate_expanding([[3]]),
     {(1,): 0.4 + 0.3j, (-1,): 0.4 - 0.3j + EPS, (2,): -0.2j, (-2,): 0.2j, (5,): EPS}),
    (lattice.validate_expanding([[2, 1], [-1, 3]]),
     {(1, 0): 0.5 + 0.1j, (-1, 0): 0.5 - 0.1j, (2, -1): 0.3j, (-2, 1): -0.3j + EPS}),
    (lattice.validate_expanding([[2, -1, 0], [0, 2, 1], [1, 0, -3]]),
     {(1, 0, 0): 0.3 - 0.2j, (-1, 0, 0): 0.3 + 0.2j,
      (1, -2, 3): 0.1 + 0.1j, (-1, 2, -3): 0.1 - 0.1j + EPS, (0, 0, 4): EPS}),
)


def test_birkhoff_matches_slow_reference():
    # two refreshes
    picks = [0, 1, 2, 1021, 1022, 1023, 1024, 1025, 1099]
    for matrix, coeffs in SAMPLER_CASES:
        f = TrigPolynomial(matrix.dim, coeffs)
        assert f.real_valued
        # the folded +-k pairs give Re f exactly, tiny asymmetries included
        x = np.random.default_rng(7).random((20, matrix.dim))
        folded = sum(a * np.cos(2 * np.pi * x @ k) + b * np.sin(2 * np.pi * x @ k)
                     for k, a, b in stochastic._phase_terms(f))
        assert np.max(np.abs(folded - f.evaluate(x).real)) <= 1e-14
        want = _reference_samples(f, matrix, 90, 1100, 6, picks)
        for threads in (1, 2):
            got = stochastic.birkhoff_samples(f, matrix, 90, 1100, seed=6, threads=threads)
            assert np.max(np.abs(got.samples[picks] - want)) <= 1e-12


def _frozen_phase_words(hi, k):
    """<k, x> mod 1 in 2^-64 turns from the high words, as the per-step sampler formed it."""
    phase = None
    for j, kj in enumerate(k):
        if kj:
            term = hi[j] if kj == 1 else hi[j] * np.uint64(kj % 2**64)
            phase = term if phase is None else phase + term
    return phase


def _frozen_phase_angles(hi, k):
    """2 pi <k, x> from the high words, as the per-step sampler formed it."""
    return _frozen_phase_words(hi, k).view(np.int64) * (2.0 * math.pi * 2.0**-64)


def _frozen_orbit_step(hi, lo, entries):
    """x -> Ax mod 2^128 on (d, m) word arrays, as the per-step sampler
    computed it: each row sums its scaled inputs, positive entries first."""
    mask32, shift32 = np.uint64(0xFFFFFFFF), np.uint64(32)

    def scale(hi, lo, a):
        if a == 1:
            return hi, lo
        shift = a.bit_length() - 1
        if a == 1 << shift:
            return (hi << shift) | (lo >> (64 - shift)), lo << shift
        m = np.uint64(a)
        carry = (((lo & mask32) * m >> shift32) + (lo >> shift32) * m) >> shift32
        return hi * m + carry, lo * m

    def accumulate(acc, term, subtract):
        (acc_hi, acc_lo), (hi, lo) = acc, term
        if subtract:
            return acc_hi - hi - (acc_lo < lo), acc_lo - lo
        new_lo = acc_lo + lo
        return acc_hi + hi + (new_lo < lo), new_lo

    new_hi = np.empty_like(hi)
    new_lo = np.empty_like(lo)
    for i, row in enumerate(entries):
        acc = None
        for negative, a, j in sorted((a < 0, abs(a), j) for j, a in enumerate(row) if a):
            term = scale(hi[j], lo[j], a)
            if acc is None and not negative:
                acc = term
            else:
                acc = accumulate(acc or (0, 0), term, negative)
        new_hi[i], new_lo[i] = acc or (0, 0)
    return new_hi, new_lo


def _frozen_birkhoff(f, matrix, horizon, samples, seed, threads, libm=False):
    """birkhoff_samples' values from a per-step loop without windows: each
    step sums every term on the current high words, in term order, adds
    that value to the sample's sum and then advances the orbit; low bits
    are redrawn every 40 steps. A term
    is evaluated from its phase words through its wave tables, or with
    `libm` as a cos and a sin of the rounded angle, the route before them."""
    d = matrix.dim
    terms = stochastic._phase_terms(f)
    tables = stochastic._wave_tables(terms)

    def worker(run):
        blocks = [(rng_module.substream(seed, b), stop - start) for b, start, stop in run]

        def draw():
            words = [rng_module.uniform64(gen, (count, d)) for gen, count in blocks]
            return np.ascontiguousarray(np.concatenate(words).T)

        hi = draw()
        lo = draw()
        m = hi.shape[1]
        acc = np.zeros(m)
        for step in range(horizon):
            value = np.zeros(m)  # f at this step, its terms added in order
            for (k, a, b), wave in zip(terms, tables):
                if libm:
                    angle = _frozen_phase_angles(hi, k)
                    if a:
                        value += a * np.cos(angle)
                    if b:
                        value += b * np.sin(angle)
                else:
                    phase = _frozen_phase_words(hi, k).copy()  # hi itself where k is a unit
                    value += stochastic._wave_values(phase, wave, np.empty(m), np.empty(m),
                                                     np.empty(m))
            acc += value
            hi, lo = _frozen_orbit_step(hi, lo, matrix.entries)
            if (step + 1) % 40 == 0 and step + 1 < horizon:
                hi = (hi & ~np.uint64(0xFFFFFF)) | (draw() >> np.uint64(40))
                lo = draw()
        return acc * (1.0 / math.sqrt(horizon))

    return np.concatenate(rng_module.map_blocks(samples, worker, threads))


def many_terms():
    """24 weighted terms: 12 folded frequencies of [[-3]], each with a cos and a sin."""
    coeffs = {}
    for q in range(1, 13):
        c = complex(0.1 * q, 0.05 * (q % 3 + 1))
        coeffs[(q,)], coeffs[(-q,)] = c, c.conjugate()
    return TrigPolynomial(1, coeffs), lattice.validate_expanding([[-3]])


def test_birkhoff_window_loop_matches_per_step_loop_bit_for_bit():
    # horizons around the refresh period; runs split across threads
    for matrix, coeffs in SAMPLER_CASES:
        f = TrigPolynomial(matrix.dim, coeffs)
        for horizon in (1, 39, 40, 41, 97):
            for threads in (1, 3):
                want = _frozen_birkhoff(f, matrix, horizon, 1100, 9, threads)
                got = stochastic.birkhoff_samples(f, matrix, horizon, 1100, 9, threads=threads)
                assert np.array_equal(got.samples, want)
    # more blocks than RUN_BLOCKS * threads, so runs of full width
    count = (3 * rng_module.RUN_BLOCKS + 1) * rng_module.BLOCK + 7
    matrix, coeffs = SAMPLER_CASES[1]
    f = TrigPolynomial(2, coeffs)
    want = _frozen_birkhoff(f, matrix, 41, count, 10, 1)
    for threads in (1, 3):
        got = stochastic.birkhoff_samples(f, matrix, 41, count, 10, threads=threads)
        assert np.array_equal(got.samples, want)


def test_birkhoff_window_splits_many_terms_bit_for_bit():
    # 24 weighted terms on runs of 16 blocks: a step records more values
    # than WINDOW_BUDGET, and each is summed in term order into the window
    f, matrix = many_terms()
    count = 2 * rng_module.RUN_BLOCKS * rng_module.BLOCK
    assert count // 2 * 24 > stochastic.WINDOW_BUDGET
    want = _frozen_birkhoff(f, matrix, 42, count, 11, 1)
    for threads in (1, 2):
        got = stochastic.birkhoff_samples(f, matrix, 42, count, 11, threads=threads)
        assert np.array_equal(got.samples, want)


def test_birkhoff_evaluates_each_term_once_a_window(monkeypatch):
    # each folded term is evaluated once on all of a window's steps: per run,
    # `_wave_values` runs terms x windows times, not terms x horizon times
    f, matrix = many_terms()
    terms = len(stochastic._phase_terms(f))
    horizon, m = 97, rng_module.RUN_BLOCKS * rng_module.BLOCK
    calls = 0
    wave_values = stochastic._wave_values

    def counted(*args):
        nonlocal calls
        calls += 1
        return wave_values(*args)

    monkeypatch.setattr(stochastic, "_wave_values", counted)
    stochastic.birkhoff_samples(f, matrix, horizon, m, 12, threads=1)  # one 16-block run
    rows = stochastic._window_rows(m)  # 8 steps of 16,384 samples fill WINDOW_BUDGET
    period = stochastic.REFRESH_PERIOD
    windows = sum(-(-min(period, horizon - s) // rows) for s in range(0, horizon, period))
    assert windows == 13  # 5 + 5 + 3: a window never spans a refresh
    assert calls == terms * windows


def test_birkhoff_within_1e13_of_the_libm_route():
    # the wave tables against np.cos and np.sin of the rounded angles, on
    # SAMPLER_CASES and on the benchmark's clt configurations
    cases = [(matrix, coeffs, 90, 1100) for matrix, coeffs in SAMPLER_CASES]
    cases += [(DOUBLE, {(1,): 0.5, (-1,): 0.5}, 2000, 5000),
              (TWIN, {(1, 2): 0.5, (-1, -2): 0.5}, 2000, 5000)]
    for matrix, coeffs, horizon, samples in cases:
        f = TrigPolynomial(matrix.dim, coeffs)
        got = stochastic.birkhoff_samples(f, matrix, horizon, samples, 21, threads=2)
        want = _frozen_birkhoff(f, matrix, horizon, samples, 21, 1, libm=True)
        assert np.max(np.abs(got.samples - want)) <= 1e-13


def test_birkhoff_memory_stays_at_the_libm_route_peak():
    # tracemalloc peaks of the route before the wave tables (numpy 2.4.6):
    # 6.922 MB on [[2]] and 5.926 MB on the twin dragon; the phase words of
    # a term go to a free slot of the value buffer, not to a buffer of their own.
    # One worker keeps every buffer of the call in this process, where
    # tracemalloc sees it (4.68 and 3.44 MB, one run of five blocks).
    for matrix, f, peak in ((DOUBLE, TrigPolynomial.cosine(1), 6.93e6),
                            (TWIN, TrigPolynomial.cosine((1, 2)), 5.93e6)):
        stochastic.birkhoff_samples(f, matrix, 50, 100, 3, threads=1)  # warm numpy's caches
        tracemalloc.start()
        try:
            stochastic.birkhoff_samples(f, matrix, 2000, 5000, 3, threads=1)
            assert tracemalloc.get_traced_memory()[1] <= peak
        finally:
            tracemalloc.stop()


def test_birkhoff_identical_across_worker_counts(monkeypatch):
    # up to three forked workers, whatever the host's CPU count; a run lost,
    # repeated or returned out of order would change the bits
    monkeypatch.setattr(rng_module, "usable_cpus", lambda: 4)
    f = TrigPolynomial(2, {(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j})
    count = 5 * rng_module.BLOCK + 7
    want = stochastic.birkhoff_samples(f, TWIN, 85, count, 8, threads=1).samples
    for threads in (2, 3, 4, 6):
        got = stochastic.birkhoff_samples(f, TWIN, 85, count, 8, threads=threads).samples
        assert np.array_equal(got, want), threads


@st.composite
def expanding_samplers(draw):
    """A small expanding matrix (diagonal at least d + 2 in modulus, the
    rest in [-1, 1], so every eigenvalue exceeds 1) and a real f."""
    d = draw(st.integers(1, 3))
    entries = [[draw(st.integers(-1, 1)) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        entries[i][i] = draw(st.sampled_from([-1, 1])) * draw(st.integers(d + 1, 7))
    coeffs = {}
    for _ in range(draw(st.integers(1, 3))):
        k = tuple(draw(st.integers(-3, 3)) for _ in range(d))
        neg = tuple(-v for v in k)
        if any(k) and k not in coeffs and neg not in coeffs:
            c = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
            coeffs[k], coeffs[neg] = c, c.conjugate()
    return lattice.validate_expanding(entries), coeffs


@settings(max_examples=25, deadline=None)
@given(expanding_samplers(), st.integers(1, 90), st.integers(1, 2100),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_birkhoff_window_loop_property(case, horizon, samples, threads, seed):
    matrix, coeffs = case
    f = TrigPolynomial(matrix.dim, coeffs)  # a zero f when every k drawn was 0
    got = stochastic.birkhoff_samples(f, matrix, horizon, samples, seed, threads=threads)
    assert np.array_equal(got.samples, _frozen_birkhoff(f, matrix, horizon, samples, seed, 1))


def test_birkhoff_zero_function_samples_zeros():
    # no terms to evaluate: every sum stays 0, on windows of 40 steps and
    # of one step alike (the 5-D orbit of a full run overfills a window of two)
    wide = lattice.validate_expanding([[3 * (i == j) + (j == i + 1) for j in range(5)]
                                       for i in range(5)])
    count = rng_module.RUN_BLOCKS * rng_module.BLOCK
    assert stochastic._window_rows(count * 5) == 1
    for matrix, horizon, samples in ((DOUBLE, 45, 1100), (wide, 3, count)):
        f = TrigPolynomial(matrix.dim, {})
        for threads in (1, 3):
            got = stochastic.birkhoff_samples(f, matrix, horizon, samples, 2, threads=threads)
            want = _frozen_birkhoff(f, matrix, horizon, samples, 2, 1)
            assert not want.any() and np.array_equal(got.samples, want)


def test_sigma_squared_known_values():
    f = TrigPolynomial.cosine(1)
    assert stochastic.sigma_squared(f, DOUBLE) == pytest.approx(0.5)
    g = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (2,): 0.5, (-2,): 0.5})
    assert stochastic.sigma_squared(g, DOUBLE) == pytest.approx(2.0)
    empty = TrigPolynomial(1, {})
    assert stochastic.sigma_squared(empty, DOUBLE) == 0.0


def test_centered_copy_derives_real_valued_from_its_coefficients():
    # the mean 1j is the only non-hermitian coefficient; without it f is cos(2 pi x)
    f = TrigPolynomial(1, {(0,): 1j, (1,): 0.5, (-1,): 0.5})
    assert not f.real_valued
    g = f.centered()
    assert g.real_valued
    assert stochastic.sigma_squared(g, DOUBLE) == 0.5


def test_sigma_squared_keeps_term_at_threshold():
    # sigma_min(A^3) = 12 equals the stopping threshold 144/12 exactly, yet
    # A*^3 (12, 0) = (0, 144): rho(3) = 2, so sigma^2 = 4 + 2 * 2
    matrix = lattice.validate_expanding([[0, -2], [3, 0]])
    f = TrigPolynomial(2, {(12, 0): 1.0, (-12, 0): 1.0, (0, 144): 1.0, (0, -144): 1.0})
    assert stochastic.analysis.correlation(f, f, matrix, 3) == 2.0
    assert stochastic.sigma_squared(f, matrix) == 8.0


def test_sigma_squared_stop_is_certified_past_float_conditioning(monkeypatch):
    # The series may stop once sigma_min(A^n) passes G kmax / kmin = G 2^100; with
    # sigma_min and G from mpmath's SVD of the exact A^n, that first happens at
    # some N, and every term before it must be summed. An SVD of the float A^n,
    # whose cond passes 2^53 early, stopped the series at 166 terms.
    mp = pytest.importorskip("mpmath")
    matrix = lattice.validate_expanding([[-1, -2, -1], [0, -1, 2], [2, 2, 0]])
    f = TrigPolynomial(3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5,
                           (2**100, 0, 0): 0.5, (-(2**100), 0, 0): 0.5})
    with mp.workdps(40):
        g, j = mp.mpf(1), 0
        while True:  # spectral.inv_norm_sup's scan
            j += 1
            inv = 1 / mp_min_singular(matrix, j)
            g = max(g, inv)
            if inv <= 1:
                break
        threshold = g * 2**100 * (1 + mp.mpf(1e-9))
        first = 0
        while mp_min_singular(matrix, first) <= threshold:
            first += 1
    steps, correlation = [], stochastic.analysis.correlation

    def counted(f, g, matrix, n, *args, **kwargs):
        steps.append(n)
        return correlation(f, g, matrix, n, *args, **kwargs)

    monkeypatch.setattr(stochastic.analysis, "correlation", counted)
    stochastic.sigma_squared(f, matrix)
    assert not set(range(first)) - set(steps)


def test_sigma_squared_matches_cesaro_variance():
    # Var(S_n)/n = rho(0) + 2 sum (1 - k/n) rho(k), exact for finite range
    rng = np.random.default_rng(35)
    for matrix in (DOUBLE, TWIN):
        coeffs = {}
        for _ in range(4):
            k = tuple(int(v) for v in rng.integers(-4, 5, size=matrix.dim))
            if k == (0,) * matrix.dim:
                continue
            c = complex(rng.normal(), rng.normal())
            coeffs[k] = coeffs.get(k, 0) + c
            coeffs[tuple(-v for v in k)] = coeffs.get(tuple(-v for v in k), 0) + c.conjugate()
        f = TrigPolynomial(matrix.dim, coeffs)
        s2 = stochastic.sigma_squared(f, matrix)
        n = 400
        rho = [stochastic.analysis.correlation(f, f, matrix, k).real for k in range(40)]
        cesaro = rho[0] + 2.0 * sum((1.0 - k / n) * rho[k] for k in range(1, 40))
        drift = 2.0 * sum(k * abs(rho[k]) for k in range(1, 40)) / n
        assert abs(s2 - cesaro) <= drift + 1e-12


def test_sigma_squared_input_checks():
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    with pytest.raises(NotMeanZero):
        stochastic.sigma_squared(f, DOUBLE)
    with pytest.raises(InputError):
        stochastic.sigma_squared(TrigPolynomial(1, {(1,): 1.0}), DOUBLE)
    with pytest.raises(InputError):
        stochastic.sigma_squared(TrigPolynomial.cosine(1), TWIN)


def test_birkhoff_guards():
    f = TrigPolynomial.cosine(1)
    with pytest.raises(TooLarge):
        stochastic.birkhoff_samples(f, DOUBLE, 10**6, 10**4, seed=0)
    with pytest.raises(InputError):
        stochastic.birkhoff_samples(f, DOUBLE, 0, 10, seed=0)
    with pytest.raises(InputError):
        stochastic.birkhoff_samples(TrigPolynomial(1, {(1,): 1.0}), DOUBLE, 10, 10, seed=0)
    big = lattice.validate_expanding([[2**31]])
    with pytest.raises(InputError):
        stochastic.birkhoff_samples(f, big, 10, 10, seed=0)


def test_birkhoff_refuses_frequencies_past_the_phase_limit():
    # at k = 2^62 + 1 the sampler read sample_var 0.642 against sigma^2 = 1.125,
    # because the phase leaves out the orbit's low words
    triple = lattice.validate_expanding([[3]])
    k = 2**62 + 1
    f = TrigPolynomial(1, {(k,): 0.5, (-k,): 0.5, (3 * k,): 0.25, (-3 * k,): 0.25})
    with pytest.raises(InputError, match="phase precision limit"):
        stochastic.birkhoff_samples(f, triple, 200, 4000, seed=1)
    # the limit is on max |k|_1 over the support
    limit = stochastic.MC_PHASE_LIMIT
    with pytest.raises(InputError, match="phase precision limit"):
        stochastic.birkhoff_samples(TrigPolynomial.cosine((limit // 2, -limit // 2)),
                                    TWIN, 10, 10, seed=1)
    below = stochastic.birkhoff_samples(TrigPolynomial.cosine(limit - 1), triple, 10, 10, seed=1)
    assert below.sigma2 == 0.5


def test_birkhoff_deterministic_across_threads_and_seeds():
    f = TrigPolynomial.cosine(1)
    a = stochastic.birkhoff_samples(f, DOUBLE, 130, 2100, seed=4, threads=1)
    for threads in (2, 3, 4):
        b = stochastic.birkhoff_samples(f, DOUBLE, 130, 2100, seed=4, threads=threads)
        assert np.array_equal(a.samples, b.samples)
        assert a.ks_stat == b.ks_stat
    c = stochastic.birkhoff_samples(f, DOUBLE, 130, 2100, seed=5, threads=1)
    assert not np.array_equal(a.samples, c.samples)
    # more blocks than RUN_BLOCKS * threads: several runs per thread
    g = TrigPolynomial(2, {(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j})
    count = (3 * rng_module.RUN_BLOCKS + 1) * rng_module.BLOCK + 7
    one = stochastic.birkhoff_samples(g, TWIN, 45, count, seed=4, threads=1)
    for threads in (2, 3):
        many = stochastic.birkhoff_samples(g, TWIN, 45, count, seed=4, threads=threads)
        assert np.array_equal(one.samples, many.samples)


def test_birkhoff_moments_and_ks():
    f = TrigPolynomial.cosine(1)
    exp = stochastic.birkhoff_samples(f, DOUBLE, 400, 3000, seed=12)
    assert exp.sigma2 == pytest.approx(0.5)
    # mean-zero observable started from the invariant measure
    assert abs(exp.sample_mean) < 5.0 * math.sqrt(0.5 / 3000)
    # Var(S_n/sqrt(n)) is exactly sigma2 here (correlations vanish for n >= 1)
    assert abs(exp.sample_var - 0.5) < 0.07
    assert exp.ks_stat is not None
    assert exp.ks_stat < 0.05


def test_birkhoff_no_variance_collapse_at_long_horizon():
    # double-precision orbits of x -> 2x mod 1 die within ~53 steps; the
    # fixed-point orbit with refresh must keep the full variance at n = 5000
    f = TrigPolynomial.cosine(1)
    exp = stochastic.birkhoff_samples(f, DOUBLE, 5000, 200, seed=8)
    assert 0.25 < exp.sample_var < 0.9


def test_birkhoff_two_dimensional():
    f = TrigPolynomial.cosine((1, 2))
    exp = stochastic.birkhoff_samples(f, TWIN, 300, 1500, seed=21)
    assert exp.sigma2 == pytest.approx(stochastic.sigma_squared(f, TWIN))
    assert abs(exp.sample_mean) < 5.0 * math.sqrt(exp.sigma2 / 1500)
    assert exp.ks_stat < 0.06


def test_ks_statistic_matches_scipy():
    class Fake:
        pass

    rng = np.random.default_rng(36)
    fake = Fake()
    fake.samples = rng.normal(size=500)
    fake.sigma2 = 1.0
    ours = stochastic.ks_statistic(fake)
    ref = stats.kstest(fake.samples, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)
    fake.sigma2 = 4.0
    ours = stochastic.ks_statistic(fake)
    ref = stats.kstest(fake.samples / 2.0, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_statistic_zero_variance():
    class Fake:
        samples = np.zeros(10)
        sigma2 = 0.0

    with pytest.raises(ZeroVariance):
        stochastic.ks_statistic(Fake())
