"""Variance series, fixed-point orbits, CLT sampling, KS statistic."""

import math

import numpy as np
import pytest
from scipy import stats

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
        rh, rl = stochastic._scale(hi, lo, mult)
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
    nh, nl = stochastic._accumulate((0, 0), (h2, l2), True)
    rh, rl = stochastic._accumulate((h1, l1), (h2, l2), True)
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
    rh, rl = stochastic._accumulate((h1, l1), (h2, l2), False)
    for i in range(100):
        want = (to_int128(h1[i], l1[i]) + to_int128(h2[i], l2[i])) & MASK128
        assert to_int128(rh[i], rl[i]) == want


def test_orbit_step_exact():
    # entries 0, +-1, +-2, 3 and 2^31 - 1, rows led by a negative entry
    rng = np.random.default_rng(33)
    for entries in ([[2]], [[-3]], TWIN.entries, [[2, 1], [-1, 3]], [[0, -2], [3, 0]],
                    [[3, 0, 1], [-2, 1, 2**31 - 1], [-1, -2, 0]]):
        d = len(entries)
        hi = rand_u64(rng, (d, 12))
        lo = rand_u64(rng, (d, 12))
        lo[:, :3] = 0  # borrows and carries across the word boundary
        lo[:, 3:6] = np.uint64(2**64 - 1)
        hi[:, 6:8] = 0
        nh, nl = stochastic._orbit_step(hi, lo, entries)
        assert nh.shape == nl.shape == (d, 12)
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
        phase = stochastic._phase(hi, k)
        angles = stochastic._phase_angles(hi, k)
        assert np.all(angles >= -math.pi) and np.all(angles < math.pi)
        for s in range(50):
            word = sum(kj * int(hi[j, s]) for j, kj in enumerate(k)) % 2**64
            assert int(phase[s]) == word
            turns = (word - 2**64 if word >= 2**63 else word) / 2**64
            assert abs(angles[s] - 2.0 * math.pi * turns) <= 1e-15


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


def test_birkhoff_matches_slow_reference():
    # near-hermitian complex coefficients, one partnerless tiny term, two refreshes
    eps = 3e-13
    cases = (
        (lattice.validate_expanding([[3]]),
         {(1,): 0.4 + 0.3j, (-1,): 0.4 - 0.3j + eps, (2,): -0.2j, (-2,): 0.2j, (5,): eps}),
        (lattice.validate_expanding([[2, 1], [-1, 3]]),
         {(1, 0): 0.5 + 0.1j, (-1, 0): 0.5 - 0.1j, (2, -1): 0.3j, (-2, 1): -0.3j + eps}),
        (lattice.validate_expanding([[2, -1, 0], [0, 2, 1], [1, 0, -3]]),
         {(1, 0, 0): 0.3 - 0.2j, (-1, 0, 0): 0.3 + 0.2j,
          (1, -2, 3): 0.1 + 0.1j, (-1, 2, -3): 0.1 - 0.1j + eps, (0, 0, 4): eps}),
    )
    picks = [0, 1, 2, 1021, 1022, 1023, 1024, 1025, 1099]
    for matrix, coeffs in cases:
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


def test_sigma_squared_known_values():
    f = TrigPolynomial.cosine(1)
    assert stochastic.sigma_squared(f, DOUBLE) == pytest.approx(0.5)
    g = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (2,): 0.5, (-2,): 0.5})
    assert stochastic.sigma_squared(g, DOUBLE) == pytest.approx(2.0)
    empty = TrigPolynomial(1, {})
    assert stochastic.sigma_squared(empty, DOUBLE) == 0.0


def test_sigma_squared_keeps_term_at_threshold():
    # sigma_min(A^3) = 12 equals the stopping threshold 144/12 exactly, yet
    # A*^3 (12, 0) = (0, 144): rho(3) = 2, so sigma^2 = 4 + 2 * 2
    matrix = lattice.validate_expanding([[0, -2], [3, 0]])
    f = TrigPolynomial(2, {(12, 0): 1.0, (-12, 0): 1.0, (0, 144): 1.0, (0, -144): 1.0})
    assert stochastic.analysis.correlation(f, f, matrix, 3) == 2.0
    assert stochastic.sigma_squared(f, matrix) == 8.0


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


def test_check_dini_convergent():
    f = TrigPolynomial.cosine((1, 1))
    report = stochastic.check_dini(f, TWIN, 12)
    assert report.classification == "convergent"
    assert len(report.terms) == 13
    assert report.tail_estimate < report.terms[0]
    assert report.total == pytest.approx(sum(report.terms))
    assert report.terms[-1] < report.terms[2]  # geometric decay kicked in
    with pytest.raises(InputError):
        stochastic.check_dini(f, TWIN, -1)


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
