"""Variance series, fixed-point orbits, CLT sampling, KS statistic."""

import math

import numpy as np
import pytest
from scipy import stats

from toraldecay import lattice, stochastic
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
    for mult in (1, 2, 3, 7, 2**31 - 1):
        rh, rl = stochastic._mul_small(hi, lo, mult)
        for i in range(200):
            want = (to_int128(hi[i], lo[i]) * mult) & MASK128
            assert to_int128(rh[i], rl[i]) == want


def test_neg128_matches_python_ints():
    rng = np.random.default_rng(31)
    hi, lo = rand_u64(rng, 100), rand_u64(rng, 100)
    lo[:5] = 0  # exercise the borrow path
    hi[5:8] = 0
    rh, rl = stochastic._neg128(hi, lo)
    for i in range(100):
        want = (-to_int128(hi[i], lo[i])) & MASK128
        assert to_int128(rh[i], rl[i]) == want


def test_add128_matches_python_ints():
    rng = np.random.default_rng(32)
    h1, l1 = rand_u64(rng, 100), rand_u64(rng, 100)
    h2, l2 = rand_u64(rng, 100), rand_u64(rng, 100)
    l1[:4] = np.uint64(2**64 - 1)  # force carries
    rh, rl = stochastic._add128(h1, l1, h2, l2)
    for i in range(100):
        want = (to_int128(h1[i], l1[i]) + to_int128(h2[i], l2[i])) & MASK128
        assert to_int128(rh[i], rl[i]) == want


def test_orbit_step_exact():
    rng = np.random.default_rng(33)
    for matrix in (DOUBLE, TWIN, lattice.validate_expanding([[2, 1], [-1, 3]])):
        d = matrix.dim
        hi = rand_u64(rng, (8, d))
        lo = rand_u64(rng, (8, d))
        nh, nl = stochastic._orbit_step(hi, lo, matrix.entries)
        for s in range(8):
            for i in range(d):
                want = sum(
                    matrix.entries[i][j] * to_int128(hi[s, j], lo[s, j])
                    for j in range(d)
                ) & MASK128
                assert to_int128(nh[s, i], nl[s, i]) == want


def test_orbit_floats_range():
    rng = np.random.default_rng(34)
    hi = rand_u64(rng, (50, 2))
    lo = rand_u64(rng, (50, 2))
    x = stochastic._orbit_floats(hi, lo)
    assert np.all(x >= 0.0) and np.all(x < 1.0)


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
    b = stochastic.birkhoff_samples(f, DOUBLE, 130, 2100, seed=4, threads=4)
    assert np.array_equal(a.samples, b.samples)
    assert a.ks_stat == b.ks_stat
    c = stochastic.birkhoff_samples(f, DOUBLE, 130, 2100, seed=5, threads=1)
    assert not np.array_equal(a.samples, c.samples)


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
