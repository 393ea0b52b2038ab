"""Tent/Ulam-von Neumann calculus: symbolic transfer, decay, Lyapunov."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from toraldecay import analysis, interval, lattice, rng, spectral, stochastic, tails
from toraldecay.errors import InputError, TooLarge, TruncationTooSmall


def random_series(rng, top=9):
    coeffs = {0: float(rng.normal())}
    for k in range(1, top + 1):
        coeffs[k] = float(rng.normal())
    sines = {m: float(rng.normal()) for m in (1, 3, 5)}
    return interval.CosineSeries(coeffs, sines)


def gauss_legendre_pair(f_vals_fun, g_vals_fun, panels=((-1.0, 0.0), (0.0, 1.0)), n=80):
    # <f, g> in L^2([-1,1], dx/2), split at the tent kink
    total = 0.0
    for a, b in panels:
        x, w = np.polynomial.legendre.leggauss(n)
        x = 0.5 * (b - a) * x + 0.5 * (a + b)
        w = 0.5 * (b - a) * w
        total += float(np.sum(w * f_vals_fun(x) * g_vals_fun(x)))
    return 0.5 * total


def chebyshev_gauss_pair(f_vals_fun, g_vals_fun, n=256):
    # <f, g> against the arcsine law via Chebyshev-Gauss nodes
    y = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    return float(np.mean(f_vals_fun(y) * g_vals_fun(y)))


def test_conjugacy_intertwines_maps():
    x = np.linspace(-1.0, 1.0, 2001)
    lhs = interval.uvn_map(interval.conjugacy(x))
    rhs = interval.conjugacy(interval.tent_map(x))
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_cosine_series_norm_and_inner_vs_quadrature():
    rng = np.random.default_rng(40)
    f = random_series(rng)
    g = random_series(rng)
    norm_quad = math.sqrt(gauss_legendre_pair(f.evaluate, f.evaluate))
    assert f.norm_l2() == pytest.approx(norm_quad, abs=1e-12)
    assert f.inner(g) == pytest.approx(gauss_legendre_pair(f.evaluate, g.evaluate), abs=1e-12)
    assert f.mean() == f.coeffs[0]


def test_tent_transfer_matches_pointwise_oracle():
    rng = np.random.default_rng(41)
    y = np.linspace(-0.99, 0.99, 101)
    for _ in range(5):
        f = random_series(rng)
        symbolic = interval.tent_transfer(f, 1).evaluate(y)
        direct = interval.tent_transfer_pointwise(f.evaluate, y)
        assert np.max(np.abs(symbolic - direct)) < 1e-12


def test_tent_transfer_step_table():
    # cos(2 pi x) = cos(pi 2 x) -> -cos(pi x); cos(pi 4 x) -> +cos(pi 2 x)
    f = interval.CosineSeries({2: 1.0})
    assert interval.tent_transfer(f, 1).coeffs == {1: -1.0}
    f = interval.CosineSeries({4: 1.0})
    assert interval.tent_transfer(f, 1).coeffs == {2: 1.0}
    # odd cosines become transient half-frequency sines, then vanish
    f = interval.CosineSeries({1: 1.0})
    once = interval.tent_transfer(f, 1)
    assert once.coeffs == {}
    assert once.sine_part == {1: 1.0}
    assert interval.tent_transfer(f, 2).norm_l2() == 0.0
    f = interval.CosineSeries({3: 2.0})
    assert interval.tent_transfer(f, 1).sine_part == {3: -2.0}
    const = interval.CosineSeries({0: 5.0})
    assert interval.tent_transfer(const, 7).coeffs == {0: 5.0}


def test_tent_transfer_is_adjoint_of_composition():
    # <L f, g> = <f, g o T> in L^2(dx/2)
    rng = np.random.default_rng(42)
    for _ in range(4):
        f = random_series(rng, top=6)
        g = random_series(rng, top=6)
        lhs = gauss_legendre_pair(interval.tent_transfer(f, 1).evaluate, g.evaluate)
        rhs = gauss_legendre_pair(
            f.evaluate, lambda x: g.evaluate(interval.tent_map(x))
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tent_transfer_contracts_and_preserves_mean():
    rng = np.random.default_rng(43)
    f = random_series(rng)
    g = interval.tent_transfer(f, 1)
    assert g.mean() == f.mean()
    assert g.norm_l2() <= f.norm_l2() + 1e-12
    with pytest.raises(InputError):
        interval.tent_transfer(f, -1)


def test_chebyshev_pullback_matches_composition():
    rng = np.random.default_rng(44)
    x = np.linspace(-1.0, 1.0, 401)
    h = interval.conjugacy(x)
    for _ in range(5):
        deg = int(rng.integers(1, 9))
        cheb = {k: float(rng.normal()) for k in range(deg + 1)}
        series = interval.chebyshev_pullback(cheb)
        direct = chebyshev.chebval(h, [cheb.get(k, 0.0) for k in range(deg + 1)])
        assert np.max(np.abs(series.evaluate(x) - direct)) < 1e-12
    with pytest.raises(InputError):
        interval.chebyshev_pullback({-1: 1.0})


def test_uvn_transfer_is_adjoint_for_arcsine_law():
    # the balanced branch average is the adjoint of U-composition in L^2(mu)
    rng = np.random.default_rng(45)
    for _ in range(4):
        fc = [float(rng.normal()) for _ in range(7)]
        gc = [float(rng.normal()) for _ in range(7)]
        F = lambda y: chebyshev.chebval(y, fc)
        G = lambda y: chebyshev.chebval(y, gc)
        lhs = chebyshev_gauss_pair(
            lambda y: interval.uvn_transfer_pointwise(F, y), G
        )
        rhs = chebyshev_gauss_pair(F, lambda y: G(interval.uvn_map(y)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_conjugacy_transports_transfer():
    # <L_U F, G>_mu computed upstairs equals the tent-side symbolic pairing
    rng = np.random.default_rng(46)
    for _ in range(4):
        fc = {k: float(rng.normal()) for k in range(8)}
        gc = {k: float(rng.normal()) for k in range(8)}
        F = lambda y: chebyshev.chebval(y, [fc[k] for k in range(8)])
        G = lambda y: chebyshev.chebval(y, [gc[k] for k in range(8)])
        upstairs = chebyshev_gauss_pair(
            lambda y: interval.uvn_transfer_pointwise(F, y), G
        )
        downstairs = interval.tent_transfer(interval.chebyshev_pullback(fc), 1).inner(
            interval.chebyshev_pullback(gc)
        )
        assert upstairs == pytest.approx(downstairs, abs=1e-12)


def _on_the_circle(series):
    """A CosineSeries as a TrigPolynomial(1) in theta, where x = 4||theta|| - 1 and
    ||.|| is the distance to the nearest integer: cos(pi k x) = (-1)^k cos(2 pi 2k theta)
    and, for odd m, sin(pi m x / 2) = -(-1)^((m-1)/2) cos(2 pi m theta)."""
    coeffs = {}

    def add(k, c):  # c cos(2 pi k theta)
        for key in {(k,), (-k,)}:
            coeffs[key] = coeffs.get(key, 0.0) + (c if k == 0 else 0.5 * c)

    for k, c in series.coeffs.items():
        add(2 * k, -c if k % 2 else c)
    for m, s in series.sine_part.items():
        add(m, s if (m - 1) // 2 % 2 else -s)
    return spectral.TrigPolynomial(1, coeffs)


def test_tent_transfer_is_transfer_fourier_on_the_doubling_map():
    # x = 4||theta|| - 1 conjugates the tent map to theta -> 2 theta and carries
    # d theta to dx/2, so the cosine calculus and the torus engine are two routes
    # to one operator
    gen = np.random.default_rng(27)
    doubling = lattice.validate_expanding([[2]])
    theta = np.arange(257) / 256
    x = 4.0 * np.minimum(theta, 1.0 - theta) - 1.0
    for _ in range(200):
        cosines = {int(k): float(gen.normal()) for k in gen.choice(200, 8, replace=False)}
        sines = {int(2 * m + 1): float(gen.normal()) for m in gen.choice(100, 3, replace=False)}
        f = interval.CosineSeries(cosines, sines)
        torus_f = _on_the_circle(f)
        # the basis map is the conjugacy; phases of frequency up to 397 round near 1e-13
        assert np.max(np.abs(torus_f.evaluate(theta).real - f.evaluate(x))) <= 1e-11
        for n in (1, 2, 5):
            calculus = interval.tent_transfer(f, n)
            torus = spectral.transfer_fourier(torus_f, doubling, n)
            mapped = _on_the_circle(calculus).coeffs
            for k in set(mapped) | set(torus.coeffs):
                assert abs(mapped.get(k, 0.0) - torus.coeffs.get(k, 0.0)) <= 1e-15
            assert abs(calculus.norm_l2() - spectral.norm(torus, 2)) <= 1e-15


def test_uvn_pullback_log_pointwise():
    g = interval.uvn_pullback_log(10**4)
    for x in (0.3, 0.5, -0.71, 0.97):
        want = math.log(abs(math.sin(0.5 * math.pi * x))) + math.log(2.0)
        assert abs(g.evaluate(np.array([x]))[0] - want) < 1e-3
    with pytest.raises(InputError):
        interval.uvn_pullback_log(0)


def test_uvn_decay_norms_exact_ratio():
    report = interval.uvn_decay_norms(12, truncation=10**6)
    assert report.rows[0].value == pytest.approx(math.pi / math.sqrt(12.0))
    for row in report.rows[1:]:
        assert row.ratio == pytest.approx(math.pi / math.sqrt(3.0), abs=1e-12)
    assert report.fit is not None
    assert report.fit.model == "exponential"
    assert report.fit.param == pytest.approx(0.5, abs=1e-9)


def test_uvn_decay_norms_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        interval.uvn_decay_norms(10, truncation=2**13)
    with pytest.raises(InputError):
        interval.uvn_decay_norms(-1)


def _materialised_sum(top, count, step, alternating):
    """np.sum of the slice the array route took: 1/i^2 for i = top, ..., 1 in
    one array (odd i negated when alternating), read at `step` for count terms."""
    i = np.arange(top, 0, -1, dtype=float)
    terms = 1.0 / (i * i)
    if alternating:
        terms[(top + 1) % 2::2] *= -1.0
    return np.sum(terms[::step][:count])


@pytest.mark.parametrize("count", [1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1,
                                   2**17 + 8, 10**6])
def test_inverse_square_sum_follows_numpys_pairwise_split(count):
    # the streamed sum splits as np.sum's pairwise tree does (n // 2, rounded down
    # to a multiple of 8) down to SERIES_LEAF-term leaves; a numpy that splits
    # otherwise fails here
    for step in (1, 2):
        for top in (step * count, step * count - step + 1, step * count + 3):
            for alternating in (False, True):
                got = interval._inverse_square_sum(top, count, step, alternating)
                assert got == _materialised_sum(top, count, step, alternating), (top, step)


def _trigamma(x):
    """psi'(x) = zeta(2, x) (DLMF 25.11.12)."""
    return tails.hurwitz_zeta(2.0, x)


def _odd_inverse_square_tail(first):
    """sum of 1/m^2 over odd m >= first (first odd)."""
    return 0.25 * _trigamma(0.5 * first)


def _alternating_tail(j):
    """sum over i > j of (-1)^i / i^2, split into even and odd trigamma tails."""
    even_first = j + 2 if j % 2 == 0 else j + 1
    odd_first = j + 1 if j % 2 == 0 else j + 2
    return 0.25 * _trigamma(0.5 * even_first) - _odd_inverse_square_tail(odd_first)


def _frozen_uvn_decay_norms(n_max, k):
    """The rows of `uvn_decay_norms` as the array route computed them: one
    K-term array of 1/i^2, smallest first, summed by prefixes and stride-2 slices."""
    i = np.arange(k, 0, -1, dtype=float)
    np.multiply(i, i, out=i)
    inv_sq = np.divide(1.0, i, out=i)
    rows = []
    for n in range(n_max + 1):
        if n == 0:
            value_sq = 0.5 * (float(np.sum(inv_sq)) + _trigamma(k + 1))
        else:
            j_max = k >> n
            cos_sum = float(np.sum(inv_sq[k - j_max:])) + _trigamma(j_max + 1)
            m_max = k >> (n - 1)
            odd_top = m_max - 1 + m_max % 2
            odd_sum = float(np.sum(inv_sq[k - odd_top::2]))
            odd_sum += _odd_inverse_square_tail(odd_top + 2)
            value_sq = 0.5 * (0.25**n * cos_sum + 4.0 * 0.25**n * odd_sum)
        value = math.sqrt(value_sq)
        rows.append(analysis.DecayRow(n, value, 2.0**-n, value / 2.0**-n))
    return rows


@pytest.mark.parametrize("k", [2**14, 10**6, 12_345_678])
def test_uvn_decay_norms_match_the_array_route(k):
    n_max = k.bit_length() - 5  # the deepest row the truncation serves
    assert interval.uvn_decay_norms(n_max, k).rows == _frozen_uvn_decay_norms(n_max, k)


def test_uvn_decay_norms_memory_is_one_series_leaf():
    interval.uvn_decay_norms(2, 64)  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        interval.uvn_decay_norms(12, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one leaf of at most 2^16 terms (8 bytes each); the K-term array took 8 MB
    assert peak < 2**20


def test_series_guard_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(interval, "TRUNCATION_GUARD", 2**14)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            interval.uvn_decay_norms(2, 2**14 + 1)
        with pytest.raises(TooLarge):
            interval._lyapunov_terms(2**14 + 1, interval.SERIES_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # no 128 KB series array was built


def test_uvn_decay_norms_vs_symbolic_transfer():
    # finite-truncation symbolic route plus the exact trigamma completion
    # must reproduce the reported infinite-series values
    k = 2**14
    g = interval.uvn_pullback_log(k)
    report = interval.uvn_decay_norms(6, truncation=k)
    for n in range(7):
        sym = interval.tent_transfer(g, n).norm_l2()
        if n == 0:
            completion = 0.5 * _trigamma(k + 1)
        else:
            j_max = k >> n
            m_max = k >> (n - 1)
            odd_first = m_max + 1 if m_max % 2 == 0 else m_max + 2
            completion = 0.5 * (
                0.25**n * _trigamma(j_max + 1)
                + 4.0 * 0.25**n * _odd_inverse_square_tail(odd_first)
            )
        assert report.rows[n].value**2 == pytest.approx(
            sym**2 + completion, abs=1e-13
        )


def test_alternating_tail_matches_direct_sum():
    # with an empty head the completed sum is the tail past top alone
    for j in (0, 1, 2, 7, 100):
        direct = sum((-1) ** i / i**2 for i in range(j + 1, 200000))
        assert interval._completed_sum(j, 0, alternating=True) == pytest.approx(direct, abs=1e-9)
        assert interval._completed_sum(j, 0, alternating=True) == _alternating_tail(j)
        # sum over i >= 1 of (-1)^i / i^2 = -pi^2/12
        full = interval._completed_sum(j, j, alternating=True)
        assert full == pytest.approx(-math.pi**2 / 12, abs=1e-15)


@pytest.mark.parametrize("step", [1, 2])
def test_completed_sum_is_the_series_from_its_smallest_term(step):
    # sum of 1/i^2 over i = first, first + step, ... is step^-2 zeta(2, first / step)
    mp = pytest.importorskip("mpmath")
    for top, count in ((1, 1), (9, 3), (101, 40), (2**17 + 1, 2**16)):
        first = top - (count - 1) * step
        with mp.workdps(30):
            exact = mp.zeta(2, mp.mpf(first) / step) / step**2
        assert abs(interval._completed_sum(top, count, step) - exact) <= 4e-16 * exact


def test_sqrt_modulus_closed_form_vs_series():
    deltas = [0.5, 0.1, 0.01, 0.001]
    result = interval.uvn_modulus_sqrt_delta(deltas)
    n = np.arange(1, 10**6, dtype=float)
    for delta, value in zip(result.curve.radii, result.curve.values):
        direct = math.sqrt(float(np.sum(2.0 * np.sin(0.5 * math.pi * n * delta) ** 2 / n**2)))
        assert value == pytest.approx(direct, abs=2e-5)
    assert 0.45 <= result.exponent <= 0.55
    assert result.curve.check_invariants(math.pi / math.sqrt(12.0))


def test_sqrt_modulus_validation():
    with pytest.raises(InputError):
        interval.uvn_modulus_sqrt_delta([])
    with pytest.raises(InputError):
        interval.uvn_modulus_sqrt_delta([0.0, 0.1])
    with pytest.raises(InputError):
        interval.uvn_modulus_sqrt_delta([0.7])


def _inner_at_40_digits(mp, a, b):
    """The L^2(dx/2) inner product of two stored CosineSeries, at 40 digits."""
    with mp.workdps(40):
        products = [mp.mpf(a.coeffs.get(0, 0.0)) * b.coeffs.get(0, 0.0)]
        products += [mp.mpf(c) * b.coeffs[i] / 2 for i, c in a.coeffs.items()
                     if i and i in b.coeffs]
        products += [mp.mpf(s) * b.sine_part[m] / 2 for m, s in a.sine_part.items()
                     if m in b.sine_part]
        return mp.fsum(products)


@pytest.mark.parametrize("k", [10**3, 10**4])
def test_cosine_series_inner_and_norm_vs_mpmath(k):
    # summed largest first, g.inner(g) was 1.0e-15 (K = 10^3) and 3.3e-15
    # (K = 10^4) relative off; math.fsum of the same products is within 2e-16
    mp = pytest.importorskip("mpmath")
    g = interval.uvn_pullback_log(k)
    h = interval.tent_transfer(g, 1)  # half of it moves into the sine part
    for series in (g, h):
        exact = _inner_at_40_digits(mp, series, series)
        assert abs(series.inner(series) - exact) <= 2e-16 * exact
        with mp.workdps(40):
            norm = mp.sqrt(exact)
        assert abs(series.norm_l2() - norm) <= 2e-16 * norm


def test_lyapunov_sigma2_is_degenerate():
    assert interval.lyapunov_sigma2() == 0.0


def _symbolic_lyapunov_terms(k, count):
    """<L_T^j g, g> + trigamma completion for j < count, from `tent_transfer`;
    each pairing is the sum `CosineSeries.inner` forms, exactly rounded."""
    g = interval.uvn_pullback_log(k)
    current = g
    terms = []
    for j in range(count):
        stored = math.fsum(0.5 * c * g.coeffs[i] for i, c in current.coeffs.items()
                           if i and i in g.coeffs)
        if j == 0:
            terms.append(stored + 0.5 * _trigamma(k + 1))
        else:
            terms.append(stored + 0.5 * 2.0**-j * _alternating_tail(k >> j))
        current = interval.tent_transfer(current, 1)
    return terms


def _symbolic_lyapunov_total(k, tol=interval.SERIES_TOL):
    """The unclamped total the term-by-term `CosineSeries` loop summed."""
    g = interval.uvn_pullback_log(k)
    current, total, j = g, 0.0, 0
    while True:
        stored = current.inner(g)
        if j == 0:
            term = stored + 0.5 * _trigamma(k + 1)
        else:
            term = stored + 0.5 * 2.0**-j * _alternating_tail(k >> j)
        total += term if j == 0 else 2.0 * term
        if j > 0 and abs(term) < tol:
            return total, j + 1
        current = interval.tent_transfer(current, 1)
        j += 1


def test_lyapunov_sigma2_array_series_matches_symbolic_transfer():
    for k in (10**3, 10**4):
        terms = interval._lyapunov_terms(k, interval.SERIES_TOL)
        want = _symbolic_lyapunov_terms(k, len(terms))
        assert max(abs(a - b) for a, b in zip(terms, want)) <= 1e-15
        total = terms[0] + sum(2.0 * t for t in terms[1:])
        symbolic_total, symbolic_count = _symbolic_lyapunov_total(k)
        assert len(terms) == symbolic_count
        assert abs(total - symbolic_total) <= 1e-13
        # the closed form: term_j = -2^-j pi^2/24 for j >= 1
        for j, term in enumerate(terms[1:], 1):
            assert term == pytest.approx(-(2.0**-j) * math.pi**2 / 24, abs=1e-15)


def test_lyapunov_sigma2_validation_and_memory():
    interval.lyapunov_sigma2()  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        interval.lyapunov_sigma2()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two leaves of 50,000 terms for DEFAULT_TRUNCATION = 10^5, one at a time;
    # the 10^5-term array took 800 KB
    assert peak < 2**19


def test_lyapunov_clt_recovers_log2():
    report = interval.lyapunov_clt(1000, 800, seed=2)
    assert report.sigma2 == 0.0
    assert report.ks_stat is None
    assert abs(report.mean_log_derivative - math.log(2.0)) < 0.01
    a = interval.lyapunov_clt(200, 600, seed=3, threads=1)
    b = interval.lyapunov_clt(200, 600, seed=3, threads=4)
    assert np.array_equal(a.samples, b.samples)
    # more blocks than RUN_BLOCKS * threads, so threads and runs both matter
    count = (3 * rng.RUN_BLOCKS + 1) * rng.BLOCK + 7
    one = interval.lyapunov_clt(45, count, seed=3, threads=1)
    for threads in (2, 3, 4):
        many = interval.lyapunov_clt(45, count, seed=3, threads=threads)
        assert np.array_equal(one.samples, many.samples)
        assert one.mean_log_derivative == many.mean_log_derivative


def _exact_orbit_lyapunov_sums(horizon, samples, seed, threads):
    """Orbit sums of log|U'(y_j)| - log 2 = log|2 cos 2 pi theta_j|, step by step, on
    the exact [[2]] orbit of the toral sampler, with y_j = -cos 2 pi theta_j.

    |cos 2 pi theta| = |sin(pi s 2^-64)|, where s is the word of 2 theta + 1/2
    read as a signed integer, so |pi s 2^-64| <= pi/2 and the zeros of cos,
    theta = 1/4 and 3/4, sit at s = 0, where a float keeps every digit."""
    doubling = lattice.validate_expanding([[2]])
    half = np.uint64(2**63)

    def worker(run):
        acc = np.zeros(run[-1][2] - run[0][1])
        rows = stochastic._window_rows(acc.size)
        for _, heads in stochastic._orbit_windows(seed, run, doubling, horizon, rows):
            for word in heads[0]:
                s = ((word << np.uint64(1)) + half).view(np.int64)
                acc += np.log(2.0 * np.maximum(np.abs(np.sin(s * (math.pi * 2.0**-64))), 1e-300))
        return acc

    return np.concatenate(rng.map_blocks(samples, worker, threads))


def test_lyapunov_clt_matches_the_per_step_sum_on_the_exact_orbit():
    # the telescoped segments against every step's log|U'(y_j)|, refreshes included
    wide = (3 * rng.RUN_BLOCKS + 1) * rng.BLOCK + 7  # more blocks than RUN_BLOCKS * threads
    cases = [(h, 1100) for h in (1, 39, 40, 41, 97)] + [(41, wide)]
    for horizon, count in cases:
        for threads in (1, 3):
            sums = _exact_orbit_lyapunov_sums(horizon, count, 5, threads)
            got = interval.lyapunov_clt(horizon, count, 5, threads=threads)
            assert np.max(np.abs(got.samples * math.sqrt(horizon) - sums)) <= 1e-10
            assert got.mean_log_derivative == pytest.approx(
                math.log(2.0) + float(np.mean(sums)) / horizon, abs=1e-12)


def test_lyapunov_clt_has_the_exact_coboundary_law():
    # sqrt(N) sample = log|sin 2 pi theta_N| - log|sin 2 pi theta_0| up to the refreshes'
    # 2^-40 moves; from N = 80 on theta_N holds only bits the refresh at step 40 drew,
    # so theta_0 and theta_N are independent uniforms, and Var log|sin pi u| = pi^2/12.
    # 0.25 is about 4 sd of N sample_var at M = 5,000
    for seed in range(4):
        report = interval.lyapunov_clt(80, 5000, seed)
        assert abs(80 * report.sample_var - math.pi**2 / 6.0) <= 0.25, seed


def test_lyapunov_clt_rejects_bad_sizes():
    with pytest.raises(TooLarge):
        interval.lyapunov_clt(10**6, 10**4, seed=0)
    with pytest.raises(InputError):
        interval.lyapunov_clt(0, 5, seed=0)


def test_log_abs_mean():
    assert interval.log_abs_mean() == pytest.approx(-math.log(2.0), abs=1e-9)
