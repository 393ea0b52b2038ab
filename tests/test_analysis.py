"""Correlation sequences, decay reports, and rate fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_solves, expanding_matrices, transfer_by_powers
from toraldecay import analysis, lattice, rng, spectral, stochastic
from toraldecay.errors import InputError, TooLarge
from toraldecay.spectral import TrigPolynomial

TWIN = lattice.validate_expanding([[1, -1], [1, 1]])
DOUBLE = lattice.validate_expanding([[2]])


def random_real_poly(rng, d, span=5, terms=4):
    coeffs = {}
    for _ in range(terms):
        k = tuple(int(v) for v in rng.integers(-span, span + 1, size=d))
        c = complex(rng.normal(), rng.normal())
        coeffs[k] = coeffs.get(k, 0) + c
        neg = tuple(-v for v in k)
        coeffs[neg] = coeffs.get(neg, 0) + c.conjugate()
    return TrigPolynomial(d, coeffs)


def test_pairing_matches_quadrature():
    rng = np.random.default_rng(20)
    for d in (1, 2):
        g = random_real_poly(rng, d, span=3)
        h = random_real_poly(rng, d, span=3)
        n_pts = 32
        axes = [np.arange(n_pts) / n_pts] * d
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        quad = np.mean(g.evaluate(mesh) * h.evaluate(mesh))
        assert abs(analysis.pairing(g, h) - quad) < 1e-10


def test_pairing_gives_l2_norm():
    rng = np.random.default_rng(21)
    f = random_real_poly(rng, 1)
    assert analysis.pairing(f, f).real == pytest.approx(spectral.norm(f, 2) ** 2)


def test_correlation_known_values():
    f = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (2,): 0.5, (-2,): 0.5})
    g = TrigPolynomial.cosine(1)
    assert analysis.correlation(f, g, DOUBLE, 1) == pytest.approx(0.5)
    assert analysis.correlation(f, g, DOUBLE, 2) == 0
    assert analysis.correlation(g, g, DOUBLE, 0) == pytest.approx(0.5)


def test_correlation_vs_transfer_pairing():
    # int f (g o A^n) = int (L^n f) g, so the subsampling route must agree
    # with the preimage-solving route termwise
    rng = np.random.default_rng(22)
    for matrix in (DOUBLE, TWIN):
        for _ in range(8):
            f = random_real_poly(rng, matrix.dim, span=9, terms=6)
            g = random_real_poly(rng, matrix.dim, span=9, terms=6)
            n = int(rng.integers(0, 4))
            direct = analysis.correlation(f, g, matrix, n)
            via_transfer = (
                analysis.pairing(spectral.transfer_fourier(f, matrix, n), g)
                - f.mean() * g.mean()
            )
            assert abs(direct - via_transfer) < 1e-12


@settings(max_examples=40, deadline=None)
@given(expanding_matrices(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_correlation_is_the_transferred_pairing(matrix, n, seed):
    rng = np.random.default_rng(seed)
    f = random_real_poly(rng, matrix.dim, span=9, terms=6)
    g = random_real_poly(rng, matrix.dim, span=9, terms=6)
    via_transfer = (
        analysis.pairing(spectral.transfer_fourier(f, matrix, n), g) - f.mean() * g.mean()
    )
    assert abs(analysis.correlation(f, g, matrix, n) - via_transfer) < 1e-12


def test_correlation_mc_agrees():
    rng = np.random.default_rng(23)
    f = random_real_poly(rng, 2, span=3)
    g = random_real_poly(rng, 2, span=3)
    exact = analysis.correlation(f, g, TWIN, 2)
    mc = analysis.correlation(f, g, TWIN, 2, mc_samples=40000, seed=9)
    scale = spectral.norm(f, 2) * spectral.norm(g, 2)
    assert abs(mc - exact) < 5.0 * scale / math.sqrt(40000)


def test_correlation_mc_deterministic():
    f = TrigPolynomial.cosine((1, 0))
    a = analysis.correlation(f, f, TWIN, 1, mc_samples=5000, seed=3)
    b = analysis.correlation(f, f, TWIN, 1, mc_samples=5000, seed=3)
    assert a == b


def test_correlation_input_checks():
    f = TrigPolynomial.cosine(1)
    with pytest.raises(InputError):
        analysis.correlation(f, f, TWIN, 1)  # dim mismatch
    with pytest.raises(InputError):
        analysis.correlation(f, f, DOUBLE, -1)
    for samples in (0, -5):
        with pytest.raises(InputError):
            analysis.correlation(f, f, DOUBLE, 1, mc_samples=samples)


def _mc_bound(f, g, samples):
    """5 standard errors of the Monte Carlo mean of f(x) g(y), at most."""
    return 5.0 * spectral.norm(f, 2) * spectral.norm(g, 2) / math.sqrt(samples)


def test_correlation_mc_walks_the_exact_orbit_past_float_precision():
    # float draws on a 2^-53 grid made A^n x mod 1 = 0 from n = 53 on, and the
    # estimate read 0.995 where the exact correlation is 0; the 128-bit orbit
    # with its low-bit refresh keeps every step a uniform draw
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    g = TrigPolynomial(1, {(0,): 1.0, (3,): 0.5, (-3,): 0.5})
    steps = [39, 53, 60, 120]
    exact = analysis.correlation(f, g, DOUBLE, steps)
    assert exact == [0j] * 4
    estimates = analysis.correlation(f, g, DOUBLE, steps, mc_samples=20000, seed=1)
    assert all(abs(m - e) < _mc_bound(f, g, 20000) for m, e in zip(estimates, exact))


def test_correlation_mc_on_the_twin_dragon_stays_within_the_bound():
    # frequencies of f on the adjoint orbits of g's, so several steps have
    # nonzero exact correlations
    def image(n, k):
        return lattice.mat_vec(lattice.mat_pow(TWIN.star(), n), k)

    f = TrigPolynomial(2, {image(2, (1, 0)): 0.5, image(2, (-1, 0)): 0.5,
                           image(5, (1, 1)): 0.4, image(5, (-1, -1)): 0.4})
    g = TrigPolynomial(2, {(1, 0): 0.5, (-1, 0): 0.5, (1, 1): 0.5, (-1, -1): 0.5})
    steps = range(91)
    exact = analysis.correlation(f, g, TWIN, steps)
    assert sum(1 for e in exact if e != 0) >= 2
    for seed in range(4):
        estimates = analysis.correlation(f, g, TWIN, steps, mc_samples=10000, seed=seed)
        assert all(abs(m - e) < _mc_bound(f, g, 10000) for m, e in zip(estimates, exact))


def test_correlation_mc_does_not_depend_on_grouping_or_the_last_step(monkeypatch):
    f = TrigPolynomial(2, {(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j, (0, 0): 0.3})
    g = TrigPolynomial.cosine((1, 0))
    samples = 3 * rng.BLOCK + 7  # a partial last block
    walks = []
    for run_blocks in (1, 16):
        monkeypatch.setattr(rng, "RUN_BLOCKS", run_blocks)
        walks.append(analysis.correlation(f, g, TWIN, range(91), mc_samples=samples, seed=2))
    assert walks[0] == walks[1]
    # a walk that stops at n, before or after a refresh, reads the same value there
    for n in (0, 1, 39, 40, 41, 80):
        assert analysis.correlation(f, g, TWIN, n, mc_samples=samples, seed=2) == walks[0][n]


def _frozen_correlation(f, g, matrix, n_max, samples, seed):
    """The Monte Carlo correlation as a step-by-step loop, before it walked
    windows: each step advances the orbit, redraws the low bits every 40
    steps, and adds f at the start times g at the step, per block."""
    def worker(run):
        hi, lo, step, refresh = stochastic._torus_orbit(seed, run, matrix)
        starts = [start - run[0][1] for _, start, _ in run]
        f_start = f.evaluate(hi.T * 2.0**-64)
        out = np.empty_like(hi)
        sums = np.empty((n_max + 1, len(run)), complex)
        for n in range(n_max + 1):
            if n:
                lo = step(hi, lo, out)
                hi, out = out, hi
            if n % 40 == 0 and n:
                hi, lo = refresh(hi, lo)
            sums[n] = np.add.reduceat(f_start * g.evaluate(hi.T * 2.0**-64), starts)
        return sums

    sums = np.concatenate(rng.map_blocks(samples, worker, 1), axis=1)
    return sums.sum(axis=1) / samples - f.mean() * g.mean()


@pytest.mark.parametrize("entries", [[[1, -1], [1, 1]], [[2, 1], [0, 3]]])
def test_correlation_walk_matches_the_step_by_step_loop(monkeypatch, entries):
    # runs of 1 block walk windows of 40 steps, runs of 16 windows of 16
    matrix = lattice.validate_expanding(entries)
    f = TrigPolynomial(2, {(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j, (0, 0): 0.3})
    g = TrigPolynomial(2, {(1, 0): 0.5j, (2, -1): 0.25, (0, 0): -0.7 + 0.1j})
    samples = 3 * rng.BLOCK + 7  # a partial last block
    for run_blocks in (1, 16):
        monkeypatch.setattr(rng, "RUN_BLOCKS", run_blocks)
        for horizon in (39, 40, 41, 80, 81):
            want = _frozen_correlation(f, g, matrix, horizon - 1, samples, 4)
            got = stochastic.correlation_walk(f, g, matrix, horizon - 1, samples, 4)
            assert np.array_equal(got, want)


def test_correlation_mc_scales_large_coefficients_back_exactly():
    # f f summed over a block passed float range at 2^510 cos 2 pi x; the walk
    # reads f at 2^-510 its size and scales the estimates back by 2^1020
    f = TrigPolynomial.cosine(1)
    big = TrigPolynomial(1, {(1,): 2.0**509, (-1,): 2.0**509})
    small = analysis.correlation(f, f, DOUBLE, range(4), mc_samples=3000, seed=6)
    large = analysis.correlation(big, big, DOUBLE, range(4), mc_samples=3000, seed=6)
    assert large == [v * 2.0**1020 for v in small]


def test_correlation_exact_takes_one_product_a_row(monkeypatch):
    # A*^n = A* A*^(n-1) across the sorted steps, where each n took its own power
    def image(n, k):
        return lattice.mat_vec(lattice.mat_pow(TWIN.star(), n), k)

    f = TrigPolynomial(2, {image(3, (1, 0)): 0.5, image(3, (-1, 0)): 0.5,
                           image(7, (0, 1)): 0.25, image(7, (0, -1)): 0.25})
    g = TrigPolynomial(2, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25 + 0.5j, (0, -1): 0.25 - 0.5j})
    calls = {"mat_pow": 0, "mat_mul": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(lattice, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(lattice, name, counted)
    steps = list(range(30, 0, -1))  # in the caller's order
    values = analysis.correlation(f, g, TWIN, steps)
    assert calls == {"mat_pow": 0, "mat_mul": 30}
    monkeypatch.undo()
    assert values == [analysis.correlation(f, g, TWIN, n) for n in steps]
    assert [n for n, v in zip(steps, values) if v] == [7, 3]


def test_correlation_takes_a_sequence_of_steps():
    f = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (2,): 0.5, (-2,): 0.5})
    g = TrigPolynomial.cosine(1)
    assert analysis.correlation(f, g, DOUBLE, [2, 1, 0]) == [
        analysis.correlation(f, g, DOUBLE, n) for n in (2, 1, 0)]
    for steps in ([], [1, -1]):
        with pytest.raises(InputError, match="at least one count >= 0"):
            analysis.correlation(f, g, DOUBLE, steps, mc_samples=10)


@pytest.mark.parametrize("which", ["f", "g"])
def test_decay_report_checks_the_phase_limit_before_the_search(monkeypatch, which):
    def no_search(*args, **kwargs):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr(spectral, "modulus_value", no_search)
    functions = {"f": TrigPolynomial.cosine(1), "g": TrigPolynomial.cosine(3)}
    functions[which] = TrigPolynomial.cosine(stochastic.MC_PHASE_LIMIT)
    with pytest.raises(InputError, match="phase precision limit"):
        analysis.decay_report(functions["f"], functions["g"], DOUBLE, 2, mc_samples=2000)


def test_decay_report_checks_the_sample_guard_before_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched before the sample guard")

    monkeypatch.setattr(spectral, "modulus_value", no_search)
    f, g = TrigPolynomial.cosine(1), TrigPolynomial.cosine(3)
    with pytest.raises(TooLarge, match="sample guard"):
        analysis.decay_report(f, g, DOUBLE, 2, mc_samples=rng.SAMPLE_GUARD + 1)
    with pytest.raises(TooLarge, match="sample guard"):
        analysis.correlation(f, g, DOUBLE, 1, mc_samples=rng.SAMPLE_GUARD + 1)


def test_decay_report_correlation_mode_takes_r_2_only():
    f, g = TrigPolynomial.cosine(2), TrigPolynomial.cosine(1)
    for r in (math.inf, "inf"):
        with pytest.raises(InputError, match="r = 2"):
            analysis.decay_report(f, g, DOUBLE, 3, r=r)
    assert analysis.decay_report(f, g, DOUBLE, 3, r=2).rows


def test_decay_report_bound_holds():
    rng = np.random.default_rng(24)
    for matrix in (DOUBLE, TWIN):
        f = random_real_poly(rng, matrix.dim, span=4, terms=5).centered()
        g = random_real_poly(rng, matrix.dim, span=4, terms=5)
        report = analysis.decay_report(f, g, matrix, 8)
        assert len(report.rows) == 8
        assert report.check_bound()
        assert report.c_fitted == report.rows[0].ratio
        for row in report.rows:
            assert row.value <= report.c_fitted * row.bound * 1.05 + 1e-12


def test_decay_report_centers_automatically():
    f = TrigPolynomial(1, {(0,): 3.0, (1,): 0.5, (-1,): 0.5})
    report = analysis.decay_report(f, f, DOUBLE, 3)
    assert report.centered
    # the constant mode must not contribute: same values as the centered input
    direct = analysis.decay_report(f.centered(), f, DOUBLE, 3)
    assert [r.value for r in report.rows] == [r.value for r in direct.rows]


def test_decay_report_transfer_norm_mode():
    f = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (4,): 0.25, (-4,): 0.25})
    report = analysis.decay_report(f, f, DOUBLE, 5, mode="transfer_norm")
    want = [spectral.norm(spectral.transfer_fourier(f, DOUBLE, n), 2) for n in range(1, 6)]
    assert [r.value for r in report.rows] == pytest.approx(want)
    with pytest.raises(InputError):
        analysis.decay_report(f, f, DOUBLE, 5, mode="bogus")
    with pytest.raises(InputError):
        analysis.decay_report(f, f, DOUBLE, 0)


def test_decay_report_hands_back_transferred_functions():
    f = TrigPolynomial(1, {(0,): 1.0, (3,): 0.5, (-3,): 0.5, (6,): 0.25, (-6,): 0.25})
    report = analysis.decay_report(f, f, DOUBLE, 4, mode="transfer_norm")
    for row in report.rows:
        want = spectral.transfer_fourier(f.centered(), DOUBLE, row.n)
        assert row.transferred.coeffs == want.coeffs
    report = analysis.decay_report(f, f, DOUBLE, 2)
    assert all(row.transferred is None for row in report.rows)


def test_decay_report_steps_each_row_from_the_last(monkeypatch):
    # row n takes one step from row n - 1, so each surviving term is solved once a
    # row; every row solved all of f's terms afresh, 6 rows x 6 terms
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5, (4,): 0.25, (-4,): 0.25,
                           (24,): 0.125j, (-24,): -0.125j})
    solves = count_solves(monkeypatch)
    report = analysis.decay_report(f, f, DOUBLE, 6, mode="transfer_norm")
    monkeypatch.undo()
    rows = [transfer_by_powers(f.centered(), DOUBLE, n) for n in range(7)]
    assert len(solves) == sum(len(g.coeffs) for g in rows[:6]) == 16
    assert [list(r.transferred.coeffs.items()) for r in report.rows] == [
        list(g.coeffs.items()) for g in rows[1:]]


def test_decay_report_monte_carlo():
    f = TrigPolynomial(1, {(0,): 0.3, (1,): 0.5, (-1,): 0.5, (2,): 0.25, (-2,): 0.25})
    g = TrigPolynomial.cosine(1)
    report = analysis.decay_report(f, g, DOUBLE, 3, mc_samples=2000, seed=4)
    exact = analysis.decay_report(f, g, DOUBLE, 3)
    # the Monte Carlo values use the uncentered f; the bounds do not depend on it
    assert [r.value for r in report.rows] == [
        abs(analysis.correlation(f, g, DOUBLE, n, mc_samples=2000, seed=4))
        for n in (1, 2, 3)
    ]
    assert [r.bound for r in report.rows] == [r.bound for r in exact.rows]
    with pytest.raises(InputError):
        analysis.decay_report(f, g, DOUBLE, 3, mode="transfer_norm", mc_samples=10)
    # a constant f has a zero bound; noisy estimates must not trip DegenerateBound
    const = TrigPolynomial(1, {(0,): 2.0})
    report = analysis.decay_report(const, g, DOUBLE, 2, mc_samples=500, seed=1)
    assert all(r.bound == 0.0 and r.ratio == 0.0 for r in report.rows)


def test_decay_report_all_zero_fit():
    f = TrigPolynomial.cosine(1)  # falls into the kernel after one step
    report = analysis.decay_report(f, f, DOUBLE, 10, mode="transfer_norm")
    assert report.fit is not None
    assert report.fit.model == "all-zero"


def test_fit_rate_power():
    rows = [(n, 2.7 * n**-1.5) for n in range(1, 60)]
    fit = analysis.fit_rate(rows)
    assert fit.model == "power"
    assert fit.param == pytest.approx(1.5, abs=1e-9)
    assert fit.amplitude == pytest.approx(2.7, rel=1e-9)
    assert set(fit.candidates) >= {"power", "exponential"}


def test_fit_rate_exponential():
    rows = [(n, 0.9 * 0.7**n) for n in range(1, 40)]
    fit = analysis.fit_rate(rows)
    assert fit.model == "exponential"
    assert fit.param == pytest.approx(0.7, abs=1e-9)


def test_fit_rate_log_model():
    rows = [(n, math.log(n) ** -2.0) for n in range(10, 400)]
    fit = analysis.fit_rate(rows)
    assert fit.model == "log"
    assert fit.param == pytest.approx(2.0, abs=1e-6)


def test_fit_rate_drops_a_model_whose_amplitude_overflows():
    # on steep geometric rows the log model's amplitude e^a leaves float range
    # from 680 rows on; the fits that stay in range are unchanged
    fit = analysis.fit_rate([(n, 0.55**n) for n in range(681)])
    assert fit.model == "exponential"
    assert fit.param == pytest.approx(0.55, rel=1e-12)
    assert set(fit.candidates) == {"power", "exponential"}
    assert all(math.isfinite(v) for c in fit.candidates.values() for v in c)
    with pytest.raises(InputError, match="float range"):  # every model overflows
        analysis.fit_rate([(n, math.exp(700.0 - n * n)) for n in range(1, 27)])


def test_fit_rate_edge_cases():
    assert analysis.fit_rate([(n, 0.0) for n in range(1, 20)]).model == "all-zero"
    with pytest.raises(InputError):
        analysis.fit_rate([(n, 1.0 / n) for n in range(1, 6)])  # too few rows
    with pytest.raises(InputError):
        analysis.fit_rate([])
