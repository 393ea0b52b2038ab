"""Correlation sequences, decay reports, and rate fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expanding_matrices
from toraldecay import analysis, lattice, rng, spectral
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
    a = analysis.correlation(f, f, TWIN, 1, mc_samples=5000, seed=3, threads=1)
    b = analysis.correlation(f, f, TWIN, 1, mc_samples=5000, seed=3, threads=4)
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


def test_correlation_mc_refuses_powers_past_float_precision():
    # from n = 53 on, A^n x mod 1 is 0 for every 53-bit draw x, and the
    # estimate read 0.995 where the exact correlation is 0
    f = TrigPolynomial(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    g = TrigPolynomial(1, {(0,): 1.0, (3,): 0.5, (-3,): 0.5})
    assert analysis.correlation(f, g, DOUBLE, 53) == 0
    # ||A^n||_inf max |k|_1 = 3 2^n passes MC_PHASE_LIMIT = 2^40 at n = 39
    assert abs(analysis.correlation(f, g, DOUBLE, 38, mc_samples=20000, seed=1)) < 0.02
    for n in (39, 53):
        with pytest.raises(InputError):
            analysis.correlation(f, g, DOUBLE, n, mc_samples=20000, seed=1)


def test_decay_report_checks_the_mc_limit_before_the_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr(spectral, "modulus_value", no_search)
    f, g = TrigPolynomial.cosine(1), TrigPolynomial.cosine(3)
    with pytest.raises(InputError, match="n=60 reaches the Monte Carlo"):
        analysis.decay_report(f, g, lattice.validate_expanding([[2]]), 60, mc_samples=20000)


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
