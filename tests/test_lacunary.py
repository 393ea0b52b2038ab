"""Lacunary series: exact transfer decay, tail formulas, designer."""

import math

import numpy as np
import pytest
from scipy import integrate

from toraldecay import lacunary, lattice, spectral
from toraldecay.errors import InputError, NotDecreasing, NotSimilarity

DOUBLE = lattice.validate_expanding([[2]])
TWIN = lattice.validate_expanding([[1, -1], [1, 1]])
TRIPLE = lattice.validate_expanding([[3]])


def staged_power_tail(alpha, n, M=10**7):
    # direct summation to M plus Euler-Maclaurin remainder; no zeta calls
    k = np.arange(n + 1, M + 1, dtype=float)
    head = float(np.sum(k**-alpha))
    g = (M + 1.0) ** -alpha
    integral = (M + 1.0) ** (1.0 - alpha) / (alpha - 1.0)
    return head + integral + g / 2.0 - alpha * (M + 1.0) ** (-alpha - 1.0) / 12.0


def staged_logpower_tail(power, beta, n, M=10**7):
    k = np.arange(n + 1, M + 1, dtype=float)
    head = float(np.sum((k * np.log(k + 1.0) ** beta) ** -power))
    w0 = math.log(M + 1.0)
    if power == 1:
        integrand = lambda w: (w + math.log1p(math.exp(-w))) ** -beta
    else:
        integrand = lambda w: math.exp(-w) * (
            w + math.log1p(math.exp(-w))
        ) ** (-power * beta)
    integral, _ = integrate.quad(integrand, w0, np.inf)
    g = ((M + 1.0) * math.log(M + 2.0) ** beta) ** -power
    return head + integral + g / 2.0


def test_spec_validation():
    with pytest.raises(InputError):
        lacunary.LacunarySpec((0,), DOUBLE, "power", 2.0)  # zero frequency
    with pytest.raises(InputError):
        lacunary.LacunarySpec((1, 0), DOUBLE, "power", 2.0)  # dim mismatch
    with pytest.raises(InputError):
        lacunary.LacunarySpec((1,), DOUBLE, "power", 1.0)
    with pytest.raises(InputError):  # the zeta head would run to 8 * 2 alpha terms
        lacunary.LacunarySpec((1,), DOUBLE, "power", 2.0 * lacunary.POWER_MAX)
    with pytest.raises(InputError):
        lacunary.LacunarySpec((1,), DOUBLE, "logpower", 0.5)
    with pytest.raises(InputError):  # a_1^2 = log(2)^-2 beta would leave float range
        lacunary.LacunarySpec((1,), DOUBLE, "logpower", lacunary.LOGPOWER_MAX + 1.0)
    with pytest.raises(InputError):
        lacunary.LacunarySpec((1,), DOUBLE, "geometric", 0.4)  # below 1/lambda
    with pytest.raises(InputError):
        lacunary.LacunarySpec((1,), DOUBLE, "geometric", 1.0)
    with pytest.raises(InputError):
        lacunary.LacunarySpec((1,), DOUBLE, "explicit", [0.5, -0.1])
    with pytest.raises(InputError):
        lacunary.LacunarySpec((1,), DOUBLE, "cauchy", 2.0)
    spec = lacunary.LacunarySpec((1,), DOUBLE, "explicit", [0.5, 0.25])
    assert spec.truncation == 2


def test_coefficient_families():
    spec = lacunary.LacunarySpec((1,), DOUBLE, "power", 2.0)
    assert np.allclose(lacunary.coefficients(spec, 4), [1, 0.25, 1 / 9, 1 / 16])
    spec = lacunary.LacunarySpec((1,), DOUBLE, "geometric", 0.7)
    assert np.allclose(lacunary.coefficients(spec, 3), [0.7, 0.49, 0.343])
    spec = lacunary.LacunarySpec((1,), DOUBLE, "logpower", 2.0)
    want = [1.0 / (k * math.log(k + 1) ** 2) for k in (1, 2, 3)]
    assert np.allclose(lacunary.coefficients(spec, 3), want)
    spec = lacunary.LacunarySpec((1,), DOUBLE, "power", 2.0, truncation=2)
    assert np.allclose(lacunary.coefficients(spec, 4), [1, 0.25, 0, 0])


def test_build_frequencies_exact():
    spec = lacunary.LacunarySpec((1, 0), TWIN, "power", 2.0, truncation=6)
    built = lacunary.lacunary_build(spec)
    assert not built.real_valued
    star = TWIN.star()
    freq = (1, 0)
    for k in range(1, 7):
        freq = lattice.mat_vec(star, freq)
        assert built.coeffs[freq] == pytest.approx(k**-2.0)
    assert len(built.coeffs) == 6
    # Parseval on distinct frequencies
    assert spectral.norm(built, 2) == pytest.approx(
        math.sqrt(sum(k**-4.0 for k in range(1, 7)))
    )


def test_transfer_norm_identity():
    # ||L^n H_K||_2^2 = sum_{k >= max(n,1)} a_k^2: one step drops nothing
    # (the k=1 term lands on h itself), later steps drop one term each
    cases = [
        (DOUBLE, (1,), "power", 2.0),
        (TWIN, (1, 0), "power", 1.5),
        (TRIPLE, (1,), "geometric", 0.5),
    ]
    for matrix, h, family, param in cases:
        spec = lacunary.LacunarySpec(h, matrix, family, param, truncation=10)
        built = lacunary.lacunary_build(spec)
        a = lacunary.coefficients(spec, 10)
        for n in range(0, 13):
            measured = spectral.norm(spectral.transfer_fourier(built, matrix, n), 2)
            want = math.sqrt(float(np.sum(a[max(n, 1) - 1 :] ** 2)))
            assert measured == pytest.approx(want, abs=1e-14)


def test_truncated_tails_are_suffix_sums():
    spec = lacunary.LacunarySpec((1,), DOUBLE, "power", 2.0, truncation=7)
    a = [k**-2.0 for k in range(1, 8)]
    for n in range(0, 9):
        t = lacunary.tail_norms(spec, n)
        assert t.l1 == pytest.approx(sum(a[n:]), abs=1e-15)
        assert t.l2 == pytest.approx(math.sqrt(sum(v**2 for v in a[n:])), abs=1e-15)


def test_power_tails_vs_staged_summation():
    for alpha in (1.5, 2.0, 3.0):
        spec = lacunary.LacunarySpec((1,), DOUBLE, "power", alpha)
        for n in (0, 1, 7, 50):
            t = lacunary.tail_norms(spec, n)
            assert t.l1 == pytest.approx(staged_power_tail(alpha, n), rel=1e-12)
            assert t.l2**2 == pytest.approx(
                staged_power_tail(2.0 * alpha, n), rel=1e-12
            )


def test_logpower_tails_vs_staged_summation():
    for beta in (1.5, 2.0):
        spec = lacunary.LacunarySpec((1,), DOUBLE, "logpower", beta)
        for n in (0, 3, 40):
            t = lacunary.tail_norms(spec, n)
            assert t.l1 == pytest.approx(staged_logpower_tail(1, beta, n), rel=1e-9)
            assert t.l2**2 == pytest.approx(
                staged_logpower_tail(2, beta, n), rel=1e-9
            )


def test_geometric_tails_closed_form():
    spec = lacunary.LacunarySpec((1,), DOUBLE, "geometric", 0.7)
    for n in (0, 2, 9):
        t = lacunary.tail_norms(spec, n)
        direct_l1 = sum(0.7**k for k in range(n + 1, 600))
        direct_l2 = math.sqrt(sum(0.7 ** (2 * k) for k in range(n + 1, 600)))
        assert t.l1 == pytest.approx(direct_l1, rel=1e-13)
        assert t.l2 == pytest.approx(direct_l2, rel=1e-13)


def test_tail_telescoping():
    # tail(n-1) - tail(n) recovers a_n, for every family
    for family, param in (("power", 2.0), ("logpower", 2.0), ("geometric", 0.6)):
        spec = lacunary.LacunarySpec((1,), DOUBLE, family, param)
        a = lacunary.coefficients(spec, 20)
        for n in (1, 5, 20):
            d1 = lacunary.tail_norms(spec, n - 1).l1 - lacunary.tail_norms(spec, n).l1
            assert d1 == pytest.approx(a[n - 1], rel=1e-9)
            sq = (
                lacunary.tail_norms(spec, n - 1).l2 ** 2
                - lacunary.tail_norms(spec, n).l2 ** 2
            )
            assert sq == pytest.approx(a[n - 1] ** 2, rel=1e-7)


def test_build_needs_a_finite_truncation():
    with pytest.raises(InputError):
        lacunary.lacunary_build(lacunary.LacunarySpec((1,), DOUBLE, "geometric", 0.7))


def test_prop2_requires_similarity():
    shear = lattice.validate_expanding([[2, 1], [0, 2]])
    spec = lacunary.LacunarySpec((1, 0), shear, "power", 2.0)
    with pytest.raises(NotSimilarity):
        lacunary.modulus_bounds_prop2(spec, 1)


def test_prop2_bounds_dominate_measured_modulus():
    # certified lower modulus of the built series must sit below the bound
    spec = lacunary.LacunarySpec((1,), DOUBLE, "power", 2.0, truncation=12)
    built = lacunary.lacunary_build(spec)
    lam = DOUBLE.lambda_min
    for n in (0, 1, 3, 5):
        b = lacunary.modulus_bounds_prop2(spec, n)
        assert b.constant == pytest.approx(2.0 * math.pi)
        lower_l2 = spectral.modulus_value(built, 2, lam**-n if n else 0.5)
        assert lower_l2 <= b.l2_bound * (1.0 + 1e-9)
        lower_sup = spectral.modulus_value(built, "inf", lam**-n if n else 0.5)
        assert lower_sup <= b.sup_bound * (1.0 + 1e-9)
        assert b.l2_bound <= b.sup_bound + 1e-12  # L2(mu) never beats sup


def test_prop2_l2_bound_stays_positive_where_squares_underflow():
    # geometric 0.55 on [[2]]: the plain sum of squares read 0.0 from n = 627,
    # above a positive measured norm ||L^n f||_2 = tail_2(n - 1)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    spec = lacunary.LacunarySpec((1,), DOUBLE, "geometric", 0.55)
    for n in (596, 627, 680):
        bound = lacunary.modulus_bounds_prop2(spec, n).l2_bound
        assert bound >= lacunary.tail_norms(spec, n - 1).l2 > 0.0
        a = lacunary.coefficients(spec, n)
        phase = 2.0 * math.pi * 2.0 ** (np.arange(1, n + 1) - n)
        want = mp.sqrt(sum(min(4, mp.mpf(p) ** 2) * mp.mpf(c) ** 2 for p, c in zip(phase, a))
                       + 4 * mp.mpf(lacunary.tail_norms(spec, n).l2) ** 2)
        assert abs(bound - want) <= 1e-15 * want


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_truncated_l2_tail_past_the_square_range(scale):
    # the squares of a truncated tail underflowed to an l2 tail of 0.0 at 1e-200 (and
    # a prop2 L2 bound of 0.0 at n = 0, under a measured norm of 1e-200), or
    # overflowed to inf at 1e200
    coeffs = [3.0 * scale, 4.0 * scale, 12.0 * scale]
    spec = lacunary.LacunarySpec((1,), DOUBLE, "explicit", coeffs)
    for n, want in ((0, 13.0), (1, math.hypot(4.0, 12.0)), (2, 12.0), (3, 0.0)):
        assert lacunary.tail_norms(spec, n).l2 == pytest.approx(want * scale, rel=1e-15, abs=0)
    bound = lacunary.modulus_bounds_prop2(spec, 0).l2_bound
    assert bound == pytest.approx(26.0 * scale, rel=1e-15, abs=0)


def test_prop2_zero_steps_is_pure_tail():
    spec = lacunary.LacunarySpec((1,), DOUBLE, "power", 2.0)
    b = lacunary.modulus_bounds_prop2(spec, 0)
    t = lacunary.tail_norms(spec, 0)
    assert b.sup_bound == pytest.approx(2.0 * t.l1)
    assert b.l2_bound == pytest.approx(2.0 * t.l2)


def test_design_round_trip_sup():
    targets = [2.0**-n for n in range(1, 9)]
    coeffs = lacunary.design_for_rate(targets, norm="sup")
    spec = lacunary.LacunarySpec((1,), DOUBLE, "explicit", coeffs)
    for n, want in enumerate(targets, start=1):
        assert abs(lacunary.tail_norms(spec, n).l1 - want) < 1e-15


def test_design_round_trip_l2():
    targets = [1.0 / (n + 1.0) for n in range(1, 9)]
    coeffs = lacunary.design_for_rate(targets, norm="l2")
    spec = lacunary.LacunarySpec((1,), DOUBLE, "explicit", coeffs)
    for n, want in enumerate(targets, start=1):
        assert abs(lacunary.tail_norms(spec, n).l2 - want) < 1e-15


def test_design_validation():
    with pytest.raises(NotDecreasing):
        lacunary.design_for_rate([0.5, 0.6])
    with pytest.raises(NotDecreasing):
        lacunary.design_for_rate([1.5, 0.5])
    with pytest.raises(NotDecreasing):
        lacunary.design_for_rate([0.5, 0.0])
    with pytest.raises(InputError):
        lacunary.design_for_rate([])
    with pytest.raises(InputError):
        lacunary.design_for_rate([0.5], norm="sup_bogus")


def test_designed_series_realizes_rate_under_transfer():
    # closing the loop: transfer the built designed series and measure
    targets = [math.exp(-math.sqrt(n)) for n in range(1, 7)]
    coeffs = lacunary.design_for_rate(targets, norm="l2")
    spec = lacunary.LacunarySpec((1,), DOUBLE, "explicit", coeffs)
    built = lacunary.lacunary_build(spec)
    for n, want in enumerate(targets, start=1):
        # one extra step: || L^(n+1) H || = l2 tail at n (the k=1 term
        # survives the first application)
        measured = spectral.norm(
            spectral.transfer_fourier(built, DOUBLE, n + 1), 2
        )
        assert measured == pytest.approx(want, abs=1e-14)
