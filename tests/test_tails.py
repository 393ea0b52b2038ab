"""Euler-Maclaurin tails and the scipy-free kernels against mpmath at 30+ digits."""

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from toraldecay import lacunary, lattice, stochastic, tails
from toraldecay.errors import InternalError

DOUBLE = lattice.validate_expanding([[2]])
DIGITS = 30
# mpmath.zeta(s, a) loses digits for large s and a: at 30 digits
# zeta(12, 1001) is off by 2e-11 and zeta(40, 1001) by 8e-10 (even at 80
# digits by 4e-11), so zeta references use 50 digits and s <= 12, and
# larger s is checked against a direct sum.
ZETA_DIGITS = 50
REL = 1e-12


def rel_err(ours, ref):
    return float(abs(mp.mpf(ours) - ref) / abs(ref))


def em_reference(g, n, integral, start=100, corrections=10):
    """sum_{k>n} g(k) in mpmath: head to M = max(n+1, start), then Euler-Maclaurin.

    Derivatives come from mpmath's numerical Taylor expansion and the
    integral from the caller, so nothing is shared with the kernel under
    test. At M >= 100 ten corrections leave an error far below 1e-30.
    """
    m = max(n + 1, start)
    head = mp.fsum(g(mp.mpf(k)) for k in range(n + 1, m))
    m = mp.mpf(m)
    c = mp.taylor(g, m, 2 * corrections - 1)
    corr = mp.fsum(mp.bernoulli(2 * j) / (2 * j) * c[2 * j - 1]
                   for j in range(1, corrections + 1))
    return head + integral(m) + g(m) / 2 - corr


def logpower_reference(p, b, n):
    b = mp.mpf(b)

    def integral(m):
        # v = log(t + 1) = v0 e^w; past w = 8, v > 1000 and 1/(1 - e^-v) is 1
        v0 = mp.log(m + 1)

        def f(w):
            v = v0 * mp.exp(w)
            return mp.exp((1 - p) * v) / (-mp.expm1(-v)) ** p * v ** (1 - b)

        rest = (v0 * mp.exp(8)) ** (1 - b) / (b - 1) if p == 1 else 0
        return mp.quad(f, [0, 1, 4, 8]) + rest

    return em_reference(lambda t: t**-p * mp.log(t + 1) ** -b, n, integral)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("b", [1.5, 2.0, 3.0, 6.0])
def test_logpower_tail_vs_mpmath(p, b):
    with mp.workdps(DIGITS):
        for n in (0, 1, 10, 100, 10**4, 10**7):
            ref = logpower_reference(p, b, n)
            err = rel_err(lacunary._logpower_tail(float(p), b, n), ref)
            assert err <= REL, (p, b, n, err)


def direct_zeta(s, x):
    """sum_{k>=0} (x+k)^-s term by term, until a term drops below 1e-40 of the first."""
    s, x = mp.mpf(s), mp.mpf(x)
    terms = []
    k = 0
    while not terms or terms[-1] > terms[0] * mp.mpf(10) ** -40:
        terms.append((x + k) ** -s)
        k += 1
    return mp.fsum(terms)


def test_power_tails_vs_mpmath_zeta():
    with mp.workdps(ZETA_DIGITS):
        for alpha in (1.01, 1.5, 2.0, 3.0, 6.0):
            spec = lacunary.LacunarySpec((1,), DOUBLE, "power", alpha)
            for n in (0, 1, 7, 50, 10**3, 10**6):
                t = lacunary.tail_norms(spec, n)
                assert rel_err(t.l1, mp.zeta(alpha, n + 1)) <= REL, (alpha, n)
                assert rel_err(t.l2, mp.sqrt(mp.zeta(2 * alpha, n + 1))) <= REL, (alpha, n)


def test_large_power_tails_vs_direct_sum():
    with mp.workdps(DIGITS):
        for alpha in (20.0, 40.0):
            spec = lacunary.LacunarySpec((1,), DOUBLE, "power", alpha)
            for n in (0, 1, 7, 50, 200):
                t = lacunary.tail_norms(spec, n)
                assert rel_err(t.l1, direct_zeta(alpha, n + 1)) <= REL, (alpha, n)
                assert rel_err(t.l2, mp.sqrt(direct_zeta(2 * alpha, n + 1))) <= REL, (alpha, n)


def test_hurwitz_zeta_non_integer_shift_vs_mpmath():
    with mp.workdps(ZETA_DIGITS):
        for s in (1.1, 2.0, 3.5, 12.0):
            for x in (0.5, 1.5, 3.25, 63.9, 1e5 + 0.5):
                ref = mp.zeta(s, mp.mpf(x))
                assert rel_err(tails.hurwitz_zeta(s, x), ref) <= REL, (s, x)


def test_trigamma_vs_mpmath():
    with mp.workdps(DIGITS):
        for x in (0.5, 1.0, 1.5, 2.5, 7.0, 64.5, 1e6 + 1, 2.0**20 + 0.5):
            ref = mp.polygamma(1, mp.mpf(x))
            assert rel_err(tails.hurwitz_zeta(2.0, x), ref) <= REL, x


def test_ks_statistic_vs_mpmath_ncdf():
    class Fake:
        pass

    fake = Fake()
    fake.samples = np.random.default_rng(36).normal(size=400) * 1.7
    fake.sigma2 = 3.0
    z = np.sort(fake.samples / math.sqrt(fake.sigma2))
    m = len(z)
    with mp.workdps(DIGITS):
        cdf = [mp.ncdf(mp.mpf(float(v))) for v in z]
        ref = max(max(mp.mpf(i + 1) / m - c for i, c in enumerate(cdf)),
                  max(c - mp.mpf(i) / m for i, c in enumerate(cdf)))
    assert rel_err(stochastic.ks_statistic(fake), ref) <= REL


def test_euler_maclaurin_reports_a_short_head():
    # t^-40 from M = 2: the corrections grow instead of settling
    with pytest.raises(InternalError):
        tails.euler_maclaurin(0.0, 2.0**-39 / 39.0, tails.power_taylor(2.0, 40.0))


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import sys, toraldecay, toraldecay.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
    # the tile census and the self-affinity check run with scipy blocked
    blocked = ("import sys; sys.modules['scipy'] = None; from toraldecay import cli; "
               "sys.exit(cli.main(sys.argv[1:]))")
    argv = ["tile", "--matrix", "1,-1;1,1", "--level", "8", "--samples", "2000",
            "--seed", "3", "--self-affinity", "--coverage-out", str(tmp_path / "cov.json"),
            "--points-out", str(tmp_path / "points.csv")]
    run = subprocess.run([sys.executable, "-c", blocked] + argv, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
