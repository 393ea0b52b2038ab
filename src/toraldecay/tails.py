"""Tails of smooth series: one Euler-Maclaurin kernel, numpy and stdlib only.

The sums here are sum_{k >= 0} g(x + k) for completely monotone g, such as
t^-s (Hurwitz zeta) and t^-p log^-b(t + 1) (lacunary logpower tails). A
short head is summed directly; from M on, the rest is

    int_M^inf g + g(M)/2 - sum_j B_2j / (2j)! g^(2j-1)(M).

For completely monotone g each odd derivative is monotone, so the error
after J corrections is at most 4 |g^(2J-1)(M)| / (2 pi)^(2J), twice the
last correction (Johansson, "Rigorous high-precision computation of the
Hurwitz zeta function and its derivatives", Numer. Algorithms 2015).
Corrections are added until that bound drops below one rounding unit of
the sum. The derivatives come from Taylor coefficients of g at M, built
by power-series arithmetic.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import InternalError

# B_2, B_4, ..., B_12
BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)
ORDER = 2 * len(BERNOULLI) - 1  # highest Taylor coefficient a correction reads
EPS = 2.0**-53
HURWITZ_START = 64  # zeta heads run to M >= max(HURWITZ_START, 8 s)
LAGUERRE_NODES = 60


def euler_maclaurin(head, integral, taylor):
    """head + int_M^inf g + g(M)/2 - sum_j B_2j/(2j) c_(2j-1).

    taylor holds the Taylor coefficients c_k = g^(k)(M)/k! for k = 0..ORDER
    of a completely monotone g. Raises InternalError when six corrections
    leave the error bound above one rounding unit, which means M is too
    small for this g.
    """
    total = head + integral + 0.5 * taylor[0]
    for j, b in enumerate(BERNOULLI, start=1):
        term = b / (2 * j) * taylor[2 * j - 1]
        total -= term
        if 2.0 * abs(term) <= EPS * abs(total):
            return float(total)
    raise InternalError("Euler-Maclaurin corrections did not settle; the head is too short")


def series_pow(u, a):
    """Taylor coefficients of u^a from those of u, with u[0] > 0.

    J. C. P. Miller's recurrence: u w' = a u' w gives
    w_k = sum_{j=1..k} ((a + 1) j - k) u_j w_(k-j) / (k u_0).
    """
    w = [u[0] ** a]
    for k in range(1, len(u)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += ((a + 1.0) * j - k) * u[j] * w[k - j]
        w.append(acc / (k * u[0]))
    return w


def series_mul(u, v):
    """Taylor coefficients of u v, truncated to the length of u."""
    return np.convolve(u, v)[: len(u)].tolist()


def power_taylor(m, s):
    """Taylor coefficients of t^-s at t = m: c_k = binom(-s, k) m^(-s-k)."""
    c = [m**-s]
    for k in range(1, ORDER + 1):
        c.append(c[-1] * -(s + k - 1.0) / (k * m))
    return c


@lru_cache(maxsize=1)
def gauss_laguerre():
    """Nodes and weights for int_0^inf e^-s f(s) ds, computed on first use."""
    from numpy.polynomial import laguerre

    return laguerre.laggauss(LAGUERRE_NODES)


def hurwitz_zeta(s, x):
    """zeta(s, x) = sum_{k >= 0} (x + k)^-s for s > 1, x > 0."""
    head_len = max(0, math.ceil(max(HURWITZ_START, 8.0 * s) - x))
    ts = x + np.arange(head_len - 1, -1, -1, dtype=float)  # ascending terms
    head = float(np.sum(ts**-s))
    m = x + head_len
    return euler_maclaurin(head, m ** (1.0 - s) / (s - 1.0), power_taylor(m, s))
