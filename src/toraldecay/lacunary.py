"""Lacunary exponential series with exactly computable transfer-norm decay.

The series is sum over k >= 1 of a_k * e(2 pi i <A*^k h, x>). Because the
adjoint orbit A*^k h never revisits a frequency, every transfer step just
drops the leading term, so L^p decay reduces to coefficient tails. The three
coefficient families (power, logpower, geometric) realize polynomial,
logarithmic, and exponential rates; the designer inverts the telescoping to
hit an arbitrary prescribed decreasing rate.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lattice, tails
from .errors import InputError, InternalError, NotDecreasing, NotSimilarity
from .spectral import TrigPolynomial

FAMILIES = ("power", "logpower", "geometric", "explicit")
POWER_MAX = 1e4  # k^-alpha underflows for every k >= 2 from alpha = 1075 on
# a_1 = log(2)^-beta; 4 a_1^2 (the prop2 L2 bound) leaves float range near beta = 966
LOGPOWER_MAX = 900.0
# logpower heads are summed directly up to this index, then Euler-Maclaurin
SUM_SPLIT = 512
# modulus_bounds_prop2 squares its L2 terms as they are while the largest
# lies in this range, where its square is normal and a sum of squares
# stays far below overflow; outside it, the terms are scaled first
SQUARE_RANGE = (2.0**-511, 2.0**500)


@dataclass
class LacunarySpec:
    """Base frequency h, adjoint matrix orbit, and coefficient family.

    param is the family parameter: alpha for power (alpha > 1), beta for
    logpower (beta > 1), theta for geometric (1/lambda < theta < 1), or the
    coefficient list itself for explicit. truncation=None means the ideal
    infinite series: tails are then true infinite tails, and
    lacunary_build refuses it.
    """

    h: tuple
    matrix: object
    family: str
    param: object
    truncation: int = None

    def __post_init__(self):
        self.h = tuple(int(v) for v in self.h)
        if len(self.h) != self.matrix.dim:
            raise InputError("base frequency dimension does not match matrix")
        if not any(self.h):
            raise InputError("base frequency must be nonzero")
        if self.family not in FAMILIES:
            raise InputError("unknown coefficient family %r" % (self.family,))
        if self.family == "explicit":
            coeffs = [float(a) for a in self.param]
            if any(a < 0 for a in coeffs):
                raise InputError("explicit coefficients must be nonnegative")
            self.param = coeffs
            self.truncation = len(coeffs)
        else:
            p = float(self.param)
            self.param = p
            if self.family == "power" and not 1 < p <= POWER_MAX:
                raise InputError("power family needs 1 < alpha <= %g" % POWER_MAX)
            if self.family == "logpower" and not 1 < p <= LOGPOWER_MAX:
                raise InputError("logpower family needs 1 < beta <= %g" % LOGPOWER_MAX)
            if self.family == "geometric":
                lo = 1.0 / self.matrix.lambda_min
                if not lo < p < 1:
                    raise InputError(
                        "geometric family needs 1/lambda < theta < 1, got %g"
                        " with 1/lambda = %g" % (p, lo)
                    )
        if self.truncation is not None:
            self.truncation = int(self.truncation)
            if self.truncation < 0:
                raise InputError("truncation must be >= 0")


def coefficients(spec, kmax):
    """a_1..a_kmax as an array, zero beyond the truncation if one is set."""
    ks = np.arange(1, kmax + 1, dtype=float)
    if spec.family == "power":
        a = ks ** (-spec.param)
    elif spec.family == "logpower":
        with np.errstate(over="ignore"):  # a denominator past float range gives a_k = 0
            a = 1.0 / (ks * np.log(ks + 1.0) ** spec.param)
    elif spec.family == "geometric":
        a = spec.param**ks
    else:
        a = np.zeros(kmax)
        m = min(kmax, len(spec.param))
        a[:m] = spec.param[:m]
    if spec.truncation is not None and spec.truncation < kmax:
        a[spec.truncation :] = 0.0
    return a


def lacunary_build(spec):
    """Truncated series as a TrigPolynomial with exact integer frequencies.

    The spec must carry a finite truncation: the CLI builds max(64, nmax + 32)
    terms of an untruncated family.
    """
    k = spec.truncation
    if k is None:
        raise InputError("lacunary_build needs a finite truncation")
    a = coefficients(spec, k)
    star = spec.matrix.star()
    freq = spec.h
    coeffs = {}
    for i in range(k):
        freq = lattice.mat_vec(star, freq)
        if a[i] == 0.0:
            continue
        if freq in coeffs:
            raise InternalError("adjoint orbit revisited frequency %r" % (freq,))
        coeffs[freq] = complex(a[i])
    return TrigPolynomial(spec.matrix.dim, coeffs)


class TailNorms(NamedTuple):
    l2: float
    l1: float


def tail_norms(spec, n):
    """(sqrt(sum_{k>n} a_k^2), sum_{k>n} a_k), honoring the truncation.

    truncation=None gives the infinite-series tails: closed form for the
    geometric family, Hurwitz zeta for the power family and a short head
    plus Euler-Maclaurin for the logpower family (both in `tails`).
    """
    if n < 0:
        raise InputError("tail index must be >= 0")
    n = int(n)
    if spec.truncation is not None:
        a = coefficients(spec, spec.truncation)[n:]
        # ascending summation: smallest terms first
        return TailNorms(math.sqrt(np.sum(a[::-1] ** 2)), float(np.sum(a[::-1])))
    if spec.family == "geometric":
        t = spec.param
        return TailNorms(t ** (n + 1) / math.sqrt(1 - t * t), t ** (n + 1) / (1 - t))
    if spec.family == "power":
        alpha = spec.param
        return TailNorms(
            math.sqrt(tails.hurwitz_zeta(2 * alpha, n + 1)),
            tails.hurwitz_zeta(alpha, n + 1),
        )
    beta = spec.param
    return TailNorms(
        math.sqrt(_logpower_tail(2.0, 2.0 * beta, n)),
        _logpower_tail(1.0, beta, n),
    )


def _logpower_tail(p, b, n):
    """sum_{k>n} 1/(k^p log^b(k+1)) for p in {1,2}.

    Terms below m = max(SUM_SPLIT, n + 1) are summed directly, ascending;
    tails.euler_maclaurin adds the rest from m. With L(t) = log(t+1), the
    integral is Gauss-Laguerre after t = m e^u; for p = 1 the part
    int_m^inf dt/((t+1) L^b) = L(m)^(1-b)/(b-1) is split off first,
    leaving int_m^inf dt/(t (t+1) L^b).
    """
    m = max(SUM_SPLIT, n + 1)
    ks = np.arange(m - 1, n, -1, dtype=float)  # descending k, ascending terms
    u, w = tails.gauss_laguerre()
    log_t1 = math.log(m) + u + np.log1p(np.exp(-u) / m)  # L(m e^u)
    with np.errstate(over="ignore"):  # a denominator past float range adds 0
        head = float(np.sum(1.0 / (ks**p * np.log(ks + 1.0) ** b)))
        if p == 1:
            integral = math.log1p(m) ** (1.0 - b) / (b - 1.0)
            integral += float(np.sum(w / ((m + np.exp(-u)) * log_t1**b)))
        else:
            integral = float(np.sum(w * log_t1 ** (-b))) / m
    log_jet = [math.log1p(m)] + [
        (-1.0) ** (k + 1) / (k * (m + 1.0) ** k) for k in range(1, tails.ORDER + 1)
    ]
    taylor = tails.series_mul(tails.power_taylor(m, p), tails.series_pow(log_jet, -b))
    return tails.euler_maclaurin(head, integral, taylor)


class Prop2Bounds(NamedTuple):
    sup_bound: float
    l2_bound: float
    constant: float  # the head-bracket factor 2 pi |h|_2


def modulus_bounds_prop2(spec, n):
    """Two-bracket modulus bounds at delta = lambda^-n for similarity matrices.

    Head terms k <= n contribute a_k * min(2, 2 pi |h| lambda^(k-n)) to the
    sup bound (squared entries with ceiling 4 on the L2 side, exact by
    Parseval); the tail bracket carries the factor 2 from |e(phi) - 1| <= 2,
    so n = 0 reduces to twice the pure l1 tail.
    """
    if n < 0:
        raise InputError("steps must be >= 0")
    c = spec.matrix.similarity_factor()
    if c is None:
        raise NotSimilarity(
            "modulus bounds require A^T A proportional to the identity"
        )
    lam = math.sqrt(c)
    h_norm = math.sqrt(sum(v * v for v in spec.h))
    const = 2.0 * math.pi * h_norm
    n = int(n)
    a = coefficients(spec, n)
    phase = const * lam ** (np.arange(1, n + 1) - n)
    l2_tail, l1_tail = tail_norms(spec, n)
    sup = float(np.sum(np.minimum(2.0, phase) * a)) + 2.0 * l1_tail
    terms = np.append(np.minimum(2.0, phase) * np.abs(a), 2.0 * l2_tail)
    top = float(terms.max())
    if top == 0.0 or SQUARE_RANGE[0] <= top < SQUARE_RANGE[1]:
        l2 = math.sqrt(float(np.sum(np.minimum(4.0, phase**2) * a**2)) + 4.0 * l2_tail**2)
    else:  # square the terms scaled by top's exponent, as spectral._unit_scale scales rows
        e = math.frexp(top)[1]
        l2 = math.ldexp(math.sqrt(float(np.sum(np.ldexp(terms, -e) ** 2))), e)
    return Prop2Bounds(sup, l2, const)


def design_for_rate(targets, norm="sup"):
    """Coefficients whose tails reproduce the target sequence exactly.

    sup mode: a_n = delta_{n-1} - delta_n with delta_0 = 1; l2 mode:
    a_n = sqrt(delta_{n-1}^2 - delta_n^2). A closing coefficient
    a_{N+1} = delta_N makes the telescoping exact at every n <= N.
    """
    if norm not in ("sup", "l2"):
        raise InputError("norm must be sup or l2")
    deltas = [float(t) for t in targets]
    if not deltas:
        raise InputError("empty target sequence")
    if deltas[0] >= 1.0:
        raise NotDecreasing("targets must start below delta_0 = 1")
    prev = 1.0
    coeffs = []
    for d in deltas:
        if not 0.0 < d <= prev:
            raise NotDecreasing("targets must stay in (0, 1) and never increase")
        if norm == "sup":
            coeffs.append(prev - d)
        else:
            coeffs.append(math.sqrt(prev * prev - d * d))
        prev = d
    coeffs.append(prev)
    return coeffs
