"""Tent map and Ulam-von Neumann map via an exact cosine-basis calculus.

U(y) = 1 - 2y^2 on [-1, 1] is conjugate to the tent map T(x) = 1 - 2|x|
through h(x) = sin(pi x / 2), which carries normalized Lebesgue measure
dx/2 to the invariant arcsine law. One transfer step acts symbolically on
the basis {1, cos(pi k x)}: even indices halve with a sign, odd indices
move into transient half-frequency sines that die on the next step. That
makes the decay of the pulled-back observable log|y| + log 2 exactly
computable: its norm ratio against 2^-n is the constant pi/sqrt(3).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import analysis, lattice, stochastic, tails
from .errors import InputError, InternalError, TooLarge, TruncationTooSmall
from .spectral import ModulusCurve

DEFAULT_TRUNCATION = 10**5
TRUNCATION_GUARD = 10**8  # most series terms one call sums: 0.7-0.9 s at 10^8 (2 vCPUs)
SERIES_LEAF = 2**16  # most series terms held at once: 512 KB
SERIES_TOL = 1e-12
ZERO_VARIANCE_TOL = 1e-10
LOG_FLOOR = 1e-300
LEGENDRE_NODES = 100


def tent_map(x):
    return 1.0 - 2.0 * np.abs(x)


def uvn_map(y):
    return 1.0 - 2.0 * y * y


def conjugacy(x):
    """h(x) = sin(pi x / 2); U o h = h o T."""
    return np.sin(0.5 * math.pi * np.asarray(x, dtype=float))


def tent_transfer_pointwise(f, y):
    """Two-branch transfer sum for T with respect to dx/2 (quadrature oracle)."""
    y = np.asarray(y, dtype=float)
    z = 0.5 * (1.0 - y)
    return 0.5 * (f(z) + f(-z))


def uvn_transfer_pointwise(f, y):
    """Transfer for U as the adjoint of composition on L^2 of the arcsine law.

    The preimage branches +-sqrt((1-y)/2) carry equal invariant mass, so the
    operator is the balanced branch average.
    """
    y = np.asarray(y, dtype=float)
    z = np.sqrt(0.5 * (1.0 - y))
    return 0.5 * (f(z) + f(-z))


@dataclass
class CosineSeries:
    """f(x) = c_0 + sum c_k cos(pi k x) + sum s_m sin(pi m x / 2) on [-1, 1].

    coeffs maps k >= 0 to c_k; sine_part maps odd m >= 1 to s_m. The sine
    terms appear only as one-step transients of odd cosine indices; they are
    odd functions, so a further transfer step annihilates them.
    """

    coeffs: dict = field(default_factory=dict)
    sine_part: dict = field(default_factory=dict)

    def norm_l2(self):
        """Norm in L^2([-1,1], dx/2); the stored basis is orthogonal there."""
        return math.sqrt(self.inner(self))

    def inner(self, other):
        """L^2(dx/2) inner product from shared coefficients, the products summed with math.fsum."""
        products = [self.coeffs.get(0, 0.0) * other.coeffs.get(0, 0.0)]
        products += [0.5 * c * other.coeffs[k] for k, c in self.coeffs.items()
                     if k and k in other.coeffs]
        products += [0.5 * s * other.sine_part[m] for m, s in self.sine_part.items()
                     if m in other.sine_part]
        return math.fsum(products)

    def mean(self):
        return self.coeffs.get(0, 0.0)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.coeffs.get(0, 0.0))
        for k, c in self.coeffs.items():
            if k:
                out += c * np.cos(math.pi * k * x)
        for m, s in self.sine_part.items():
            out += s * np.sin(0.5 * math.pi * m * x)
        return out


def chebyshev_pullback(cheb_coeffs):
    """Pull a Chebyshev combination sum a_k T_k(y) back through y = h(x).

    T_k(h(x)) = cos(k pi/2 - k pi x/2): even k lands on (-1)^(k/2) cos(pi k x/2)
    with integer frequency k/2, odd k on a half-frequency sine.
    """
    series = CosineSeries()
    for k, a in cheb_coeffs.items():
        k = int(k)
        if k < 0:
            raise InputError("Chebyshev index must be >= 0")
        if a == 0:
            continue
        if k == 0:
            series.coeffs[0] = series.coeffs.get(0, 0.0) + a
        elif k % 2 == 0:
            j = k // 2
            sign = -1.0 if j % 2 else 1.0
            series.coeffs[j] = series.coeffs.get(j, 0.0) + sign * a
        else:
            sign = -1.0 if (k - 1) // 2 % 2 else 1.0
            series.sine_part[k] = series.sine_part.get(k, 0.0) + sign * a
    return series


def tent_transfer(f, n):
    """n exact symbolic transfer steps for the tent map.

    Per step: c_0 is fixed; cos(pi 2j x) -> (-1)^j cos(pi j x); odd k goes to
    sin(pi k/2) sin(pi k x/2); the previous sine part vanishes (odd
    functions average to zero over the two branches). Only sign flips and
    copies, so the arithmetic is exact.
    """
    if n < 0:
        raise InputError("steps must be >= 0")
    coeffs = dict(f.coeffs)
    sines = dict(f.sine_part)
    for _ in range(int(n)):
        new_coeffs = {}
        new_sines = {}
        if 0 in coeffs:
            new_coeffs[0] = coeffs[0]
        for k, c in coeffs.items():
            if k == 0:
                continue
            if k % 2 == 0:
                j = k // 2
                new_coeffs[j] = new_coeffs.get(j, 0.0) + (-c if j % 2 else c)
            else:
                # sin(pi k / 2) = (-1)^((k-1)/2) for odd k
                sign = -1.0 if (k - 1) // 2 % 2 else 1.0
                new_sines[k] = new_sines.get(k, 0.0) + sign * c
        coeffs, sines = new_coeffs, new_sines
    return CosineSeries(coeffs, sines)


def uvn_pullback_log(truncation=DEFAULT_TRUNCATION):
    """The centered pullback log|h(x)| + log 2 = -sum_{k>=1} cos(pi k x)/k."""
    k = int(truncation)
    if k < 1:
        raise InputError("truncation must be >= 1")
    return CosineSeries({j: -1.0 / j for j in range(1, k + 1)})


def _inverse_square_sum(top, count, step=1, alternating=False):
    """np.sum of the count terms 1/i^2, i = top, top - step, ... (odd i negated
    if alternating), bit for bit, holding at most SERIES_LEAF terms at once.

    np.sum adds pairwise: its first n // 2 terms, rounded down to a multiple
    of 8, then the rest. Longer runs split the same way, so each leaf is a
    node of that tree. TooLarge past TRUNCATION_GUARD: the callers' first
    sum spans their truncation, so it refuses before any term is built.
    """
    if count > TRUNCATION_GUARD:
        raise TooLarge("truncation %d exceeds the series guard %d" % (count, TRUNCATION_GUARD))
    if count > SERIES_LEAF:
        half = count // 2 - count // 2 % 8
        return (_inverse_square_sum(top, half, step, alternating)
                + _inverse_square_sum(top - half * step, count - half, step, alternating))
    i = np.arange(top, top - count * step, -step, dtype=float)
    np.multiply(i, i, out=i)
    np.divide(1.0, i, out=i)
    if alternating:  # the odd i: every other term, or all or none for an even step
        odd = i[(top + 1) % 2::2] if step % 2 else i[:count * (top % 2)]
        odd *= -1.0
    return np.sum(i)


def _completed_sum(top, count, step=1, alternating=False):
    """`_inverse_square_sum(top, count, step, alternating)` plus its exact tail,
    the terms i = top + step, top + 2 step, ... (alternating: step 1), so the
    value is that of the infinite series. A tail of stride s is
    s^-2 zeta(2, top/s + 1), the trigamma function psi'(top/s + 1) (DLMF 25.11.12).
    """
    def tail(last, stride):  # sum of 1/i^2 over i = last + stride, last + 2 stride, ...
        return tails.hurwitz_zeta(2.0, last / stride + 1) / stride**2

    head = float(_inverse_square_sum(top, count, step, alternating))
    if not alternating:
        return head + tail(top, step)
    # tail(top, 2) holds the i of top's parity, tail(top - 1, 2) the others
    return head + (-1) ** top * (tail(top, 2) - tail(top - 1, 2))


def uvn_decay_norms(n_max, truncation=10**6):
    """||L_T^n (log|h| + log 2)||_2 for n = 0..n_max, with the 2^-n ratio.

    Surviving coefficients at step n sit at source indices k = 2^n j (cosines)
    and k = 2^(n-1) m, m odd (transient sines); their inverse-square sums are
    streamed up to the truncation and completed with exact trigamma tails
    (`_completed_sum`), so the reported values are those of the full
    infinite series. The ratio value / 2^-n equals pi/sqrt(3) for every n >= 1.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    k = int(truncation)
    if k >> (n_max + 4) <= 0:  # k < 2^(n_max+4), without forming 2^(n_max+4)
        top = TRUNCATION_GUARD.bit_length() - 5  # the largest n_max the guard leaves a truncation
        hint = "; the series guard %d allows n_max <= %d" % (TRUNCATION_GUARD, top)
        raise TruncationTooSmall("need truncation >= 2^(n_max+4) = 2^%d, got %d%s"
                                 % (n_max + 4, k, hint if n_max > top else ""))
    rows = []
    for n in range(n_max + 1):
        cos_sum = _completed_sum(k >> n, k >> n)
        odd_sum = 0.0  # row 0 has no sine part
        if n:
            m_max = k >> (n - 1)
            odd_top = m_max - 1 + m_max % 2  # the largest odd m <= m_max
            odd_sum = _completed_sum(odd_top, (odd_top + 1) // 2, 2)
        value_sq = 0.5 * (0.25**n * cos_sum + 4.0 * 0.25**n * odd_sum)
        value = math.sqrt(value_sq)
        bound = 2.0**-n
        rows.append(analysis.DecayRow(n, value, bound, value / bound))
    return analysis.DecayReport(rows, False)


class SqrtModulusResult(NamedTuple):
    curve: object  # spectral.ModulusCurve over the requested radii
    exponent: float  # fitted p in Omega ~ delta^p


def uvn_modulus_sqrt_delta(deltas):
    """L^2 modulus of log|h| on the length-2 circle, with a power-law fit.

    Parseval gives Omega^2(u) = 2 sum sin^2(pi n u / 2)/n^2, which sums in
    closed form to pi^2 u (2 - u) / 4 for u in [0, 2]; that increases on
    [0, 1], so the modulus is the square root of its value at u = delta,
    of order sqrt(delta) as delta -> 0.
    """
    radii = [float(d) for d in deltas]
    if not radii:
        raise InputError("empty delta list")
    if any(not 0.0 < d <= 0.5 for d in radii):
        raise InputError("deltas must lie in (0, 1/2]")
    values = [math.sqrt(math.pi**2 * d * (2.0 - d) / 4.0) for d in radii]
    curve = ModulusCurve(radii, values)
    _, slope, _ = analysis._linear_fit(np.log(radii), np.log(values))
    return SqrtModulusResult(curve, float(slope))


def _lyapunov_terms(k, tol):
    """Terms j = 0, 1, ... of the Lyapunov variance series, as streamed sums.

    <L_T^j g, g> for the pullback g = -sum_{i<=k} cos(pi i x)/i keeps the
    indices i <= k >> j, each with (-1)^i / (2^j i^2) (the sign flips of
    `tent_transfer` multiply to (-1)^i; its sines are orthogonal to g), so
    term_0 = (1/2) sum i^-2 + (1/2) psi'(k+1) and, for j >= 1,
    term_j = 2^-j/2 [sum_{i <= k>>j} (-1)^i / i^2 + alternating tail],
    which is -2^-j pi^2/24. Returns the terms through the first j > 0
    with |term_j| < tol.
    """
    terms = [0.5 * _completed_sum(k, k)]
    j = 0
    while j == 0 or abs(terms[-1]) >= tol:
        j += 1
        if j > 256:
            raise InternalError("Lyapunov variance series did not settle")
        surviving = k >> j
        terms.append(0.5 * 2.0**-j * _completed_sum(surviving, surviving, alternating=True))
    return terms


def lyapunov_sigma2():
    """Variance series of the pulled-back Lyapunov observable, term by term.

    Each term pairs L_T^j applied to the series truncated at
    DEFAULT_TRUNCATION against the series itself, plus an exact trigamma
    completion of the alternating tail, so every term matches the
    infinite series; the terms are streamed sums (`_lyapunov_terms`).
    Terms are -2^-j pi^2/24, the sum telescopes to zero: the observable
    is an L^2 coboundary, and the report treats any |sigma^2| below
    1e-10 as exactly degenerate.
    """
    first, *rest = _lyapunov_terms(DEFAULT_TRUNCATION, SERIES_TOL)
    total = first
    for term in rest:
        total += 2.0 * term
    if total < -ZERO_VARIANCE_TOL:
        raise InternalError("Lyapunov variance series summed to %g < 0" % total)
    return 0.0 if abs(total) < ZERO_VARIANCE_TOL else total


@dataclass
class LyapunovReport(stochastic.SampleMoments):
    horizon: int
    seed: int
    sigma2: float
    samples: np.ndarray  # normalized fluctuations (S_n - n log 2)/sqrt(n)
    mean_log_derivative: float  # average over samples of S_n / n
    ks_stat: float = field(init=False)


def _log_sin(hi):
    """log max(|sin 2 pi theta|, LOG_FLOOR) at theta's phase words hi, as sin(pi m 2^-64)
    with m = min(2 hi, -2 hi) mod 2^64: folded exactly, so no digit is lost near 0 or 1/2."""
    twice = hi << np.uint64(1)
    return np.log(np.maximum(np.sin(np.minimum(twice, -twice) * (math.pi * 2.0**-64)), LOG_FLOOR))


def lyapunov_clt(horizon, samples, seed, threads=None):
    """Sample (1/sqrt(n)) [log|(U^n)'(y)| - n log 2] from mu-distributed starts.

    y = -cos 2 pi theta conjugates U to the doubling map, so the orbit is
    `stochastic._torus_orbit`'s on [[2]], refresh included. Between refreshes
    prod_j 2 cos(2^j x) = sin(2^n x) / sin x telescopes the sum of
    log|U'(y_j)| - log 2 to log|sin 2 pi theta_n| - log|sin 2 pi theta_0|: a
    segment is one 128-bit shift and `_log_sin` at its ends, which clamps
    the y = 0 singularity (measure-zero, log-integrable). The limit variance
    is zero (coboundary), so the KS column is skipped as in the degenerate
    toral case.
    """
    frame = stochastic._SamplerFrame(horizon, samples)
    sigma2 = lyapunov_sigma2()
    doubling = lattice.validate_expanding([[2]])

    def worker(run):
        hi, lo, _, refresh = stochastic._torus_orbit(seed, run, doubling)
        jumped = np.empty_like(hi), np.empty_like(lo)  # one buffer: refresh returns new arrays
        tele = np.zeros(hi.shape[1])
        for done in range(0, frame.horizon, stochastic.REFRESH_PERIOD):
            if done:
                hi, lo = refresh(hi, lo)
            n = min(stochastic.REFRESH_PERIOD, frame.horizon - done)
            tele -= _log_sin(hi[0])
            hi, lo = stochastic._scale(hi, lo, 1 << n, jumped)
            tele += _log_sin(hi[0])
        return tele

    tele = frame.sums(worker, threads)
    mean_log = math.log(2.0) + float(np.mean(tele)) / frame.horizon
    return LyapunovReport(frame.horizon, seed, sigma2, tele * frame.scale, mean_log)


def log_abs_mean():
    """Quadrature of the Lyapunov-side mean: integral of log|y| d(arcsine law).

    Computed as the conjugated integral of log|sin(pi x/2)| over [-1,1] with
    dx/2, which by symmetry is the integral over [0,1] with dx. The
    substitution x = u^6 turns the log singularity at x = 0 into the mild
    u^5 log u, and Gauss-Legendre with LEGENDRE_NODES nodes does the rest;
    the series identity gives the exact value -log 2.
    """
    from numpy.polynomial import legendre

    nodes, weights = legendre.leggauss(LEGENDRE_NODES)
    u = 0.5 * (nodes + 1.0)  # [-1, 1] -> [0, 1]
    integrand = 6.0 * u**5 * np.log(np.sin(0.5 * math.pi * u**6))
    return 0.5 * float(np.sum(weights * integrand))
