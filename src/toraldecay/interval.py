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

from . import analysis, rng, stochastic, tails
from .errors import InputError, InternalError, TooLarge, TruncationTooSmall
from .spectral import ModulusCurve

DEFAULT_TRUNCATION = 10**5
TRUNCATION_GUARD = 10**8  # most series terms one call holds: 8 bytes each, 800 MB
SERIES_TOL = 1e-12
ZERO_VARIANCE_TOL = 1e-10
LOG_FLOOR = 1e-300
REFRESH_SCALE = 2.0**-40
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


def _trigamma(x):
    """polygamma(1, x) = zeta(2, x) (DLMF 25.11.12)."""
    return tails.hurwitz_zeta(2.0, x)


def _odd_inverse_square_tail(first):
    """sum of 1/m^2 over odd m >= first (first odd)."""
    return 0.25 * _trigamma(0.5 * first)


def _alternating_tail(j):
    """sum over i > j of (-1)^i / i^2, split into even and odd trigamma tails."""
    even_first = j + 2 if j % 2 == 0 else j + 1
    odd_first = j + 1 if j % 2 == 0 else j + 2
    even_tail = 0.25 * _trigamma(0.5 * even_first)
    return even_tail - _odd_inverse_square_tail(odd_first)


def _inverse_squares(k):
    """1/i^2 for i = k, ..., 1, smallest first: the slice [k - j:] holds the
    terms i <= j, and [k - j::2] those of them with the parity of j.

    The terms are filled into one array of 8k bytes; TooLarge where k
    exceeds TRUNCATION_GUARD, before anything is allocated.
    """
    if k > TRUNCATION_GUARD:
        raise TooLarge("truncation %d exceeds the series guard %d" % (k, TRUNCATION_GUARD))
    i = np.arange(k, 0, -1, dtype=float)
    np.multiply(i, i, out=i)
    return np.divide(1.0, i, out=i)


def uvn_decay_norms(n_max, truncation=10**6):
    """||L_T^n (log|h| + log 2)||_2 for n = 0..n_max, with the 2^-n ratio.

    Surviving coefficients at step n sit at source indices k = 2^n j (cosines)
    and k = 2^(n-1) m, m odd (transient sines); their inverse-square sums are
    taken explicitly up to the truncation and completed with exact trigamma
    tails, so the reported values are those of the full infinite series. The
    ratio value / 2^-n equals pi/sqrt(3) for every n >= 1.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    k = int(truncation)
    if k < 2 ** (n_max + 4):
        top = TRUNCATION_GUARD.bit_length() - 5  # the largest n_max the guard leaves a truncation
        hint = "; the series guard %d allows n_max <= %d" % (TRUNCATION_GUARD, top)
        raise TruncationTooSmall("need truncation >= 2^(n_max+4) = 2^%d, got %d%s"
                                 % (n_max + 4, k, hint if n_max > top else ""))
    inv_sq = _inverse_squares(k)
    rows = []
    for n in range(n_max + 1):
        if n == 0:
            value_sq = 0.5 * (float(np.sum(inv_sq)) + _trigamma(k + 1))
        else:
            j_max = k >> n
            cos_sum = float(np.sum(inv_sq[k - j_max:])) + _trigamma(j_max + 1)
            m_max = k >> (n - 1)
            odd_top = m_max - 1 + m_max % 2  # the largest odd m <= m_max
            odd_sum = float(np.sum(inv_sq[k - odd_top::2]))
            odd_sum += _odd_inverse_square_tail(odd_top + 2)
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
    """Terms j = 0, 1, ... of the Lyapunov variance series, as arrays.

    <L_T^j g, g> for the pullback g = -sum_{i<=k} cos(pi i x)/i keeps the
    indices i <= k >> j, each with (-1)^i / (2^j i^2) (the sign flips of
    `tent_transfer` multiply to (-1)^i; its sines are orthogonal to g), so
    term_0 = (1/2) sum i^-2 + (1/2) psi'(k+1) and, for j >= 1,
    term_j = 2^-j/2 [sum_{i <= k>>j} (-1)^i / i^2 + alternating tail],
    which is -2^-j pi^2/24. Returns the terms through the first j > 0
    with |term_j| < tol.
    """
    inv_sq = _inverse_squares(k)
    terms = [0.5 * (float(np.sum(inv_sq)) + _trigamma(k + 1))]
    alternating = inv_sq  # the odd i negated in place, so one array serves both
    alternating[(k + 1) % 2::2] *= -1.0
    j = 0
    while j == 0 or abs(terms[-1]) >= tol:
        j += 1
        if j > 256:
            raise InternalError("Lyapunov variance series did not settle")
        surviving = k >> j
        head = float(np.sum(alternating[k - surviving:]))
        terms.append(0.5 * 2.0**-j * (head + _alternating_tail(surviving)))
    return terms


def lyapunov_sigma2():
    """Variance series of the pulled-back Lyapunov observable, term by term.

    Each term pairs L_T^j applied to the series truncated at
    DEFAULT_TRUNCATION against the series itself, plus an exact trigamma
    completion of the alternating tail, so every term matches the
    infinite series; the terms are summed as arrays (`_lyapunov_terms`).
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


def lyapunov_clt(horizon, samples, seed, threads=None):
    """Sample (1/sqrt(n)) [log|(U^n)'(y)| - n log 2] from mu-distributed starts.

    Starting points are y = sin(pi x / 2) with x uniform; the orbit iterates
    U in double precision with the same low-bit refresh policy as the toral
    sampler, and a worker advances its run of blocks as one array through
    the shared window loop (`stochastic._window_sums`).
    log|U'(y)| = log(4|y|) is clamped away from the y = 0
    singularity (measure-zero, log-integrable). The limit variance is
    zero (coboundary), so the KS column is skipped exactly as in the
    degenerate toral case.
    """
    frame = stochastic._SamplerFrame(horizon, samples)
    sigma2 = lyapunov_sigma2()
    shift = frame.horizon * math.log(2.0)

    def worker(run):
        draw = rng.run_draw(seed, run, lambda gen, count: gen.random(count))
        y = np.sin(0.5 * math.pi * (2.0 * draw() - 1.0))
        rows = stochastic._window_rows(len(y))
        logs = np.empty((rows, len(y)))

        def step(y, _, out):  # out = 1 - 2 y y
            np.multiply(y, 2.0, out=out)
            np.multiply(out, y, out=out)
            np.subtract(1.0, out, out=out)

        def refresh(y, _):
            return np.clip(y + (draw() - 0.5) * REFRESH_SCALE, -1.0, 1.0), None

        def evaluate(points):  # log(4 max(|y|, LOG_FLOOR))
            values = np.abs(points, out=logs[:len(points)])
            np.maximum(values, LOG_FLOOR, out=values)
            np.multiply(values, 4.0, out=values)
            return np.log(values, out=values)

        return stochastic._window_sums(frame.horizon, y, None, rows, step, refresh, evaluate)

    sums = frame.sums(worker, threads)
    fluct = (sums - shift) * frame.scale
    mean_log = float(np.mean(sums)) / frame.horizon
    return LyapunovReport(frame.horizon, seed, sigma2, fluct, mean_log)


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
