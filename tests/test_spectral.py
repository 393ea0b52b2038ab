"""Transfer operator dual routes, norms, and modulus estimates."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import count_solves, expanding_matrices, mp_min_singular, transfer_by_powers
from toraldecay import lattice, spectral
from toraldecay.errors import InputError, TooLarge
from toraldecay.spectral import TrigPolynomial

TWIN = lattice.validate_expanding([[1, -1], [1, 1]])
DOUBLE = lattice.validate_expanding([[2]])
TRIPLE = lattice.validate_expanding([[3]])
TWO_I = lattice.validate_expanding([[2, 0], [0, 2]])


def random_poly(rng, d, span=6, terms=5):
    coeffs = {}
    for _ in range(terms):
        k = tuple(int(v) for v in rng.integers(-span, span + 1, size=d))
        c = complex(rng.normal(), rng.normal())
        coeffs[k] = coeffs.get(k, 0) + c
        neg = tuple(-v for v in k)
        coeffs[neg] = coeffs.get(neg, 0) + c.conjugate()
    return TrigPolynomial(d, coeffs)


def test_trig_polynomial_basics():
    f = TrigPolynomial.cosine(3)
    assert f.dim == 1
    assert f.coeffs == {(3,): 0.5, (-3,): 0.5}
    assert f.real_valued
    assert f.mean() == 0
    g = TrigPolynomial(1, {(0,): 2.0, (1,): 1j, (-1,): -1j})
    assert g.mean() == 2.0
    assert g.centered().coeffs == {(1,): 1j, (-1,): -1j}
    assert g.real_valued  # (-1j) = conj(1j) mirrored
    h = TrigPolynomial(1, {(1,): 1.0})
    assert not h.real_valued


def test_evaluate_against_direct_sum():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        f = random_poly(rng, d)
        for _ in range(5):
            x = rng.random(d)
            direct = sum(
                c * np.exp(2j * np.pi * np.dot(k, x)) for k, c in f.coeffs.items()
            )
            assert abs(f.evaluate(tuple(x)) - direct) < 1e-12
        pts = rng.random((7, d))
        vals = f.evaluate(pts)
        assert vals.shape == (7,)
        assert abs(vals[3] - f.evaluate(tuple(pts[3]))) < 1e-12


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    f = random_poly(rng, 2)
    path = tmp_path / "f.json"
    f.save(path)
    g = TrigPolynomial.load(path)
    assert g.dim == f.dim
    assert set(g.coeffs) == set(f.coeffs)
    for k in f.coeffs:
        assert abs(g.coeffs[k] - f.coeffs[k]) < 1e-15


def test_transfer_fourier_subsamples():
    # Lf(j) = f(A* j): for A = [[2]] the surviving modes are even input modes
    f = TrigPolynomial(1, {(1,): 1.0, (2,): 2.0, (4,): 4.0, (-2,): 2.0, (-4,): 4.0, (-1,): 1.0})
    g = spectral.transfer_fourier(f, DOUBLE, 1)
    assert g.coeffs == {(1,): 2.0, (2,): 4.0, (-1,): 2.0, (-2,): 4.0}
    g2 = spectral.transfer_fourier(f, DOUBLE, 2)
    assert g2.coeffs == {(1,): 4.0, (-1,): 4.0}
    assert spectral.transfer_fourier(f, DOUBLE, 3).coeffs == {}


def test_transfer_preserves_mean_and_contracts():
    rng = np.random.default_rng(2)
    for matrix in (DOUBLE, TWIN, TWO_I):
        for _ in range(10):
            f = random_poly(rng, matrix.dim)
            g = spectral.transfer_fourier(f, matrix, 1)
            assert abs(g.mean() - f.mean()) < 1e-15
            assert spectral.norm(g, 2) <= spectral.norm(f, 2) + 1e-12


def test_transfer_composition():
    rng = np.random.default_rng(3)
    for matrix in (DOUBLE, TWIN, TRIPLE):
        f = random_poly(rng, matrix.dim, span=15, terms=8)
        once = spectral.transfer_fourier(spectral.transfer_fourier(f, matrix, 2), matrix, 1)
        both = spectral.transfer_fourier(f, matrix, 3)
        assert once.coeffs.keys() == both.coeffs.keys()
        for k in both.coeffs:
            assert abs(once.coeffs[k] - both.coeffs[k]) < 1e-15


def test_point_shapes():
    # a scalar or a length-dim vector is one point; a flat array in dim 1 is many
    f = TrigPolynomial.cosine(1)
    flat = np.array([0.0, 0.25, 0.5])
    vals = f.evaluate(flat)
    assert vals.shape == (3,)
    assert np.allclose(vals, [1.0, 0.0, -1.0])
    assert np.array_equal(f.evaluate(flat[:, None]), vals)
    assert isinstance(f.evaluate(0.5), complex)
    assert f.evaluate(np.array([0.5])) == f.evaluate(0.5) == f.evaluate((0.5,))
    assert f.evaluate(np.zeros(0)).shape == (0,)
    g = TrigPolynomial.cosine((1, 2))
    assert isinstance(g.evaluate(np.array([0.1, 0.2])), complex)
    assert g.evaluate(np.array([[0.1, 0.2]])).shape == (1,)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), 0.5):
        with pytest.raises(InputError):
            g.evaluate(bad)


def test_transfer_spatial_eval_flat_points():
    f = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (2,): 0.25j, (-2,): -0.25j})
    digits = lattice.digit_set(DOUBLE)
    flat = np.array([0.1, 0.3, 0.7])
    for n in (0, 1, 2):
        vals = spectral.transfer_spatial_eval(f, DOUBLE, digits, n, flat)
        assert vals.shape == (3,)
        want = spectral.transfer_fourier(f, DOUBLE, n).evaluate(flat)
        assert np.max(np.abs(vals - want)) < 1e-12
        single = spectral.transfer_spatial_eval(f, DOUBLE, digits, n, 0.3)
        assert isinstance(single, complex) and abs(single - vals[1]) < 1e-15


def test_transfer_fourier_vs_spatial():
    # the two operator implementations are independent; they must agree
    rng = np.random.default_rng(4)
    for matrix in (DOUBLE, TWIN, TRIPLE, TWO_I):
        digits = lattice.digit_set(matrix)
        for _ in range(6):
            f = random_poly(rng, matrix.dim, span=8, terms=6)
            n = int(rng.integers(0, 4))
            g = spectral.transfer_fourier(f, matrix, n)
            pts = rng.random((11, matrix.dim))
            fourier_vals = g.evaluate(pts)
            spatial_vals = spectral.transfer_spatial_eval(f, matrix, digits, n, pts)
            assert np.max(np.abs(fourier_vals - spatial_vals)) < 1e-10


def deepest_level(q, cap):
    """The largest n with q^n <= cap."""
    n = 0
    while q ** (n + 1) <= cap:
        n += 1
    return n


@settings(max_examples=30, deadline=None)
@given(expanding_matrices(), st.data(), st.integers(0, 2**32 - 1))
def test_transfer_fourier_vs_spatial_on_random_matrices(matrix, data, seed):
    # the spatial form reads the digit set, so a short digit set shows here
    n = data.draw(st.integers(0, deepest_level(matrix.det_abs, 256)))
    rng = np.random.default_rng(seed)
    f = random_poly(rng, matrix.dim, span=8, terms=4)
    pts = rng.random((7, matrix.dim))
    spatial = spectral.transfer_spatial_eval(f, matrix, lattice.digit_set(matrix), n, pts)
    fourier = spectral.transfer_fourier(f, matrix, n).evaluate(pts)
    assert np.max(np.abs(fourier - spatial)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(expanding_matrices(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_transfer_fourier_is_a_semigroup(matrix, m, n, seed):
    # L^m L^n = L^(m+n): coefficients move without arithmetic, so exactly
    f = random_poly(np.random.default_rng(seed), matrix.dim, span=40, terms=8)
    twice = spectral.transfer_fourier(spectral.transfer_fourier(f, matrix, n), matrix, m)
    assert twice.coeffs == spectral.transfer_fourier(f, matrix, m + n).coeffs


@st.composite
def integer_supports(draw, matrix):
    """1 to 6 terms on k = 0, small frequencies, and det(A)^m v for small v and m up
    to 12, which live at least m steps; the values are distinct, so order shows."""
    d = matrix.dim
    small = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    deep = st.builds(lambda v, m: [x * matrix.det**m for x in v], small, st.integers(0, 12))
    keys = draw(st.lists(st.one_of(st.just([0] * d), small, deep), min_size=1, max_size=6))
    return TrigPolynomial(d, {tuple(k): complex(i + 1, -i) for i, k in enumerate(keys)})


def steps_to_the_mean(f, matrix):
    """The fewest steps after which only k = 0, or nothing, is left (by the reference)."""
    def done(n):
        return not any(map(any, transfer_by_powers(f, matrix, n).coeffs))

    lo, hi = 0, 1
    while not done(hi):
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if done(mid) else (mid + 1, hi)
    return lo


@settings(max_examples=60, deadline=None)
@given(expanding_matrices(), st.data())
def test_transfer_fourier_matches_the_power_solve(matrix, data):
    # one adj(A) step at a time gives the terms, values and order of one solve
    # with adj(A)^n and det(A)^n, up to and past every term's last step
    f = data.draw(integer_supports(matrix))
    n = data.draw(st.integers(0, steps_to_the_mean(f, matrix) + 2))
    g = spectral.transfer_fourier(f, matrix, n)
    assert list(g.coeffs.items()) == list(transfer_by_powers(f, matrix, n).coeffs.items())


def test_transfer_fourier_stops_at_the_mean(monkeypatch):
    # 10^18 steps take no power of adj(A), which the one-solve route raised to n, and
    # at most one step past the last nonzero term: A* = A^T is sqrt(2) times a rotation,
    # so a term lives at most 2 log2 |k| steps
    f = TrigPolynomial(2, {(0, 0): 0.25, (1, 2): 0.5, (-1, -2): 0.5, (1024, 2048): 0.1j})
    powers = []

    def no_power(a, n):
        powers.append(n)
        raise AssertionError("a matrix raised to the power %d" % n)

    monkeypatch.setattr(lattice, "mat_pow", no_power)
    solves = count_solves(monkeypatch)
    g = spectral.transfer_fourier(f, TWIN, 10**18)
    assert powers == []
    assert g.coeffs == {(0, 0): 0.25}
    assert len(solves) <= len(f.coeffs) * (math.floor(2 * math.log2(math.hypot(1024, 2048))) + 1)


def test_spatial_guard():
    f = TrigPolynomial.cosine(1)
    digits = lattice.digit_set(DOUBLE)
    with pytest.raises(TooLarge):
        spectral.transfer_spatial_eval(f, DOUBLE, digits, 21, 0.3)


def test_spatial_eval_chunks_match_one_shot(monkeypatch):
    # the guard bounds points x q^n x (d + |support|); points are chunked under it
    rng = np.random.default_rng(12)
    for matrix, n in ((DOUBLE, 3), (TWIN, 4), (TRIPLE, 2)):
        digits = lattice.digit_set(matrix)
        f = random_poly(rng, matrix.dim, span=5, terms=4)
        pts = rng.random((17, matrix.dim))
        whole = spectral.transfer_spatial_eval(f, matrix, digits, n, pts)
        row = matrix.det_abs**n * (matrix.dim + len(f.coeffs))
        for per_chunk in (1, 3, 16):
            monkeypatch.setattr(spectral, "SPATIAL_GUARD", per_chunk * row)
            chunked = spectral.transfer_spatial_eval(f, matrix, digits, n, pts)
            assert np.max(np.abs(chunked - whole)) <= 1e-15
        monkeypatch.setattr(spectral, "SPATIAL_GUARD", row - 1)
        with pytest.raises(TooLarge):  # one point's branches alone exceed the guard
            spectral.transfer_spatial_eval(f, matrix, digits, n, pts[:1])
        monkeypatch.undo()


def test_l2_norm_parseval_vs_quadrature():
    # periodic trapezoid rule is exact for trig polys below the Nyquist limit
    rng = np.random.default_rng(5)
    for d in (1, 2):
        f = random_poly(rng, d, span=4)
        n_pts = 64
        axes = [np.arange(n_pts) / n_pts] * d
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        vals = f.evaluate(mesh)
        quad = math.sqrt(float(np.mean(np.abs(vals) ** 2)))
        assert abs(spectral.norm(f, 2) - quad) < 1e-10


def test_sup_norm_bracket():
    f = TrigPolynomial.cosine(1)
    lo, hi = spectral.sup_norm_bracket(f)
    assert abs(lo - 1.0) < 1e-9
    assert hi == 1.0
    g = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (2,): 0.25, (-2,): 0.25})
    lo, hi = spectral.sup_norm_bracket(g)
    # max of cos(2pix) + 0.5cos(4pix) over x is at x=0
    assert abs(lo - 1.5) < 1e-9
    assert lo <= hi
    assert spectral.norm(TrigPolynomial(1, {}), "inf") == 0.0


def test_sup_norm_bracket_three_dimensional():
    # the d = 3 grid takes the same axis-by-axis route as d = 1 and 2; each
    # function has dependent frequencies, so the bracket scans its grid.
    # cos 2pi x + 0.5 cos 2pi(y + z) + 0.25 cos 2pi(x + y + z) peaks at 0
    f = TrigPolynomial(3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (0, 1, 1): 0.25,
                           (0, -1, -1): 0.25, (1, 1, 1): 0.125, (-1, -1, -1): 0.125})
    assert not spectral._independent_real(f)
    lo, hi = spectral.sup_norm_bracket(f)
    assert abs(lo - 1.75) < 1e-9
    assert hi == 1.75
    # -2 sin t - 0.5 cos 2t with t = 2pi(2y - z) peaks at sin t = -1
    g = TrigPolynomial(3, {(0, 2, -1): 1j, (0, -2, 1): -1j, (0, 4, -2): -0.25, (0, -4, 2): -0.25})
    assert not spectral._independent_real(g)
    lo, hi = spectral.sup_norm_bracket(g)
    assert abs(lo - 2.5) < 1e-9
    assert lo <= hi == 2.5


def _reference_bracket(f):
    """The earlier sup bracket: float-phase grid, then two golden-section sweeps per axis."""
    k, c = f.freq_array()
    d = f.dim
    upper = float(sum(abs(v) for v in f.coeffs.values()))
    n_pts = max(16, 8 * int(np.abs(k).max()) + 1)
    axes = [np.arange(n_pts) / n_pts for _ in range(d)]
    if d == 1:
        vals = np.abs(np.exp(2j * np.pi * np.outer(axes[0], k[:, 0])) @ c)
    elif d == 2:
        e1 = np.exp(2j * np.pi * np.outer(k[:, 0], axes[0]))
        e2 = np.exp(2j * np.pi * np.outer(k[:, 1], axes[1]))
        vals = np.abs(np.einsum("fm,fn->mn", c[:, None] * e1, e2))
    else:
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        vals = np.abs(np.exp(2j * np.pi * (mesh @ k.T)) @ c)
    flat_best = int(np.argmax(vals))
    idx = np.unravel_index(flat_best, [n_pts] * d)
    x = np.array([axes[i][idx[i]] for i in range(d)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(2):
        for i in range(d):

            def along(t, i=i):
                y = x.copy()
                y[i] = t
                return abs(complex((np.exp(2j * np.pi * (y.reshape(1, -1) @ k.T)) @ c)[0]))

            a, b = x[i] - 1.0 / n_pts, x[i] + 1.0 / n_pts
            x1, x2 = b - phi * (b - a), a + phi * (b - a)
            f1, f2 = along(x1), along(x2)
            for _ in range(48):
                if f1 < f2:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + phi * (b - a)
                    f2 = along(x2)
                else:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - phi * (b - a)
                    f1 = along(x1)
            x[i] = (a + b) / 2.0
    lower = max(float(abs(f.evaluate(tuple(x)))), float(vals.flat[flat_best]))
    return min(lower, upper), upper


def test_sup_bracket_never_below_reference():
    rng = np.random.default_rng(41)
    for d in (1, 2, 3):
        for span in (3, 12, 60)[: 2 if d == 3 else 3]:  # a d = 3 span-60 grid passes the guard
            for pairs in range(1, min(6, ((2 * span + 1) ** d + 1) // 2)):
                f = _span_poly(rng, d, span, pairs)
                lower, upper = spectral.sup_norm_bracket(f)
                ref_lower, ref_upper = _reference_bracket(f)
                assert upper == ref_upper
                assert lower >= ref_lower - 1e-13 * upper, (d, span, pairs, lower, ref_lower)


def test_grid_phases_exact_on_lacunary_series():
    # sum_j (j+1)^-2 cos(2 pi 2^j x), j = 0..12, on its N = 32769 grid; the
    # float phase x * k of the earlier grid was up to 4e-14 off here
    mp = pytest.importorskip("mpmath")
    coeffs = {}
    for j in range(13):
        coeffs[(2**j,)] = coeffs[(-(2**j),)] = 0.5 / (j + 1) ** 2
    f = TrigPolynomial(1, coeffs)
    k, c = f.freq_array()
    n_pts = 8 * 2**12 + 1
    vals, _ = spectral._grid_values(k.astype(np.int64), c[None, :], spectral._root_table(n_pts),
                                    range(1), range(n_pts))
    l1 = sum(abs(v) for v in coeffs.values())
    with mp.workdps(40):
        for i in range(0, n_pts, 61):
            # exact reduction of the phase 2^j i mod N, then 40 digits
            want = abs(sum(mp.cos(2 * mp.pi * ((2**j * i) % n_pts) / n_pts) / (j + 1) ** 2
                           for j in range(13)))
            assert abs(vals[0, i] - float(want)) <= 1e-15 * l1, i


def _faint_pair(f):
    """f plus 2^-39 cos 2pi(3k.x), with k the frequency of f.

    The pair adds at most 2^-77 to F, so Omega moves by under 1e-20 at the
    radii below, but f now has two frequency pairs: its modulus comes from
    the search, not the one-frequency closed form.
    """
    (k,) = [key for key in f.coeffs if key > tuple(-v for v in key)]
    return TrigPolynomial(f.dim, {**f.coeffs, tuple(3 * v for v in k): 2.0**-40,
                                  tuple(-3 * v for v in k): 2.0**-40})


def _count_searches(monkeypatch):
    """A list that gains an entry each time `_pattern_search` runs."""
    calls = []
    search = spectral._pattern_search
    monkeypatch.setattr(spectral, "_pattern_search", lambda *a: calls.append(a) or search(*a))
    return calls


def test_modulus_value_exact_cosine_1d(monkeypatch):
    # || cos(2 pi k (x+v)) - cos(2 pi k x) ||_2 = sqrt(2) |sin(pi k v)|: the closed
    # form gives it, and so does the search on f with a faint second pair
    calls = _count_searches(monkeypatch)
    for k in (1, 2, 5):
        f = TrigPolynomial.cosine(k)
        for delta in (0.01, 0.05, 0.5 / k):
            want = math.sqrt(2.0) * abs(math.sin(math.pi * k * delta))
            for g in (f, _faint_pair(f)):
                got = spectral.modulus_value(g, 2, delta)
                assert abs(got - want) < 1e-10
    assert len(calls) == 9


def test_modulus_value_exact_diagonal_2d(monkeypatch):
    # the best shift direction for cos(2 pi (x1+x2)) is the diagonal; the search
    # has to find it on f with a faint second pair
    calls = _count_searches(monkeypatch)
    f = TrigPolynomial.cosine((1, 1))
    for delta in (0.02, 0.1, 0.3):
        want = math.sqrt(2.0) * abs(math.sin(math.pi * math.sqrt(2.0) * delta))
        for g in (f, _faint_pair(f)):
            got = spectral.modulus_value(g, 2, delta)
            assert abs(got - want) < 1e-8
    assert len(calls) == 3


def test_modulus_value_sup_norm():
    f = TrigPolynomial.cosine(1)
    for delta in (0.05, 0.2):
        got = spectral.modulus_value(f, "inf", delta)
        want = 2.0 * math.sin(math.pi * delta)
        assert got <= want * (1.0 + 1e-9)
        assert got >= 0.98 * want


def test_modulus_saturation():
    f = TrigPolynomial.cosine(1)
    big = spectral.modulus_value(f, 2, 5.0)
    at_cap = spectral.modulus_value(f, 2, 0.5)
    assert big == at_cap
    for r in (2, "inf"):
        for delta in (-0.1, math.nan, [0.1, math.nan], np.array([math.nan])):
            with pytest.raises(InputError, match="positive"):
                spectral.modulus_value(f, r, delta)


def test_modulus_rejects_other_r_for_an_empty_function():
    empty = TrigPolynomial(1, {})
    assert spectral.modulus_value(empty, 2, 0.1) == 0.0
    assert spectral.modulus_value(empty, "inf", [0.1, 0.2]) == [0.0, 0.0]
    with pytest.raises(InputError):
        spectral.modulus_value(empty, 3, 0.1)


def _reference_pattern_search(objective, v0, delta, step0, dim, tol_factor=1e-14, iters=200):
    """The one-point coordinate search the r = 2 modulus used before its Newton finish."""
    v = np.array(v0, dtype=float)
    best = objective(v)
    step = step0
    it = 0
    while step > delta * tol_factor and it < iters:
        improved = False
        for i in range(dim):
            for s in (step, -step):
                cand = v.copy()
                cand[i] += s
                nrm = np.linalg.norm(cand)
                if nrm > delta:
                    cand *= delta / nrm
                val = objective(cand)
                if val > best:
                    best, v = val, cand
                    improved = True
        if not improved:
            step *= 0.5
        it += 1
    return best, it


def _reference_grid(f, delta):
    """Start point, step and grid values of the earlier r = 2 search."""
    d = f.dim
    freqs, c = f.freq_array()
    wsq = np.abs(c) ** 2
    if d == 1:
        grid = np.linspace(0.0, delta, 1025)[1:]
        vals = 4.0 * (wsq @ np.sin(np.pi * freqs @ grid[None, :]) ** 2)
        return np.array([grid[int(np.argmax(vals))]]), delta / 1024, vals
    dirs = spectral._directions(d, 64)
    rads = delta * (np.arange(1, 33) / 32)
    pts = (dirs[:, None, :] * rads[None, :, None]).reshape(-1, d)
    vals = 4.0 * (wsq @ np.sin(np.pi * (freqs @ pts.T)) ** 2)
    return pts[int(np.argmax(vals))], delta / 32, vals


def _reference_l2(f, delta):
    """(value, sweeps) of the earlier r = 2 modulus: grid, then 200-sweep pattern search."""
    freqs, c = f.freq_array()
    wsq = np.abs(c) ** 2
    obj = lambda v: float(4.0 * (wsq @ np.sin(np.pi * (freqs @ v)) ** 2))
    v0, step0, vals = _reference_grid(f, delta)
    best, sweeps = _reference_pattern_search(obj, v0, delta, step0, f.dim)
    return math.sqrt(max(best, float(np.max(vals)))), sweeps


def _hermitian_poly(rng, d, pairs):
    span = (12, 6, 3)[d - 1]
    coeffs = {}
    while len(coeffs) < 2 * pairs:
        k = tuple(int(v) for v in rng.integers(-span, span + 1, size=d))
        if any(k) and k not in coeffs:
            c = complex(rng.normal(), rng.normal())
            coeffs[k] = c
            coeffs[tuple(-v for v in k)] = c.conjugate()
    return TrigPolynomial(d, coeffs)


def _span_poly(rng, d, span, pairs):
    """pairs hermitian pairs with frequencies in [-span, span]^d, one of them at span."""
    coeffs = {}
    while len(coeffs) < 2 * pairs:
        k = [int(v) for v in rng.integers(-span, span + 1, size=d)]
        if not coeffs:
            k[0] = span
        k = tuple(k)
        if any(k) and k not in coeffs:
            c = complex(rng.normal(), rng.normal())
            coeffs[k] = c
            coeffs[tuple(-v for v in k)] = c.conjugate()
    return TrigPolynomial(d, coeffs)


def test_lockstep_pattern_search_matches_one_point_search():
    # same move rule and norms as the one-point loop, row by row, bit for bit
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        freqs, c = _hermitian_poly(rng, d, 4).freq_array()
        wsq = np.abs(c) ** 2
        obj = lambda v: float(4.0 * (wsq @ np.sin(np.pi * (freqs @ v)) ** 2))
        delta = np.array([0.3, 0.1, 0.04])
        v0 = rng.uniform(-1.0, 1.0, size=(3, d)) * delta[:, None] / math.sqrt(d)
        best, v = spectral._pattern_search(lambda pts: np.array([obj(p) for p in pts]), v0,
                                           delta, delta / 32, 1e-14, 200)
        for i in range(3):
            want, _ = _reference_pattern_search(obj, v0[i], delta[i], delta[i] / 32, d)
            assert best[i] == want


def test_modulus_l2_never_below_reference_search():
    rng = np.random.default_rng(77)
    for d in (1, 2, 3):
        for pairs in (2, 5, 12):
            f = _hermitian_poly(rng, d, pairs)
            radii = list(0.45 * np.cumprod(rng.uniform(0.35, 0.8, size=8)))
            got = spectral.modulus_value(f, 2, radii)
            for delta, value in zip(radii, got):
                ref, _ = _reference_l2(f, delta)
                assert value >= ref * (1.0 - 1e-13), (d, pairs, delta, value, ref)


def test_modulus_l2_beats_a_search_stopped_at_its_cap():
    # the earlier search ends at its 200-sweep cap here, below the local max
    coeffs = {(0, 3, 1): -2.241 - 0.313j, (2, 1, 2): 1.444 - 0.394j,
              (-3, 1, 3): -0.164 - 0.885j, (-1, 2, 2): 0.406 + 1.129j}
    coeffs.update({tuple(-v for v in k): c.conjugate() for k, c in list(coeffs.items())})
    f = TrigPolynomial(3, coeffs)
    ref, sweeps = _reference_l2(f, 0.1)
    assert sweeps == 200
    assert spectral.modulus_value(f, 2, 0.1) > ref * (1.0 + 1e-5)


@st.composite
def hermitian_polys(draw):
    d = draw(st.integers(1, 3))
    span = (12, 6, 3)[d - 1]
    coeffs = {}
    for _ in range(draw(st.integers(1, 6))):
        k = tuple(draw(st.lists(st.integers(-span, span), min_size=d, max_size=d)))
        # hundredths, so no |fhat(k)|^2 lands among the subnormals
        c = complex(draw(st.integers(-300, 300)), draw(st.integers(-300, 300))) / 100.0
        if any(k):
            coeffs[k] = c
            coeffs[tuple(-v for v in k)] = c.conjugate()
    return TrigPolynomial(d, coeffs)


RADII = st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(hermitian_polys(), RADII)
def test_modulus_l2_between_grid_max_and_twice_the_norm(f, radii):
    values = spectral.modulus_value(f, 2, radii)
    for delta, value in zip(radii, values):
        grid_max = math.sqrt(float(np.max(_reference_grid(f, delta)[2]))) if f.coeffs else 0.0
        assert value >= grid_max * (1.0 - 1e-14)
        assert value <= 2.0 * spectral.norm(f, 2) * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(hermitian_polys(), RADII)
def test_modulus_l2_value_does_not_depend_on_other_radii(f, radii):
    values = spectral.modulus_value(f, 2, radii)
    assert values == [spectral.modulus_value(f, 2, x) for x in radii]
    assert values[::-1] == spectral.modulus_value(f, 2, radii[::-1])


@settings(max_examples=40, deadline=None)
@given(hermitian_polys())
def test_sup_bracket_between_l2_norm_and_l1_norm(f):
    # the grid has more than 2 max|k| points per axis, so its mean of |f|^2 is ||f||_2^2
    lower, upper = spectral.sup_norm_bracket(f)
    assert lower >= spectral.norm(f, 2) * (1.0 - 1e-12)
    assert lower <= upper


@settings(max_examples=40, deadline=None)
@given(hermitian_polys(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_sup_kernel_row_does_not_depend_on_its_batch(f, rows, seed):
    # hermitian rows, complex rows and a zero row, alone and in a batch
    if not f.coeffs:
        return
    k, c = f.freq_array()
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(rows, len(c))) + 1j * rng.normal(size=(rows, len(c)))
    batch = np.concatenate([c[None, :], noise, np.zeros((1, len(c))), 2.5 * c[None, :]])
    values = spectral._sup_lower(k, batch)
    for i, row in enumerate(batch):
        assert values[i] == spectral._sup_lower(k, row[None, :])[0]


def test_sup_kernel_chunks_match_one_shot(monkeypatch):
    # rows are chunked under GRID_CHUNK values; GRID_WORK_GUARD refuses a row whose
    # grid values x frequencies exceed it
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        k, c = _hermitian_poly(rng, d, 3).freq_array()
        rows = c * rng.normal(size=(7, 1))
        whole = spectral._sup_lower(k, rows)
        grid = max(16, 8 * int(np.abs(k).max()) + 1) ** d
        for per_chunk in (1, 3):
            monkeypatch.setattr(spectral, "GRID_CHUNK", per_chunk * grid)
            assert np.array_equal(spectral._sup_lower(k, rows), whole)
        monkeypatch.undo()
        monkeypatch.setattr(spectral, "GRID_WORK_GUARD", 2 * len(c) * grid)
        assert np.array_equal(spectral._sup_lower(k, rows), whole)
        monkeypatch.setattr(spectral, "GRID_WORK_GUARD", len(c) * grid - 1)
        with pytest.raises(TooLarge):  # one row alone exceeds the guard
            spectral._sup_lower(k, rows[:1])
        monkeypatch.undo()


def test_sup_root_table_guard_refuses_before_the_table(monkeypatch):
    # GRID_WORK_GUARD admits one d = 1 frequency near 1.25e7, whose root table
    # of 16 bytes a point would take 1.6 GB; ROOT_TABLE_GUARD refuses it first
    assert 16 * spectral.GRID_WORK_GUARD > spectral.ROOT_TABLE_GUARD
    # the frequency-2^20 function of the CI memory step still scans
    assert 16 * (8 * 2**20 + 1) <= spectral.ROOT_TABLE_GUARD
    # cos 2pi 100x + 0.5 cos 2pi 99x: dependent frequencies, so the bracket scans a grid
    f = TrigPolynomial(1, {(100,): 0.5, (-100,): 0.5, (99,): 0.25, (-99,): 0.25})
    table_bytes = 16 * (8 * 100 + 1)
    lower, _ = spectral.sup_norm_bracket(f)
    monkeypatch.setattr(spectral, "ROOT_TABLE_GUARD", table_bytes)
    assert spectral.sup_norm_bracket(f)[0] == lower
    monkeypatch.setattr(spectral, "ROOT_TABLE_GUARD", table_bytes - 1)

    def fail(n_pts):
        raise AssertionError("root table built past the guard")

    monkeypatch.setattr(spectral, "_root_table", fail)
    with pytest.raises(TooLarge, match="root table"):
        spectral.sup_norm_bracket(f)


def _pair_coeff(draw):
    """A coefficient in hundredths, so no |c|^2 lands among the subnormals."""
    return complex(draw(st.integers(-300, 300)), draw(st.integers(-300, 300))) / 100.0


@st.composite
def independent_real_polys(draw):
    """An exactly real f whose pair frequencies are linearly independent, with a real mean."""
    d = draw(st.integers(1, 3))
    span = (40, 12, 4)[d - 1]  # the grid bound the test compares with stays small
    pairs = draw(st.lists(st.lists(st.integers(-span, span), min_size=d, max_size=d)
                          .map(tuple).filter(any), min_size=1, max_size=d))
    assume(np.linalg.matrix_rank(np.array(pairs, dtype=float)) == len(pairs))
    coeffs = {(0,) * d: float(draw(st.integers(-300, 300))) / 100.0}
    for k in pairs:
        c = _pair_coeff(draw)
        assume(c != 0)
        coeffs[k], coeffs[tuple(-v for v in k)] = c, c.conjugate()
    return TrigPolynomial(d, coeffs)


@settings(max_examples=60, deadline=None)
@given(independent_real_polys())
def test_sup_bracket_is_exact_for_independent_real_frequencies(f):
    # x -> (k_j . x)_j reaches every phase combination, so sup |f| = l1;
    # the grid bound is |f| at a point, so it stays below l1 to rounding
    l1 = float(sum(abs(c) for c in f.coeffs.values()))
    assert spectral.sup_norm_bracket(f) == (l1, l1)
    k, c = f.freq_array()
    grid = spectral._sup_lower(k, c[None, :])[0]
    assert l1 * (1.0 + 4 * 2.0**-52) >= grid >= spectral.norm(f, 2) * (1.0 - 1e-12)


@st.composite
def grid_route_polys(draw):
    """An f outside the exact case: one pair at k made complex, given a complex mean or a
    conjugate off by 1e-14, or two real pairs at k and a multiple of k (dependent)."""
    d = draw(st.integers(1, 3))
    span = (12, 6, 3)[d - 1]
    k = tuple(draw(st.lists(st.integers(-span, span), min_size=d, max_size=d).filter(any)))
    minus = tuple(-v for v in k)
    c = _pair_coeff(draw)
    assume(c != 0)
    coeffs = {k: c, minus: c.conjugate()}
    kind = draw(st.sampled_from(["dependent", "complex", "complex mean", "near-hermitian"]))
    if kind == "dependent":
        j, b = draw(st.integers(2, 3)), _pair_coeff(draw)
        assume(b != 0)
        coeffs[tuple(j * v for v in k)], coeffs[tuple(j * v for v in minus)] = b, b.conjugate()
    elif kind == "complex":
        coeffs[k] += 0.5j
    elif kind == "complex mean":
        coeffs[(0,) * d] = 1.0 + 0.25j
    else:
        coeffs[k] *= 1.0 + 1e-14
    return TrigPolynomial(d, coeffs)


@settings(max_examples=60, deadline=None)
@given(grid_route_polys())
def test_sup_bracket_outside_the_exact_case_is_the_grid_bound(f):
    assert not spectral._independent_real(f)
    k, c = f.freq_array()
    l1 = float(sum(abs(v) for v in f.coeffs.values()))
    grid = float(spectral._sup_lower(k, c[None, :])[0])
    assert spectral.sup_norm_bracket(f) == (min(grid, l1), l1)


def test_sup_bracket_decides_independence_in_exact_integers(monkeypatch):
    def fail(n_pts):
        raise AssertionError("sup-norm grid built")

    monkeypatch.setattr(spectral, "_root_table", fail)
    assert spectral.sup_norm_bracket(TrigPolynomial.cosine(3**40)) == (1.0, 1.0)
    # (2^60, 2^60 + 1) and (2^60 + 1, 2^60 + 2) have determinant -1, and both round
    # to (2^60, 2^60) in floats
    big = 2**60
    f = TrigPolynomial(2, {(big, big + 1): 0.5, (-big, -big - 1): 0.5,
                           (big + 1, big + 2): 0.25j, (-big - 1, -big - 2): -0.25j})
    assert spectral.sup_norm_bracket(f) == (1.5, 1.5)
    # twice the first pair is dependent, so the bracket goes to the grid (and its guard)
    g = TrigPolynomial(2, {(big, big + 1): 0.5, (-big, -big - 1): 0.5,
                           (2 * big, 2 * big + 2): 0.5, (-2 * big, -2 * big - 2): 0.5})
    with pytest.raises(TooLarge):
        spectral.sup_norm_bracket(g)


@st.composite
def one_pair_polys(draw):
    """f with one nonzero frequency k up to sign: arbitrary c_k and c_-k (either may be
    absent), any mean, and coefficients scaled by 2^-400, 1 or 2^400."""
    d = draw(st.integers(1, 3))
    k = tuple(draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d).filter(any)))
    scale = draw(st.sampled_from([2.0**-400, 1.0, 2.0**400]))
    coeffs = {}
    for key in (k, tuple(-v for v in k), (0,) * d):
        if draw(st.booleans()):
            coeffs[key] = scale * _pair_coeff(draw)
    coeffs[k] = scale * (_pair_coeff(draw) or 1.0)  # k itself is always there
    return TrigPolynomial(d, coeffs)


@settings(max_examples=60, deadline=None)
@given(one_pair_polys(), st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4))
def test_one_pair_modulus_is_the_closed_form(f, fracs):
    # F(v) = 4 (w_k + w_-k) sin^2(pi k.v) peaks over |v| <= delta at |k.v| = min(|k| delta, 1/2)
    mp = pytest.importorskip("mpmath")
    k = max(key for key in f.coeffs if any(key))
    length = math.hypot(*k)
    radii = [u / (2.0 * length) for u in fracs]  # on both sides of 1/(2|k|)
    shifts = []
    objective = spectral._l2_objective

    def recorded(freqs, w):
        inner = objective(freqs, w)
        return lambda v: shifts.append(v.copy()) or inner(v)

    def no_search(*args):
        raise AssertionError("pattern search ran")

    with mock.patch.object(spectral, "_l2_objective", recorded), \
            mock.patch.object(spectral, "_pattern_search", no_search):
        values = spectral.modulus_value(f, 2, radii)
    (v,) = shifts
    # pulled back onto the ball as the pattern search pulls back: |v| ends within an ulp of delta
    assert np.all(np.linalg.norm(v, axis=1) <= np.array(radii) * (1.0 + 2.0**-52))
    with mp.workdps(40):
        w = sum(mp.mpf(c.real) ** 2 + mp.mpf(c.imag) ** 2
                for key, c in f.coeffs.items() if any(key))
        norm_k = mp.sqrt(sum(mp.mpf(a) ** 2 for a in k))
        for delta, value in zip(radii, values):
            want = float(2 * mp.sqrt(w) * mp.sin(mp.pi * min(norm_k * mp.mpf(delta), mp.mpf(0.5))))
            assert abs(value - want) <= 4 * math.ulp(want), (delta, value, want)
    curve = spectral.ModulusCurve(radii, values)
    assert curve.check_invariants(spectral.norm(f, 2))


def test_two_pair_modulus_still_searches(monkeypatch):
    calls = _count_searches(monkeypatch)
    f = TrigPolynomial(1, {(3,): 0.5, (-3,): 0.5, (5,): 0.25, (-5,): 0.25})
    spectral.modulus_value(f, 2, [0.1, 0.01])
    assert len(calls) == 1


def _frozen_grid_values(k, c, n_pts):
    """Reference scan of the whole grid in one call, with n_pts-long tables:
    ((rows, n_pts^d) values, flat argmax of each row)."""
    kp, big_u, big_v, cplx = spectral._cos_sin_rows(k, c)
    i = np.arange(n_pts)
    roots = np.exp(2j * np.pi * (np.where(2 * i > n_pts, i - n_pts, i) / n_pts))
    rows, (pairs, d) = len(big_u), kp.shape
    tables = [roots[(kp[:, a, None] % n_pts) * i % n_pts] for a in range(d)]  # (pairs, n)
    big_u, big_v = big_u[:, :, None], big_v[:, :, None]
    for tab in tables[:-1]:
        cos, sin = tab.real[None, :, None, :], tab.imag[None, :, None, :]
        big_u, big_v = ((big_u[..., None] * cos + big_v[..., None] * sin).reshape(rows, pairs, -1),
                        (big_v[..., None] * cos - big_u[..., None] * sin).reshape(rows, pairs, -1))
    cos, sin = tables[-1].real, tables[-1].imag
    out = big_u[:, 0, :, None] * cos[0] + big_v[:, 0, :, None] * sin[0]
    tmp = np.empty_like(out)
    for j in range(1, pairs):
        out += np.multiply(big_u[:, j, :, None], cos[j], out=tmp)
        out += np.multiply(big_v[:, j, :, None], sin[j], out=tmp)
    out = out.reshape(rows, -1)
    vals = np.abs(out[:len(cplx)])
    vals[cplx] = np.hypot(out[:len(cplx)][cplx], out[len(cplx):])
    return vals, np.argmax(vals, axis=1)


def _even_poly(rng, d, pairs):
    """A real even function (real coefficients on hermitian pairs): |f| at the grid
    points i and -i is bit for bit the same, so every grid maximum off 0 is tied."""
    span = (12, 6, 2)[d - 1]
    coeffs = {}
    while len(coeffs) < 2 * pairs:
        k = tuple(int(v) for v in rng.integers(-span, span + 1, size=d))
        if any(k) and k not in coeffs:
            coeffs[k] = coeffs[tuple(-v for v in k)] = float(rng.normal())
    return TrigPolynomial(d, coeffs)


def test_slab_walk_matches_one_shot_scan(monkeypatch):
    # every scanned value, each row's best value and each polish start (the
    # first flat argmax) equal the one-shot scan's bit for bit, whatever the budget
    rng = np.random.default_rng(23)
    kernel = spectral._grid_values
    calls, starts = [], []

    def recorded(k, c, roots, lead, cols):
        vals, idx = kernel(k, c, roots, lead, cols)
        calls.append((c, lead, cols, vals))
        return vals, idx

    def no_polish(k, c, x, cap):
        starts.append(x.copy())
        return np.zeros(len(c))

    monkeypatch.setattr(spectral, "_grid_values", recorded)
    monkeypatch.setattr(spectral, "_polish", no_polish)
    ties = 0
    for d in (1, 2, 3):
        for poly in (_hermitian_poly(rng, d, 2), _even_poly(rng, d, 3), random_poly(rng, d, 3, 2)):
            k, c = poly.freq_array()
            k = k.astype(np.int64)
            noise = rng.normal(size=len(c)) + 1j * rng.normal(size=len(c))
            rows = np.stack([c, c * (1 + 2j), noise, 0 * c])  # hermitian, complex, zero
            n_pts = max(16, 8 * int(np.abs(k).max()) + 1)
            grid = n_pts**d
            want, arg = _frozen_grid_values(k, rows, n_pts)
            ties += int(np.sum(want[0] == want[0, arg[0]]) > 1)
            start = np.stack(np.unravel_index(arg, (n_pts,) * d), axis=1)
            start = np.where(2 * start >= n_pts, start - n_pts, start)
            word = np.rint(start / n_pts * 2.0**64).astype(np.int64).view(np.uint64)
            # all rows in one call; one row a call; a few slabs a row; slabs of 2 leading
            # indices, whose edges fall inside a leading row for d = 3; column ranges
            for budget in (len(rows) * grid, grid, grid // 3 + 5, 3 * n_pts - 1, n_pts - 2, 7):
                if len(rows) * grid > 2000 * budget:
                    continue
                calls.clear()
                starts.clear()
                monkeypatch.setattr(spectral, "GRID_CHUNK", budget)
                best = spectral._sup_lower(k, rows)
                got = np.full(want.shape, -1.0)
                for c_call, lead, cols, vals in calls:
                    assert vals.size <= budget
                    first = next(r for r in range(len(rows)) if np.array_equal(c_call[0], rows[r]))
                    flat = (np.arange(lead.start, lead.stop)[:, None] * n_pts
                            + np.arange(cols.start, cols.stop)).ravel()
                    assert np.all(got[first:first + len(vals), flat] == -1.0)  # each point once
                    got[first:first + len(vals), flat] = vals
                assert np.array_equal(got, want), (d, budget)
                assert np.array_equal(best, want[np.arange(len(rows)), arg]), (d, budget)
                assert np.array_equal(starts[0], word), (d, budget)
    assert ties >= 3  # the even functions' maxima are tied with their mirror points


def test_sup_scan_memory_is_the_root_table_and_one_slab():
    # N = 524,289 grid points in d = 1: the root table (16 N bytes) is the one
    # N-long array the scan may hold; N-long tables per pair would pass 60 MB
    coeffs = {}
    for j, k in enumerate((2**16, 2**16 - 3, 77, 5)):
        coeffs[(k,)] = coeffs[(-k,)] = 1.0 / (j + 1)
    f = TrigPolynomial(1, coeffs)
    spectral.sup_norm_bracket(TrigPolynomial.cosine(1))  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        lower, upper = spectral.sup_norm_bracket(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lower == pytest.approx(upper, rel=1e-15)  # all cosines peak together at x = 0
    # a slab takes about 73 bytes a value (its sums, index and table gathers): 1.2 MB
    # at 2^14-value slabs, 4.7 MB at 2^16 (numpy 2.4.6)
    assert peak < 16 * (8 * 2**16 + 1) + 96 * 2**14


def _many_term_poly(d, pairs, seed):
    """A real polynomial of 2 * pairs distinct frequencies in [1, 4000]^d and their negatives."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    while len(coeffs) < 2 * pairs:
        k = tuple(int(v) for v in rng.integers(1, 4000, d))
        c = complex(rng.normal(), rng.normal())
        coeffs[k], coeffs[tuple(-v for v in k)] = c, c.conjugate()
    return TrigPolynomial(d, coeffs)


@pytest.mark.parametrize("d", [1, 2])
def test_modulus_l2_start_scan_memory_is_one_slab(d):
    # 1,024 start shifts x 5,000 terms: the one-shot scan held two 41 MB float
    # temporaries (82 MB peak); a slab of MODULUS_SCAN_CHUNK values holds two of 8.4 MB
    f = _many_term_poly(d, 2500, 8)
    spectral.modulus_value(TrigPolynomial.cosine((1,) * d), 2, 0.1)  # first-call set-up
    tracemalloc.start()
    try:
        spectral.modulus_value(f, 2, [0.25, 0.01])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * spectral.MODULUS_SCAN_CHUNK


def test_modulus_l2_start_scan_slabs_keep_every_value(monkeypatch):
    # F of a shift does not depend on the other shifts of its call, and argmax over
    # the joined slabs keeps the first maximum, so the slab size changes no bit
    radii = [0.5, 0.1, 0.003]
    for d in (1, 2, 3):
        f = _many_term_poly(d, 20, d)
        values = []
        for chunk in (2**40, 40 * 37 + 5, 39):  # one call; slabs of 37 shifts; one shift
            monkeypatch.setattr(spectral, "MODULUS_SCAN_CHUNK", chunk)
            values.append(spectral.modulus_value(f, 2, radii))
        assert values[1] == values[0] and values[2] == values[0], d


def test_modulus_l2_search_groups_keep_every_value(monkeypatch):
    # a value does not depend on the other radii, so the groups of radii the
    # search and the Newton finish run on change no bit
    radii = list(np.geomspace(0.5, 1e-3, 7))
    for d in (1, 2, 3):
        f = _many_term_poly(d, 20, d)
        values = []
        for group in (10**9, 3, 1):  # one group; groups of 3 radii (the last of 1); single radii
            monkeypatch.setattr(spectral, "MODULUS_SCAN_CHUNK", group * d * d * 40)
            values.append(spectral.modulus_value(f, 2, radii))
        assert values[1] == values[0] and values[2] == values[0], d


@pytest.mark.parametrize("d, count", [(2, 256), (3, 128)])
def test_modulus_l2_search_memory_is_one_group(monkeypatch, d, count):
    # the Newton finish holds radii x d^2 x terms values; over all radii at once
    # the peak read 23 chunks (750-770 KB, numpy 2.4.6), in groups of radii 6-8
    monkeypatch.setattr(spectral, "MODULUS_SCAN_CHUNK", 2**12)
    f = _many_term_poly(d, 20, 8)
    spectral.modulus_value(TrigPolynomial.cosine((1,) * d), 2, 0.1)  # first-call set-up
    tracemalloc.start()
    try:
        spectral.modulus_value(f, 2, list(np.geomspace(0.5, 1e-4, count)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * spectral.MODULUS_SCAN_CHUNK


@settings(max_examples=10, deadline=None)
@given(hermitian_polys(), st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=3))
def test_modulus_sup_value_does_not_depend_on_other_radii(f, radii):
    values = spectral.modulus_value(f, "inf", radii)
    assert values == [spectral.modulus_value(f, "inf", x) for x in radii]


def test_modulus_curve_invariants():
    rng = np.random.default_rng(6)
    f = random_poly(rng, 2, span=3)
    radii = [0.5 / 2**j for j in range(6)]
    curve = spectral.ModulusCurve(radii, spectral.modulus_value(f, 2, radii))
    assert curve.check_invariants(spectral.norm(f, 2))
    assert len(curve.as_rows()) == 6
    vals = [v for _, v in sorted(curve.as_rows())]
    assert vals == sorted(vals)  # monotone in delta


@pytest.mark.parametrize("r, k", [
    (2, 3),
    (2, (3, 1)),
    ("inf", 3),
    ("inf", (3, 1)),
    # from d = 4 on, `_directions` gives the 2d + 2 axis and diagonal directions
    (2, (1, 0, 0, 2)),
    ("inf", (1, 0, 0, 2)),
])
def test_modulus_curve_values_in_each_dimension(r, k):
    f = TrigPolynomial.cosine(k)
    if r == 2:  # a second, dependent pair: the search over `_directions` runs, not the closed form
        twice = {tuple(2 * v for v in key): 0.25 for key in f.coeffs}
        f = TrigPolynomial(f.dim, {**f.coeffs, **twice})
    curve = spectral.ModulusCurve([0.1, 0.05], spectral.modulus_value(f, r, [0.1, 0.05]))
    assert curve.check_invariants(spectral.norm(f, 2 if r == 2 else math.inf))
    assert all(v > 0 for v in curve.values)


@st.composite
def sparse_polys(draw):
    """Complex coefficients of any sign, subnormal to 1e150 (abs() of a complex
    overflows once both parts near 1.8e308), on random supports in d = 1..3."""
    dim = draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(-50, 50)] * dim)
    parts = st.floats(-1e150, 1e150)
    coeffs = draw(st.dictionaries(keys, st.builds(complex, parts, parts), min_size=1, max_size=8))
    f = TrigPolynomial(dim, coeffs)
    assume(f.coeffs)  # load infers the dimension from the first entry
    return f


def float_bits(c):
    return np.array([c.real, c.imag]).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(sparse_polys())
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("poly") / "f.json"
    f.save(path)
    g = TrigPolynomial.load(path)
    assert g.dim == f.dim
    assert sorted(g.coeffs) == sorted(f.coeffs)
    assert all(float_bits(g.coeffs[k]) == float_bits(c) for k, c in f.coeffs.items())


def test_inv_norm_sup():
    assert spectral.inv_norm_sup(DOUBLE) == 1.0
    assert spectral.inv_norm_sup(TWIN) == 1.0
    shear = lattice.validate_expanding([[2, 5], [0, 2]])
    g = spectral.inv_norm_sup(shear)
    direct = max(
        1.0 / spectral.min_singular_power(shear, j) for j in range(1, 10)
    )
    assert g == pytest.approx(max(1.0, direct))
    assert g > 1.4


def test_min_singular_power():
    for n in range(5):
        assert spectral.min_singular_power(DOUBLE, n) == pytest.approx(2.0**n)
        assert spectral.min_singular_power(TWIN, n) == pytest.approx(2.0 ** (n / 2.0))


@pytest.mark.parametrize("entries", [
    [[-1, -2, -1], [0, -1, 2], [2, 2, 0]],  # an SVD of the float A^n read 0.0 at n = 51
    [[2, 1, 0], [0, 2, 1], [1, 0, 2]],  # normal: singular values 3^n and 3^(n/2)
])
def test_min_singular_power_past_float_conditioning_vs_mpmath(entries):
    # cond(A^n) passes 2^53 among these powers, where the smallest singular
    # value of a float A^n keeps no digit; 1 / ||A^-n||_2 keeps them all
    pytest.importorskip("mpmath")
    m = lattice.validate_expanding(entries)
    for n in (20, 40, 48, 52, 60):
        want = float(mp_min_singular(m, n))
        assert spectral.min_singular_power(m, n) == pytest.approx(want, rel=1e-14, abs=0)
