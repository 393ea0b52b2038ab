"""Transfer operator dual routes, norms, and modulus estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(InputError):
        TrigPolynomial(1, {(1,): 1.0}, real_valued=True)


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
    # the d = 3 grid takes the same axis-by-axis route as d = 1 and 2;
    # cos 2pi x + 0.5 cos 2pi(y + z) peaks at 0
    f = TrigPolynomial(3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (0, 1, 1): 0.25,
                           (0, -1, -1): 0.25})
    lo, hi = spectral.sup_norm_bracket(f)
    assert abs(lo - 1.5) < 1e-9
    assert hi == 1.5
    g = TrigPolynomial(3, {(0, 2, -1): 1j, (0, -2, 1): -1j})  # -2 sin 2pi(2y - z)
    lo, hi = spectral.sup_norm_bracket(g)
    assert abs(lo - 2.0) < 1e-9
    assert lo <= hi == 2.0


def _reference_bracket(f):
    """The earlier sup bracket: float-phase grid, then two golden-section sweeps per axis."""
    k, c = f.freq_array()
    d = f.dim
    upper = float(sum(abs(v) for v in f.coeffs.values()))
    n_pts = max(16, 8 * int(f.max_abs_freq()) + 1)
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
    vals, _ = spectral._grid_values(k.astype(np.int64), c[None, :], n_pts)
    l1 = sum(abs(v) for v in coeffs.values())
    with mp.workdps(40):
        for i in range(0, n_pts, 61):
            # exact reduction of the phase 2^j i mod N, then 40 digits
            want = abs(sum(mp.cos(2 * mp.pi * ((2**j * i) % n_pts) / n_pts) / (j + 1) ** 2
                           for j in range(13)))
            assert abs(vals[0, i] - float(want)) <= 1e-15 * l1, i


def test_modulus_value_exact_cosine_1d():
    # || cos(2 pi k (x+v)) - cos(2 pi k x) ||_2 = sqrt(2) |sin(pi k v)|
    for k in (1, 2, 5):
        f = TrigPolynomial.cosine(k)
        for delta in (0.01, 0.05, 0.5 / k):
            got = spectral.modulus_value(f, 2, delta)
            want = math.sqrt(2.0) * abs(math.sin(math.pi * k * delta))
            assert abs(got - want) < 1e-10


def test_modulus_value_exact_diagonal_2d():
    # the best shift direction for cos(2 pi (x1+x2)) is the diagonal
    f = TrigPolynomial.cosine((1, 1))
    for delta in (0.02, 0.1, 0.3):
        got = spectral.modulus_value(f, 2, delta)
        want = math.sqrt(2.0) * abs(math.sin(math.pi * math.sqrt(2.0) * delta))
        assert abs(got - want) < 1e-8


def test_modulus_value_sup_norm():
    f = TrigPolynomial.cosine(1)
    for delta in (0.05, 0.2):
        got = spectral.modulus_value(f, "inf", delta)
        want = 2.0 * math.sin(math.pi * delta)
        assert got <= want * (1.0 + 1e-9)
        assert got >= 0.98 * want


def test_modulus_saturation():
    f = TrigPolynomial.cosine(1)
    big = spectral.modulus_value(f, 2, 5.0, saturate=True)
    at_cap = spectral.modulus_value(f, 2, 0.5)
    assert abs(big - at_cap) < 1e-12
    with pytest.raises(InputError):
        spectral.modulus_value(f, 2, -0.1)


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
@given(hermitian_polys(), RADII, st.booleans())
def test_modulus_l2_value_does_not_depend_on_other_radii(f, radii, saturate):
    values = spectral.modulus_value(f, 2, radii, saturate=saturate)
    assert values == [spectral.modulus_value(f, 2, x, saturate=saturate) for x in radii]
    assert values[::-1] == spectral.modulus_value(f, 2, radii[::-1], saturate=saturate)


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
    # rows are chunked under GRID_CHUNK values and GRID_WORK_GUARD values x frequencies
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


@settings(max_examples=10, deadline=None)
@given(hermitian_polys(), st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=3))
def test_modulus_sup_value_does_not_depend_on_other_radii(f, radii):
    values = spectral.modulus_value(f, "inf", radii)
    assert values == [spectral.modulus_value(f, "inf", x) for x in radii]


def test_modulus_curve_invariants():
    rng = np.random.default_rng(6)
    f = random_poly(rng, 2, span=3)
    radii = [0.5 / 2**j for j in range(6)]
    curve = spectral.modulus(f, 2, radii)
    assert curve.check_invariants(spectral.norm(f, 2))
    assert len(curve.as_rows()) == 6
    vals = [v for _, v in sorted(curve.as_rows())]
    assert vals == sorted(vals)  # monotone in delta


@pytest.mark.parametrize("r, k, directions, radial_steps, refinement", [
    (2, 3, 1, 1024, "pattern-search+newton"),
    (2, (3, 1), 64, 32, "pattern-search+newton"),
    ("inf", 3, 1, 48, "pattern-search"),
    ("inf", (3, 1), 16, 8, "pattern-search"),
    # from d = 4 on, `_directions` gives the 2d + 2 axis and diagonal directions
    (2, (1, 0, 0, 2), 10, 32, "pattern-search+newton"),
    ("inf", (1, 0, 0, 2), 10, 8, "pattern-search"),
])
def test_modulus_metadata_describes_the_grid_that_ran(r, k, directions, radial_steps, refinement):
    # the r = inf scan has SUP_SHIFT_SCAN = 48 shifts in d = 1 and 16 directions
    # times 8 radii in d >= 2, not the 1024 or 64 x 32 points of the r = 2 grid
    curve = spectral.modulus(TrigPolynomial.cosine(k), r, [0.1])
    assert curve.direction_count == directions
    assert curve.refinement == {"radial_steps": radial_steps, "refinement": refinement}


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
