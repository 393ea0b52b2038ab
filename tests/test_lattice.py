"""Exact integer linear algebra: char poly, adjugate, cosets, digits."""

import numpy as np
import pytest

from toraldecay import lattice
from toraldecay.errors import InputError, NotExpanding, SingularMatrix

TWIN = [[1, -1], [1, 1]]


def random_int_matrix(rng, d, span=5):
    return [[int(rng.integers(-span, span + 1)) for _ in range(d)] for _ in range(d)]


def test_char_poly_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        a = random_int_matrix(rng, d)
        coeffs, adj = lattice.char_poly_and_adjugate(tuple(map(tuple, a)))
        ref = np.poly(np.array(a, dtype=float))
        assert np.allclose(coeffs, ref, atol=1e-6 * max(1.0, np.abs(ref).max()))


def test_adjugate_identity():
    # adj(A) A = det(A) I, exactly in integers
    rng = np.random.default_rng(8)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        a = tuple(map(tuple, random_int_matrix(rng, d)))
        coeffs, adj = lattice.char_poly_and_adjugate(a)
        det = lattice.determinant(a)
        prod = lattice.mat_mul(adj, a)
        for i in range(d):
            for j in range(d):
                assert prod[i][j] == (det if i == j else 0)


def test_determinant_matches_numpy():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        a = random_int_matrix(rng, d)
        det = lattice.determinant(tuple(map(tuple, a)))
        assert det == round(float(np.linalg.det(np.array(a, dtype=float))))


def test_mat_pow_matches_numpy():
    rng = np.random.default_rng(10)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        a = random_int_matrix(rng, d, span=3)
        n = int(rng.integers(0, 6))
        exact = lattice.mat_pow(tuple(map(tuple, a)), n)
        ref = np.linalg.matrix_power(np.array(a, dtype=object), n)
        assert np.array_equal(np.array(exact, dtype=object), ref)
        # adj(A^n) = adj(A)^n, which transfer_fourier relies on
        _, adj = lattice.char_poly_and_adjugate(tuple(map(tuple, a)))
        _, adj_n = lattice.char_poly_and_adjugate(exact)
        assert adj_n == lattice.mat_pow(adj, n)


def test_validate_expanding_accepts_and_annotates():
    m = lattice.validate_expanding(TWIN)
    assert m.det_abs == 2
    assert m.dim == 2
    assert abs(m.lambda_min - np.sqrt(2)) < 1e-12
    m3 = lattice.validate_expanding([[3]])
    assert m3.lambda_min == pytest.approx(3.0)
    assert m3.det_abs == 3


def test_validate_expanding_rejects():
    with pytest.raises(NotExpanding):
        lattice.validate_expanding([[1]])
    with pytest.raises(NotExpanding):
        lattice.validate_expanding([[0, 1], [1, 0]])  # eigenvalues on the circle
    with pytest.raises(NotExpanding):
        lattice.validate_expanding([[2, 0], [0, 1]])  # one eigenvalue inside
    with pytest.raises(SingularMatrix):
        lattice.validate_expanding([[2, 2], [1, 1]])
    with pytest.raises(InputError):
        lattice.validate_expanding([[1, 2]])


def test_digit_sets_pinned():
    # the deterministic shell/lex rule fixes these representative sets
    assert tuple(lattice.digit_set(lattice.validate_expanding([[2]]))) == ((0,), (1,))
    assert tuple(lattice.digit_set(lattice.validate_expanding([[3]]))) == (
        (0,),
        (1,),
        (-1,),
    )
    assert tuple(lattice.digit_set(lattice.validate_expanding(TWIN))) == (
        (0, 0),
        (1, 0),
    )


def test_digit_sets_are_full_coset_systems():
    rng = np.random.default_rng(11)
    mats = [TWIN, [[2]], [[3]], [[2, 0], [0, 2]], [[2, 1], [0, 2]], [[-2]]]
    for _ in range(10):
        d = int(rng.integers(1, 3))
        a = random_int_matrix(rng, d, span=3)
        try:
            lattice.validate_expanding(a)
        except (NotExpanding, SingularMatrix, InputError):
            continue
        mats.append(a)
    for a in mats:
        m = lattice.validate_expanding(a)
        digits = lattice.digit_set(m)
        assert len(digits) == m.det_abs
        assert digits.digits[0] == (0,) * m.dim
        reps = list(digits)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not lattice.same_coset(m, reps[i], reps[j])


def test_same_coset_examples():
    m = lattice.validate_expanding(TWIN)
    assert lattice.same_coset(m, (0, 0), (1, 1))  # (1,1) = A(1,0)
    assert not lattice.same_coset(m, (0, 0), (1, 0))
    m2 = lattice.validate_expanding([[2]])
    assert lattice.same_coset(m2, (5,), (3,))
    assert not lattice.same_coset(m2, (5,), (4,))


def test_exact_solve_integral():
    m = lattice.validate_expanding(TWIN)
    sol = lattice.exact_solve_integral(m.entries, m.adjugate, m.det, (1, 1))
    assert sol == (1, 0)
    assert lattice.exact_solve_integral(m.entries, m.adjugate, m.det, (1, 0)) is None


def test_similarity_factor():
    assert lattice.validate_expanding(TWIN).similarity_factor() == 2
    assert lattice.validate_expanding([[2]]).similarity_factor() == 4
    assert lattice.validate_expanding([[2, 0], [0, 2]]).similarity_factor() == 4
    assert lattice.validate_expanding([[2, 1], [0, 2]]).similarity_factor() is None


def test_parse_matrix_formats():
    m = lattice.parse_matrix("1,-1;1,1")
    assert m.entries == ((1, -1), (1, 1))
    assert lattice.parse_matrix("1 -1; 1 1").entries == ((1, -1), (1, 1))
    assert lattice.parse_matrix("2").entries == ((2,),)
    with pytest.raises(InputError):
        lattice.parse_matrix("1,a;0,1")
    with pytest.raises(InputError):
        lattice.parse_matrix("1,2;3")
    with pytest.raises(NotExpanding):
        lattice.parse_matrix("1,0;0,1")


def test_star_and_power():
    m = lattice.validate_expanding(TWIN)
    assert m.star() == ((1, 1), (-1, 1))
    assert m.power(2) == ((0, -2), (2, 0))
    assert lattice.mat_vec(m.star(), (1, 0)) == (1, -1)


def test_branch_points():
    m = lattice.validate_expanding(TWIN)
    digits = lattice.digit_set(m)
    cloud = lattice.branch_points(m, digits, 3)
    assert cloud.shape == (8, 2)
    # b_gamma = sum_j A^-j gamma_j over digit strings, outermost digit first
    inv = np.linalg.inv(np.array(TWIN, dtype=float))
    d = np.array(digits.digits, dtype=float)
    want = [inv @ (g3 + inv @ (g2 + inv @ g1)) for g3 in d for g2 in d for g1 in d]
    assert np.allclose(cloud, want, atol=1e-15)
    assert np.array_equal(lattice.branch_points(m, digits, 0), np.zeros((1, 2)))
