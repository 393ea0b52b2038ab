"""Exact integer linear algebra: char poly, adjugate, cosets, digits."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import expanding_matrices
from toraldecay import lattice
from toraldecay.errors import InputError, NotExpanding, SingularMatrix, TooLarge

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
        det = (-1) ** d * coeffs[d]
        prod = lattice.mat_mul(adj, a)
        for i in range(d):
            for j in range(d):
                assert prod[i][j] == (det if i == j else 0)


def test_determinant_matches_numpy():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        a = random_int_matrix(rng, d)
        coeffs, _ = lattice.char_poly_and_adjugate(tuple(map(tuple, a)))
        det = (-1) ** d * coeffs[d]  # p(0) = det(-A)
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
        # adj(A^n) = adj(A)^n, which the reference conftest.transfer_by_powers relies on
        _, adj = lattice.char_poly_and_adjugate(tuple(map(tuple, a)))
        _, adj_n = lattice.char_poly_and_adjugate(exact)
        assert adj_n == lattice.mat_pow(adj, n)


@pytest.mark.parametrize("entries, n", [
    ([[2]], 0),
    ([[1, -1], [1, 1]], 7),
    ([[-1, -2, -1], [0, -1, 2], [2, 2, 0]], 5),
    ([[-1, -2, -1], [0, -1, 2], [2, 2, 0]], 1100),  # det^n and adj(A)^n pass float range
    ([[3]], 700),  # 3^-700 is subnormal
])
def test_inverse_power_is_correctly_rounded(entries, n):
    m = lattice.validate_expanding(entries)
    got = lattice.inverse_power(m, n)
    power = lattice.mat_pow(m.entries, n)
    det_n = m.det**n
    exact = [[Fraction(v, det_n) for v in row] for row in lattice.mat_pow(m.adjugate, n)]
    if n < 10:  # A^n times the exact quotients is the identity
        d = m.dim
        assert all(sum(power[i][k] * exact[k][j] for k in range(d)) == (i == j)
                   for i in range(d) for j in range(d))
    for row, want in zip(got, exact):
        for x, r in zip(row, want):
            assert abs(Fraction(float(x)) - r) <= Fraction(math.ulp(float(x))) / 2


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
        assert_complete_residue_system(lattice.validate_expanding(a))


def assert_complete_residue_system(m):
    """digit_set(m) holds one point of each coset of A Z^d, zero first."""
    reps = lattice.digit_set(m)
    assert len(reps) == m.det_abs
    assert reps[0] == (0,) * m.dim
    for u, v in itertools.combinations(reps, 2):
        assert not lattice.same_coset(m, u, v)


def test_one_dimensional_digit_sets_reach_half_the_modulus():
    # the cosets of Z / aZ need representatives up to |a| // 2
    for a in range(2, 13):
        for sign in (1, -1):
            assert_complete_residue_system(lattice.validate_expanding([[sign * a]]))
    four = lattice.digit_set(lattice.validate_expanding([[4]]))
    assert four == ((0,), (1,), (-1,), (2,))


def test_digit_set_refuses_q_past_the_cloud_guard(monkeypatch):
    # the guard comes before the scan, which keeps one residue per coset
    monkeypatch.setattr(lattice, "CLOUD_GUARD", 4)
    assert lattice.digit_set(lattice.validate_expanding([[-4]])) == ((0,), (1,), (-1,), (2,))
    for entries in ([[5]], [[2, 1], [-1, 2]]):
        with pytest.raises(TooLarge):
            lattice.digit_set(lattice.validate_expanding(entries))


def test_digit_set_of_a_large_modulus_matches_the_pairwise_scan():
    # the residue scan keeps what the pairwise same_coset scan kept
    for entries in ([[97]], [[-60]], [[7, 2], [-3, 5]], [[2, 1, 0], [0, 2, 1], [1, 0, 3]]):
        m = lattice.validate_expanding(entries)
        pairwise = []
        for r in range(lattice.coset_search_bound(m) + 1):
            for cand in lattice._shell(m.dim, r):
                if len(pairwise) < m.det_abs and all(
                        not lattice.same_coset(m, cand, g) for g in pairwise):
                    pairwise.append(cand)
        assert lattice.digit_set(m) == tuple(pairwise)


@settings(max_examples=60, deadline=None)
@given(expanding_matrices())
def test_digit_set_is_a_complete_residue_system(m):
    assert_complete_residue_system(m)


def walker_shell(d, r):
    """The recursive shell walker `_shell` replaced, kept as its reference."""
    if r == 0:
        return [tuple([0] * d)]
    vals = list(range(r, -r - 1, -1))
    out = []

    def rec(prefix, hit):
        if len(prefix) == d:
            if hit:
                out.append(tuple(prefix))
            return
        for v in vals:
            rec(prefix + [v], hit or abs(v) == r)

    rec([], False)
    return out


def test_shell_matches_the_recursive_walker():
    # the shell order is the digit normalization contract
    for d in range(1, 5):
        for r in range(5):
            assert lattice._shell(d, r) == walker_shell(d, r)


def test_same_coset_examples():
    m = lattice.validate_expanding(TWIN)
    assert lattice.same_coset(m, (0, 0), (1, 1))  # (1,1) = A(1,0)
    assert not lattice.same_coset(m, (0, 0), (1, 0))
    m2 = lattice.validate_expanding([[2]])
    assert lattice.same_coset(m2, (5,), (3,))
    assert not lattice.same_coset(m2, (5,), (4,))


def test_exact_solve_integral():
    m = lattice.validate_expanding(TWIN)
    sol = lattice.exact_solve_integral(m.adjugate, m.det, (1, 1))
    assert sol == (1, 0)
    assert lattice.exact_solve_integral(m.adjugate, m.det, (1, 0)) is None


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
    assert lattice.mat_pow(m.entries, 2) == ((0, -2), (2, 0))
    assert lattice.mat_vec(m.star(), (1, 0)) == (1, -1)


def test_branch_points():
    m = lattice.validate_expanding(TWIN)
    digits = lattice.digit_set(m)
    cloud = lattice.branch_points(m, digits, 3)
    assert cloud.shape == (8, 2)
    # b_gamma = sum_j A^-j gamma_j over digit strings, outermost digit first
    inv = np.linalg.inv(np.array(TWIN, dtype=float))
    d = np.array(digits, dtype=float)
    want = [inv @ (g3 + inv @ (g2 + inv @ g1)) for g3 in d for g2 in d for g1 in d]
    assert np.allclose(cloud, want, atol=1e-15)
    assert np.array_equal(lattice.branch_points(m, digits, 0), np.zeros((1, 2)))
