"""Exact integer and rational linear algebra for expanding endomorphisms.

Everything here that decides anything (determinants, coset membership,
digit selection, frequency preimages) runs in exact integer arithmetic.
Floating point enters for eigenvalue moduli, where the roots of the
exact characteristic polynomial are located numerically, and as one
rounding per entry of A^-n (`inverse_power`).
"""

import itertools

import numpy as np

from .errors import InputError, InternalError, NotExpanding, SingularMatrix, TooLarge

EXPANDING_TOL = 1e-9  # strict margin on |eigenvalue| - 1
CLOUD_GUARD = 10**7  # most points a digit set (q) or a level-n tile cloud (q^n) holds


def _as_int_rows(entries):
    rows = [tuple(int(v) for v in row) for row in entries]
    d = len(rows)
    if d < 1 or any(len(r) != d for r in rows):
        raise InputError("matrix must be square with d >= 1")
    return tuple(rows), d


def mat_mul(a, b):
    """Exact product of two integer matrices (tuples of tuples)."""
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def mat_vec(a, v):
    """Exact matrix-vector product."""
    d = len(a)
    return tuple(sum(a[i][j] * int(v[j]) for j in range(d)) for i in range(d))


def identity(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_pow(a, n):
    """Exact n-th power, n >= 0, by binary exponentiation."""
    if n < 0:
        raise InputError("matrix power wants n >= 0")
    d = len(a)
    result = identity(d)
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def transpose(a):
    d = len(a)
    return tuple(tuple(a[j][i] for j in range(d)) for i in range(d))


def char_poly_and_adjugate(a):
    """Faddeev-LeVerrier: exact char poly coefficients and adjugate.

    Returns ([1, c1, ..., cd], adjugate) with
    p(t) = t^d + c1 t^(d-1) + ... + cd and adj(A) A = det(A) I.
    """
    d = len(a)
    coeffs = [1]
    m = identity(d)
    m_prev = m
    for k in range(1, d + 1):
        am = mat_mul(a, m)
        tr = sum(am[i][i] for i in range(d))
        num = -tr
        if num % k != 0:
            raise InternalError("Faddeev-LeVerrier produced a non-integer coefficient")
        ck = num // k
        coeffs.append(ck)
        m_prev = m
        m = tuple(
            tuple(am[i][j] + (ck if i == j else 0) for j in range(d)) for i in range(d)
        )
    # m is now M_d and must vanish; adj(A) = (-1)^(d-1) M_(d-1).
    if any(any(v != 0 for v in row) for row in m):
        raise InternalError("Faddeev-LeVerrier recursion did not terminate at zero")
    sign = 1 if (d - 1) % 2 == 0 else -1
    adj = tuple(tuple(sign * m_prev[i][j] for j in range(d)) for i in range(d))
    return coeffs, adj


class IntegerMatrix:
    """Exact d x d integer matrix with expanding-spectrum metadata.

    Construct through validate_expanding; the constructor itself does
    not re-check the spectrum.
    """

    def __init__(self, entries, det, lambda_min, adjugate):
        self.entries = entries
        self.dim = len(entries)
        self.det = det
        self.det_abs = abs(det)
        self.lambda_min = lambda_min
        self.adjugate = adjugate

    def star(self):
        """Exact transpose entries (the adjoint A* acting on frequencies)."""
        return transpose(self.entries)

    def similarity_factor(self):
        """c with A^T A = c I when A is a similarity, else None. Exact."""
        g = mat_mul(transpose(self.entries), self.entries)
        d = self.dim
        c = g[0][0]
        for i in range(d):
            for j in range(d):
                if g[i][j] != (c if i == j else 0):
                    return None
        return c

    def __repr__(self):
        return "IntegerMatrix(%r)" % (self.entries,)


def validate_expanding(entries):
    """Accept a square integer matrix whose eigenvalues all exceed 1 in modulus.

    Returns an IntegerMatrix carrying exact q = |det A| and the minimum
    eigenvalue modulus lambda, from numpy.roots of the exact characteristic
    polynomial. q >= 2 then holds automatically: the determinant is a
    nonzero integer of modulus prod |eigenvalue| > 1.
    """
    a, d = _as_int_rows(entries)
    coeffs, adj = char_poly_and_adjugate(a)
    det = coeffs[d] if d % 2 == 0 else -coeffs[d]
    if det == 0:
        raise SingularMatrix("matrix is singular (det = 0)")
    roots = np.roots(np.array(coeffs, dtype=float))
    lam = float(np.min(np.abs(roots)))
    if lam <= 1.0 + EXPANDING_TOL:
        raise NotExpanding(
            "matrix is not expanding: min |eigenvalue| = %.12g <= 1 + %g"
            % (lam, EXPANDING_TOL)
        )
    return IntegerMatrix(a, det, lam, adj)


def exact_solve_integral(adj, det, target):
    """Solve a x = target over the integers, or return None.

    adj and det are the adjugate and determinant of a. The solution is
    adj @ target / det, integral iff det divides every component.
    """
    num = mat_vec(adj, target)
    if any(v % det != 0 for v in num):
        return None
    return tuple(v // det for v in num)


def same_coset(matrix, u, v):
    """True iff u - v lies in A Z^d, decided exactly."""
    if len(u) != matrix.dim or len(v) != matrix.dim:
        raise InputError("vector dimension does not match the matrix")
    diff = tuple(int(u[i]) - int(v[i]) for i in range(matrix.dim))
    return exact_solve_integral(matrix.adjugate, matrix.det, diff) is not None


def hermite(entries):
    """Lower-triangular basis H = B V of the lattice B Z^d, V unimodular.

    Extended Euclid on each row by exact integer column operations; the
    diagonal of H is positive, its product is |det B|, and each entry
    left of the diagonal is reduced into [0, H_ii).
    """
    d = len(entries)
    cols = [list(c) for c in zip(*entries)]
    unimodular = [list(c) for c in identity(d)]

    def subtract(i, j, t):  # column i -= t column j, in both matrices
        for m in (cols, unimodular):
            m[i] = [a - t * b for a, b in zip(m[i], m[j])]

    for i in range(d):
        for j in range(i + 1, d):
            while cols[j][i]:
                subtract(i, j, cols[i][i] // cols[j][i])
                for m in (cols, unimodular):
                    m[i], m[j] = m[j], m[i]
        if cols[i][i] < 0:
            subtract(i, i, 2)  # negate column i
        for j in range(i):
            subtract(j, i, cols[j][i] // cols[i][i])
    return transpose(cols), transpose(unimodular)


def residue(h, m):
    """Index of r, one of |det H|, and the quotients c in m = H c + r, 0 <= r_i < H_ii.

    H is a `hermite` basis and m holds one integer, or one integer array, per
    axis; two points share an index exactly when they differ by a point of H Z^d.
    """
    m = list(m)
    rho = 0
    quotients = []
    for i in range(len(h)):
        c = m[i] // h[i][i]
        quotients.append(c)
        for j in range(i + 1, len(h)):
            if h[j][i]:
                m[j] = m[j] - c * h[j][i]
        rho = rho * h[i][i] + (m[i] - c * h[i][i])
    return rho, quotients


def _shell(d, r):
    """Integer vectors with sup-norm exactly r, largest-lex first.

    The listing order is the normalization contract: scanning shells
    outward and taking the lexicographically largest candidates first
    yields {0, 1, -1} for [[3]] and {(0,0), (1,0)} for [[1,-1],[1,1]].
    Only the shell's own points are listed, not the cube around it.
    """
    if d == 1:
        return [(r,), (-r,)] if r else [(0,)]
    span = range(r, -r - 1, -1)
    inner = _shell(d - 1, r)  # the rest where |v| < r: it reaches sup-norm r itself
    return [(v,) + w for v in span
            for w in (itertools.product(span, repeat=d - 1) if abs(v) == r else inner)]


def coset_search_bound(matrix):
    """Sup-norm shell that holds a representative of every coset.

    A [-1/2, 1/2)^d is a fundamental domain of A Z^d, so it holds an
    integer point of every coset, and such a point has sup-norm at most
    half the largest row abs-sum of A. That sum is >= 2 for an
    expanding A, since it bounds the spectral radius.
    """
    return max(sum(abs(v) for v in row) for row in matrix.entries) // 2


def digit_set(matrix):
    """One representative per coset of Z^d / A Z^d, zero first, as int tuples.

    Deterministic: shells of increasing sup-norm, largest-lex first
    inside each shell; a candidate is kept when its `residue` modulo
    A Z^d is new. TooLarge where q exceeds CLOUD_GUARD, before the scan.
    Failure to find q cosets inside the provable bounding shell is an
    arithmetic bug, not a user error.
    """
    q = matrix.det_abs
    if q > CLOUD_GUARD:
        raise TooLarge("q = %d digits exceed the cloud guard %d" % (q, CLOUD_GUARD))
    basis = hermite(matrix.entries)[0]
    digits = []
    seen = set()
    bound = coset_search_bound(matrix)
    for r in range(0, bound + 1):
        for cand in _shell(matrix.dim, r):
            rho = residue(basis, cand)[0]
            if rho not in seen:
                seen.add(rho)
                digits.append(cand)
                if len(digits) == q:
                    return tuple(digits)
    raise InternalError(
        "found %d of %d cosets within sup-norm %d" % (len(digits), q, bound)
    )


def inverse_power(matrix, n):
    """A^-n in floats, each entry adj(A)^n_ij / det(A)^n as one correctly rounded int quotient."""
    det_n = matrix.det**n
    return np.array([[v / det_n for v in row] for row in mat_pow(matrix.adjugate, n)])


def branch_points(matrix, digits, n):
    """Float branch points b_gamma = S_gamma 0 for gamma in D^n.

    S_g x = A^-1 (x + g); the points come in canonical digit order.
    """
    inv_a = np.linalg.inv(np.array(matrix.entries, dtype=float))
    pts = np.zeros((1, matrix.dim))
    dig = np.array(digits, dtype=float)
    for _ in range(n):
        pts = np.concatenate([(pts + g) @ inv_a.T for g in dig])
    return pts


def parse_matrix(text):
    """Row-major 'a,b;c,d' (or 'a b;c d') matrix spec used by the CLI."""
    rows = []
    for chunk in text.strip().split(";"):
        parts = chunk.replace(",", " ").split()
        if not parts:
            raise InputError("empty matrix row in %r" % text)
        try:
            rows.append([int(p) for p in parts])
        except ValueError:
            raise InputError("matrix entries must be integers: %r" % text) from None
    return validate_expanding(rows)
