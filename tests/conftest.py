import itertools
import sys

from hypothesis import strategies as st

from toraldecay import lattice
from toraldecay.errors import NotExpanding, SingularMatrix
from toraldecay.spectral import TrigPolynomial

CRITERION_LINES = []


def record_criterion(line):
    """Collect an acceptance line and echo it for captured output."""
    CRITERION_LINES.append(line)
    print(line, file=sys.stderr)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def _expanding_or_none(entries):
    try:
        return lattice.validate_expanding(entries)
    except (NotExpanding, SingularMatrix):
        return None


def _square(d):
    # |a| up to 12 needs 1-D digits beyond sup-norm 1; |det A| <= 32 in d = 3
    span = {1: 12, 2: 3, 3: 2}[d]
    return st.lists(st.lists(st.integers(-span, span), min_size=d, max_size=d),
                    min_size=d, max_size=d)


def expanding_matrices():
    """Random expanding integer matrices in d = 1..3 (about half the draws)."""
    return st.integers(1, 3).flatmap(_square).map(_expanding_or_none).filter(
        lambda m: m is not None
    )


def mp_min_singular(matrix, n):
    """sigma_min(A^n) from mpmath's SVD of the exact integer A^n, an mpf, d <= 3.

    svd_r finds sigma_min to about 10^-dps sigma_max, and sigma_max / sigma_min
    = ||A^n|| ||A^-n|| <= d^2 max|A^n| max|adj(A)^n| / |det A|^n, so the digits
    of that bound on top of 40 leave sigma_min good to about 40 digits.
    """
    import mpmath as mp

    power = lattice.mat_pow(matrix.entries, n)
    adj = lattice.mat_pow(matrix.adjugate, n)

    def digits(a):
        return len(str(max(abs(v) for row in a for v in row)))

    with mp.workdps(42 + digits(power) + digits(adj) - len(str(matrix.det_abs**n))):
        return min(mp.svd_r(mp.matrix(power), compute_uv=False))


def transfer_by_powers(f, matrix, n):
    """L^n f solved in one go: each term's preimage under A*^n from adj(A)^n
    and det(A)^n. The reference for `transfer_fourier`."""
    adj = lattice.transpose(lattice.mat_pow(matrix.adjugate, n))
    det = matrix.det**n
    kept, keys = lattice.exact_solve_integral(adj, det, list(f.coeffs))
    return TrigPolynomial(f.dim, dict(zip(keys, itertools.compress(f.coeffs.values(), kept))))


def count_solves(monkeypatch):
    """The list that collects every frequency given to `lattice.exact_solve_integral`."""
    solves, solve = [], lattice.exact_solve_integral

    def counted(adj, det, targets):
        solves.extend(targets)
        return solve(adj, det, targets)

    monkeypatch.setattr(lattice, "exact_solve_integral", counted)
    return solves
