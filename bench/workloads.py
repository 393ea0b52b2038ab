"""Seeded inputs, operation lists and output checks for the two workloads.

Every operation goes through `toraldecay.cli.main(argv)` in-process where
a subcommand exists; `sigma_squared` and the level-16 census have no
subcommand and are called as library functions. Checks compare each
output with a closed form or with an oracle that the benchmark computes
itself (exact integer matrix powers, Parseval sums, Hurwitz zeta tails
summed directly), at the acceptance tolerances.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

MC_HORIZON = 2000
MC_SAMPLES = 5000
CENSUS_SAMPLES = 20000  # level 14
CENSUS16_SAMPLES = 10000
CORR_MC_SAMPLES = 20000
SPARSE_STEPS = 8
LACUNARY_NMAX = 10


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


class Op:
    """One operation: a CLI argv or a library callable, plus its check.

    `run` returns the operation's output (stdout text for CLI calls, the
    returned value for library calls). `check(out, state)` raises
    CheckFailed on a wrong output; `state` is shared by the operations of
    one pass so a check can compare against an earlier operation.
    `work` holds the throughput counts the operation contributes.
    """

    def __init__(self, kind, argv=None, call=None, check=None, work=None,
                 report=None, outputs=(), threads=None):
        self.kind = kind
        self.argv = argv
        self.call = call
        self.threads = threads
        self.check = check
        self.work = work or {}
        self.report = report
        self.outputs = tuple(outputs)

    def run(self, td):
        if self.call is not None:
            return self.call(td, self.threads)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = td.cli.main(self.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                raise RuntimeError("usage error, exit code %s" % exc.code) from None
        if rc != 0:
            raise RuntimeError("exit code %d" % rc)
        return buf.getvalue()

    def fingerprint(self, out):
        """Bytes that must not depend on tracing or on the thread count."""
        parts = [out if isinstance(out, str) else repr(out)]
        for path in self.outputs:
            with open(path, "rb") as fh:
                parts.append(fh.read().decode("utf-8"))
        return "\n".join(parts)

    def with_threads(self, threads):
        """Copy of a sampling operation run at another thread count."""
        argv = self.argv
        if argv is not None:
            argv = list(argv)
            argv[argv.index("--threads") + 1] = str(threads)
        return Op(self.kind, argv, self.call, self.check, self.work, self.report,
                  self.outputs, threads)


# -- small exact helpers used by the oracles ----------------------------------


def _imat_mul(a, b):
    d = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _imat_pow(a, n):
    d = len(a)
    out = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(n):
        out = _imat_mul(out, a)
    return out


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _imat_vec(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def _cofactor_adjugate(a):
    """(adjugate, determinant) of a d <= 3 integer matrix by cofactors."""
    d = len(a)
    if d == 1:
        return [[1]], a[0][0]
    if d == 2:
        return [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]], a[0][0] * a[1][1] - a[0][1] * a[1][0]
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [x for x in range(3) if x != i]
            c = [x for x in range(3) if x != j]
            minor = a[r[0]][c[0]] * a[r[1]][c[1]] - a[r[0]][c[1]] * a[r[1]][c[0]]
            cof[i][j] = (-1) ** (i + j) * minor
    det = sum(a[0][j] * cof[0][j] for j in range(3))
    return _transpose(cof), det


def oracle_transfer(coeffs, entries, n):
    """Coefficients of L^n f: ghat(k) = fhat(A*^n k), kept iff k is integral."""
    star_n = _imat_pow(_transpose(entries), n)
    adj, det = _cofactor_adjugate(star_n)
    out = {}
    for j, c in coeffs.items():
        num = _imat_vec(adj, j)
        if all(v % det == 0 for v in num):
            out[tuple(v // det for v in num)] = c
    return out


def oracle_correlation(f, g, entries, n):
    """sum over m != 0 of ghat(m) fhat(-A*^n m), the exact correlation."""
    star_n = _imat_pow(_transpose(entries), n)
    total = 0j
    for m, gm in g.items():
        if any(m):
            total += gm * f.get(tuple(-v for v in _imat_vec(star_n, m)), 0j)
    return total


def oracle_sigma2(f, entries):
    """-int f^2 + 2 sum_{n>=0} int f (f o A^n), summed until no term can return.

    The sum stops once every image A*^n m is 10^6 times farther out than the
    support, which no later power of an expanding matrix with small entries
    can bring back.
    """
    kmax = 10**6 * max(max(abs(v) for v in k) for k in f)
    star = _transpose(entries)
    images = {m: m for m in f}
    total = 0j
    for n in range(400):
        term = sum(c * f.get(tuple(-v for v in images[m]), 0j) for m, c in f.items())
        total += term if n == 0 else 2.0 * term
        images = {m: _imat_vec(star, v) for m, v in images.items()}
        if all(max(abs(v) for v in k) > kmax for k in images.values()):
            return total.real
    raise CheckFailed("variance oracle did not terminate")


def _close(a, b, rel=1e-12, abs_tol=1e-14):
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return [dict(zip(header, (float(v) for v in row))) for row in reader]


def _footer(text, key):
    for ln in text.splitlines():
        if ln.startswith("# %s: " % key):
            return ln[len(key) + 4:]
    raise CheckFailed("missing footer %r" % key)


def _save_function(path, coeffs):
    entries = [
        {"k": list(k), "re": float(c.real), "im": float(c.imag)}
        for k, c in sorted(coeffs.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def _matrix_text(entries):
    return ";".join(",".join(str(v) for v in row) for row in entries)


# -- input generation ---------------------------------------------------------


def _random_expanding(rng, td, dim):
    """Random expanding integer matrix with a small determinant."""
    span = {1: 5, 2: 3, 3: 2}[dim]
    while True:
        entries = rng.integers(-span, span + 1, size=(dim, dim)).tolist()
        try:
            m = td.lattice.validate_expanding(entries)
        except td.errors.ToralDecayError:
            continue
        if 2 <= m.det_abs <= 12 and m.lambda_min >= 1.3:
            return entries


def _random_similarity(rng, dim):
    if dim == 1:
        return [[int(rng.choice([-4, -3, -2, 2, 3, 4]))]]
    if dim == 2:
        while True:
            a, b = (int(v) for v in rng.integers(-3, 4, size=2))
            if 2 <= a * a + b * b <= 13:
                break
        if rng.random() < 0.5:
            return [[a, -b], [b, a]]
        return [[a, b], [b, -a]]
    scale = int(rng.choice([2, 3]))
    perm = rng.permutation(3)
    signs = rng.choice([-1, 1], size=3)
    return [[scale * int(signs[i]) * int(perm[i] == j) for j in range(3)] for i in range(3)]


def _sparse_coeffs(rng, entries, cap):
    """Up to 3 hermitian pairs at frequencies A*^m h with m >= 1.

    Frequencies on adjoint orbits survive m transfer steps, so the first
    transferred function keeps some support. Its largest frequency,
    A*^(m-1) h, lies in [cap/2, cap] for the first pair and below cap for
    the others, which keeps the sup-norm grid of step 1 (and so the work
    and memory of each input) within a factor of about four across seeds.
    """
    star = _transpose(entries)
    dim = len(entries)
    coeffs = {}
    pairs = int(rng.integers(1, 4))
    tries = 0
    # Small caps can leave fewer distinct orbit points than pairs wanted;
    # stop after 2000 draws with what was found (the first pair always is).
    while len(coeffs) < 2 * pairs and tries < 2000:
        tries += 1
        h = tuple(int(v) for v in rng.integers(-2, 3, size=dim))
        if not any(h):
            continue
        orbit = []  # (A*^(m-1) h, A*^m h) while the first stays within cap
        prev = h
        while max(abs(v) for v in prev) <= cap and len(orbit) < 64:
            k = _imat_vec(star, prev)
            orbit.append((prev, k))
            prev = k
        if not coeffs and tries < 1000:
            orbit = [pk for pk in orbit if 2 * max(abs(v) for v in pk[0]) >= cap]
        if not orbit:
            continue
        k = orbit[int(rng.integers(0, len(orbit)))][1]
        neg = tuple(-v for v in k)
        if k in coeffs or neg in coeffs:
            continue
        c = complex(rng.normal(), rng.normal())
        coeffs[k] = c
        coeffs[neg] = c.conjugate()
    return coeffs


# -- checks -------------------------------------------------------------------


def _check_clt(out, state):
    payload = json.loads(out)
    _require(payload["sigma2"] == 0.5, "sigma2 %r != 0.5" % payload["sigma2"])
    _require(payload["ks"] is not None and payload["ks"] <= 0.03,
             "KS %r > 0.03" % payload["ks"])


def _check_lyapunov(out, state):
    payload = json.loads(out)
    gap = abs(payload["mean_log_derivative"] - math.log(2.0))
    _require(gap <= 0.01, "mean log-derivative off log 2 by %g" % gap)


def _check_tile14(out, state):
    payload = json.loads(out)
    _require(payload["self_affinity_mismatch"] == 0.0,
             "self-affinity mismatch %r" % payload["self_affinity_mismatch"])
    _require(sum(payload["histogram"].values()) == payload["samples"],
             "census histogram does not sum to the sample count")
    state["fraction14"] = payload["fraction_one"]


def _check_census16(out, state):
    _require(sum(out.histogram.values()) == out.samples,
             "census histogram does not sum to the sample count")
    f14 = state.get("fraction14")
    _require(f14 is not None and out.fraction_one > f14,
             "single-cover fraction %r at level 16 does not exceed %r at level 14"
             % (out.fraction_one, f14))


def _check_decay_mc(f, g, entries, samples):
    tol = 6.0 * sum(abs(c) for c in f.values()) * sum(abs(c) for c in g.values())
    tol /= math.sqrt(samples)

    def check(out, state):
        for row in _csv_rows(out):
            exact = abs(oracle_correlation(f, g, entries, int(row["n"])))
            _require(abs(row["value"] - exact) <= tol,
                     "MC correlation %r vs exact %r at n=%d" % (row["value"], exact, row["n"]))

    return check


def _check_transfer_norms(fc, entries, norms_key):
    def check(out, state):
        rows = _csv_rows(out)
        for row in rows:
            kept = oracle_transfer(fc, entries, int(row["n"]))
            l2 = math.sqrt(sum(abs(c) ** 2 for c in kept.values()))
            l1 = sum(abs(c) for c in kept.values())
            _require(_close(row["norm_L2"], l2), "L2 norm %r vs oracle %r" % (row["norm_L2"], l2))
            _require(_close(row["norm_sup_upper"], l1), "sup upper bound is not the l1 norm")
            _require(row["norm_sup_lower"] <= row["norm_sup_upper"] * (1 + 1e-12),
                     "sup bracket inverted")
        state[norms_key] = {int(r["n"]): r["norm_L2"] for r in rows}

    return check


def _check_decay_norm(fc, entries, norms_key):
    """transfer_norm mode: values match the oracle and `transfer`.

    Sparse high-frequency terms make the fitted n = 1 constant meaningless,
    so the 5% bound of the acceptance suite is not checked here.
    """

    def check(out, state):
        for row in _csv_rows(out):
            n = int(row["n"])
            l2 = math.sqrt(sum(abs(c) ** 2 for c in oracle_transfer(fc, entries, n).values()))
            _require(_close(row["value"], l2), "decay value %r vs oracle %r" % (row["value"], l2))
            norms = state.get(norms_key)
            if norms is not None:
                _require(norms.get(n) == row["value"],
                         "transfer and decay disagree on the L2 norm at n=%d" % n)

    return check


def _check_decay_sup(fc, entries):
    """transfer_norm mode in the sup norm: ||L^n f||_2 <= value <= ||L^n f||_A.

    The value is the best point of a grid with more than two points per
    unit frequency, where the mean of |L^n f|^2 equals its L2 norm squared
    exactly, so the largest grid value is at least the L2 norm; the upper
    limit is the coefficient l1 norm.
    """

    def check(out, state):
        for row in out.rows:
            kept = oracle_transfer(fc, entries, row.n).values()
            l2 = math.sqrt(sum(abs(c) ** 2 for c in kept))
            l1 = sum(abs(c) for c in kept)
            _require(l2 * (1 - 1e-12) <= row.value <= l1 * (1 + 1e-12),
                     "sup norm %r outside [%r, %r] at n=%d" % (row.value, l2, l1, row.n))
            _require(row.bound >= 0.0, "negative bound")

    return check


def _check_decay_corr(fc, g, entries):
    def check(out, state):
        for row in _csv_rows(out):
            exact = abs(oracle_correlation(fc, g, entries, int(row["n"])))
            _require(_close(row["value"], exact, 1e-9, 1e-12),
                     "correlation %r vs oracle %r" % (row["value"], exact))
            _require(row["bound"] >= 0.0, "negative bound")

    return check


def _check_sigma2(f, entries):
    def check(out, state):
        exact = oracle_sigma2(f, entries)
        _require(out >= 0.0 and _close(out, exact, 1e-9, 1e-9),
                 "sigma^2 %r vs oracle %r" % (out, exact))

    return check


def _lacunary_coeff(family, p, k):
    if family == "power":
        return k ** (-p)
    if family == "logpower":
        return 1.0 / (k * math.log(k + 1.0) ** p)
    return p ** k


def _primitive_base(rng, entries):
    """Small nonzero h outside A* Z^d, so transfer drops exactly one term per step."""
    adj, det = _cofactor_adjugate(_transpose(entries))
    while True:
        h = tuple(int(v) for v in rng.integers(-2, 3, size=len(entries)))
        if any(h) and any(v % det for v in _imat_vec(adj, h)):
            return h


def _zeta_tail(s, n, cut=1000):
    """sum over k > n of k^-s for s > 1, the Hurwitz zeta value zeta(s, n + 1).

    Terms below `cut` are summed directly; the rest is Euler-Maclaurin
    through the B4 term, whose remainder is of order cut^-(s+5).
    """
    m = max(cut, n + 1)
    head = math.fsum(float(k) ** -s for k in range(m - 1, n, -1))
    tail = (m ** (1.0 - s) / (s - 1.0) + m ** -s / 2.0 + s * m ** (-s - 1.0) / 12.0
            - s * (s + 1.0) * (s + 2.0) * m ** (-s - 3.0) / 720.0)
    return head + tail


def _check_lacunary(family, p, build_k):
    def check(out, state):
        rows = _csv_rows(out)
        a = [_lacunary_coeff(family, p, k) for k in range(1, build_k + 1)]
        prev = None
        for row in rows:
            n = int(row["n"])
            # L^n keeps the terms k >= n of the series built with build_k terms
            measured = math.sqrt(sum(x * x for x in reversed(a[max(n, 1) - 1:])))
            _require(_close(row["measured_l2_norm"], measured, 1e-11, 1e-300),
                     "measured norm %r vs truncated tail %r at n=%d"
                     % (row["measured_l2_norm"], measured, n))
            if n >= 1:
                _require(prev >= measured * (1 - 1e-12), "infinite tail below its truncation")
            _require(row["l1_tail"] >= row["l2_tail"] * (1 - 1e-12), "l1 tail below l2 tail")
            if family == "geometric":
                _require(_close(row["l2_tail"], p ** (n + 1) / math.sqrt(1 - p * p), 1e-12),
                         "geometric l2 tail off its closed form")
                _require(_close(row["l1_tail"], p ** (n + 1) / (1 - p), 1e-12),
                         "geometric l1 tail off its closed form")
            elif family == "power":
                _require(_close(row["l2_tail"], math.sqrt(_zeta_tail(2 * p, n)), 1e-10),
                         "power l2 tail off zeta(2p, n+1)")
                _require(_close(row["l1_tail"], _zeta_tail(p, n), 1e-10),
                         "power l1 tail off zeta(p, n+1)")
            _require(prev is None or row["l2_tail"] <= prev, "tails not decreasing")
            prev = row["l2_tail"]

    return check


def _check_design(targets):
    def check(out, state):
        rows = {int(r["n"]): r for r in _csv_rows(out)}
        worst = max(abs(rows[n]["l1_tail"] - t) for n, t in enumerate(targets, start=1))
        _require(worst <= 1e-15, "designed tail error %.3e > 1e-15" % worst)

    return check


def _check_ulam_decay(out, state):
    target = math.pi / math.sqrt(3.0)
    dev = max(abs(r["pow2_ratio"] - target) for r in _csv_rows(out) if r["n"] >= 1)
    _require(dev <= 1e-6, "interval ratio off pi/sqrt(3) by %g" % dev)


def _check_ulam_modulus(out, state):
    exponent = float(_footer(out, "fitted_exponent"))
    _require(0.45 <= exponent <= 0.55, "modulus exponent %r outside [0.45, 0.55]" % exponent)


# -- workloads ----------------------------------------------------------------


def _seeds(rng, count):
    return [int(v) for v in rng.integers(0, 2**63, size=count)]


def mc_sampling(td, seed, tmp, threads, small=False):
    rng = np.random.default_rng([seed, 1])
    horizon, samples = (20, 300) if small else (MC_HORIZON, MC_SAMPLES)
    census, census16_samples = (500, 500) if small else (CENSUS_SAMPLES, CENSUS16_SAMPLES)
    corr_samples = 500 if small else CORR_MC_SAMPLES
    levels = (6, 8) if small else (14, 16)
    s = _seeds(rng, 5)
    twin = [[1, -1], [1, 1]]
    f1 = {(1,): 0.5, (-1,): 0.5}
    k = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)][int(rng.integers(0, 6))]
    f2 = {k: 0.5, (-k[0], -k[1]): 0.5}
    kg = int(rng.integers(1, 4))
    fg = {(4 * kg,): 0.5, (-4 * kg,): 0.5}
    gg = {(kg,): 0.5, (-kg,): 0.5}
    paths = {}
    for name, coeffs in (("f1", f1), ("f2", f2), ("fg", fg), ("gg", gg)):
        paths[name] = os.path.join(tmp, name + ".json")
        _save_function(paths[name], coeffs)
    th = ["--threads", str(threads)]
    steps = horizon * samples
    ops = []
    for name, matrix, fpath in (("clt-1d", "2", paths["f1"]), ("clt-2d", "1,-1;1,1", paths["f2"])):
        out = os.path.join(tmp, name + ".json")
        sout = os.path.join(tmp, name + ".samples.csv")
        ops.append(Op(
            "clt",
            ["clt", "--matrix", matrix, "--f", fpath, "--horizon", str(horizon),
             "--samples", str(samples), "--seed", str(s.pop()), "--out", out,
             "--samples-out", sout] + th,
            check=None if small else _check_clt, work={"torus_steps": steps},
            outputs=(out, sout), threads=threads,
        ))
    out = os.path.join(tmp, "lyapunov.json")
    ops.append(Op(
        "ulam-lyapunov",
        ["ulam", "--op", "lyapunov", "--horizon", str(horizon), "--samples", str(samples),
         "--seed", str(s.pop()), "--out", out] + th,
        check=None if small else _check_lyapunov, work={"interval_steps": steps},
        outputs=(out,), threads=threads,
    ))
    out = os.path.join(tmp, "tile14.json")
    tile_seed = s.pop()
    ops.append(Op(
        "tile",
        ["tile", "--matrix", "1,-1;1,1", "--level", str(levels[0]), "--samples", str(census),
         "--seed", str(tile_seed), "--self-affinity", "--coverage-out", out] + th,
        check=None if small else _check_tile14, work={"census_points": census},
        outputs=(out,), threads=threads,
    ))

    def census16(td_, threads_):
        m = td_.lattice.validate_expanding(twin)
        tile = td_.tiling.tile_points(m, td_.lattice.digit_set(m), levels[1])
        return td_.tiling.check_tiling(tile, census16_samples, tile_seed, threads=threads_)

    ops.append(Op("census", call=census16, check=None if small else _check_census16,
                  work={"census_points": census16_samples}, threads=threads))
    out = os.path.join(tmp, "decay-mc.csv")
    ops.append(Op(
        "decay-mc",
        ["decay", "--matrix", "2", "--f", paths["fg"], "--g", paths["gg"], "--nmax", "6",
         "--mc-samples", str(corr_samples), "--seed", str(s.pop()), "--out", out] + th,
        check=None if small else _check_decay_mc(fg, gg, [[2]], corr_samples),
        outputs=(out,), threads=threads,
    ))
    return ops


def _sigma2_call(entries, fpath):
    def call(td, threads):
        m = td.lattice.validate_expanding(entries)
        return td.stochastic.sigma_squared(td.spectral.TrigPolynomial.load(fpath), m)

    return call


def _report_ops(report, tmp, mtext, entries, fpath, f, gpath, g, steps):
    """transfer --emit norms, decay in both modes and sigma_squared for one input."""
    norms_key = "norms%d" % report
    outs = [os.path.join(tmp, "r%d_%s.csv" % (report, s)) for s in ("norms", "dnorm", "dcorr")]
    return [
        Op("transfer-norms",
           ["transfer", "--matrix=" + mtext, "--function", fpath, "--steps", str(steps),
            "--emit", "norms", "--out", outs[0]],
           check=_check_transfer_norms(f, entries, norms_key), report=report,
           outputs=(outs[0],)),
        Op("decay-norm",
           ["decay", "--matrix=" + mtext, "--f", fpath, "--g", fpath, "--nmax", str(steps),
            "--mode", "transfer_norm", "--out", outs[1]],
           check=_check_decay_norm(f, entries, norms_key), report=report,
           outputs=(outs[1],)),
        Op("decay-corr",
           ["decay", "--matrix=" + mtext, "--f", fpath, "--g", gpath, "--nmax", str(steps),
            "--out", outs[2]],
           check=_check_decay_corr(f, g, entries), report=report, outputs=(outs[2],)),
        Op("sigma2", call=_sigma2_call(entries, fpath), check=_check_sigma2(f, entries),
           report=report),
    ]


def _sup_decay_call(entries, fpath, steps):
    def call(td, threads):
        m = td.lattice.validate_expanding(entries)
        f = td.spectral.TrigPolynomial.load(fpath)
        return td.analysis.decay_report(f, f, m, steps, mode="transfer_norm", r=math.inf)

    return call


SPARSE_FUNCTION_REPORTS = 18  # dimensions 1, 2, 3 cycled
SPARSE_LACUNARY_REPORTS = 9  # power, logpower, geometric cycled, each in d = 1, 2, 3
SPARSE_FREQ_CAP = {1: 150, 2: 100, 3: 5}  # step-1 frequencies; d = 3 grids stay small
SUP_FREQ_CAP, SUP_STEPS = 12, 3  # one sup-norm report: each step scans 48 shifted grids


def decay_sparse(td, seed, tmp, threads, small=False):
    rng = np.random.default_rng([seed, 3])
    ops = []
    report = 0
    n_fun = 3 if small else SPARSE_FUNCTION_REPORTS
    n_lac = 3 if small else SPARSE_LACUNARY_REPORTS
    steps = 3 if small else SPARSE_STEPS
    for i in range(n_fun):
        dim = 1 + i % 3
        entries = _random_expanding(rng, td, dim)
        cap = max(SPARSE_FREQ_CAP[dim] // (8 if small else 1), 4)
        f = _sparse_coeffs(rng, entries, cap)
        g = _sparse_coeffs(rng, entries, cap)
        fpath = os.path.join(tmp, "sparse%d_f.json" % report)
        gpath = os.path.join(tmp, "sparse%d_g.json" % report)
        _save_function(fpath, f)
        _save_function(gpath, g)
        # For d = 3, transfer --emit norms fails at the seed commit:
        # sup_norm_bracket indexes its flat grid with a 3-tuple.
        ops += _report_ops(report, tmp, _matrix_text(entries), entries, fpath, f, gpath,
                           g, steps)
        report += 1
    # The sup-norm modulus has no subcommand (decay uses r = 2 only); one small
    # 1-D input takes the library route so `modulus_value` runs with r = inf.
    entries = _random_expanding(rng, td, 1)
    f = _sparse_coeffs(rng, entries, 4 if small else SUP_FREQ_CAP)
    fpath = os.path.join(tmp, "sup%d_f.json" % report)
    _save_function(fpath, f)
    ops.append(Op("decay-sup", call=_sup_decay_call(entries, fpath, 1 if small else SUP_STEPS),
                  check=_check_decay_sup(f, entries), report=report))
    report += 1
    families = ("power", "logpower", "geometric")
    for i in range(n_lac):
        family = families[i % 3]
        dim = 1 + (i // 3) % 3
        entries = _random_similarity(rng, dim)
        lam = math.sqrt(abs(int(round(np.linalg.det(np.array(entries, dtype=float))))) ** (2 / dim))
        if family == "geometric":
            p = float(rng.uniform(1.0 / lam + 0.05, 0.95))
        else:
            p = float(rng.uniform(1.5, 3.0))
        h = _primitive_base(rng, entries)
        hs = ",".join(str(v) for v in h)
        mtext = _matrix_text(entries)
        nmax = 1 if small else LACUNARY_NMAX  # a logpower row sums 2e6 terms
        out = os.path.join(tmp, "lac%d.csv" % report)
        ops.append(Op(
            "lacunary-" + family,
            ["lacunary", "--matrix=" + mtext, "--h=" + hs, "--family", family, "--param", repr(p),
             "--nmax", str(nmax), "--out", out],
            check=_check_lacunary(family, p, max(64, nmax + 32)), report=report,
            outputs=(out,),
        ))
        targets = list(np.cumprod(rng.uniform(0.3, 0.9, size=nmax)))
        tpath = os.path.join(tmp, "targets%d.csv" % report)
        with open(tpath, "w", encoding="utf-8") as fh:
            fh.write("target\n" + "".join("%r\n" % float(t) for t in targets))
        out = os.path.join(tmp, "design%d.csv" % report)
        ops.append(Op(
            "lacunary-design",
            ["lacunary", "--matrix=" + mtext, "--h=" + hs, "--design", tpath, "--nmax", str(nmax),
             "--out", out],
            check=_check_design([float(t) for t in targets]), report=report, outputs=(out,),
        ))
        report += 1
    out = os.path.join(tmp, "ulam-decay.csv")
    ops.append(Op("ulam-decay", ["ulam", "--op", "decay", "--nmax", "12", "--out", out],
                  check=_check_ulam_decay, outputs=(out,)))
    out = os.path.join(tmp, "ulam-modulus.csv")
    ops.append(Op("ulam-modulus", ["ulam", "--op", "modulus", "--out", out],
                  check=_check_ulam_modulus, outputs=(out,)))
    return ops


WORKLOADS = {
    "mc-sampling": mc_sampling,
    "decay-sparse": decay_sparse,
}
