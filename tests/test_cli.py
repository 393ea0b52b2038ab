"""End-to-end command-line checks: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import pathlib
import shlex
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _expanding_or_none, count_solves, expanding_matrices, transfer_by_powers
from toraldecay import analysis, cli, interval, lacunary, lattice, rng, serialize, spectral
from toraldecay import stochastic
from toraldecay.spectral import TrigPolynomial


@pytest.fixture
def f1_path(tmp_path):
    path = tmp_path / "f1.json"
    TrigPolynomial.cosine(1).save(path)
    return str(path)


@pytest.fixture
def rich_path(tmp_path):
    path = tmp_path / "rich.json"
    TrigPolynomial(
        1, {(1,): 0.5, (-1,): 0.5, (2,): 0.25, (-2,): 0.25, (5,): 0.1, (-5,): 0.1}
    ).save(path)
    return str(path)


@pytest.fixture
def dyadic_path(tmp_path):
    # fhat(2^j) != 0 for j < 10: nine nonzero correlations against cos(2 pi x)
    path = tmp_path / "dyadic.json"
    coeffs = {}
    for j in range(10):
        coeffs[(2**j,)] = coeffs[(-(2**j),)] = 0.5 * 0.6**j
    TrigPolynomial(1, coeffs).save(path)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def footer_fit(text):
    (line,) = [l for l in footer_lines(text) if l.startswith("# fit: ")]
    return json.loads(line[len("# fit: "):])


def fit_fields(fit):
    return {"model": fit.model, "param": fit.param, "amplitude": fit.amplitude,
            "residual": fit.residual}


def footer_lines(text):
    lines = text.splitlines()
    data_seen = False
    out = []
    for l in lines:
        if l.startswith("#"):
            if data_seen:
                out.append(l)
        else:
            data_seen = True
    return out


def test_matrix_info(capsys):
    code, out = run(capsys, ["matrix-info", "--matrix", "1,-1;1,1"])
    assert code == 0
    info = json.loads(out)
    assert info["d"] == 2
    assert info["q"] == 2
    assert info["lambda"] == pytest.approx(math.sqrt(2.0))
    assert info["digits"] == [[0, 0], [1, 0]]


def test_digits(capsys):
    code, out = run(capsys, ["digits", "--matrix", "3"])
    assert code == 0
    assert json.loads(out) == [[0], [1], [-1]]


@pytest.mark.parametrize("argv", [["--matrix=-2,1;1,2"], ["--matrix", "-2, 1; 1, 2"]])
def test_matrix_with_a_negative_first_entry(capsys, argv):
    code, out = run(capsys, ["matrix-info"] + argv)
    assert code == 0
    assert json.loads(out)["q"] == 5


def test_matrix_value_read_as_an_option(capsys):
    # argparse takes "-2,1;1,2" for an option: the --matrix help names the
    # two forms above
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix-info", "--matrix", "-2,1;1,2"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_parser_built_once_dispatches_by_name(capsys, monkeypatch):
    # the parser is cached, but each call looks its handler up by name
    first = run(capsys, ["matrix-info", "--matrix", "2"])
    assert json.loads(first[1])["digits"] == [[0], [1]]
    code, out = run(capsys, ["digits", "--matrix", "3"])
    assert code == 0 and json.loads(out) == [[0], [1], [-1]]
    assert run(capsys, ["matrix-info", "--matrix", "2"]) == first
    seen = []
    monkeypatch.setattr(cli, "cmd_matrix_info", lambda args: seen.append(args.matrix) or 7)
    assert run(capsys, ["matrix-info", "--matrix", "5"]) == (7, "")
    assert seen == ["5"]
    assert cli.build_parser() is cli.build_parser()


def test_transfer_norms(capsys, rich_path):
    code, out = run(
        capsys,
        ["transfer", "--matrix", "2", "--function", rich_path, "--steps", "3",
         "--emit", "norms"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "norm_L2", "norm_sup_lower", "norm_sup_upper",
                      "omega_L2", "bound_ratio"]
    assert len(rows) == 3
    # step 1 keeps the k=2 mode only -> L2 norm sqrt(2)*0.25
    assert float(rows[0][1]) == pytest.approx(0.25 * math.sqrt(2.0))
    assert float(rows[0][2]) <= float(rows[0][3])


def test_transfer_norms_match_decay_report(capsys, tmp_path):
    path = tmp_path / "dyadic.json"
    coeffs = {(0,): 0.3}
    for j in range(6):
        coeffs[(2**j,)] = coeffs[(-(2**j),)] = 0.5 * 0.6**j
    f = TrigPolynomial(1, coeffs)
    f.save(path)
    code, out = run(
        capsys,
        ["transfer", "--matrix", "2", "--function", str(path), "--steps", "4",
         "--emit", "norms"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    m = lattice.validate_expanding([[2]])
    report = analysis.decay_report(f, None, m, 4, mode="transfer_norm")
    assert [[float(r[1]), float(r[4]), float(r[5])] for r in rows] == [
        [row.value, row.bound, row.ratio] for row in report.rows
    ]


def test_transfer_norms_three_dimensional(capsys, tmp_path):
    path = tmp_path / "f3.json"
    TrigPolynomial(3, {(0, 0, 0): 0.5, (2, 2, 0): 0.5, (-2, -2, 0): 0.5,
                       (4, 0, 2): 0.25, (-4, 0, -2): 0.25}).save(path)
    code, out = run(
        capsys,
        ["transfer", "--matrix", "2,0,0;0,2,0;0,0,2", "--function", str(path),
         "--steps", "2", "--emit", "norms"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    # step 1 keeps (1, 1, 0) and (2, 0, 1): sup = 1.5 at the origin
    assert float(rows[0][2]) == pytest.approx(1.5, abs=1e-9)
    assert float(rows[0][3]) == 1.5
    assert footer_lines(out) == ["# centered: true"]


def test_transfer_coeffs_round_trip(capsys, rich_path, tmp_path):
    out_path = tmp_path / "lf.json"
    code, _ = run(
        capsys,
        ["transfer", "--matrix", "2", "--function", rich_path, "--steps", "1",
         "--emit", "coeffs", "--out", str(out_path)],
    )
    assert code == 0
    g = TrigPolynomial.load(out_path)
    assert g.coeffs == {(1,): 0.25, (-1,): 0.25}


@st.composite
def real_polys(draw, dim):
    """Real trigonometric polynomials with up to 4 frequency pairs in [-6, 6]^dim."""
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        k = tuple(draw(st.integers(-6, 6)) for _ in range(dim))
        c = complex(draw(st.floats(0.125, 2)), draw(st.floats(-2, 2)))
        coeffs[k] = c
        coeffs[tuple(-v for v in k)] = c.conjugate()
    return TrigPolynomial(dim, coeffs)


@settings(max_examples=30, deadline=None)
@given(st.data(), expanding_matrices(), st.integers(0, 3))
def test_transfer_coeffs_stdout_loads_back(data, matrix, steps):
    f = data.draw(real_polys(matrix.dim))
    text = "--matrix=" + ";".join(",".join(map(str, row)) for row in matrix.entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        f.save(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["transfer", text, "--function", path, "--steps", str(steps),
                             "--emit", "coeffs"])
        assert code == 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
        loaded = TrigPolynomial.load(path, dim=matrix.dim)
    assert loaded.coeffs == spectral.transfer_fourier(f, matrix, steps).coeffs


def test_transfer_modulus(capsys, rich_path):
    code, out = run(
        capsys,
        ["transfer", "--matrix", "2", "--function", rich_path, "--steps", "4",
         "--emit", "modulus"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta", "omega"]
    deltas = [float(r[0]) for r in rows]
    omegas = [float(r[1]) for r in rows]
    assert deltas == sorted(deltas, reverse=True)
    assert omegas == sorted(omegas, reverse=True)


def test_transfer_modulus_below_lambda_two_matches_norms(capsys, tmp_path):
    # twin dragon, lambda = sqrt 2: the first radius lambda^-1 is above 1/2
    path = tmp_path / "twin.json"
    TrigPolynomial(2, {(2, 1): 0.5, (-2, -1): 0.5, (1, 3): 0.25j, (-1, -3): -0.25j}).save(path)
    base = ["transfer", "--matrix=1,-1;1,1", "--function", str(path), "--steps", "3"]
    code, out = run(capsys, base + ["--emit", "modulus"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta", "omega"]
    lam = lattice.parse_matrix("1,-1;1,1").lambda_min
    assert [r[0] for r in rows] == [repr(lam ** -n) for n in (1, 2, 3)]
    code, out = run(capsys, base + ["--emit", "norms"])
    assert code == 0
    header, norms = parse_csv(out)
    assert [r[1] for r in rows] == [r[header.index("omega_L2")] for r in norms]


@pytest.mark.parametrize("entries", [
    [{"k": [k], "re": 1e308, "im": 0.0} for k in (2, -2, 1, -1)],
    [{"k": [1], "re": 1e308, "im": 1e308}, {"k": [-1], "re": 1e308, "im": -1e308}],
    [{"k": [1], "re": float("nan"), "im": 0.0}, {"k": [-1], "re": 0.5, "im": 0.0}],
    [{"k": [1], "re": 10**400, "im": 0}, {"k": [-1], "re": 1.0, "im": 0}],
    [{"k": [1.9], "re": 1.0, "im": 0.0}, {"k": [-1.9], "re": 1.0, "im": 0.0}],
    [{"k": [1], "re": 1.0, "im": 0.0}, {"k": [-1], "re": 1.0, "im": 0.0},
     {"k": [1.0], "re": 2.0, "im": 0.0}],
    # each of these loaded at k = 3, 1 and 3 and re = 1.5: a string or an object
    # was read item by item and each item passed to int, and a string re to float
    [{"k": "3", "re": 1.0, "im": 0.0}, {"k": [-3], "re": 1.0, "im": 0.0}],
    [{"k": [True], "re": 1.0, "im": 0.0}, {"k": [-1], "re": 1.0, "im": 0.0}],
    [{"k": {"3": 0}, "re": 1.0, "im": 0.0}, {"k": [-3], "re": 1.0, "im": 0.0}],
    [{"k": [1], "re": "1.5", "im": 0.0}, {"k": [-1], "re": 1.5, "im": 0.0}],
], ids=["sum-overflows", "parts-overflow-abs", "nan", "int-past-float", "fractional-k",
        "repeated-k", "string-k", "boolean-k", "object-k", "string-re"])
def test_non_finite_function_file_is_bad_input(capsys, tmp_path, entries):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    code = cli.main(["transfer", "--matrix", "2", "--function", str(path), "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def _spy(monkeypatch, *names):
    """Wrap the named `spectral` functions; the returned set gains each name when it runs."""
    called = set()

    def wrap(name, fn):
        return lambda *args, **kwargs: called.add(name) or fn(*args, **kwargs)

    for name in names:
        monkeypatch.setattr(spectral, name, wrap(name, getattr(spectral, name)))
    return called


# Each function is c cos 2pi kx + (third c) cos 6pi kx: with third > 0 it has two
# dependent frequency pairs, so the r = 2 modulus runs its search and a transfer
# row of two pairs scans the sup-norm grid; both pairs peak at kx = 1/2, so
# Omega = 2 ||f||_2 at a radius >= 1/(2k). With third = 0 the modulus is the
# one-frequency closed form.
@pytest.mark.parametrize("matrix, steps, k, c, third, searched", [
    # the r = 2 objective left float range: omega_L2 read inf
    ("2", 2, 1, 8e153, 0.25, {"_newton_ascent"}),
    # the r = 2 Newton step squared a gradient past float range
    ("2", 2, 3, 1e150, 0.25, {"_newton_ascent"}),
    # ... and so did the sup-norm polish of L f
    ("3", 1, 3, 1e153, 0.25, {"_newton_ascent", "_polish"}),
    # every |c|^2 underflowed: norm_L2 and omega_L2 read 0
    ("2", 2, 2, 1e-200, 0.25, {"_newton_ascent", "_polish"}),
    # one pair: the closed form on the scaled coefficients
    ("2", 2, 3, 1e150, 0.0, set()),
], ids=["objective-overflows", "newton-overflows", "polish-overflows", "weights-underflow",
        "one-pair"])
def test_extreme_coefficients_keep_norms_and_modulus_finite(capsys, monkeypatch, tmp_path, matrix,
                                                            steps, k, c, third, searched):
    f = TrigPolynomial(1, {(k,): c, (-k,): c, (3 * k,): third * c, (-3 * k,): third * c})
    path = tmp_path / "f.json"
    f.save(path)
    two_norm = 2.0 * spectral.norm(f, 2)
    assert two_norm == pytest.approx(2.0 * math.sqrt(2.0 * (1.0 + third**2)) * c, rel=1e-15)
    called = _spy(monkeypatch, "_pattern_search", "_newton_ascent", "_polish")
    base = ["transfer", "--matrix", matrix, "--function", str(path), "--steps", str(steps)]
    for emit, column in (("norms", "omega_L2"), ("modulus", "omega")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(base + ["--emit", emit])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        header, rows = parse_csv(captured.out)
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        omegas = [float(row[header.index(column)]) for row in rows]
        assert all(0.0 < w <= two_norm * (1.0 + 1e-12) for w in omegas)
        # the first radius reaches a shift with k.v = 1/2 mod 1, where Omega = 2 ||f||_2
        assert omegas[0] == pytest.approx(two_norm, rel=1e-12)
    # the guards each case was written for run only on the search and grid routes;
    # every searched radius ends at the Newton finish
    assert searched <= called
    assert bool(third) == ("_newton_ascent" in called)


def test_decay_row_past_float_range_is_bad_input(capsys, tmp_path):
    # ||g||_2 Omega_{f,2} passes float range; the row used to print bound = inf
    path = tmp_path / "big.json"
    TrigPolynomial(1, {(1,): 8e153, (-1,): 8e153}).save(path)
    code = cli.main(["decay", "--matrix", "2", "--f", str(path), "--g", str(path),
                     "--nmax", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "float range" in captured.err


@pytest.mark.parametrize("argv, unreachable", [
    (["decay", "--matrix", "2", "--f", "{f}", "--g", "{f}", "--nmax", "3",
      "--mc-samples", "{samples}"], (spectral, "modulus_value")),
    (["tile", "--matrix", "1,-1;1,1", "--level", "4", "--samples", "{samples}"],
     (rng, "block_ranges")),
], ids=["decay-mc-samples", "tile-samples"])
def test_sample_counts_past_the_guard_exit_3(capsys, monkeypatch, f1_path, argv, unreachable):
    def fail(*args, **kwargs):
        raise AssertionError("work started past the sample guard")

    monkeypatch.setattr(*unreachable, fail)
    values = {"f": f1_path, "samples": str(rng.SAMPLE_GUARD + 1)}
    code = cli.main([a.format(**values) for a in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert "sample guard" in captured.err


def test_unexpected_exception_exits_4_with_its_traceback(capsys, monkeypatch):
    def broken(args):
        raise ValueError("not a package error")

    monkeypatch.setattr(cli, "cmd_digits", broken)
    code = cli.main(["digits", "--matrix", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert "Traceback" in captured.err
    assert "ValueError: not a package error" in captured.err


def _coefficient_parts():
    """Floats in +-[0, 1e200]: hypothesis' own draws, and every decade down to the subnormals."""
    decades = st.builds(lambda m, e: m * 10.0**e, st.floats(-9.5, 9.5), st.integers(-323, 199))
    return st.one_of(st.floats(-1e200, 1e200, allow_subnormal=True), decades)


@st.composite
def function_entries(draw, dim):
    """A function file: 1 to 4 entries, |k|_inf <= 2^20, parts from `_coefficient_parts`."""
    k = st.lists(st.integers(-(2**20), 2**20), min_size=dim, max_size=dim)
    return [{"k": draw(k), "re": draw(_coefficient_parts()), "im": draw(_coefficient_parts())}
            for _ in range(draw(st.integers(1, 4)))]


def _printed_numbers(text):
    """Every number a CSV or JSON report prints."""
    if text.startswith("["):
        return [v for e in json.loads(text) for v in (e["re"], e["im"])]
    _, rows = parse_csv(text)
    return [float(v) for row in rows for v in row]


@settings(max_examples=60, deadline=None)
@given(st.data(), expanding_matrices().filter(lambda m: m.dim <= 2), st.integers(1, 3))
def test_transfer_and_decay_on_drawn_functions(data, matrix, steps):
    text = "--matrix=" + ";".join(",".join(map(str, row)) for row in matrix.entries)
    command = data.draw(st.sampled_from(
        [["transfer", "--emit", emit] for emit in ("norms", "modulus", "coeffs")]
        + [["decay", "--mode", mode] for mode in ("correlation", "transfer_norm")]
        + [["decay", "--mc-samples", "200"]]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in ("f", "g"):
            paths.append(os.path.join(tmp, name + ".json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(data.draw(function_entries(matrix.dim)), fh)
        if command[0] == "transfer":
            argv = command + [text, "--function", paths[0], "--steps", str(steps)]
        else:
            argv = command + [text, "--f", paths[0], "--g", paths[1], "--nmax", str(steps)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
    else:
        assert all(map(math.isfinite, _printed_numbers(out.getvalue())))


@st.composite
def sampler_entries(draw, dim):
    """A function file for `clt`: 1 to 3 frequencies, |k_j| small, up to 2^40 or up
    to 2^63, most with their conjugate partner. A file's parts are mostly in
    [-1, 1], else up to 1e154 (where sum |c|^2 nears float range), from
    `_coefficient_parts`, or in [-1, 1] with some non-finite."""
    unit = st.floats(-1, 1)
    non_finite = st.one_of(unit, st.sampled_from([math.inf, -math.inf, math.nan]))
    part = draw(st.sampled_from([unit, unit, unit, st.floats(-1e154, 1e154),
                                 _coefficient_parts(), non_finite]))
    small = st.integers(-3, 3)
    k = st.lists(st.one_of(small, small, small, st.integers(-(2**40), 2**40),
                           st.integers(-(2**63), 2**63)), min_size=dim, max_size=dim)
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        key, re, im = draw(k), draw(part), draw(part)
        entries.append({"k": key, "re": re, "im": im})
        if draw(st.integers(0, 3)):
            entries.append({"k": [-v for v in key], "re": re, "im": -im})
    return entries


def _sampler_sizes():
    """(horizon, samples): mostly small, or zero or negative, or one step past
    ORBIT_GUARD, which must be refused before any work."""
    small = st.tuples(st.integers(1, 40), st.integers(1, 200))
    bad = st.tuples(st.integers(-1, 40), st.integers(-1, 0)).map(lambda t: t[::-1])
    past = st.integers(1, 10**4).map(lambda s: (stochastic.ORBIT_GUARD // s + 1, s))
    return st.one_of(small, small, small, small, bad, past)


@settings(max_examples=150, deadline=None)
@given(st.data(), expanding_matrices(), _sampler_sizes(), st.sampled_from([1, 2]),
       st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 9), st.sampled_from([-1, 2**64])))
def test_samplers_on_drawn_arguments(data, matrix, sizes, threads, seed):
    horizon, samples = sizes
    common = ["--horizon=%d" % horizon, "--samples=%d" % samples, "--seed=%d" % seed,
              "--threads", str(threads)]
    with tempfile.TemporaryDirectory() as tmp:
        if data.draw(st.booleans()):
            path = os.path.join(tmp, "f.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data.draw(sampler_entries(matrix.dim)), fh)
            text = ";".join(",".join(map(str, row)) for row in matrix.entries)
            argv = ["clt", "--matrix=" + text, "--f", path] + common
        else:
            argv = ["ulam", "--op", "lyapunov"] + common
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if horizon * samples > stochastic.ORBIT_GUARD:
        assert code != 0
    if code:
        assert out.getvalue() == ""
    else:
        payload = json.loads(out.getvalue())
        numbers = [v for v in payload.values() if isinstance(v, (int, float))]
        assert all(map(math.isfinite, numbers))


def _similarities():
    """Expanding similarities (A^T A = c I), which the prop2 bounds ask for: [[a]],
    [[a, -b], [b, a]], [[a, b], [b, -a]] and c times a signed 3 x 3 permutation."""
    small = st.integers(-3, 3)
    forms = st.one_of(
        st.integers(-12, 12).map(lambda a: [[a]]),
        st.tuples(small, small).map(lambda t: [[t[0], -t[1]], [t[1], t[0]]]),
        st.tuples(small, small).map(lambda t: [[t[0], t[1]], [t[1], -t[0]]]),
        st.tuples(small, st.permutations(range(3)), st.lists(st.sampled_from([-1, 1]),
                  min_size=3, max_size=3)).map(
            lambda t: [[t[0] * t[2][i] * (j == t[1][i]) for j in range(3)] for i in range(3)]))
    return forms.map(_expanding_or_none).filter(lambda m: m is not None)


def _around(lo, hi):
    """Floats in [lo, hi], the ends and their float neighbours, and non-finite values."""
    ends = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
            math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf)]
    return st.one_of(st.floats(lo, hi), st.sampled_from(ends + [math.nan, math.inf, -math.inf]))


@st.composite
def lacunary_argv(draw, matrix, tmp):
    """`lacunary` arguments: h with entries up to 2^63 - 1, each family over its
    parameter range, its ends and non-finite values, explicit lists and design
    targets of 0 to 4 values (some all of one decade from 1e-323 to 1e199), and
    --nmax and --truncation small, negative or past ROW_TERMS_GUARD."""
    d = matrix.dim
    h = draw(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([2**63 - 1, -(2**63) + 1]),
                                st.integers(-(2**63) + 1, 2**63 - 1)), min_size=d, max_size=d))
    argv = ["lacunary", "--matrix=" + ";".join(",".join(map(str, r)) for r in matrix.entries),
            "--h=" + ",".join(map(str, h))]
    family = draw(st.sampled_from(lacunary.FAMILIES + ("design",)))
    values = st.one_of(
        st.lists(st.one_of(_around(0.0, 1.0), _coefficient_parts()), max_size=4),
        st.builds(lambda e, units: [u * 10.0**e for u in units], st.integers(-323, 199),
                  st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    if family == "design":
        path = os.path.join(tmp, "targets.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join("%r\n" % v for v in draw(values)))
        argv += ["--design", path, "--design-norm", draw(st.sampled_from(["sup", "l2"]))]
    elif family == "explicit":
        argv += ["--family=explicit", "--param=" + ",".join(map(repr, draw(values)))]
    else:
        lo, hi = {"power": (1.0, lacunary.POWER_MAX), "logpower": (1.0, lacunary.LOGPOWER_MAX),
                  "geometric": (1.0 / matrix.lambda_min, 1.0)}[family]
        argv += ["--family=" + family, "--param=%r" % draw(_around(lo, hi))]
    past = st.integers(lacunary.ROW_TERMS_GUARD, 2**62)
    argv.append("--nmax=%d" % draw(st.one_of(st.integers(-1, 30), past)))
    truncation = draw(st.one_of(st.none(), st.integers(-1, 40), past))
    return argv + ([] if truncation is None else ["--truncation=%d" % truncation])


@st.composite
def tile_argv(draw, matrix, tmp):
    """`tile` arguments: a level whose cloud holds at most 4096 points, below 1, or
    past lattice.CLOUD_GUARD up to 2^40; samples small, negative or past
    rng.SAMPLE_GUARD."""
    q = matrix.det_abs
    small = max(n for n in range(13) if q**n <= 4096)
    past = next(n for n in range(1, 64) if q**n > lattice.CLOUD_GUARD)
    level = draw(st.one_of(st.integers(-1, small), st.integers(past, 2**40)))
    samples = draw(st.one_of(st.integers(-1, 300), st.integers(rng.SAMPLE_GUARD + 1, 2**63)))
    argv = ["tile", "--matrix=" + ";".join(",".join(map(str, r)) for r in matrix.entries),
            "--level=%d" % level, "--samples=%d" % samples,
            "--coverage-out", os.path.join(tmp, "coverage.json")]
    if draw(st.booleans()):
        argv += ["--points-out", os.path.join(tmp, "points.csv")]
    return argv + (["--self-affinity"] if draw(st.booleans()) else [])


@st.composite
def ulam_argv(draw):
    """`ulam --op decay` with --nmax and --truncation small, negative, or past
    interval.TRUNCATION_GUARD, or `ulam --op modulus`."""
    if draw(st.booleans()):
        return ["ulam", "--op", "modulus"]
    nmax = draw(st.one_of(st.integers(-1, 16), st.integers(17, 2**40)))
    truncation = draw(st.one_of(st.none(), st.integers(-1, 2**20),
                                st.integers(interval.TRUNCATION_GUARD + 1, 2**62)))
    argv = ["ulam", "--op", "decay", "--nmax=%d" % nmax]
    return argv + ([] if truncation is None else ["--truncation=%d" % truncation])


def _all_numbers(text):
    """Every number a report prints: CSV rows and its fit footer, or any JSON."""
    if text.startswith(("[", "{")):
        def walk(v):
            if isinstance(v, dict):
                return [x for item in v.values() for x in walk(item)]
            if isinstance(v, list):
                return [x for item in v for x in walk(item)]
            return [v] if isinstance(v, (int, float)) and not isinstance(v, bool) else []
        return walk(json.loads(text))
    fit = [l for l in footer_lines(text) if l.startswith("# fit: ")]
    fit = json.loads(fit[0][len("# fit: "):]) if fit else None
    fit_numbers = [v for v in (fit or {}).values() if isinstance(v, float)]
    return _printed_numbers(text) + fit_numbers


@settings(max_examples=150, deadline=None)
@given(st.data(), st.one_of(_similarities(), expanding_matrices()), st.sampled_from([1, 2]),
       st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64])))
def test_lacunary_tile_and_ulam_on_drawn_arguments(data, matrix, threads, seed):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(st.one_of(lacunary_argv(matrix, tmp), tile_argv(matrix, tmp),
                                   ulam_argv()))
        argv += ["--seed=%d" % seed, "--threads=%d" % threads] if argv[0] != "lacunary" else []
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        return
    assert all(map(math.isfinite, _all_numbers(out.getvalue())))
    if argv[0] == "lacunary":
        for row in parse_csv(out.getvalue())[1]:
            measured = float(row[5])
            assert not (measured > 0 and (float(row[3]) == 0 or float(row[4]) == 0)), row


def test_clt_variance_past_float_range_is_bad_input(capsys, tmp_path):
    # sum |c|^2 is finite, but sigma^2 = 2.9e308 and the sample variance are not;
    # clt printed "Infinity" and warned of an overflow in np.var
    path = tmp_path / "big.json"
    c = 6e153
    TrigPolynomial(1, {(1,): c, (-1,): c, (2,): c, (-2,): c}).save(path)
    samples_out = tmp_path / "samples.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["clt", "--matrix", "2", "--f", str(path), "--horizon", "50",
                         "--samples", "200", "--samples-out", str(samples_out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "float range" in captured.err
    assert not samples_out.exists()


def test_decay_at_radii_past_the_norms_underflow_warns_of_nothing(capsys, monkeypatch, tmp_path):
    # at n = 537 the Newton trial norms of [[2]] underflow to 0: the projection
    # onto the ball divided by 0, which exited 4 under -W error. f has two
    # dependent frequency pairs, so each radius runs the search (one pair
    # would take the closed form, which builds no Newton trial)
    path = str(tmp_path / "f.json")
    TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5, (3,): 0.125, (-3,): 0.125}).save(path)
    radii = []
    newton = spectral._newton_ascent
    monkeypatch.setattr(spectral, "_newton_ascent",
                        lambda k, w, objective, v, best, delta:
                        radii.extend(delta) or newton(k, w, objective, v, best, delta))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["decay", "--matrix", "2", "--f", path, "--g", path,
                         "--nmax", "600"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert min(radii) == 2.0**-600
    _, rows = parse_csv(captured.out)
    assert len(rows) == 600
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_decay_exact_and_footer(capsys, rich_path, f1_path):
    code, out = run(
        capsys,
        ["decay", "--matrix", "2", "--f", rich_path, "--g", f1_path,
         "--nmax", "9"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "value", "bound", "ratio"]
    assert len(rows) == 9
    feet = footer_lines(out)
    assert any(l.startswith("# fit:") for l in feet)
    for r in rows:
        assert float(r[1]) >= 0.0
        assert float(r[2]) > 0.0


def test_decay_mc_close_to_exact(capsys, rich_path, f1_path):
    code, out = run(
        capsys,
        ["decay", "--matrix", "2", "--f", rich_path, "--g", f1_path,
         "--nmax", "2", "--mc-samples", "40000", "--seed", "5"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    f = TrigPolynomial.load(rich_path)
    g = TrigPolynomial.load(f1_path)
    m = lattice.validate_expanding([[2]])
    for r in rows:
        exact = abs(analysis.correlation(f, g, m, int(r[0])))
        assert abs(float(r[1]) - exact) < 5.0 / math.sqrt(40000)


def test_decay_mc_matches_correlation(capsys, tmp_path, f1_path):
    # a nonzero mean pins the uncentered Monte Carlo estimator
    path = tmp_path / "fmean.json"
    f = TrigPolynomial(1, {(0,): 0.3, (2,): 0.5, (-2,): 0.5, (4,): 0.25, (-4,): 0.25})
    f.save(path)
    code, out = run(
        capsys,
        ["decay", "--matrix", "2", "--f", str(path), "--g", f1_path,
         "--nmax", "3", "--mc-samples", "3000", "--seed", "11"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    g = TrigPolynomial.load(f1_path)
    m = lattice.validate_expanding([[2]])
    assert [float(r[1]) for r in rows] == [
        abs(analysis.correlation(f, g, m, n, mc_samples=3000, seed=11))
        for n in (1, 2, 3)
    ]


def test_decay_mc_constant_f(capsys, tmp_path, f1_path):
    path = tmp_path / "const.json"
    TrigPolynomial(1, {(0,): 2.0}).save(path)
    code, out = run(
        capsys,
        ["decay", "--matrix", "2", "--f", str(path), "--g", f1_path,
         "--nmax", "3", "--mc-samples", "500", "--seed", "1"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[2]) for r in rows] == [0.0, 0.0, 0.0]


def test_decay_rejects_bad_mc_samples(capsys, rich_path, f1_path):
    for samples in ("-5", "0"):
        code, _ = run(
            capsys,
            ["decay", "--matrix", "2", "--f", rich_path, "--g", f1_path,
             "--nmax", "3", "--mc-samples", samples],
        )
        assert code == 2
    code, _ = run(
        capsys,
        ["decay", "--matrix", "2", "--f", rich_path, "--g", f1_path,
         "--nmax", "3", "--mode", "transfer_norm", "--mc-samples", "100"],
    )
    assert code == 2


def test_decay_mc_past_float_precision_exits_0(capsys, tmp_path, f1_path):
    # the float estimate turned into 0.995 from n = 53 on, so the command
    # refused every n where 3 2^n reached 2^40; the 128-bit orbit serves them all
    path = tmp_path / "g.json"
    TrigPolynomial.cosine(3).save(path)
    code, out = run(capsys, ["decay", "--matrix", "2", "--f", f1_path, "--g", str(path),
                             "--nmax", "60", "--mc-samples", "20000", "--seed", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == list(range(1, 61))
    # the exact correlation is 0 at every n; 5 ||f||_2 ||g||_2 / sqrt(N) bounds the noise
    assert all(float(r[1]) < 5.0 * 0.5 / math.sqrt(20000) for r in rows)
    # a frequency at the phase limit is still bad input
    TrigPolynomial.cosine(stochastic.MC_PHASE_LIMIT).save(path)
    code = cli.main(["decay", "--matrix", "2", "--f", f1_path, "--g", str(path),
                     "--nmax", "3", "--mc-samples", "100"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "phase precision limit" in err


def test_decay_mc_on_large_coefficients_stays_in_float_range(capsys, tmp_path):
    # f f is about 4e306 a sample, so the block sums of the row n = 0, which
    # decay never prints, overflowed with a RuntimeWarning
    path = tmp_path / "c.json"
    path.write_text(json.dumps([{"k": [1], "re": 1e153, "im": 0.0},
                                {"k": [-1], "re": 1e153, "im": 0.0}]))
    code, out = run(capsys, ["decay", "--matrix", "2", "--f", str(path), "--g", str(path),
                             "--nmax", "3", "--mc-samples", "100"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row)
    # a one-sample estimate of 4e153 (e(kx) + e(-kx)), k = 1..4, past float range
    path.write_text(json.dumps([{"k": [k], "re": 4e153, "im": 0.0}
                                for k in (1, 2, 3, 4, -1, -2, -3, -4)]))
    code = cli.main(["decay", "--matrix", "2", "--f", str(path), "--g", str(path),
                     "--nmax", "3", "--mc-samples", "1", "--seed", "0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "leaves float range" in err


@pytest.mark.parametrize("argv", [
    "decay --matrix 2 --f {f} --g {f} --nmax 1100",
    "decay --matrix 2 --f {f} --g {f} --nmax 1100 --mode transfer_norm",
    "transfer --matrix 2 --function {f} --steps 1100",
    "transfer --matrix 2 --function {f} --steps 1100 --emit modulus",
])
def test_radius_underflow_names_the_step_count(capsys, f1_path, argv):
    # lambda^-n = 2^-n is 0.0 from n = 1075; the parent exited 2 with
    # "delta must be positive", about an input the user never gave
    code = cli.main(shlex.split(argv.format(f=f1_path)))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "n = 1075" in err and "--nmax / --steps" in err


def test_ulam_decay_names_the_largest_nmax_the_guard_allows(capsys):
    # 2^(n+4) terms pass TRUNCATION_GUARD = 10^8 from n = 23 on, so no
    # truncation serves there; the message names n = 22 and a short power
    for nmax, power in (("23", "2^27"), ("2000", "2^2004")):
        code = cli.main(["ulam", "--op", "decay", "--nmax", nmax])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and power in err and "allows n_max <= 22" in err
        assert len(err) < 200
    code = cli.main(["ulam", "--op", "decay", "--nmax", "22"])  # the default 10^6 is too small
    out, err = capsys.readouterr()
    assert code == 2 and err.strip().endswith("2^(n_max+4) = 2^26, got 1000000")


def test_ulam_decay_truncation_guard_exits_3(capsys, monkeypatch):
    from toraldecay import interval

    monkeypatch.setattr(interval, "TRUNCATION_GUARD", 2**14)
    code, _ = run(capsys, ["ulam", "--op", "decay", "--nmax", "2", "--truncation", str(2**14)])
    assert code == 0
    code = cli.main(["ulam", "--op", "decay", "--nmax", "2", "--truncation", str(2**14 + 1)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and "guard" in err


def test_decay_rerun_byte_identical(capsys, rich_path, f1_path):
    argv = ["decay", "--matrix", "2", "--f", rich_path, "--g", f1_path,
            "--nmax", "6", "--seed", "1"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_decay_plot_out(capsys, rich_path, f1_path, dyadic_path, tmp_path):
    plot = tmp_path / "plot.csv"
    code, _ = run(
        capsys,
        ["decay", "--matrix", "2", "--f", rich_path, "--g", f1_path,
         "--nmax", "8", "--plot-out", str(plot)],
    )
    assert code == 0
    assert plot.exists()
    sidecar = json.loads((tmp_path / "plot.csv.fit.json").read_text())
    assert sidecar == dict.fromkeys(["model", "param", "amplitude", "residual"])
    # the sidecar is the report's own fit, not a second one
    code, _ = run(
        capsys,
        ["decay", "--matrix", "2", "--f", dyadic_path, "--g", f1_path,
         "--nmax", "9", "--plot-out", str(plot)],
    )
    assert code == 0
    m = lattice.validate_expanding([[2]])
    report = analysis.decay_report(TrigPolynomial.load(dyadic_path),
                                   TrigPolynomial.load(f1_path), m, 9)
    sidecar = json.loads((tmp_path / "plot.csv.fit.json").read_text())
    assert sidecar == fit_fields(report.fit)


def test_decay_plot_out_failure_writes_nothing(capsys, f1_path, tmp_path):
    # cos(2 pi x) falls into the kernel of the doubling map's transfer after one
    # step, so there is no positive row to plot
    out = tmp_path / "out.csv"
    plot = tmp_path / "plot.csv"
    code, _ = run(
        capsys,
        ["decay", "--matrix", "2", "--f", f1_path, "--g", f1_path, "--nmax", "9",
         "--mode", "transfer_norm", "--out", str(out), "--plot-out", str(plot)],
    )
    capsys.readouterr()
    assert code == 2
    assert not out.exists()
    assert not plot.exists()


@pytest.mark.parametrize(
    "argv, nonzero",
    [
        (["decay", "--matrix", "2", "--f", "{dyadic}", "--g", "{f1}", "--nmax", "9"], 9),
        (["decay", "--matrix", "2", "--f", "{rich}", "--g", "{f1}", "--nmax", "9"], 1),
        (["decay", "--matrix", "2", "--f", "{f1}", "--g", "{f1}", "--nmax", "9",
          "--mode", "transfer_norm"], 0),
        (["ulam", "--op", "decay", "--nmax", "10", "--truncation", "1000000"], 10),
        (["lacunary", "--matrix", "2", "--h", "1", "--family", "power",
          "--param", "2.5", "--nmax", "12"], 12),
    ],
    ids=["decay-fitted", "decay-few-rows", "decay-all-zero", "ulam-decay", "lacunary"],
)
def test_fit_footer_is_fit_rate(capsys, f1_path, rich_path, dyadic_path, argv, nonzero):
    paths = {"f1": f1_path, "rich": rich_path, "dyadic": dyadic_path}
    code, out = run(capsys, [a.format(**paths) for a in argv])
    assert code == 0
    _, rows = parse_csv(out)
    points = [(int(r[0]), float(r[1])) for r in rows if int(r[0]) >= 1]
    assert sum(1 for _, v in points if v > 0) == nonzero
    want = fit_fields(analysis.fit_rate(points)) if nonzero >= 8 else None
    assert footer_fit(out) == want


def test_lacunary_families_and_design(capsys, tmp_path):
    code, out = run(
        capsys,
        ["lacunary", "--matrix", "2", "--h", "1", "--family", "geometric",
         "--param", "0.7", "--nmax", "4"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "l2_tail", "l1_tail", "prop2_sup_bound",
                      "prop2_l2_bound", "measured_l2_norm"]
    assert len(rows) == 5
    # geometric l1 tail at n: theta^(n+1)/(1-theta)
    for r in rows:
        n = int(r[0])
        assert float(r[2]) == pytest.approx(0.7 ** (n + 1) / 0.3, rel=1e-12)

    targets = tmp_path / "targets.csv"
    targets.write_text("0.5\n0.25\n0.125\n")
    code, out = run(
        capsys,
        ["lacunary", "--matrix", "2", "--h", "1", "--design", str(targets),
         "--nmax", "3"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    for want, row in zip([0.5, 0.25, 0.125], rows[1:]):
        assert float(row[2]) == pytest.approx(want, abs=1e-15)


def test_lacunary_tails_are_the_measured_norms_only_off_the_adjoint_lattice(capsys):
    # h = 1 lies outside 2 Z, so L^n f keeps the terms k >= n and its norm at n is
    # the tail at n - 1; h = 8 = 2^3 lies in 2 Z, so the terms k < n survive too
    def columns(h):
        code, out = run(capsys, ["lacunary", "--matrix", "2", "--h", h, "--family", "geometric",
                                 "--param", "0.6", "--nmax", "6"])
        assert code == 0
        _, rows = parse_csv(out)
        return [float(r[1]) for r in rows], [float(r[5]) for r in rows]

    tail, measured = columns("1")
    assert measured[1:] == pytest.approx(tail[:-1], rel=1e-12)
    tail, measured = columns("8")
    assert measured[:5] == pytest.approx([0.75] * 5, rel=1e-15)
    assert tail[0] == pytest.approx(0.75) and tail[4] == pytest.approx(0.0972)
    assert measured[5:] == pytest.approx(tail[1:3], rel=1e-12)  # the tail at n - 4


@pytest.mark.parametrize("matrix,h", [("2", "1"), ("1,-1;1,1", "1,0"), ("2,0,0;0,2,0;0,0,2", "1,1,0")])
def test_lacunary_logpower_at_its_bound_stays_finite(capsys, matrix, h):
    from toraldecay.lacunary import LOGPOWER_MAX

    code, out = run(capsys, ["lacunary", "--matrix", matrix, "--h", h, "--family", "logpower",
                             "--param", repr(LOGPOWER_MAX), "--nmax", "3"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 4
    assert all(math.isfinite(float(v)) for r in rows for v in r)


def test_lacunary_requires_similarity_for_prop2(capsys):
    code, _ = run(
        capsys,
        ["lacunary", "--matrix", "2,1;0,2", "--h", "1,0", "--nmax", "3"],
    )
    assert code == 2


def test_lacunary_row_guard_stops_before_the_build(capsys, monkeypatch):
    # --nmax 3000 transferred 3032 terms 3001 times, for 67 s, and exited 0
    argv = ["lacunary", "--matrix", "2", "--h", "1", "--family", "power", "--param", "2.5",
            "--nmax", "3"]
    monkeypatch.setattr(lacunary, "ROW_TERMS_GUARD", 4 * 64)
    assert run(capsys, argv)[0] == 0

    def no_build(spec):
        raise AssertionError("built past the row guard")

    monkeypatch.setattr(lacunary, "ROW_TERMS_GUARD", 4 * 64 - 1)
    monkeypatch.setattr(lacunary, "lacunary_build", no_build)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "row guard" in err


@pytest.mark.parametrize("text, h", [("2", (1,)), ("1,-1;1,1", (1, 0)), ("2,0;0,2", (1, 2))])
def test_lacunary_steps_each_row_from_the_last(capsys, monkeypatch, text, h):
    # row n takes one step from row n - 1 and the last row takes none, so the solves
    # are the term counts of rows 0 to nmax - 1; every row solved all K build terms,
    # nmax K in all. The k = 1 term lands on h at the first step, so the rows do not
    # shrink by one term each
    nmax, terms = 40, 72
    solves = count_solves(monkeypatch)
    code, out = run(capsys, ["lacunary", "--matrix=" + text, "--h", ",".join(map(str, h)),
                             "--nmax", str(nmax)])
    monkeypatch.undo()
    assert code == 0
    matrix = lattice.parse_matrix(text)
    built = lacunary.lacunary_build(lacunary.LacunarySpec(h, matrix, "power", 2.0, terms))
    rows = [transfer_by_powers(built, matrix, n) for n in range(nmax + 1)]
    assert len(solves) == sum(len(g.coeffs) for g in rows[:nmax]) < nmax * terms
    _, printed = parse_csv(out)
    assert [float(r[5]) for r in printed] == [spectral.norm(g, 2) for g in rows]


def test_lacunary_row_guard_counts_the_head_terms_of_a_row(capsys, monkeypatch):
    # row n brackets its n head terms whatever the build holds: one explicit term
    # passed the guard up to nmax = 2^20 - 1, and nmax = 32000 ran past 60 s
    def no_build(spec):
        raise AssertionError("built past the row guard")

    argv = ["lacunary", "--matrix", "2", "--h", "1", "--family", "explicit", "--param", "0.5"]
    monkeypatch.setattr(lacunary, "ROW_TERMS_GUARD", 11 * 10)
    assert run(capsys, argv + ["--nmax", "10"])[0] == 0
    monkeypatch.setattr(lacunary, "lacunary_build", no_build)
    for extra in (["--param="], ["--family", "power", "--param", "2.0", "--truncation", "1"], []):
        extra += ["--nmax", "11"]
        code = cli.main(argv + extra)
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "row guard" in err


@pytest.mark.parametrize("argv, want", [
    (["tile", "--matrix", "2", "--level", "20000", "--samples", "3"], 3),
    (["tile", "--matrix", "2", "--level", str(2**28), "--samples", "3"], 3),
    (["ulam", "--op", "decay", "--nmax", str(2**28)], 2),
])
def test_huge_levels_and_nmax_are_refused_without_their_powers(capsys, argv, want):
    # tile formed q^level for its guard and printed it in the message, which fails
    # past 4,300 digits (exit 4, ValueError); ulam formed 2^(nmax + 4), 32 MB here and
    # 7 s at nmax = 1.3e9
    tracemalloc.start()
    code = cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == want, err
    assert "Traceback" not in err
    assert peak < 2**20


def test_clt_json_and_samples(capsys, f1_path, tmp_path):
    samples_out = tmp_path / "samples.csv"
    code, out = run(
        capsys,
        ["clt", "--matrix", "2", "--f", f1_path, "--horizon", "200",
         "--samples", "500", "--seed", "9", "--samples-out", str(samples_out)],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"sigma2", "ks", "sample_mean", "sample_var",
                            "config", "seed", "version"}
    assert payload["sigma2"] == pytest.approx(0.5)
    assert payload["seed"] == 9
    _, rows = parse_csv(samples_out.read_text())
    assert len(rows) == 500


def test_clt_threads_byte_identical(capsys, f1_path, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["clt", "--matrix", "2", "--f", f1_path, "--horizon", "150",
            "--samples", "400", "--seed", "3"]
    run(capsys, base + ["--threads", "1", "--out", str(a)])
    run(capsys, base + ["--threads", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_tile_outputs(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    cov = tmp_path / "cov.json"
    code, out = run(
        capsys,
        ["tile", "--matrix", "1,-1;1,1", "--level", "8", "--samples", "1000",
         "--seed", "1", "--points-out", str(pts), "--coverage-out", str(cov),
         "--self-affinity"],
    )
    assert code == 0
    _, rows = parse_csv(pts.read_text())
    assert len(rows) == 2**8
    payload = json.loads(cov.read_text())
    assert payload["level"] == 8
    assert payload["self_affinity_mismatch"] == 0.0
    assert sum(payload["histogram"].values()) == 1000


@pytest.mark.parametrize(
    "matrix, level, want",
    [
        ("1,-1;1,1", 10, {
            "cell_radius": 0.07544417382402199, "fraction_one": 0.3263333333333333,
            "histogram": {"1": 979, "2": 1889, "3": 132}, "window": 4,
        }),
        ("1,1,0;-1,1,0;0,0,2", 6, {
            "cell_radius": 0.5226925687930561, "fraction_one": 0.0,
            "histogram": {"7": 1, "8": 16, "9": 105, "10": 293, "11": 764, "12": 872,
                          "13": 554, "14": 294, "15": 97, "16": 4},
            "window": 6,
        }),
    ],
)
def test_tile_census_pinned(capsys, tmp_path, matrix, level, want):
    # coverage files written by the census that queried every window translate
    cov = tmp_path / "cov.json"
    code, _ = run(
        capsys,
        ["tile", "--matrix", matrix, "--level", str(level), "--samples", "3000",
         "--seed", "11", "--threads", "2", "--self-affinity", "--coverage-out", str(cov)],
    )
    assert code == 0
    payload = json.loads(cov.read_text())
    assert {key: payload[key] for key in want} == want
    assert payload["self_affinity_mismatch"] == 0.0


@pytest.mark.parametrize("matrix, level, window", [
    ("1,1,1;-1,2,-1;0,-1,2", 3, 7),  # a float A^k radius needed 1.3e69 translates: exit 3
    ("-1,-2,-1;0,-1,2;2,2,0", 1, 9),  # sigma_min of a float A^k read 0.0: exit 4
])
def test_tile_on_ill_conditioned_powers(capsys, matrix, level, window):
    code, out = run(capsys, ["tile", "--matrix=" + matrix, "--level", str(level),
                             "--samples", "100", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == window
    assert sum(payload["histogram"].values()) == 100


def test_ulam_decay(capsys):
    code, out = run(capsys, ["ulam", "--op", "decay", "--nmax", "10",
                             "--truncation", "1000000"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "norm", "pow2_ratio"]
    for r in rows[1:]:
        assert float(r[2]) == pytest.approx(math.pi / math.sqrt(3.0), abs=1e-10)


def test_ulam_modulus(capsys):
    code, out = run(capsys, ["ulam", "--op", "modulus"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta", "omega"]
    assert len(rows) == 25
    feet = footer_lines(out)
    assert any("fitted_exponent" in l for l in feet)
    exponent = float(feet[-1].split(":")[1])
    assert 0.45 <= exponent <= 0.55


def test_ulam_lyapunov(capsys):
    code, out = run(capsys, ["ulam", "--op", "lyapunov", "--horizon", "400",
                             "--samples", "300", "--seed", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma2"] == 0.0
    assert payload["ks"] is None
    assert abs(payload["mean_log_derivative"] - math.log(2.0)) < 0.02


def test_exit_codes(capsys, monkeypatch, f1_path):
    code, _ = run(capsys, ["matrix-info", "--matrix", "1,0;0,1"])
    assert code == 2  # not expanding
    code, _ = run(capsys, ["clt", "--matrix", "2", "--f", f1_path,
                           "--horizon", "2000000", "--samples", "1000"])
    assert code == 3  # orbit guard
    code, _ = run(capsys, ["tile", "--matrix", "1000000,0;0,1000000", "--level", "1",
                           "--samples", "3"])
    assert code == 3  # q = 10^12 digits: cloud guard, before the digit scan
    code, _ = run(capsys, ["ulam", "--op", "decay", "--nmax", "40",
                           "--truncation", "1000"])
    assert code == 2  # truncation too small
    monkeypatch.setattr(lacunary, "ROW_TERMS_GUARD", 4 * 64 - 1)
    code, _ = run(capsys, ["lacunary", "--matrix", "2", "--h", "1", "--nmax", "3"])
    assert code == 3  # (nmax + 1) * build terms = 4 * 64 past the row guard
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay", "--matrix", "2", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_slow_expansion_past_the_scan_guard_exits_3(capsys, tmp_path):
    # lambda_min = 1.0105: the tile's Neumann tail needs 2,149 powers of A^-1 and the
    # variance series of a 2^30 frequency 2,075 terms, both past spectral.INV_NORM_CAP
    matrix = "-3,3,-1;3,-1,1;-3,1,0"
    code, out = run(capsys, ["tile", "--matrix=" + matrix, "--level", "1", "--samples", "10"])
    assert (code, out) == (3, "")
    path = tmp_path / "f.json"
    TrigPolynomial(3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5,
                       (2**30, 0, 0): 0.5, (-(2**30), 0, 0): 0.5}).save(path)
    code, out = run(capsys, ["clt", "--matrix=" + matrix, "--f", str(path), "--horizon", "10",
                             "--samples", "10"])
    assert (code, out) == (3, "")


def test_ulam_decay_truncation_zero_is_too_small(capsys):
    # 0 is a truncation like any other, not a request for the default
    code, out = run(capsys, ["ulam", "--op", "decay", "--nmax", "4", "--truncation", "0"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["transfer", "--matrix", "2", "--function", "{no_k}", "--steps", "1"],
        ["transfer", "--matrix", "2", "--function", "{not_object}", "--steps", "1"],
        ["lacunary", "--matrix", "2", "--h", "1", "--design", "{missing}", "--nmax", "3"],
        ["lacunary", "--matrix", "2", "--h", "x", "--nmax", "3"],
        ["lacunary", "--matrix", "2", "--h", "1", "--param", "abc", "--nmax", "3"],
        ["tile", "--matrix", "1,-1;1,1", "--level", "4", "--samples", "-5",
         "--points-out", "{points}"],
        ["lacunary", "--matrix", "2", "--h", "1", "--nmax", "-1"],
        ["lacunary", "--matrix", "2", "--h", "1", "--family", "logpower", "--param", "1000",
         "--nmax", "2"],
    ],
    ids=["entry-without-k", "entry-not-object", "design-missing", "h-not-int",
         "param-not-float", "negative-samples", "negative-nmax", "logpower-beta-overflow"],
)
def test_bad_input_exits_2(capsys, tmp_path, argv):
    (tmp_path / "no_k.json").write_text('[{"re": 1.0}]\n')
    (tmp_path / "not_object.json").write_text("[1, 2]\n")
    paths = {name: str(tmp_path / (name + ext)) for name, ext in (
        ("no_k", ".json"), ("not_object", ".json"), ("missing", ".csv"), ("points", ".csv"))}
    try:
        code = cli.main([a.format(**paths) for a in argv])
    except SystemExit as exc:  # argparse rejects a malformed option value
        code = exc.code
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "points.csv").exists()  # a failed command writes no file


def test_missing_function_file(capsys):
    code, _ = run(capsys, ["transfer", "--matrix", "2", "--function",
                           "/nonexistent/f.json", "--steps", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["matrix-info", "--matrix", "1,-1;1,1"], "--out"),
        (["digits", "--matrix", "3"], "--out"),
        (["transfer", "--matrix", "2", "--function", "{rich}", "--steps", "3",
          "--emit", "coeffs"], "--out"),
        (["transfer", "--matrix", "2", "--function", "{rich}", "--steps", "3",
          "--emit", "norms"], "--out"),
        (["transfer", "--matrix", "2", "--function", "{rich}", "--steps", "3",
          "--emit", "modulus"], "--out"),
        (["decay", "--matrix", "2", "--f", "{rich}", "--g", "{f1}", "--nmax", "4"], "--out"),
        (["lacunary", "--matrix", "2", "--h", "1", "--family", "power", "--param", "2.5",
          "--nmax", "4"], "--out"),
        (["clt", "--matrix", "2", "--f", "{rich}", "--horizon", "50", "--samples", "40",
          "--seed", "3"], "--out"),
        (["ulam", "--op", "decay", "--nmax", "4", "--truncation", "1024"], "--out"),
        (["ulam", "--op", "modulus"], "--out"),
        (["ulam", "--op", "lyapunov", "--horizon", "50", "--samples", "40", "--seed", "3"],
         "--out"),
        (["tile", "--matrix", "2", "--level", "3", "--samples", "200", "--seed", "3"],
         "--coverage-out"),
    ],
    ids=["matrix-info", "digits", "transfer-coeffs", "transfer-norms", "transfer-modulus",
         "decay", "lacunary", "clt", "ulam-decay", "ulam-modulus", "ulam-lyapunov", "tile"],
)
def test_output_file_holds_the_printed_bytes(capsys, tmp_path, f1_path, rich_path, argv, flag):
    argv = [a.format(f1=f1_path, rich=rich_path) for a in argv]
    path = tmp_path / "output"
    code, printed = run(capsys, argv + [flag, str(path)])
    assert code == 0
    assert path.read_bytes() == printed.encode("utf-8")
    assert run(capsys, argv) == (0, printed)  # the file changes nothing printed
    # a longer stale file is overwritten whole, with no old tail left behind
    path.write_bytes(b"stale line\n" * (len(printed) // 4 + 100))
    assert run(capsys, argv + [flag, str(path)]) == (0, printed)
    assert path.read_bytes() == printed.encode("utf-8")


def test_csv_output_is_rendered_once(capsys, tmp_path, monkeypatch, f1_path, rich_path):
    calls = []
    render = serialize.render_csv
    monkeypatch.setattr(serialize, "render_csv", lambda *a, **k: calls.append(1) or render(*a, **k))
    path = tmp_path / "decay.csv"
    code, printed = run(capsys, ["decay", "--matrix", "2", "--f", rich_path, "--g", f1_path,
                                 "--nmax", "4", "--out", str(path)])
    assert code == 0
    assert len(calls) == 1  # one text for stdout and for the file
    assert path.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_is_bad_input(capsys, tmp_path, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    code = cli.main(["matrix-info", "--matrix", "2", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot write output file" in captured.err
    assert captured.out == ""


@pytest.mark.skipif(os.devnull != "/dev/null", reason="needs the /dev/null device")
def test_output_to_a_device(capsys):
    # a device such as /dev/null is a valid output target
    code, printed = run(capsys, ["matrix-info", "--matrix", "2", "--out", os.devnull])
    assert code == 0
    assert json.loads(printed)["q"] == 2


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    # every `toraldecay ...` line of README's command-line block exits 0
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("toraldecay ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    TrigPolynomial(1, {(8,): 0.25, (-8,): 0.25, (1,): 0.25, (-1,): 0.25}).save("f.json")
    TrigPolynomial.cosine(1).save("cos.json")
    with open("targets.csv", "w", encoding="utf-8") as fh:
        fh.write("target\n" + "".join("%r\n" % 0.5**n for n in range(1, 9)))
    for line in lines:
        code, _ = run(capsys, shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
