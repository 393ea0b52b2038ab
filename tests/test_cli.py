"""End-to-end command-line checks: formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from toraldecay import analysis, cli, lattice, spectral
from toraldecay.spectral import TrigPolynomial


@pytest.fixture
def f1_path(tmp_path):
    path = tmp_path / "f1.json"
    TrigPolynomial.cosine(1, dim=1).save(path)
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


def test_exit_codes(capsys, f1_path):
    code, _ = run(capsys, ["matrix-info", "--matrix", "1,0;0,1"])
    assert code == 2  # not expanding
    code, _ = run(capsys, ["clt", "--matrix", "2", "--f", f1_path,
                           "--horizon", "2000000", "--samples", "1000"])
    assert code == 3  # orbit guard
    code, _ = run(capsys, ["ulam", "--op", "decay", "--nmax", "40",
                           "--truncation", "1000"])
    assert code == 2  # truncation too small
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay", "--matrix", "2", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


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


def test_emit_plotdata_modulus_curve(tmp_path):
    curve = spectral.ModulusCurve([0.5, 0.25], [1.0, 0.7], 2, 1, {})
    path = tmp_path / "curve.csv"
    cli.emit_plotdata(curve, str(path))
    assert path.exists()
    empty = spectral.ModulusCurve([], [], 2, 1, {})
    from toraldecay.errors import InputError

    with pytest.raises(InputError):
        cli.emit_plotdata(empty, str(tmp_path / "empty.csv"))
    assert not (tmp_path / "empty.csv").exists()


def test_emit_plotdata_rejects_junk(tmp_path):
    from toraldecay.errors import InputError

    with pytest.raises(InputError):
        cli.emit_plotdata({"not": "a report"}, str(tmp_path / "x.csv"))
