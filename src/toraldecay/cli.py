"""Command-line front end: reproducible experiments, CSV/JSON reports.

Every output embeds a config hash, the seed, and the package version, and
reruns with the same configuration are byte-identical. Thread count and
output paths are deliberately excluded from the hashed configuration:
they must never change results.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import traceback

import numpy as np

from . import analysis, interval, lacunary, lattice, rng, serialize, spectral
from . import stochastic, tiling
from ._version import __version__
from .errors import InputError, InternalError, ToralDecayError
from .spectral import TrigPolynomial

ULAM_MODULUS_GRID = [float(d) for d in np.logspace(-4, -1, 25)]


def _load_function(path):
    try:
        return TrigPolynomial.load(path)
    except OSError as exc:
        raise InputError("cannot read function file %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        raise InputError("bad function file %s: %s" % (path, exc)) from exc


def _emit_json(obj, path=None):
    text = serialize.render_json(obj)
    if path:
        serialize.write_json(path, obj)
    sys.stdout.write(text)


def _emit_csv(cols, rows, config, path=None, seed=None, footer=None):
    text = serialize.render_csv(cols, rows, config, seed=seed, footer=footer)
    if path:
        serialize.write_csv(path, cols, rows, config, seed=seed, footer=footer)
    sys.stdout.write(text)


def _fit_fields(fit):
    return {name: getattr(fit, name) if fit is not None else None
            for name in ("model", "param", "amplitude", "residual")}


def _fit_footer(fit):
    """The `fit:` footer line of a FitResult; null when there is no fitted model."""
    if fit is None or fit.model == "all-zero":
        return ["fit: null"]
    return ["fit: " + json.dumps(_fit_fields(fit), sort_keys=True)]


def int_list(text):
    return tuple(int(v) for v in text.replace(",", " ").split())


def float_list(text):
    return [float(v) for v in text.replace(",", " ").split()]


def cmd_matrix_info(args):
    matrix = lattice.parse_matrix(args.matrix)
    digits = lattice.digit_set(matrix)
    info = {
        "d": matrix.dim,
        "q": matrix.det_abs,
        "lambda": matrix.lambda_min,
        "digits": [list(g) for g in digits],
    }
    _emit_json(info, args.out)
    return 0


def cmd_digits(args):
    matrix = lattice.parse_matrix(args.matrix)
    digits = lattice.digit_set(matrix)
    _emit_json([list(g) for g in digits], args.out)
    return 0


def cmd_tile(args):
    matrix = lattice.parse_matrix(args.matrix)
    digits = lattice.digit_set(matrix)
    tile = tiling.tile_points(matrix, digits, args.level)
    config = {
        "subcommand": "tile",
        "matrix": args.matrix,
        "level": args.level,
        "samples": args.samples,
        "seed": args.seed,
    }
    stats = tiling.check_tiling(tile, args.samples, args.seed, threads=args.threads)
    if args.points_out:
        cols = ["x%d" % (i + 1) for i in range(matrix.dim)]
        rows = [[float(v) for v in p] for p in tile.points]
        serialize.write_csv(args.points_out, cols, rows, config, seed=args.seed)
    coverage = {
        "cell_radius": stats.cell_radius,
        "fraction_one": stats.fraction_one,
        "histogram": {str(k): v for k, v in sorted(stats.histogram.items())},
        "level": stats.level,
        "samples": stats.samples,
        "seed": stats.seed,
        "window": stats.window,
        "config": serialize.config_hash(config),
        "version": __version__,
    }
    if args.self_affinity:
        coverage["self_affinity_mismatch"] = tiling.check_self_affinity(tile)
    _emit_json(coverage, args.coverage_out)
    return 0


def cmd_transfer(args):
    matrix = lattice.parse_matrix(args.matrix)
    f = _load_function(args.function)
    config = {
        "subcommand": "transfer",
        "matrix": args.matrix,
        "function": "hash:" + serialize.config_hash(sorted(map(str, f.coeffs.items()))),
        "steps": args.steps,
        "emit": args.emit,
    }
    if args.emit == "coeffs":
        _emit_json(spectral.transfer_fourier(f, matrix, args.steps).entries(), args.out)
        return 0
    if args.emit == "modulus":
        radii = analysis.modulus_radii(matrix, args.steps)
        rows = list(zip(radii, spectral.modulus_value(f, 2, radii)))
        _emit_csv(["delta", "omega"], rows, config, args.out)
        return 0
    report = analysis.decay_report(f, None, matrix, args.steps, mode="transfer_norm")
    rows = []
    for r in report.rows:
        lo, hi = spectral.sup_norm_bracket(r.transferred)
        rows.append([r.n, r.value, lo, hi, r.bound, r.ratio])
    cols = ["n", "norm_L2", "norm_sup_lower", "norm_sup_upper", "omega_L2", "bound_ratio"]
    footer = ["centered: %s" % ("true" if report.centered else "false")]
    _emit_csv(cols, rows, config, args.out, footer=footer)
    return 0


def cmd_decay(args):
    matrix = lattice.parse_matrix(args.matrix)
    f = _load_function(args.f)
    g = _load_function(args.g)
    config = {
        "subcommand": "decay",
        "matrix": args.matrix,
        "nmax": args.nmax,
        "mode": args.mode,
        "mc_samples": args.mc_samples,
        "seed": args.seed,
    }
    report = analysis.decay_report(
        f, g, matrix, args.nmax, mode=args.mode, mc_samples=args.mc_samples,
        seed=args.seed, threads=args.threads,
    )
    if args.plot_out:  # first, so a report it cannot plot leaves no --out file
        emit_plotdata(report, args.plot_out)
    rows = [[r.n, r.value, r.bound, r.ratio] for r in report.rows]
    _emit_csv(["n", "value", "bound", "ratio"], rows, config, args.out, seed=args.seed,
              footer=_fit_footer(report.fit))
    return 0


def cmd_lacunary(args):
    if args.nmax < 0:
        raise InputError("--nmax must be >= 0")
    matrix = lattice.parse_matrix(args.matrix)
    if args.design:
        targets = serialize.read_targets_csv(args.design)
        coeffs = lacunary.design_for_rate(targets, norm=args.design_norm)
        spec = lacunary.LacunarySpec(args.h, matrix, "explicit", coeffs)
        family = "explicit(designed)"
    elif args.family == "explicit":
        spec = lacunary.LacunarySpec(args.h, matrix, "explicit", args.param)
        family = "explicit"
    else:
        if len(args.param) != 1:
            raise InputError("--param of family %s must be one number" % args.family)
        spec = lacunary.LacunarySpec(
            args.h, matrix, args.family, args.param[0], truncation=args.truncation
        )
        family = args.family
    build_k = (
        spec.truncation
        if spec.truncation is not None
        else max(64, args.nmax + 32)
    )
    built = lacunary.lacunary_build(dataclasses.replace(spec, truncation=build_k))
    config = {
        "subcommand": "lacunary",
        "matrix": args.matrix,
        "h": list(args.h),
        "family": family,
        "param": str(spec.param),
        "nmax": args.nmax,
        "truncation": spec.truncation,
        "build_truncation": build_k,
    }
    rows = []
    for n in range(0, args.nmax + 1):
        l2_tail, l1_tail = lacunary.tail_norms(spec, n)
        bounds = lacunary.modulus_bounds_prop2(spec, n)
        measured = spectral.norm(spectral.transfer_fourier(built, matrix, n), 2)
        rows.append([n, l2_tail, l1_tail, bounds.sup_bound, bounds.l2_bound, measured])
    cols = ["n", "l2_tail", "l1_tail", "prop2_sup_bound", "prop2_l2_bound", "measured_l2_norm"]
    footer = _fit_footer(analysis.fit_if_possible([(r[0], r[1]) for r in rows]))
    if args.design:
        footer.append("designed_coefficients: %d terms" % len(spec.param))
    _emit_csv(cols, rows, config, args.out, footer=footer)
    return 0


def _sampler_config(args, **fields):
    """The hashed configuration of a sampler run (`clt`, `ulam --op lyapunov`)."""
    return dict(fields, horizon=args.horizon, samples=args.samples, seed=args.seed)


def _sampler_payload(result, config, **extra):
    """The JSON report of a sampler run, plus the `extra` fields; InputError
    where sigma^2 or a sample moment leaves float range."""
    moments = (result.sigma2, result.sample_mean, result.sample_var)
    if not all(map(math.isfinite, moments)):
        raise InputError("sigma2 %g, sample mean %g or sample variance %g leaves float range"
                         % moments)
    return {
        "sigma2": result.sigma2,
        "ks": result.ks_stat,
        "sample_mean": result.sample_mean,
        "sample_var": result.sample_var,
        "config": serialize.config_hash(config),
        "seed": result.seed,
        "version": __version__,
        **extra,
    }


def cmd_clt(args):
    matrix = lattice.parse_matrix(args.matrix)
    f = _load_function(args.f)
    experiment = stochastic.birkhoff_samples(
        f, matrix, args.horizon, args.samples, args.seed, threads=args.threads
    )
    config = _sampler_config(args, subcommand="clt", matrix=args.matrix)
    payload = _sampler_payload(experiment, config)  # refused before any file is written
    if args.samples_out:
        rows = [[i, float(v)] for i, v in enumerate(experiment.samples)]
        serialize.write_csv(
            args.samples_out, ["index", "value"], rows, config, seed=args.seed
        )
    _emit_json(payload, args.out)
    return 0


def cmd_ulam(args):
    if args.op == "decay":
        truncation = args.truncation if args.truncation is not None else 10**6
        report = interval.uvn_decay_norms(args.nmax, truncation)
        config = {
            "subcommand": "ulam",
            "op": "decay",
            "nmax": args.nmax,
            "truncation": truncation,
        }
        rows = [[r.n, r.value, r.ratio] for r in report.rows]
        _emit_csv(["n", "norm", "pow2_ratio"], rows, config, args.out,
                  footer=_fit_footer(report.fit))
        return 0
    if args.op == "modulus":
        result = interval.uvn_modulus_sqrt_delta(ULAM_MODULUS_GRID)
        config = {"subcommand": "ulam", "op": "modulus", "grid": "1e-4..1e-1/25"}
        _emit_csv(["delta", "omega"], result.curve.as_rows(), config, args.out,
                  footer=["fitted_exponent: %r" % result.exponent])
        return 0
    report = interval.lyapunov_clt(
        args.horizon, args.samples, args.seed, threads=args.threads
    )
    config = _sampler_config(args, subcommand="ulam", op="lyapunov")
    payload = _sampler_payload(report, config, mean_log_derivative=report.mean_log_derivative)
    _emit_json(payload, args.out)
    return 0


def emit_plotdata(report, path):
    """Two-column plot data plus a JSON sidecar with the report's own fit.

    A DecayReport's rows become (log_n, log_value) over positive entries.
    A report with no such rows is an error and no file is written.
    """
    rows = [[math.log(r.n), math.log(r.value)] for r in report.rows if r.n >= 1 and r.value > 0]
    if not rows:
        raise InputError("report has no positive rows to plot")
    cols = ["log_n", "log_value"]
    sidecar = _fit_fields(report.fit)
    config = {"plotdata": cols}
    serialize.write_csv(path, cols, rows, config)
    serialize.write_json(str(path) + ".fit.json", sidecar)
    return path


@functools.cache  # built once per process; handlers are held by name, not as functions
def build_parser():
    parser = argparse.ArgumentParser(
        prog="toraldecay",
        description="Correlation-decay experiments for expanding toral endomorphisms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument(
            "--threads", type=int, default=None,
            help="worker processes: this one and forked ones, at most one per usable"
                 " CPU; this one alone where os.fork is missing or other threads are"
                 " alive (default: TORAL_DECAY_THREADS or the usable CPU count)",
        )

    def add_matrix(p):  # argparse takes a bare -2,1;1,2 for an option, not a value
        p.add_argument("--matrix", required=True, help='rows split by ";", entries by "," or'
                       ' spaces; write -2,1;1,2 as --matrix="-2,1;1,2" or "-2, 1; 1, 2"')

    p = sub.add_parser("matrix-info", help="spectrum, determinant, digit set")
    add_matrix(p)
    p.add_argument("--out")
    p.set_defaults(handler="cmd_matrix_info")

    p = sub.add_parser("digits", help="coset representatives as JSON")
    add_matrix(p)
    p.add_argument("--out")
    p.set_defaults(handler="cmd_digits")

    p = sub.add_parser("tile", help="self-affine tile cloud and coverage check")
    add_matrix(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--points-out")
    p.add_argument("--coverage-out")
    p.add_argument("--self-affinity", action="store_true")
    add_common(p)
    p.set_defaults(handler="cmd_tile")

    p = sub.add_parser("transfer", help="iterate the transfer operator")
    add_matrix(p)
    p.add_argument("--function", required=True, help="TrigPolynomial JSON file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--emit", choices=["coeffs", "norms", "modulus"], default="norms")
    p.add_argument("--out")
    p.set_defaults(handler="cmd_transfer")

    p = sub.add_parser("decay", help="correlation decay against the modulus bound")
    add_matrix(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--mode", choices=["correlation", "transfer_norm"],
                   default="correlation")
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--plot-out")
    add_common(p)
    p.set_defaults(handler="cmd_decay")

    p = sub.add_parser("lacunary", help="lacunary tails, bounds, measured norms")
    add_matrix(p)
    p.add_argument("--h", type=int_list, required=True, help="base frequency, e.g. '1,0'")
    p.add_argument("--family", choices=list(lacunary.FAMILIES), default="power")
    p.add_argument("--param", type=float_list, default="2.0",
                   help="family parameter, or coefficient list for explicit")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--design", help="CSV of target tail values")
    p.add_argument("--design-norm", choices=["sup", "l2"], default="sup")
    p.add_argument("--out")
    p.set_defaults(handler="cmd_lacunary")

    p = sub.add_parser("clt", help="Birkhoff-sum CLT experiment")
    add_matrix(p)
    p.add_argument("--f", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--samples-out")
    add_common(p)
    p.set_defaults(handler="cmd_clt")

    p = sub.add_parser("ulam", help="tent/Ulam-von Neumann experiments")
    p.add_argument("--op", choices=["decay", "modulus", "lyapunov"], required=True)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(handler="cmd_ulam")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* function is the one that runs
        return globals()[args.handler](args)
    except ToralDecayError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except Exception:  # a bug, not bad input: keep the traceback, exit as an internal error
        traceback.print_exc()
        return InternalError.exit_code


if __name__ == "__main__":
    sys.exit(main())
