"""toraldecay benchmark: one command, two workloads, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload mc-sampling --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload decay-sparse --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --smoke

The package is imported from `src/` of the checkout this file sits in.
One client runs each workload's operation list back to back (a closed
loop), at most `nproc` threads. With `--trace 0` the run repeats the
operation list until `--seconds` have passed, each pass followed by a
timed fresh-interpreter set-up (`setup_s`), with at least three passes and
five set-ups, and reports end-to-end metrics. With `--trace 1` it runs the
list once untraced and once with every public function of every module
wrapped in a span, and reports per-layer metrics; on `mc-sampling` the
sampling operations also run at one thread, and all outputs must be
byte-identical across the runs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
the run's metadata and every metric that applies to the workload,
including those that are not bounded in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_run")

SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

UNITS = {"calls": "count", "self_s": "s", "t1_s": "s", "tN_s": "s", "hit_ratio": "ratio",
         "bytes": "bytes", "overhead_frac": "ratio", "attributed_frac": "ratio",
         "threads": "count"}


def _per_layer_names():
    names = ["spectral.TrigPolynomial.evaluate.self_s", "spectral.TrigPolynomial.evaluate.point_terms"]
    for fn in ("stochastic.birkhoff_samples", "interval.lyapunov_clt"):
        names += [fn + q for q in (".self_s", ".orbit_steps", ".t1_s", ".tN_s")]
    names += ["rng.map_blocks.calls", "rng.map_blocks.blocks", "rng.map_blocks.threads",
              "rng.substream.calls", "interval.uvn_decay_norms.self_s",
              "interval.lyapunov_sigma2.self_s"]
    names += ["tiling.check_tiling." + q for q in ("self_s", "queries", "hit_ratio", "t1_s", "tN_s")]
    names += ["tiling.tile_points.self_s", "tiling.tile_points.points",
              "tiling.check_self_affinity.self_s", "tiling.neumann_tail.calls"]
    names += ["spectral.sup_norm_bracket." + q for q in ("calls", "self_s", "grid_evals")]
    for r in ("r2", "rinf"):
        names += ["spectral.modulus_value.%s.%s" % (r, q) for q in ("calls", "self_s")]
    names += ["spectral.transfer_fourier." + q
              for q in ("calls", "self_s", "coeffs_in", "coeffs_kept")]
    names += ["lattice.mat_pow.calls", "lattice.mat_pow.self_s",
              "spectral.min_singular_power.calls", "spectral.inv_norm_sup.calls"]
    # power and geometric tails are closed forms and sum no terms
    for family in ("power", "logpower", "geometric", "explicit"):
        names += ["lacunary.tail_norms.%s.%s" % (family, q) for q in ("calls", "self_s")]
        if family in ("logpower", "explicit"):
            names.append("lacunary.tail_norms.%s.terms_summed" % family)
    names += ["lacunary.lacunary_build.self_s", "lacunary.lacunary_build.terms",
              "lacunary.modulus_bounds_prop2.self_s", "lattice.digit_set.self_s",
              "lattice.validate_expanding.self_s"]
    names += ["analysis.decay_report.calls", "analysis.decay_report.self_s"]
    names += ["analysis.correlation." + q for q in ("calls", "self_s", "mc_samples", "t1_s", "tN_s")]
    names += ["analysis.fit_rate.self_s"]
    names += ["stochastic.sigma_squared." + q for q in ("calls", "self_s", "series_terms")]
    names += ["stochastic.ks_statistic.self_s"]
    for cmd in ("cmd_transfer", "cmd_decay", "cmd_lacunary", "cmd_clt", "cmd_ulam", "cmd_tile"):
        names += ["cli.%s.calls" % cmd, "cli.%s.self_s" % cmd]
    for fn in ("render_csv", "render_json", "write_csv", "write_json"):
        names += ["serialize.%s.self_s" % fn, "serialize.%s.bytes" % fn]
    names += ["trace.overhead_frac", "trace.attributed_frac"]
    return names


PER_LAYER = _per_layer_names()
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed beside the bounded metrics on the workloads they apply to.
DETAIL_UNITS = {"failed_frac": "ratio", "report_p50_s": "s", "report_tail_s": "s",
                "torus_steps_per_s": "1/s", "interval_steps_per_s": "1/s",
                "census_points_per_s": "1/s"}


def unit_of(name):
    quantity = name.rsplit(".", 1)[-1]
    return UNITS.get(quantity, "count")


def load_package():
    """Import toraldecay from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "toraldecay", "__init__.py")):
        sys.stderr.write("bench: no toraldecay package under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import toraldecay
    from toraldecay import analysis, cli, errors, interval, lattice, spectral, stochastic, tiling

    if not os.path.abspath(toraldecay.__file__).startswith(SRC + os.sep):
        sys.stderr.write("bench: toraldecay imported from outside %s\n" % SRC)
        sys.exit(2)
    return types.SimpleNamespace(
        package=toraldecay, analysis=analysis, cli=cli, errors=errors, interval=interval,
        lattice=lattice, spectral=spectral, stochastic=stochastic, tiling=tiling,
    )


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_ops(td, workload, seed, tmp, threads, small):
    from workloads import WORKLOADS

    return WORKLOADS[workload](td, seed, tmp, threads, small=small)


def setup(td, workload, seed, tmp, small):
    """Generate the inputs and run one small operation of each kind."""
    threads = nproc()
    ops = build_ops(td, workload, seed, tmp, threads, small)
    warm_dir = os.path.join(tmp, "warmup")
    os.mkdir(warm_dir)
    seen = set()
    for op in build_ops(td, workload, seed, warm_dir, threads, small=True):
        if op.kind in seen:
            continue
        seen.add(op.kind)
        try:
            op.run(td)
        except Exception:  # warm-up only loads code paths; failures show in the timed passes
            pass
    return ops


# -- running operations ---------------------------------------------------------


class OpResult:
    __slots__ = ("op", "seconds", "status", "detail", "fingerprint")

    def __init__(self, op, seconds, status, detail="", fingerprint=None):
        self.op = op
        self.seconds = seconds
        self.status = status  # "ok", "wrong" or "error"
        self.detail = detail
        self.fingerprint = fingerprint


def run_pass(td, ops, keep_fingerprints=False):
    from workloads import CheckFailed

    state = {}
    results = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run(td)
        except Exception as exc:  # every failure is counted, none stops the pass
            dt = time.perf_counter() - t0
            results.append(OpResult(op, dt, "error", "%s: %s" % (type(exc).__name__, exc)))
            continue
        dt = time.perf_counter() - t0
        fingerprint = op.fingerprint(out) if keep_fingerprints else None
        try:
            if op.check is not None:
                op.check(out, state)
        except CheckFailed as exc:
            results.append(OpResult(op, dt, "wrong", str(exc), fingerprint))
            continue
        results.append(OpResult(op, dt, "ok", "", fingerprint))
    return results


def tail_percentile(count):
    """Highest whole percentile with at least ten samples beyond it."""
    if count < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / count))


def summarize(passes):
    flat = [r for p in passes for r in p]
    attempted = len(flat)
    failed = sum(1 for r in flat if r.status != "ok")
    detail = {"failed_frac": failed / attempted if attempted else 0.0,
              "ops_attempted": attempted, "ops_failed": failed,
              "passes": len(passes)}
    reports = {}
    for i, p in enumerate(passes):
        for r in p:
            if r.op.report is None:
                continue
            entry = reports.setdefault((i, r.op.report), [0.0, True])
            entry[0] += r.seconds
            entry[1] = entry[1] and r.status == "ok"
    good = sorted(t for t, ok in reports.values() if ok)
    if good:
        detail["report_p50_s"] = statistics.median(good)
        detail["report_count"] = len(good)
        detail["reports_failed"] = len(reports) - len(good)
        pct = tail_percentile(len(good))
        if pct is not None:
            detail["report_tail_s"] = good[math.ceil(pct / 100.0 * len(good)) - 1]
            detail["report_tail_percentile"] = pct
    for work, metric in (("torus_steps", "torus_steps_per_s"),
                         ("interval_steps", "interval_steps_per_s"),
                         ("census_points", "census_points_per_s")):
        done = [r for r in flat if work in r.op.work and r.status == "ok"]
        if done:
            detail[metric] = sum(r.op.work[work] for r in done) / sum(r.seconds for r in done)
    failures = sorted({"%s: %s" % (r.op.kind, r.detail) for r in flat if r.status != "ok"})
    return attempted, failed, detail, failures


def setup_probe(workload, seed, small):
    """Wall time of one fresh-interpreter set-up, in its own process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
           "--seed", str(seed)] + (["--small"] if small else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.decode(errors="replace"))
    return elapsed


def run_timed(td, workload, seed, seconds, tmp, small):
    """Passes of the operation list, each followed by a set-up probe.

    Interleaving the probes with the passes spreads them over the whole
    run, so `setup_s` and `wall_s` are medians over the same stretch of
    time rather than over its first seconds. Probes still missing after
    the last pass run back to back.
    """
    ops = setup(td, workload, seed, tmp, small)
    passes, probes = [], []
    min_passes, min_probes = (1, 1) if small else (MIN_PASSES, SETUP_PROBES)
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(td, ops))
        probes.append(setup_probe(workload, seed, small))
    while len(probes) < min_probes:
        probes.append(setup_probe(workload, seed, small))
    attempted, failed, detail, failures = summarize(passes)
    correct = not any(r.status == "wrong" for p in passes for r in p)
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail["wall_s_passes"] = [sum(r.seconds for r in p) for p in passes]
    detail["setup_s_probes"] = probes
    return correct, attempted, failed, metrics, detail, failures


def _span_metrics(tracer):
    """Per-layer rows from one traced pass, keyed like PER_LAYER."""
    out = {}
    for name in PER_LAYER:
        span, quantity = name.rsplit(".", 1)
        if quantity == "calls":
            out[name] = tracer.calls.get(span, 0)
        elif quantity == "self_s":
            out[name] = tracer.self_s.get(span, 0.0)
        elif quantity == "threads":
            out[name] = tracer.max_threads
        elif quantity == "hit_ratio":
            queries = tracer.counts.get(span + ".queries", 0)
            out[name] = tracer.counts.get(span + ".hits", 0) / queries if queries else 0.0
        elif quantity not in ("t1_s", "tN_s") and not span.startswith("trace"):
            out[name] = tracer.counts.get(name, 0)
    return out


def run_traced(td, workload, seed, tmp, small):
    import tracer as tracer_mod

    modules = [getattr(__import__("toraldecay." + m), m) for m in tracer_mod.LAYERS]
    hooks = tracer_mod.default_hooks()
    ops = setup(td, workload, seed, tmp, small)
    threads = nproc()

    plain = run_pass(td, ops, keep_fingerprints=True)
    untraced_s = sum(r.seconds for r in plain)
    with tracer_mod.Tracer() as tracer:
        tracer.install(modules, hooks)
        traced = run_pass(td, ops, keep_fingerprints=True)
    traced_s = sum(r.seconds for r in traced)
    metrics = _span_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    # Self time in sampler worker threads counts once per thread, so this
    # exceeds 1 where threads overlap.
    metrics["trace.attributed_frac"] = sum(tracer.self_s.values()) / traced_s

    mismatched = [a.op.kind for a, b in zip(plain, traced) if a.fingerprint != b.fingerprint]
    samplers = [op for op in ops if op.threads is not None]
    with tracer_mod.Tracer() as single:
        single.install(modules, hooks)
        one = run_pass(td, [op.with_threads(1) for op in samplers], keep_fingerprints=True)
    by_op = {id(r.op): r for r in traced}
    for op, r in zip(samplers, one):
        if r.fingerprint != by_op[id(op)].fingerprint:
            mismatched.append(op.kind + "@1thread")
    for span in ("stochastic.birkhoff_samples", "interval.lyapunov_clt",
                 "tiling.check_tiling", "analysis.correlation"):
        metrics[span + ".t1_s"] = single.total_s.get(span, 0.0) if samplers else 0.0
        metrics[span + ".tN_s"] = tracer.total_s.get(span, 0.0) if samplers else 0.0

    passes = [plain, traced, one]
    attempted, failed, _, failures = summarize(passes)
    detail = summarize([plain])[2]  # latencies from the untraced pass only
    correct = not mismatched and not any(r.status == "wrong" for p in passes for r in p)
    detail.update({"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
                   "threads": threads, "identity_mismatches": mismatched,
                   "recorded": sorted(n for n, v in metrics.items() if v > 0)})
    return correct, attempted, failed, metrics, detail, failures


# -- metadata -----------------------------------------------------------------


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def metadata(td, workload, seed):
    import numpy
    import scipy

    lines = 0
    for base, _, files in os.walk(os.path.join(SRC, "toraldecay")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "workload": workload, "seed": seed, "nproc": nproc(), "cpu_model": _cpu_model(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(), "src_lines": lines,
        "toraldecay": td.package.__version__,
    }


# -- entry points -----------------------------------------------------------------


def run_workload(td, workload, seed, seconds, trace, small=False):
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        if trace:
            result = run_traced(td, workload, seed, tmp, small)
        else:
            result = run_timed(td, workload, seed, seconds, tmp, small)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it
    return result


def emit(td, args, result):
    correct, attempted, failed, metrics, detail, failures = result
    units = END_TO_END if not args.trace else {n: unit_of(n) for n in PER_LAYER}
    for name in sorted(metrics):
        print("%-48s %16.6g %s" % (name, metrics[name], units[name]))
    bases = {"failed_frac": "%s of %s operations" % (detail["ops_failed"], detail["ops_attempted"]),
             "report_p50_s": "%s reports" % detail.get("report_count"),
             "report_tail_s": "p%s of %s reports" % (detail.get("report_tail_percentile"),
                                                    detail.get("report_count"))}
    for name in sorted(detail):
        if name in DETAIL_UNITS:
            print("%-48s %16.6g %s %s" % (name, detail[name], DETAIL_UNITS[name],
                                          bases.get(name, "")))
    for line in failures:
        print("failed: %s" % line)
    print(json.dumps({"metadata": metadata(td, args.workload, args.seed), "detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def smoke(td):
    """Tiny run of every workload, checking names against BENCHMARK.json.

    Each declared per-layer row must also have recorded something (a
    nonzero value) on at least one workload, so a span that is never
    reached, for example after a rename, fails the smoke run.
    """
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {w["name"] for w in spec["workloads"]}
    problems = []
    if declared != set(WORKLOADS):
        problems.append("workloads %s != %s" % (sorted(declared), sorted(WORKLOADS)))
    recorded = set()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in sorted(WORKLOADS):
            result = run_workload(td, workload, 1, 0, trace, small=True)
            metrics = result[3]
            units = END_TO_END if not trace else {n: unit_of(n) for n in PER_LAYER}
            got = {n: units[n] for n in metrics}
            if got != want:
                problems.append("%s trace=%d: emitted %s, declared %s"
                                % (workload, trace, sorted(set(got) ^ set(want)), key))
            if trace:
                recorded.update(result[4]["recorded"])
            print("smoke %-14s trace=%d: %d metrics, %d ops, %d failed"
                  % (workload, trace, len(metrics), result[1], result[2]))
    silent = [n for n in PER_LAYER if n not in recorded and not n.startswith("trace.")]
    if silent:
        problems.append("per-layer rows recorded on no workload: %s" % ", ".join(silent))
    for p in problems:
        print("smoke problem: " + p)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check metric names")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still removes its files and stops its set-up probe.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    td = load_package()
    sys.path.insert(0, BENCH_DIR)
    if args.smoke:
        return smoke(td)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(sorted(WORKLOADS)))
    if args.setup_probe:
        os.makedirs(WORK_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
        try:
            setup(td, args.workload, args.seed, tmp, args.small)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0
    emit(td, args, run_workload(td, args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
