"""loopcool benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 10 --trace 0

Workloads are `landscape`, `chain`, `spectrum` and `oracle` (see
workloads.py).  With `--trace 0` the run measures, with no tracing installed:

* setup_s     - median over fresh interpreters of the time from interpreter
                start to the end of import, config generation and spec load;
* items_per_s - items per second of a pass (grid points, probe frequencies or
                oracle specs), from the mean time of each unit of the pass,
                scaled to the reference host speed by a calibration timed
                before every unit (see workloads.Workload); the unscaled
                figure is printed and recorded as raw_items_per_s;
* peak_rss_mb - peak resident memory of a fresh process running one pass.

With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics named in BENCHMARK.json from the spans (tracing.py).

Every unit's output is checked against an independent reference outside the
timed region.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Spans and a full result record
are written under .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: the benchmark measures the serial program; pin BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: fresh interpreters timed for setup_s (the first also runs the RSS pass)
SETUP_SAMPLES = 7
SMOKE_SETUP_SAMPLES = 2
#: a child that has not finished set-up and one pass by then is a failure
CHILD_TIMEOUT_S = 120

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest size of each workload (for the self-test)")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workload(args, workdir):
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    return workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)


def run_pass(w, unit_times=None, tracer=None, cal_times=None):
    """Run every unit once, timing it; check it afterwards. Returns failed items."""
    failed = 0
    for i in range(len(w.units)):
        if cal_times is not None:
            cal_times.append(w.calibrate())
        if tracer is None:
            t0 = time.perf_counter()
            out = w.run_unit(i)
            dt = time.perf_counter() - t0
        else:
            with tracer, tracer.span("bench.unit") as span:
                out = w.run_unit(i)
            dt = tracer.spans[span.idx][2] - tracer.spans[span.idx][1]
        if unit_times is not None:
            unit_times[i].append(dt)
        failed += w.check(i, out)
    return failed


def setup_child(args):
    """Child process: set up, report the wall clock; optionally run one pass."""
    w = load_workload(args, args.workdir)
    ready = time.time()
    result = {"ready": ready}
    if args.one_pass:
        w.prepare()
        result["failed"] = run_pass(w)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def measure_setup(args, base_dir):
    """setup_s samples and the peak RSS of one pass, each in a fresh interpreter."""
    samples, rss_mb, failed = [], None, 0
    n = SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
    for k in range(n):
        workdir = os.path.join(base_dir, "setup-%d" % k)
        os.makedirs(workdir)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--workdir", workdir]
        if args.smoke:
            cmd.append("--smoke")
        if k == 0:
            cmd.append("--one-pass")
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed:\n" + proc.stderr[-2000:])
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(child["ready"] - start)
        if k == 0:
            rss_mb = child["maxrss_kb"] / 1024.0
            failed = child["failed"]
    return samples, rss_mb, failed


def end_to_end(args, w, base_dir):
    samples, rss_mb, failed = measure_setup(args, base_dir)
    attempted = w.items  # the set-up child's pass
    start = time.perf_counter()
    # warm-up: right after the set-up children, a pass runs up to a third slower
    failed += run_pass(w)
    attempted += w.items
    unit_times = [[] for _ in w.units]
    cal_times = []
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        failed += run_pass(w, unit_times, cal_times=cal_times)
        attempted += w.items
        passes += 1
    # means, not medians: the host switches between a fast and a slow state
    # within a run, and a pass's time sums both, as the mean does; the median
    # of a two-state sample jumps between the states
    raw = w.items / sum(statistics.fmean(ts) for ts in unit_times)
    speed = statistics.fmean(cal_times) / w.CAL_REF_S  # > 1: host slower than reference
    metrics = {
        "setup_s": statistics.median(samples),
        "items_per_s": raw * speed,
        "peak_rss_mb": rss_mb,
    }
    detail = {"setup_samples_s": samples, "timed_passes": passes,
              "unit_times_s": unit_times, "items_per_pass": w.items,
              "raw_items_per_s": raw, "calibration_s": cal_times, "slowdown": speed}
    return metrics, attempted, failed, detail


def _per_call(table, name, scale, key="total_s"):
    row = table.get(name)
    if not row or row["calls"] == 0:
        return 0.0
    return row[key] / row["calls"] * scale


def layer_metrics(w, tracers, untraced, traced, pool_speedup):
    """Per-layer metrics from the spans and probes of the traced passes."""
    import numpy as np
    from tracing import TRACED
    from workloads import CHECK_MARGIN

    table = {}
    for t in tracers:
        for name, row in t.table().items():
            acc = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    npass = len(tracers)
    items = w.items

    def calls(name):
        return table.get(name, {}).get("calls", 0) / npass

    def probes(name):
        return [(t, idx, value) for t in tracers for idx, value in t.probes.get(name, [])]

    def self_per_item(name, scale):
        row = table.get(name)
        return row["self_s"] / (npass * items) * scale if row else 0.0

    m = {}
    m["cli.sweep.self_ms_per_point"] = self_per_item("cli.sweep", 1e3)
    m["cli.set_param.calls"] = calls("cli.set_param")
    m["cli.spectrum.self_ms_per_freq"] = self_per_item("cli.spectrum", 1e3)
    m["cli.sweep.pool_speedup_w2"] = pool_speedup
    m["config.parse_spec.calls"] = calls("config.parse_spec")
    m["model.build_drift.calls"] = calls("model.build_drift")
    m["model.build_drift.us_per_call"] = _per_call(table, "model.build_drift", 1e6)
    m["steadystate.stability_check.calls_per_point"] = calls("steadystate.stability_check") / items
    m["steadystate.stability_check.us_per_call"] = _per_call(
        table, "steadystate.stability_check", 1e6)

    by_n, residuals = {}, []
    for t, idx, (drift, v) in probes("steadystate.lyapunov_solve"):
        span = t.spans[idx]
        by_n.setdefault(drift.spec.n_mech, []).append(span[2] - span[1])
        r = drift.a @ v + v @ drift.a.T + drift.q
        residuals.append(float(np.abs(r).max() / np.abs(drift.q).max()))
    for n in (2, 4, 8, 16):
        ts = by_n.get(n)
        m["steadystate.lyapunov_solve.ms_per_call.N%d" % n] = (
            1e3 * sum(ts) / len(ts) if ts else 0.0)
    m["steadystate.phonon_numbers.self_us_per_call"] = _per_call(
        table, "steadystate.phonon_numbers", 1e6, "self_s")
    verdicts = [value for _, _, value in probes("steadystate.cool_or_flag")]
    m["steadystate.unstable_frac"] = (verdicts.count(False) / len(verdicts)
                                      if verdicts else 0.0)
    rejected = [a for t in tracers for kind, a in t.errors.get("steadystate.lyapunov_solve", [])
                if kind == "Unstable"]
    m["steadystate.verdict_mismatch"] = sum(1 for a in rejected if a < CHECK_MARGIN) / npass
    m["steadystate.max_rel_residual"] = max(residuals) if residuals else 0.0

    m["numkit.solve_linear.calls"] = calls("numkit.solve_linear")
    m["numkit.solve_linear.ms_per_call"] = _per_call(table, "numkit.solve_linear", 1e3)
    m["numkit.eigenvalues.calls"] = calls("numkit.eigenvalues")
    dims = [value for _, _, value in probes("numkit.solve_linear")]
    m["numkit.solve_linear.max_dim"] = max(dims) if dims else 0
    m["numkit.kron.bytes_computed"] = sum(v for _, _, v in probes("numkit.kron")) / npass

    m["spectra.scan_point.us_per_call"] = _per_call(table, "spectra.scan_point", 1e6)
    m["spectra.scattering_matrix.us_per_call"] = _per_call(
        table, "spectra.scattering_matrix", 1e6)

    m["kernels.rk4_lyapunov_flow.s_per_call"] = _per_call(
        table, "kernels.rk4_lyapunov_flow", 1.0)
    requested = sum(v for _, _, v in probes("kernels.rk4_lyapunov_flow"))
    m["kernels.rk4.steps_requested"] = requested / npass
    # the flow stops once converged: rate from the steps it ran (Oracle.predicted_steps)
    executed = npass * sum(u.get("steps", 0) for u in w.units)
    rk4_s = table.get("kernels.rk4_lyapunov_flow", {}).get("total_s", 0.0)
    m["kernels.rk4.steps_per_s"] = executed / rk4_s if rk4_s else 0.0
    m["kernels.oracle.max_rel_dev"] = w.stats["max_rel_dev"] if w.name == "oracle" else 0.0

    for layer in TRACED:
        m["%s.self_ms_per_item" % layer] = 1e3 * sum(
            row["self_s"] for name, row in table.items()
            if name.split(".")[0] == layer) / (npass * items)
    # bench.unit's self time is the benchmark's call and whatever no wrapper
    # covers (click dispatch, output capture)
    unit = table["bench.unit"]
    m["trace.self_coverage_frac"] = 1.0 - unit["self_s"] / unit["total_s"]
    m["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m, table


def pool_pass(w):
    """Time the landscape sweep with --workers 2; check its output. (seconds, failed)"""
    import workloads
    unit = w.units[0]
    argv = list(unit["argv"])
    argv[argv.index("--workers") + 1] = "2"
    t0 = time.perf_counter()
    out = workloads.invoke(argv)
    dt = time.perf_counter() - t0
    return dt, w.check(0, out)


def per_layer(args, w, base_dir):
    from tracing import Tracer, write_spans
    failed = attempted = 0
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(traced) < 3 or time.perf_counter() - start < args.seconds:
        times = [[] for _ in w.units]
        failed += run_pass(w, times)
        untraced.append(sum(ts[0] for ts in times))
        tracer = Tracer()
        times = [[] for _ in w.units]
        failed += run_pass(w, times, tracer)
        traced.append(sum(ts[0] for ts in times))
        tracers.append(tracer)
        attempted += 2 * w.items
    pool_speedup = 0.0
    if w.name == "landscape":
        dt, pool_failed = pool_pass(w)
        pool_speedup = statistics.median(untraced) / dt
        failed += pool_failed
        attempted += w.items
    metrics, table = layer_metrics(w, tracers, untraced, traced, pool_speedup)
    write_spans(tracers, os.path.join(OUT_DIR, "spans-%s-seed%d.csv" % (w.name, args.seed)))
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced,
              "span_table": table, "items_per_pass": w.items}
    return metrics, attempted, failed, detail


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "loopcool", "__init__.py")):
        print("error: no loopcool sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    base_dir = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(base_dir)
    try:
        w = load_workload(args, base_dir)
        w.prepare()
        import hostinfo
        host = hostinfo.host_facts(ROOT)
        measure = per_layer if args.trace else end_to_end
        values, attempted, failed, detail = measure(args, w, base_dir)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "host": host,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "stats": w.stats,
              "errors": w.errors, "detail": detail}
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print("# host: %s" % json.dumps(host, sort_keys=True))
    print("# workload %s, seed %d, %d items attempted, %d failed"
          % (args.workload, args.seed, attempted, failed))
    for message in w.errors:
        print("# failure: %s" % message)
    for key, entry in metrics.items():
        print("%-48s %16.6g %s" % (key, entry["value"], entry["unit"]))
    if "raw_items_per_s" in detail:
        print("%-48s %16.6g %s" % ("raw_items_per_s", detail["raw_items_per_s"], "1/s"))
    print("%-48s %16.6g %s" % ("failed_frac", failed / attempted, "1"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
