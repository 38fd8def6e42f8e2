"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/record.py --seeds 1-10 --trace 0 1 --out BENCH.json

For every workload in BENCHMARK.json, seed and trace setting it runs
perfbench/run.py for the file's run_seconds in a fresh process, keeps the JSON line that ends its output, and reports for
each metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median.  For end-to-end metrics the spread is compared
with a third of the bound in BENCHMARK.json.  The summary, every run's
values and the host facts of the first run go to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: one run's limit, from the benchmark contract
RUN_TIMEOUT_S = 900


def parse_seeds(raw):
    if "-" in raw:
        lo, hi = raw.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in raw.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("%s failed (exit %d):\n%s"
                           % (" ".join(cmd), proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall)
    result.update(scaling_detail(workload, seed, trace))
    return result


def scaling_detail(workload, seed, trace):
    """Unscaled throughput and the calibration slowdown from a run's result record."""
    path = os.path.join(ROOT, ".perfbench_out", "result-%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path) as fh:
        detail = json.load(fh)["detail"]
    return {k: detail[k] for k in ("raw_items_per_s", "slowdown") if k in detail}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, nargs="+", default=[0])
    p.add_argument("--out", required=True)
    p.add_argument("--append", action="store_true",
                   help="add these runs and summaries to an existing --out record")
    p.add_argument("--note", action="append", default=[],
                   help="free-text note stored with the record (repeatable)")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, summary = [], {}
    for trace in args.trace:
        for name in names:
            per_metric = {}
            for seed in parse_seeds(args.seeds):
                r = run_once(name, seed, seconds, trace)
                runs.append(r)
                print("%-9s trace=%d seed=%-3d wall=%5.1fs correct=%s %s" % (
                    name, trace, seed, r["wall_s"], r["correct"],
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items()
                             if k in bounds)), flush=True)
                for k, v in r["metrics"].items():
                    per_metric.setdefault(k, []).append(v["value"])
            for k, values in per_metric.items():
                s = summarise(values) if len(values) > 1 else {"median": values[0]}
                if k in bounds and s.get("spread") is not None:
                    s["bound"] = bounds[k]
                    s["within_third_of_bound"] = s["spread"] < bounds[k] / 3
                    print("  %-14s median=%-12.6g spread=%.4f bound/3=%.4f %s" % (
                        k, s["median"], s["spread"], bounds[k] / 3,
                        "ok" if s["within_third_of_bound"] else "WIDE"))
                summary.setdefault(name, {}).setdefault("trace%d" % trace, {})[k] = s

    host_file = os.path.join(ROOT, ".perfbench_out", "result-%s-seed%d-trace%d.json"
                             % (runs[0]["workload"], runs[0]["seed"], runs[0]["trace"]))
    with open(host_file) as fh:
        host = json.load(fh)["host"]
    record = {"seconds": seconds, "host": host, "notes": args.note,
              "summary": summary, "runs": runs}
    if args.append:
        with open(args.out) as fh:
            old = json.load(fh)
        for name, by_trace in summary.items():
            old["summary"].setdefault(name, {}).update(by_trace)
        old["runs"] += runs
        old["notes"] += args.note
        record = old
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
