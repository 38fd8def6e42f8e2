"""Self-test of the benchmark: each workload, at its smallest size, emits every metric.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_size_emits_every_metric(workload, trace):
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "0",
                      "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "landscape", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _inputs(seed, workdir):
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        d = workdir / name
        d.mkdir()
        w = cls(seed, str(d), smoke=True)
        w.prepare()
        out[name] = [(u.get("argv"), u["spec"]) for u in w.units]
        files = sorted(p for p in os.listdir(d) if p.endswith(".ini"))
        out[name].append([open(os.path.join(d, p)).read() for p in files])
    return out


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first, again, other = _inputs(5, a), _inputs(5, b), _inputs(6, c)

    def strip(inputs, d):  # the working directory appears in paths only
        return json.loads(json.dumps(inputs, default=repr).replace(str(d), "<dir>"))

    assert strip(first, a) == strip(again, b)
    for name in WORKLOADS:
        assert strip(first, a)[name] != strip(other, c)[name], name


def test_metric_map_covers_every_metric():
    with open(os.path.join(HERE, "metric_map.json")) as fh:
        mapping = json.load(fh)
    names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert set(mapping["metrics"]) == names
    for entry in mapping["metrics"].values():
        for move in entry["moves"]:
            assert move["metric"] in {m["name"] for m in BENCH["end_to_end"]}
            assert set(move["workloads"]) <= set(WORKLOADS)
