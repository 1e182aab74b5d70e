"""Schema tests of the benchmark on its tiny smoke configuration.

Run with ``python3 -m pytest bench``. Timings are never checked, only
the shape of every result and that its metric names are the ones
BENCHMARK.json declares.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# the end-to-end metrics each workload prints by name in its report
NAMED = {
    "train-fm-spont": {"train_step_ms.p50", "train_step_ms.p95", "train_sent_per_s",
                       "train_loss_tail"},
    "sample-nfe-spont": {"sample_nfe1_ms.p50", "sample_nfe10_ms.p50",
                         "sample_nfe32_ms.p50", "residual_nfe10"},
    "sample-cli-reps": {"cli_sample_ms.p50", "cli_real_per_s"},
}
COMMON = {"setup_s", "fail_ratio", "peak_rss_mb"}


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _results(stdout):
    """The per-workload JSON result lines of an ``all`` run, then its summary."""
    lines = [json.loads(l) for l in stdout.splitlines() if l.startswith("{")]
    return dict(zip(WORKLOADS, lines[:-1])), lines[-1]


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request):
    proc = _run("--workload", "all", "--seed", "5", "--seconds", "0",
                "--trace", str(request.param), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return request.param, proc.stdout


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_every_workload_reports_the_declared_metrics(smoke):
    trace, stdout = smoke
    per_workload, summary = _results(stdout)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(per_workload) == WORKLOADS
    for name, result in per_workload.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, name
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared], name
        for m in declared:
            got = result["metrics"][m["name"]]
            assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert summary["correct"] is True
    assert summary["attempted"] == sum(r["attempted"] for r in per_workload.values())


def test_reports_name_every_end_to_end_metric(smoke):
    trace, stdout = smoke
    for workload, names in NAMED.items():
        path = os.path.join(BENCH, "out", f"result-{workload}-seed5-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        assert COMMON | names <= set(record["named"]), workload
        assert record["named"]["fail_ratio"]["value"] == 0
        assert {"nproc", "blas", "python", "numpy", "OPENBLAS_NUM_THREADS",
                "DURFLOW_THREADS"} <= set(record["machine"])
        assert record["digests"]
        for name in COMMON | names:
            assert f"  {name} " in stdout


def test_traced_run_writes_spans(smoke):
    trace, _ = smoke
    if not trace:
        pytest.skip("spans are written by traced runs only")
    for workload in WORKLOADS:
        with open(os.path.join(BENCH, "out", f"spans-{workload}.jsonl"),
                  encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        assert spans
        for i, (name, start, end, parent, _) in enumerate(spans):
            assert start <= end and -1 <= parent < i


def test_refuses_oversubscribed_threads():
    env = dict(os.environ, DURFLOW_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "0",
                "--smoke", env=env)
    assert proc.returncode == 2
    assert "exceed nproc" in proc.stderr and not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip()
