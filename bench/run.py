"""durflow benchmark: one workload per process, last stdout line is JSON.

    python3 bench/run.py --workload train-fm-spont --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
records spans (every other timed operation, and every set-up) and prints
the per-layer metrics. ``all`` runs each workload in its own process
and prints every report. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; exit 2 with one error line."""


def import_durflow():
    """Import durflow from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import durflow
    except ImportError as exc:
        raise BenchError(f"cannot import durflow from {SRC}: {exc}")
    where = os.path.abspath(durflow.__file__)
    if not where.startswith(os.path.join(SRC, "")):
        raise BenchError(f"durflow imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# machine context


def _blas_threads(nproc: int) -> tuple:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn(), "library"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var]), var
    return nproc, "nproc"


def machine_context() -> dict:
    import numpy as np
    from durflow.evaluation import worker_count
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = _blas_threads(nproc)
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas_threads": threads,
        "blas_threads_from": source,
        "DURFLOW_THREADS": os.environ.get("DURFLOW_THREADS", "unset"),
        "durflow_workers": worker_count(),
    }


def check_machine(ctx: dict):
    """Python workers times BLAS threads beyond the cores oversubscribes them."""
    if ctx["durflow_workers"] * ctx["blas_threads"] > ctx["nproc"]:
        raise BenchError(
            f"{ctx['durflow_workers']} durflow workers x {ctx['blas_threads']} BLAS "
            f"threads exceed nproc={ctx['nproc']}; lower DURFLOW_THREADS or "
            "OPENBLAS_NUM_THREADS")


# ---------------------------------------------------------------------------
# one workload


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(args) -> int:
    import_durflow()
    ctx = machine_context()
    check_machine(ctx)

    import spans
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    spec = load_spec()
    trace = args.trace == 1
    clock = spans.StepClock()
    tracer = spans.Tracer() if trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        with spans.instrument(clock, tracer):
            setup_s = []
            for k in range(scale.setups):
                start = time.perf_counter()
                with (tracer.span("bench.setup") if trace else contextlib.nullcontext()):
                    setup = workloads.set_up(scale, args.seed, os.path.join(workdir, f"s{k}"))
                setup_s.append(time.perf_counter() - start)
            outcome = workloads.WORKLOADS[args.workload](
                setup, scale, args.seed, args.seconds, clock, tracer)
    except workloads.SetupError as exc:
        raise BenchError(f"set-up failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named = {"setup_s": (statistics.median(setup_s), "s", len(setup_s)),
             "fail_ratio": (outcome.failed / outcome.attempted, "ratio", outcome.attempted),
             "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MB", 1)}
    named.update(outcome.metrics)

    if trace:
        per_layer = spans.per_layer_metrics(tracer, outcome.traced_ops, workloads.BATCH,
                                            outcome.trace_overhead)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
        reported = {m["name"]: (per_layer[m["name"]], m["unit"])
                    for m in spec["per_layer"]}
    else:
        shared = dict(workloads.SHARED_NAMES[args.workload],
                      setup_s="setup_s", peak_rss_mb="peak_rss_mb")
        reported = {m["name"]: (named[shared[m["name"]]][0], m["unit"])
                    for m in spec["end_to_end"]}
    missing = [name for name, (value, _) in reported.items() if value is None]
    if missing:
        raise BenchError(f"no successful operation to measure {', '.join(missing)}: "
                         f"{outcome.failures[:3]}")

    print("machine " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1")
    for name, (value, unit, samples) in named.items():
        print(f"  {name:<24} {_fmt(value):>12} {unit:<7} n={samples}")
    for name, digest in outcome.digests.items():
        print(f"  digest {name:<17} {digest}")
    if trace:
        for name, (value, unit) in reported.items():
            print(f"  {name:<40} {_fmt(value):>12} {unit}")
    for message in outcome.failures[:5]:
        print(f"  failed: {message}")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=ctx, digests=outcome.digests,
                  timings=outcome.timings,
                  named={k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in named.items()})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads_names():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def workloads_names():
    return [w["name"] for w in load_spec()["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads_names() + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and model, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return run_all(args) if args.workload == "all" else run_workload(args)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
