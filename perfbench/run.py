"""Run one ppgp benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cv-tune --seed 0 --seconds 20 --trace 0

The run sets the workload up several times (each set-up starts a fresh
interpreter that imports ppgp, then builds the seeded inputs), warms up,
and then repeats whole cycles, each started after the previous one ended,
for as many as fit in ``--seconds``.  With ``--trace 0`` nothing is patched and
the end-to-end metrics are reported; with ``--trace 1`` plain and traced
cycles alternate and the per-layer metrics are reported, including the
tracing overhead.  Every cycle's outputs are checked.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results (environment, samples, failures and, for traced
runs, every span) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def benchmark_spec() -> dict:
    """BENCHMARK.json: workload reasons and metric units are read from it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def p95(values) -> float:
    """Nearest-rank 95th percentile (nan when there are no samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)] if ordered else math.nan


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def import_in_fresh_interpreter() -> None:
    """Start a new interpreter that imports ppgp, as each CLI call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import ppgp.cli"], env=env, check=True,
                   cwd=ROOT, timeout=120)


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var, "unset (library default)") for var in BLAS_THREAD_VARS},
        "seed": seed,
        "workload": name,
        "why": next(w["why"] for w in benchmark_spec()["workloads"] if w["name"] == name),
    }


def run(name: str, seed: int, seconds: float, trace: bool, params=None,
        workdir: Path | None = None) -> dict:
    """Set up, warm up and measure one workload; returns the full result."""
    from workloads import WORKLOADS, load_reference

    workdir = workdir or OUT / f"work-{name}-{seed}-{os.getpid()}"
    wl = WORKLOADS[name](seed, workdir, params,
                         reference=load_reference() if params is None else None)
    try:
        return _measure(wl, seed, seconds, trace, params)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(wl, seed, seconds, trace, params) -> dict:
    from tracer import Tracer

    # The first set-up and the warm-up are untimed: afterwards lazy imports,
    # BLAS start-up and glibc's adaptive mmap threshold are in the state the
    # timed phase runs in, and the timed set-ups see that state too.
    wl.setup()
    wl.warmup()
    wl.setup_train_s.clear()
    setup_s = []
    for _ in range(SETUP_REPS if params is None else 1):
        t0 = time.perf_counter()
        import_in_fresh_interpreter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    wl.prepare_checks()

    plain, traced, cpu_s, walls = [], [], [], []
    tracer = Tracer(on_return=wl.on_traced_return) if trace else None
    start = time.perf_counter()
    i = 0
    while True:
        c0, w0 = time.process_time(), time.perf_counter()
        if trace and i % 2 == 1:
            tracer.run_id = i
            with tracer:
                traced.append((i, wl.cycle()))
        else:
            plain.append(wl.cycle())
            cpu_s.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
        i += 1
        # Start another cycle only if one like the last two still fits.
        if i >= (2 if trace else 1) and (
                time.perf_counter() - start + max(walls[-2:]) > seconds):
            break

    tallies = plain + [t for _, t in traced]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "env": environment(wl.name, seed),
        "cycles": {"plain": len(plain), "traced": len(traced)},
        "samples": {
            "setup_s": setup_s,
            "busy_s": [t.busy_s for t in plain],
            "train_s": [s for t in plain for s in t.train_s] or wl.setup_train_s,
            "request_s": [s for t in plain for s in t.request_s],
        },
        "failures": [note for t in tallies for note in t.notes],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if not trace:
        s = result["samples"]
        result["metrics"] = {
            "setup_s": median(setup_s),
            "run_s": median(s["busy_s"]),
            "train_p50_s": median(s["train_s"]),
            "req_p50_ms": 1e3 * median(s["request_s"]),
            "req_p95_ms": 1e3 * p95(s["request_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_rmse": median([t.rmse for t in plain]),
            "ok_frac": 1.0 - failed / attempted,
        }
    else:
        per_cycle = [tracer.per_run(rid) for rid, _ in traced]
        metrics = {key: median([c[key] for c in per_cycle]) for key in per_cycle[0]}
        metrics.update(tracer.peaks_mb())
        metrics["proc.cpu_s"] = median(cpu_s)
        metrics["trace.overhead_s"] = (median([t.busy_s for _, t in traced])
                                       - median([t.busy_s for t in plain]))
        result["metrics"] = metrics
        result["spans"] = tracer.spans
    return result


def report(result: dict, trace: bool) -> str:
    """Human-readable lines, then the one-line JSON summary."""
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"# {key}={value}" for key, value in result["env"].items()]
    lines.append(f"# cycles plain={result['cycles']['plain']} "
                 f"traced={result['cycles']['traced']}")
    s = result["samples"]
    lines.append(f"# samples setup={len(s['setup_s'])} cycles={len(s['busy_s'])} "
                 f"trainings={len(s['train_s'])} requests={len(s['request_s'])}")
    if not trace:
        lines.append(f"{'failed_frac':<48} {result['failed'] / result['attempted']:.6g} fraction")
    for metric, value in result["metrics"].items():
        lines.append(f"{metric:<48} {value:.6g} {units[metric]}")
    for note in result["failures"][:20]:
        lines.append(f"# FAILED {note}")
    lines.append(f"# attempted={result['attempted']} failed={result['failed']} "
                 f"correct={result['correct']}")
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": None if math.isnan(value) else value,
                     "unit": units[metric]}
            for metric, value in result["metrics"].items()
        },
    }
    lines.append(json.dumps(summary))
    return "\n".join(lines)


def save(result: dict, name: str, seed: int, trace: bool) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with gzip.open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json.gz", "wt",
                   encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cv-tune", "train-large", "predict-serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ppgp" / "__init__.py").is_file():
        print(f"error: no ppgp sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    save(result, args.workload, args.seed, bool(args.trace))
    print(report(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
