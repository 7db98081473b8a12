"""scrbar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ar1_n300_bern --seed 0 --seconds 25 --trace 0

Run from the root of a scrbar checkout; scrbar is imported from its
``src/``.  With ``--trace 0`` the run times operations for ``--seconds``
seconds with no wrapper but the answer capture and prints the end-to-end
metrics.  With ``--trace 1`` it runs a fixed number of operations twice,
untraced and traced, and prints the per-layer metrics and the tracing
overhead.  Human-readable lines start with ``#``; the last line of standard
output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
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
OUT = ROOT / ".bench_out"
IMPORT_REPEATS = 3

# One BLAS/OpenMP thread: set before numpy is first imported, here and in
# the import-timing subprocesses.  OpenBLAS would otherwise start up to 64.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_seconds() -> float:
    """Time ``import scrbar.cli`` in a fresh interpreter, as a user pays it."""
    code = ("import time; t = time.perf_counter(); import scrbar.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"importing scrbar failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            **THREAD_ENV}


def percentile_summary(samples):
    """Median, plus the highest nearest-rank p99/p90/p75 that has at least
    ten samples above it."""
    n = len(samples)
    out = {"p50": statistics.median(samples), "n": n}
    ordered = sorted(samples)
    for q in (99, 90, 75):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            out[f"p{q}"] = ordered[rank - 1]
            break
    return out


def run_timed(wl, seconds: float) -> dict:
    from workloads import Tally
    spec = wl.spec
    wl.write_inputs()
    imports = [_import_seconds() for _ in range(IMPORT_REPEATS)]
    calibrations = [wl.setup() for _ in range(spec.setup_repeats)]
    setup_s = statistics.median(imports) + (statistics.median(calibrations)
                                            if calibrations else 0.0)
    tally = Tally(spec, wl.seed)
    times = []
    with wl.capture.installed():
        start, cpu_start = time.perf_counter(), time.process_time()
        # start another operation only while it is expected to end near the
        # deadline, so runs last about --seconds whatever an operation costs
        while not times or (time.perf_counter() - start
                            + statistics.median(times) / 2 < seconds):
            res = wl.run_op(len(times))
            tally.add(len(times), res)
            times.append(res.seconds)
        cpu_share = (time.process_time() - cpu_start) / (time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_anchor(wl, tally)
    summ = percentile_summary(times)
    rate = len(times) / sum(times)
    high = "".join(f", {k}={v:.4f} s" for k, v in summ.items() if k not in ("p50", "n"))
    print(f"# setup_s={setup_s:.4f} s (import median {statistics.median(imports):.4f} s "
          f"of {imports}; calibration {calibrations})")
    print(f"# {spec.op}s_per_s={rate:.4f} 1/s  "
          f"{spec.op}_s.p50={summ['p50']:.4f} s{high} (n={summ['n']})  "
          f"peak_rss_mb={peak_rss_mb:.1f} MB")
    print(f"# op seconds {[round(t, 4) for t in times]}; CPU time / wall time "
          f"{cpu_share:.3f}")
    tally.report()
    return tally.result({
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_s.p50": {"value": summ["p50"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    })


def run_traced(wl) -> dict:
    """Fixed operations, each run untraced and traced (alternating which
    goes first), so every count repeats exactly on a seed and the pairs give
    the tracing overhead."""
    import tracing
    from workloads import Tally
    spec = wl.spec
    wl.write_inputs()
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        wl.setup()
    tally = Tally(spec, wl.seed)
    tracer = tracing.Tracer()
    plain = traced = 0.0
    with wl.capture.installed():
        for i in range(spec.trace_ops):
            if i % 2:
                plain += wl.run_op(i).seconds
            with tracer.installed():
                res = wl.run_op(i)
            if not i % 2:
                plain += wl.run_op(i).seconds
            traced += res.seconds
            tally.add(i, res)
    check_anchor(wl, tally)
    metrics = tracing.op_metrics(tracer, spec.trace_ops)
    metrics.update(tracing.setup_metrics(setup_tracer))
    metrics["trace.overhead_s"] = (traced - plain) / spec.trace_ops
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{spec.name}_seed{wl.seed}.jsonl"
    with open(trace_file, "w", encoding="utf-8") as fh:
        for phase, tr in (("setup", setup_tracer), ("ops", tracer)):
            for i, span in enumerate(tr.spans):
                fh.write(json.dumps({"phase": phase, **span.as_dict(i)}) + "\n")
    print(f"# traced {spec.trace_ops} operations: untraced {plain:.4f} s, "
          f"traced {traced:.4f} s; spans in {trace_file.relative_to(ROOT)}")
    for k in sorted(metrics):
        print(f"# {k} = {metrics[k]:.6g}")
    tally.report()
    units = layer_units()
    return tally.result({k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def check_anchor(wl, tally):
    """Compare one stored answer even when the run's seed has none."""
    from workloads import REFERENCE_SEEDS, anchor_result
    if not tally.ref_checked:
        res, ref = anchor_result(wl.spec, wl.seed, wl.work_dir / "anchor")
        tally.check(f"anchor seed {wl.seed % len(REFERENCE_SEEDS)} op 0", res, ref)


def layer_units() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def import_scrbar():
    """Pin BLAS threads, then import scrbar from this checkout's ``src/``."""
    os.environ.update(THREAD_ENV)
    if not (SRC / "scrbar" / "__init__.py").is_file():
        raise BenchError(f"no scrbar sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import scrbar
    if Path(scrbar.__file__).resolve().parent != SRC / "scrbar":
        raise BenchError(f"imported scrbar from {scrbar.__file__}, not {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        import_scrbar()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")

    work = OUT / f"work_{args.workload}_{args.seed}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print("# env " + json.dumps(environment()))
        wl = workloads.make(workloads.WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            result = run_traced(wl)
        else:
            result = run_timed(wl, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
