"""noisylab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 45 --trace 0

Run from the repository root. With `--trace 0` every operation runs
untraced, followed by passes of the reference kernel (reference.py), and
the last stdout line is a JSON object with the end-to-end metrics listed
in BENCHMARK.json; with `--trace 1` untraced and traced operations
alternate and the line carries the per-layer metrics. The
lines before it are for people: environment, report digests, every
metric with its unit and the error rate. Spans of the traced operations
are written to perfbench/out/.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_TRIALS = 7
# reference-kernel time after each operation, as a share of the operation's
REFERENCE_SHARE = 0.15

E2E_UNITS = {
    "wall_s": "s", "wall_s.tail": "s", "wall_rel": "ref", "ref_s": "s",
    "rows_per_s": "rows/s", "setup_s": "s",
    "peak_rss_mb": "MiB", "error_rate": "ratio", "final_test_accuracy": "ratio",
    "selection_f1": "ratio", "far_auroc": "ratio", "near_auroc": "ratio",
    "far_fpr95": "ratio", "near_fpr95": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "omp_threads": os.environ["OMP_NUM_THREADS"]}


def import_noisylab():
    """Import noisylab from this checkout's src/ and nowhere else."""
    if not (SRC / "noisylab" / "__init__.py").is_file():
        raise BenchError(f"no noisylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import noisylab

    if Path(noisylab.__file__).resolve().parent != (SRC / "noisylab").resolve():
        raise BenchError(f"imported noisylab from {noisylab.__file__}, not from {SRC}")
    import noisylab.cli  # noqa: F401  (workloads call it through sys.modules)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead; the note says which.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of n={n}, 10 samples beyond"
    return ordered[-1], f"max of n={n} (fewer than 20 samples)"


def setup_seconds(workload) -> list[float]:
    """Fresh-interpreter set-up times: one warm trial, then SETUP_TRIALS timed."""
    code = workload.setup_code.format(src=str(SRC), seed=workload.seed)
    times = []
    for _ in range(SETUP_TRIALS + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def measure(workload, seconds: float, tracer, kernel):
    """Run operations for about `seconds` (at least one of each kind).

    Another operation starts while the time so far plus half the median
    operation time stays below `seconds`, so a run measures `seconds` on
    average instead of overrunning by up to one operation.

    Without a tracer, operation i works on input set i. With one, input
    set k runs untraced and then traced, and the run ends on a traced
    operation, so walls and tracer.op_walls pair up. Operations on the
    same input set must give the same report digests. With a kernel,
    each operation is followed by kernel passes that take
    REFERENCE_SHARE of its time.
    Returns (untraced walls, {input set: result}, attempted, failed,
    kernel pass times).
    """
    walls, results, kernel_times = [], {}, []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        k = i // 2 if tracer is not None else i
        attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.active() if traced else nullcontext():
                t0 = time.perf_counter()
                raw = workload.call(k)
                t1 = time.perf_counter()
            result = workload.check(raw)
        except Exception:  # an operation that raises is a failed operation
            t1 = time.perf_counter()
            traceback.print_exc()
            result = None
        finally:
            workload.cleanup(k)
        (tracer.op_walls if traced else walls).append(t1 - t0)
        if kernel is not None:
            kernel_times += kernel.run_for(REFERENCE_SHARE * (t1 - t0))
        if result is not None and k in results and result.digests != results[k].digests:
            result.problems.append("report digests differ from the untraced operation's")
        if result is None or result.problems:
            failed += 1
            for p in (result.problems if result else []):
                print(f"check failed ({workload.name} op {i}): {p}", file=sys.stderr)
        if result is not None:
            results.setdefault(k, result)
        i += 1
        half_op = statistics.median(walls + (tracer.op_walls if tracer else [])) / 2
        if (time.perf_counter() - start + half_op >= seconds
                and (tracer is None or traced)):
            return walls, results, attempted, failed, kernel_times


def end_to_end(walls, results, setups, kernel_times, attempted,
               failed) -> tuple[dict, list[str]]:
    """Timings over every operation; quality of input set 0, the benchmark seed's."""
    value, tail_note = tail(walls)
    rows = statistics.median(r.rows for r in results.values()) if results else 0
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s.tail": value,
        "wall_rel": statistics.median(walls) / statistics.median(kernel_times),
        "ref_s": statistics.median(kernel_times),
        "rows_per_s": rows / statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
    }
    quality = results[0].quality if 0 in results else {}
    for name in ("final_test_accuracy", "selection_f1", "far_auroc", "near_auroc",
                 "far_fpr95", "near_fpr95"):
        metrics[name] = quality.get(name, float("nan"))
    notes = [f"wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}",
             f"wall_s.tail: {tail_note}",
             f"ref_s: median of {len(kernel_times)} reference-kernel passes",
             f"setup_s: median of {len(setups)} fresh interpreters "
             f"({', '.join(f'{s:.4f}' for s in setups)})"]
    return metrics, notes


def select(metrics: dict, units: dict, declared: list[dict]) -> dict:
    """The BENCHMARK.json metrics, each with the unit the benchmark computes."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in metrics:
            raise BenchError(f"BENCHMARK.json names {name!r}, which this run does not compute")
        if units[name] != spec["unit"]:
            raise BenchError(f"{name}: unit {units[name]!r} here, {spec['unit']!r} declared")
        out[name] = {"value": metrics[name], "unit": units[name]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_noisylab()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import reference  # these import numpy, so only after the threads are pinned
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")

    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setups = setup_seconds(workload) if not args.trace else []
        workload.prepare()
        reference.run_once()  # warm
        tracer = spans.Tracer() if args.trace else None
        kernel = None if args.trace else reference
        walls, results, attempted, failed, kernel_times = measure(
            workload, args.seconds, tracer, kernel)
    except Exception as exc:  # set-up or fixtures failed: no result to report
        traceback.print_exc()
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_ops = len(walls) + (len(tracer.op_walls) if tracer else 0)
    print(f"workload {args.workload} seed {args.seed}: {n_ops} operations, "
          f"{failed} failed, error_rate {failed / attempted:.4f}")
    for k, r in sorted(results.items()):
        for d in r.digests:
            print(f"report sha256 ({args.workload}, seed {workload.input_seed(k)}): {d}")
    try:
        if args.trace:
            out = report_layers(tracer, walls, declared["per_layer"], args, env, workload)
        else:
            out = report_end_to_end(walls, results, setups, kernel_times, attempted,
                                    failed, declared["end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def report_end_to_end(walls, results, setups, kernel_times, attempted, failed,
                      declared) -> dict:
    metrics, notes = end_to_end(walls, results, setups, kernel_times, attempted, failed)
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"  {name:22s} {value:.6g} {E2E_UNITS[name]}")
    return select(metrics, E2E_UNITS, declared)


def report_layers(tracer, walls, declared, args, env, workload) -> dict:
    layer = tracer.per_layer(walls)
    units = {name: unit for name, (unit, _) in spans.per_layer_units().items()}
    out = select(layer, units, declared)
    n = len(tracer.op_walls)
    for k, c in enumerate(tracer.op_counts):
        if c["em_fits"]:
                print(f"partition.em_capped (seed {workload.input_seed(k)}): "
                  f"{c['em_capped']} of {c['em_fits']} GMM fits")
    print("largest self times per operation:")
    ranked = sorted((k for k in layer if k.endswith(".self_s")), key=layer.get, reverse=True)
    for k in ranked[:8]:
        print(f"  {k:48s} {layer[k]:.6g} s")
    for name, _, _ in spans.COUNTERS:
        print(f"  {name:48s} {layer[name]:.6g} {units[name]}")
    trace_dir = BENCH_DIR / "out"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                        "traced_ops": n})
    print(f"spans written to {path.relative_to(ROOT)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
