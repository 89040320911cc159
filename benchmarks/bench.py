"""Bench file for performance claims: whole-run wall times and hot kernels.

    python3 benchmarks/bench.py --label change --out BENCH_<n>.json [--src DIR]

Measures, in this interpreter, with BLAS and OpenMP pinned to one thread:

- wall time of the default run and of the `disable_vos` run (seed 1),
  `REPEATS` times each, with their median;
- median time per call, over `MICRO_CALLS` calls, of
  `partition.fit_gmm_1d` on 2000 fixed losses that run to the iteration
  cap, `data.read_dataset_csv` of a 20k-row dataset CSV,
  `data.read_features_csv` of a 1k-row feature CSV (both 8 features,
  written by the measured tree's own writers), and `metrics.auroc` plus
  `metrics.fpr_at_95_tpr` on 1000 ID against 1000 OOD scores;
- the sha256 of each run's report (`default_run.report_sha256` is the
  seed-1 default digest), which must agree across repeats.

The result is stored under `runs[<label>]` of the output JSON; other
labels already in the file are kept, so measuring two source trees
(`--src` of each) into one file puts their numbers side by side.
Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GMM_N = 2000
DATASET_ROWS = 20_000
FEATURE_ROWS = 1000
SCORES = 1000
MICRO_CALLS = 21
REPEATS = 3


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "omp_threads": os.environ["OMP_NUM_THREADS"]}


def _time_runs(noisylab, **overrides) -> dict:
    walls, digests = [], set()
    for _ in range(REPEATS):
        config = noisylab.RunConfig(seed=1, **overrides)
        start = time.perf_counter()
        report = noisylab.run_experiment(config)
        walls.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(report.canonical_json()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"report digest changed between repeats: {sorted(digests)}")
    return {"wall_s": walls, "median_s": statistics.median(walls),
            "report_sha256": digests.pop()}


def _median_ms(call) -> tuple:
    """(median milliseconds per call over MICRO_CALLS calls, the last result)."""
    times = []
    for _ in range(MICRO_CALLS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), result


def _time_gmm_fit(np, partition) -> dict:
    # skewed, unimodal losses: the fit runs to the 100-iteration cap, as 25
    # of the 60 fits of the seed-1 default run do
    losses = np.random.default_rng(0).beta(2.0, 5.0, GMM_N)
    median_ms, gmm = _median_ms(lambda: partition.fit_gmm_1d(losses))
    return {"n": GMM_N, "fits": MICRO_CALLS,
            "em_iters": len(gmm.log_likelihood_history) - 1, "median_ms": median_ms}


def _time_csv_reads(np, data) -> dict:
    dataset = data.generate(data.SyntheticSpec(n_samples=DATASET_ROWS, input_dim=8, seed=0))
    features = np.random.default_rng(0).normal(size=(FEATURE_ROWS, 8))
    with tempfile.TemporaryDirectory() as tmp:
        dataset_csv, features_csv = Path(tmp) / "test.csv", Path(tmp) / "ood.csv"
        data.write_dataset_csv(dataset, dataset_csv)
        data.write_features_csv(features, features_csv)
        dataset_ms, _ = _median_ms(lambda: data.read_dataset_csv(dataset_csv))
        features_ms, _ = _median_ms(lambda: data.read_features_csv(features_csv))
    return {"read_dataset_csv": {"rows": DATASET_ROWS, "calls": MICRO_CALLS,
                                 "median_ms": dataset_ms},
            "read_features_csv": {"rows": FEATURE_ROWS, "calls": MICRO_CALLS,
                                  "median_ms": features_ms}}


def _time_ood_metrics(np, metrics) -> dict:
    rng = np.random.default_rng(0)
    id_s, ood_s = rng.normal(1.0, 1.0, SCORES), rng.normal(0.0, 1.0, SCORES)
    median_ms, _ = _median_ms(lambda: (metrics.auroc(id_s, ood_s),
                                       metrics.fpr_at_95_tpr(id_s, ood_s)))
    return {"id": SCORES, "ood": SCORES, "calls": MICRO_CALLS, "median_ms": median_ms}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this measurement in the file")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the noisylab package to measure")
    parser.add_argument("--out", required=True, help="bench file to add this label to")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"  # BLAS reads it once, when numpy loads
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import noisylab
    from noisylab import data, metrics, partition

    if Path(noisylab.__file__).resolve().parent != src / "noisylab":
        raise SystemExit(f"imported noisylab from {noisylab.__file__}, not from {src}")

    result = {"environment": _environment(np),
              "fit_gmm_1d": _time_gmm_fit(np, partition),
              **_time_csv_reads(np, data),
              "auroc_fpr95": _time_ood_metrics(np, metrics),
              "default_run": _time_runs(noisylab),
              "disable_vos_run": _time_runs(noisylab, disable_vos=True)}

    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    bench["runs"][args.label] = result
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: result}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
