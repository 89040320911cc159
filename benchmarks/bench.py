"""Bench file for performance claims: whole-run wall times and the GMM fit.

    python3 benchmarks/bench.py --label change --out BENCH_<n>.json [--src DIR]

Measures, in this interpreter, with BLAS and OpenMP pinned to one thread:

- wall time of the default run and of the `disable_vos` run (seed 1),
  `REPEATS` times each, with their median;
- `partition.fit_gmm_1d` on 2000 fixed losses that run to the iteration
  cap, median time per fit;
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GMM_N = 2000
GMM_FITS = 21
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


def _time_gmm_fit(np, partition) -> dict:
    # skewed, unimodal losses: the fit runs to the 100-iteration cap, as 25
    # of the 60 fits of the seed-1 default run do
    losses = np.random.default_rng(0).beta(2.0, 5.0, GMM_N)
    times = []
    for _ in range(GMM_FITS):
        start = time.perf_counter()
        gmm = partition.fit_gmm_1d(losses)
        times.append(time.perf_counter() - start)
    return {"n": GMM_N, "fits": GMM_FITS,
            "em_iters": len(gmm.log_likelihood_history) - 1,
            "median_ms": 1e3 * statistics.median(times)}


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
    from noisylab import partition

    if Path(noisylab.__file__).resolve().parent != src / "noisylab":
        raise SystemExit(f"imported noisylab from {noisylab.__file__}, not from {src}")

    result = {"environment": _environment(np),
              "fit_gmm_1d": _time_gmm_fit(np, partition),
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
