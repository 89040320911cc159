"""Bench file for performance claims: whole-run wall times and hot kernels.

    python3 benchmarks/bench.py --out BENCH_<n>.json --src parent=DIR --src change=DIR

Each `--src LABEL=DIR` names a directory holding a noisylab package. The
trees' repeats alternate, `REPEATS` rounds of one repeat per tree, the
order rotating each round (A B, B A, A B, ...), and every repeat runs in
a fresh child interpreter with BLAS and OpenMP pinned to one thread. So a
slow minute of a shared host falls on both trees alike instead of reading
as a code difference. One repeat measures, in this order:

- wall time of the default run and of the `disable_vos` run (seed 1),
  first, as `noisylab train` runs in a fresh process, and the sha256 of
  each report, which must agree across a tree's repeats;
- time per call of `partition.fit_gmm_1d` on 2000 fixed losses that run
  to the iteration cap; `nn.total_loss_and_grads` on a default-shaped
  batch (the default net, 128 labeled, 128 unlabeled and 128 contrast
  rows, 64 support rows and 64 outliers); `nn.ntxent_term` on 128 unit
  rows of width 32; `data.read_dataset_csv` of a 20k-row dataset CSV and
  `data.read_features_csv` of a 1k-row feature CSV (both 8 features,
  written by the measured tree's own writers); `harness.ood_scores` of
  two default-shaped nets on 20k rows; `metrics.auroc` plus
  `metrics.fpr_at_95_tpr` on 1000 ID against 1000 OOD scores;
- the `tracemalloc` peak (`peak_mb`, 10^6 bytes) of one more call of
  `read_dataset_csv` and of `ood_scores`, after their timed rounds.

Every time is also given relative to `perfbench/reference.py`'s fixed
numpy kernel (`run_once()`), as perfbench's `wall_rel` is, measured next
to it so that host drift slows both alike: a run sits between
`REFERENCE_PASSES` kernel passes on each side, and a kernel is timed in
`ROUNDS` rounds, each one kernel pass and then a batch of calls about as
long; its ms and rel are the medians over the rounds.

The file holds, per tree and entry, every repeat's ms and rel (and
peak_mb) and their medians, and for each later tree the ratios of its
medians to the first tree's, minus one (`vs_first`). Measured against itself,
a tree shows the tool's own noise there. Uses numpy and the standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GMM_N = 2000
DATASET_ROWS = 20_000
FEATURE_ROWS = 1000
SCORES = 1000
NTXENT_ROWS, NTXENT_WIDTH = 128, 32
ROUNDS = 9
REFERENCE_PASSES = 2
REPEATS = 15
MEASURED = ("ms", "rel", "peak_mb")  # per-repeat values; any other entry key is a fixed fact
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "omp_threads": os.environ["OMP_NUM_THREADS"]}


def _time_kernel(reference, call) -> tuple[dict, object]:
    """({ms, rel} per call of call, the last result), over ROUNDS kernel-paired rounds."""
    start = time.perf_counter()
    result = call()
    calls = max(1, round(reference.run_once() / (time.perf_counter() - start)))
    ms, rel = [], []
    for _ in range(ROUNDS):
        ref_s = reference.run_once()
        start = time.perf_counter()
        for _ in range(calls):
            result = call()
        per_call = (time.perf_counter() - start) / calls
        ms.append(1e3 * per_call)
        rel.append(per_call / ref_s)
    return {"ms": statistics.median(ms), "rel": statistics.median(rel)}, result


def _peak_mb(call) -> float:
    """The tracemalloc peak of one call of call, in 10^6 bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _time_run(reference, noisylab, **overrides) -> dict:
    config = noisylab.RunConfig(seed=1, **overrides)
    ref_s = [reference.run_once() for _ in range(REFERENCE_PASSES)]
    start = time.perf_counter()
    report = noisylab.run_experiment(config)
    run_s = time.perf_counter() - start
    ref_s += [reference.run_once() for _ in range(REFERENCE_PASSES)]
    return {"ms": 1e3 * run_s, "rel": run_s / statistics.median(ref_s),
            "report_sha256": hashlib.sha256(report.canonical_json()).hexdigest()}


def _time_gmm_fit(reference, np, partition) -> dict:
    # skewed, unimodal losses: the fit runs to the 100-iteration cap, as 25
    # of the 60 fits of the seed-1 default run do
    losses = np.random.default_rng(0).beta(2.0, 5.0, GMM_N)
    timing, gmm = _time_kernel(reference, lambda: partition.fit_gmm_1d(losses))
    return {**timing, "em_iters": len(gmm.log_likelihood_history) - 1}


def _time_total_loss(reference, np, noisylab, nn) -> dict:
    cfg = noisylab.RunConfig()
    rng = np.random.default_rng(0)
    net = nn.build_network(cfg.input_dim, cfg.n_classes, hidden=cfg.hidden_dims,
                           projection_dim=cfg.projection_dim, rng=rng)
    rows = 2 * cfg.batch_size  # two weak views (labeled) or n_aug views (unlabeled)
    batch = nn.TotalLossBatch(
        labeled_inputs=rng.normal(size=(rows, cfg.input_dim)),
        labeled_targets=rng.dirichlet(np.ones(cfg.n_classes), size=rows),
        unlabeled_inputs=rng.normal(size=(rows, cfg.input_dim)),
        unlabeled_targets=rng.dirichlet(np.ones(cfg.n_classes), size=rows),
        contrast_views=rng.normal(size=(rows, cfg.input_dim)),
        support_inputs=rng.normal(size=(cfg.batch_size, cfg.input_dim)),
        outlier_features=rng.normal(size=(cfg.batch_size, net.feature_dim)),
        lambda_u=cfg.lambda_u, lambda_reg=cfg.lambda_reg, lambda_cl=cfg.lambda_cl,
        lambda_energy=cfg.lambda_energy, temperature=cfg.energy_temperature,
        contrast_temperature=cfg.contrast_temperature)
    return _time_kernel(reference, lambda: nn.total_loss_and_grads(net, batch))[0]


def _time_ntxent(reference, np, nn) -> dict:
    z = np.random.default_rng(0).normal(size=(NTXENT_ROWS, NTXENT_WIDTH))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return _time_kernel(reference, lambda: nn.ntxent_term(z, 0.5))[0]


def _time_csv_read(reference, np, data, kind) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        if kind == "dataset":
            data.write_dataset_csv(data.generate(data.SyntheticSpec(
                n_samples=DATASET_ROWS, input_dim=8, seed=0)), path)
            timing = _time_kernel(reference, lambda: data.read_dataset_csv(path))[0]
            return {**timing, "peak_mb": _peak_mb(lambda: data.read_dataset_csv(path))}
        data.write_features_csv(np.random.default_rng(0).normal(size=(FEATURE_ROWS, 8)), path)
        return _time_kernel(reference, lambda: data.read_features_csv(path))[0]


def _time_ood_scores(reference, np, noisylab, nn, harness) -> dict:
    cfg = noisylab.RunConfig()
    rng = np.random.default_rng(0)
    nets = [nn.build_network(cfg.input_dim, cfg.n_classes, hidden=cfg.hidden_dims,
                             projection_dim=cfg.projection_dim, rng=rng) for _ in range(2)]
    inputs = rng.normal(size=(DATASET_ROWS, cfg.input_dim))
    timing = _time_kernel(reference, lambda: harness.ood_scores(nets, inputs))[0]
    return {**timing, "peak_mb": _peak_mb(lambda: harness.ood_scores(nets, inputs))}


def _time_ood_metrics(reference, np, metrics) -> dict:
    rng = np.random.default_rng(0)
    id_s, ood_s = rng.normal(1.0, 1.0, SCORES), rng.normal(0.0, 1.0, SCORES)
    return _time_kernel(reference, lambda: (metrics.auroc(id_s, ood_s),
                                            metrics.fpr_at_95_tpr(id_s, ood_s)))[0]


def _load_reference():
    """perfbench's reference kernel, imported read-only from this checkout."""
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _measure(src: Path) -> dict:
    """One repeat of the tree at src; runs in a fresh child interpreter."""
    for var in THREAD_VARS:
        os.environ[var] = "1"  # BLAS reads it once, when numpy loads
    sys.path.insert(0, str(src))
    import numpy as np

    import noisylab
    from noisylab import data, harness, metrics, nn, partition

    if Path(noisylab.__file__).resolve().parent != src / "noisylab":
        raise SystemExit(f"imported noisylab from {noisylab.__file__}, not from {src}")
    ref = _load_reference()
    entries = {"default_run": _time_run(ref, noisylab),
               "disable_vos_run": _time_run(ref, noisylab, disable_vos=True),
               "fit_gmm_1d": _time_gmm_fit(ref, np, partition),
               "total_loss_and_grads": _time_total_loss(ref, np, noisylab, nn),
               "ntxent_term": _time_ntxent(ref, np, nn),
               "read_dataset_csv": _time_csv_read(ref, np, data, "dataset"),
               "read_features_csv": _time_csv_read(ref, np, data, "features"),
               "ood_scores": _time_ood_scores(ref, np, noisylab, nn, harness),
               "auroc_fpr95": _time_ood_metrics(ref, np, metrics)}
    return {"environment": _environment(np), "entries": entries}


def _run_child(src: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(src)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"repeat of {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _summarize(repeats: list[dict]) -> dict:
    """Per entry: every repeat's MEASURED values, their medians, and the entry's fixed facts."""
    out = {}
    for name in repeats[0]["entries"]:
        values = [r["entries"][name] for r in repeats]
        entry = {}
        for key in values[0]:
            if key in MEASURED:
                entry[key] = [v[key] for v in values]
                entry[f"median_{key}"] = statistics.median(entry[key])
            else:
                facts = {v[key] for v in values}
                if len(facts) != 1:
                    raise SystemExit(f"{name}.{key} changed between repeats: {sorted(facts)}")
                entry[key] = facts.pop()
        out[name] = entry
    return out


def _tree(spec: str) -> tuple[str, Path]:
    label, sep, path = spec.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {spec!r}")
    return label, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=_tree, action="append", metavar="LABEL=DIR",
                        help="a tree to measure: a label and the directory holding its "
                             "noisylab package (repeat the flag; the first is the base)")
    parser.add_argument("--out", help="bench file to write")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_measure(args.child.resolve())))
        return 0
    if not args.src or not args.out:
        parser.error("--src and --out are required")
    labels = [label for label, _ in args.src]
    if len(set(labels)) != len(labels):
        parser.error(f"labels must differ: {labels}")

    repeats = {label: [] for label in labels}
    order = []
    for round_ in range(REPEATS):
        shift = round_ % len(args.src)
        for label, src in args.src[shift:] + args.src[:shift]:
            repeats[label].append(_run_child(src))
            order.append(label)
            print(f"round {round_ + 1}/{REPEATS}: {label} done", file=sys.stderr)

    runs = {label: _summarize(repeats[label]) for label in labels}
    base = runs[labels[0]]
    bench = {"environment": repeats[labels[0]][0]["environment"], "repeats": REPEATS,
             "order": order, "runs": runs,
             "vs_first": {label: {name: {key: entry[f"median_{key}"]
                                         / base[name][f"median_{key}"] - 1.0
                                         for key in MEASURED if key in entry}
                                  for name, entry in runs[label].items()}
                          for label in labels[1:]}}
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    for label in labels:
        print(f"{label}: " + ", ".join(
            f"{name} {e['median_ms']:.3f} ms ({e['median_rel']:.4g} ref"
            + (f", peak {e['median_peak_mb']:.2f} MB)" if "peak_mb" in e else ")")
            for name, e in runs[label].items()))
    for label, diffs in bench["vs_first"].items():
        print(f"{label} vs {labels[0]} (ms, rel[, peak_mb]): "
              + ", ".join(f"{name} " + " ".join(f"{100 * d[key]:+.1f}%" for key in d)
                          for name, d in diffs.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
