"""Bench file for kernel performance claims: source trees side by side in one process.

    python3 benchmarks/bench.py --out BENCH_<n>.json --src parent=DIR --src change=DIR

Each `--src LABEL=DIR` names a directory holding a noisylab package. All
trees run in this one interpreter: BLAS and OpenMP are pinned to one
thread before numpy loads, and each tree is imported as its own package,
`noisylab@LABEL`, whose relative imports resolve inside that tree. Then
one 8 MiB numpy block is allocated and freed. glibc raises its mmap
threshold to the largest mmapped block freed so far, and a two-epoch run
before the kernels gives the same readings as this free: so the kernels
are timed in a run's allocator state, not in whatever the setup left.
From a cold start (nothing large freed yet), `total_loss_and_grads` at
8df131b ran up to a third slower per call, and 2d424e2's gain over it
read −23 to −25% instead of −9 to −10%.

Ten kernels are timed: `partition.fit_gmm_1d` on 2000 fixed losses that
run to the iteration cap; `nn.total_loss_and_grads` on a default-shaped
batch (the default net, 128 labeled, 128 unlabeled and 128 contrast rows,
64 support rows and 64 outliers); `nn.sgd_step` of the default net with
the gradients of that batch, the default learning rate and weight decay,
and the momentum state that one untimed first step returns (so each tree
builds its own kind of state); `nn.softmax` of 256 logit rows of width 4
(a step's labeled and unlabeled rows); `nn.ntxent_term` on 128 unit rows of
width 32; `data.read_dataset_csv` of a 20k-row dataset CSV and
`data.read_features_csv` of a 1k-row feature CSV (both 8 features, written
once by the first tree's writers, so every tree reads the same bytes);
`harness.ood_scores` of two default-shaped nets on 20k rows;
`geometry.filter_outliers` of 10k candidates of width 8 (the default
`n_cand_cap` in the default feature space) against 4 class centroids;
`metrics.auroc` plus `metrics.fpr_at_95_tpr` on 1000 ID against 1000 OOD
scores. Each kernel runs `ROUNDS` rounds of one batch of calls (about
`BATCH_S` long) per tree, the tree order rotating each round (A B, B A,
...), so a slow second of a shared host falls on every tree alike.

The file holds, per tree and kernel, each round's ms per call and their
median; the EM iteration count of the fit (`em_iters`); and, for
`fit_gmm_1d`, `read_dataset_csv`, `ood_scores` and `filter_outliers`, the
`tracemalloc` peak of one call (`peak_mb`, 10^6 bytes), taken after all
timing. For
each later tree, `vs_first` gives per kernel the median over the rounds
of its time divided by the first tree's in the same round, minus one
(`ms`), and the number of rounds in which it was faster
(`faster_rounds`). Measured against itself, a tree shows the tool's own
noise there. Whole-run time is perfbench's (`train-default`,
`train-novos`), not this tool's. Uses numpy and the standard library
only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

GMM_N = 2000
DATASET_ROWS = 20_000
FEATURE_ROWS = 1000
SCORES = 1000
CANDIDATES, CENTROIDS, OUTLIER_RADIUS = 10_000, 4, 5.0  # about half accepted
NTXENT_ROWS, NTXENT_WIDTH = 128, 32
SOFTMAX_ROWS = 256
ROUNDS = 25
BATCH_S = 0.05
FREED_BLOCK_BYTES = 8 << 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def load_tree(label: str, src: Path):
    """The noisylab package in src, imported as its own package `noisylab@label`."""
    init = src / "noisylab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{label}: {src} holds no noisylab package")
    name = f"noisylab@{label}"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # before exec, so that its relative imports resolve in src
    spec.loader.exec_module(package)  # imports every timed module, through harness
    return package


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "omp_threads": os.environ["OMP_NUM_THREADS"]}


def _inputs(np, first, tmp: Path) -> dict:
    """The kernels' inputs, shared by every tree; the CSVs are written by the first tree."""
    cfg = first.RunConfig()
    rng = np.random.default_rng(0)
    rows = 2 * cfg.batch_size  # two weak views (labeled) or n_aug views (unlabeled)
    batch = {"labeled_inputs": rng.normal(size=(rows, cfg.input_dim)),
             "labeled_targets": rng.dirichlet(np.ones(cfg.n_classes), size=rows),
             "unlabeled_inputs": rng.normal(size=(rows, cfg.input_dim)),
             "unlabeled_targets": rng.dirichlet(np.ones(cfg.n_classes), size=rows),
             "contrast_views": rng.normal(size=(rows, cfg.input_dim)),
             "support_inputs": rng.normal(size=(cfg.batch_size, cfg.input_dim)),
             "outlier_features": rng.normal(size=(cfg.batch_size, cfg.hidden_dims[-1]))}
    z = np.random.default_rng(0).normal(size=(NTXENT_ROWS, NTXENT_WIDTH))
    dataset_csv, features_csv = tmp / "dataset.csv", tmp / "features.csv"
    first.data.write_dataset_csv(first.data.generate(first.data.SyntheticSpec(
        n_samples=DATASET_ROWS, input_dim=8, seed=0)), dataset_csv)
    first.data.write_features_csv(np.random.default_rng(0).normal(size=(FEATURE_ROWS, 8)),
                                  features_csv)
    scores = np.random.default_rng(0)
    # skewed, unimodal losses: the fit runs to the 100-iteration cap, as 25
    # of the 60 fits of the seed-1 default run do
    return {"losses": np.random.default_rng(0).beta(2.0, 5.0, GMM_N), "batch": batch,
            "logits": np.random.default_rng(0).normal(size=(SOFTMAX_ROWS, cfg.n_classes)),
            "z": z / np.linalg.norm(z, axis=1, keepdims=True),
            "dataset_csv": dataset_csv, "features_csv": features_csv,
            "ood_rows": rng.normal(size=(DATASET_ROWS, cfg.input_dim)),
            "candidates": rng.normal(scale=2.0, size=(CANDIDATES, cfg.hidden_dims[-1])),
            "centroids": rng.normal(size=(CENTROIDS, cfg.hidden_dims[-1])),
            "id_scores": scores.normal(1.0, 1.0, SCORES),
            "ood_scores": scores.normal(0.0, 1.0, SCORES)}


def _calls(np, tree, inputs: dict) -> dict:
    """The ten kernels of one tree, as calls on the shared inputs."""
    cfg, nn = tree.RunConfig(), tree.nn
    rng = np.random.default_rng(0)
    net, sgd_net, *ood_nets = [nn.build_network(cfg.input_dim, cfg.n_classes,
                                                hidden=cfg.hidden_dims,
                                                projection_dim=cfg.projection_dim, rng=rng)
                               for _ in range(4)]
    batch = nn.TotalLossBatch(
        **inputs["batch"], lambda_u=cfg.lambda_u, lambda_reg=cfg.lambda_reg,
        lambda_cl=cfg.lambda_cl, lambda_energy=cfg.lambda_energy,
        temperature=cfg.energy_temperature, contrast_temperature=cfg.contrast_temperature)
    grads = nn.total_loss_and_grads(sgd_net, batch)[2]
    state = nn.sgd_step(sgd_net, grads, cfg.lr, cfg.weight_decay, cfg.momentum, state=None)
    id_s, ood_s = inputs["id_scores"], inputs["ood_scores"]
    centroids = tree.geometry.CentroidSet(np.arange(CENTROIDS), inputs["centroids"])
    return {"fit_gmm_1d": lambda: tree.partition.fit_gmm_1d(inputs["losses"]),
            "total_loss_and_grads": lambda: nn.total_loss_and_grads(net, batch),
            "sgd_step": lambda: nn.sgd_step(sgd_net, grads, cfg.lr, cfg.weight_decay,
                                            cfg.momentum, state),
            "softmax": lambda: nn.softmax(inputs["logits"]),
            "ntxent_term": lambda: nn.ntxent_term(inputs["z"], 0.5),
            "read_dataset_csv": lambda: tree.data.read_dataset_csv(inputs["dataset_csv"]),
            "read_features_csv": lambda: tree.data.read_features_csv(inputs["features_csv"]),
            "ood_scores": lambda: tree.harness.ood_scores(ood_nets, inputs["ood_rows"]),
            "filter_outliers": lambda: tree.geometry.filter_outliers(
                inputs["candidates"], centroids, OUTLIER_RADIUS),
            "auroc_fpr95": lambda: (tree.metrics.auroc(id_s, ood_s),
                                    tree.metrics.fpr_at_95_tpr(id_s, ood_s))}


def _time_rounds(calls: dict) -> dict:
    """{label: ms per call in each of ROUNDS rounds}, one batch per tree a round."""
    labels = list(calls)
    for call in calls.values():
        call()  # warm-up
    start = time.perf_counter()
    calls[labels[0]]()
    batch = max(1, round(BATCH_S / (time.perf_counter() - start)))
    ms = {label: [] for label in labels}
    for round_ in range(ROUNDS):
        shift = round_ % len(labels)
        for label in labels[shift:] + labels[:shift]:
            call = calls[label]
            start = time.perf_counter()
            for _ in range(batch):
                call()
            ms[label].append(1e3 * (time.perf_counter() - start) / batch)
    return ms


def _peak_mb(call) -> float:
    """The tracemalloc peak of one call of call, in 10^6 bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _tree(spec: str) -> tuple[str, Path]:
    label, sep, path = spec.partition("=")
    if not sep or not label or not path or "." in label:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR with no '.' in LABEL, got {spec!r}")
    return label, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=_tree, action="append", required=True, metavar="LABEL=DIR",
                        help="a tree to measure: a label and the directory holding its "
                             "noisylab package (repeat the flag; the first is the base)")
    parser.add_argument("--out", required=True, help="bench file to write")
    args = parser.parse_args(argv)
    labels = [label for label, _ in args.src]
    if len(set(labels)) != len(labels):
        parser.error(f"labels must differ: {labels}")

    for var in THREAD_VARS:
        os.environ[var] = "1"  # BLAS reads it once, when numpy loads
    import numpy as np

    trees = {label: load_tree(label, src) for label, src in args.src}
    np.empty(FREED_BLOCK_BYTES, dtype=np.uint8)  # freed at once: see the docstring
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _inputs(np, trees[labels[0]], Path(tmp))
        calls = {label: _calls(np, tree, inputs) for label, tree in trees.items()}
        runs = {label: {} for label in labels}
        vs_first = {label: {} for label in labels[1:]}
        for name in calls[labels[0]]:
            ms = _time_rounds({label: calls[label][name] for label in labels})
            for label in labels:
                runs[label][name] = {"ms": ms[label], "median_ms": statistics.median(ms[label])}
            for label in labels[1:]:
                ratios = [t / base for t, base in zip(ms[label], ms[labels[0]])]
                vs_first[label][name] = {"ms": statistics.median(ratios) - 1.0,
                                         "faster_rounds": sum(r < 1.0 for r in ratios)}
            print(f"{name} done", file=sys.stderr)
        for label in labels:
            run = runs[label]
            run["fit_gmm_1d"]["em_iters"] = len(
                calls[label]["fit_gmm_1d"]().log_likelihood_history) - 1
            for name in ("fit_gmm_1d", "read_dataset_csv", "ood_scores", "filter_outliers"):
                run[name]["peak_mb"] = _peak_mb(calls[label][name])

    bench = {"environment": _environment(np), "rounds": ROUNDS, "runs": runs,
             "vs_first": vs_first}
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    for label in labels:
        print(f"{label}: " + ", ".join(
            f"{name} {e['median_ms']:.3f} ms"
            + (f" (peak {e['peak_mb']:.2f} MB)" if "peak_mb" in e else "")
            for name, e in runs[label].items()))
    for label, diffs in vs_first.items():
        print(f"{label} vs {labels[0]} (ms, faster rounds of {ROUNDS}): " + ", ".join(
            f"{name} {100 * d['ms']:+.1f}% {d['faster_rounds']}" for name, d in diffs.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
