"""Command-line interface.

Subcommands: gen-data, train, ood-eval, ablate. Every run option (the ablation
switches, the sampler, the rejection radius, the per-epoch dumps) is a key of
the `--config` JSON file, not a flag; `--seed` alone overrides one. `ablate`
runs the variants that `harness.sweep_variants` builds for its `--grid`.
Exit codes: 0 success, 2 config or input error, 3 training error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import data as data_mod
from .config import RunConfig
from .errors import ConfigError, NoisylabError, TrainingError
from .harness import (SWEEP_GRIDS, build_datasets, load_model, ood_metrics, ood_scores,
                      run_experiment, sweep_variants)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_IO = 4


def _load_config(path, seed=None) -> RunConfig:
    config = RunConfig.from_json(path) if path else RunConfig()
    return config if seed is None else config.replace(seed=seed)


def _cmd_gen_data(args) -> int:
    config = _load_config(args.config, args.seed)
    train, test, ood_far, ood_near = build_datasets(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_dataset_csv(train, out / "train.csv")
    data_mod.write_dataset_csv(test, out / "test.csv")
    data_mod.write_features_csv(ood_far, out / "ood_far.csv")
    data_mod.write_features_csv(ood_near, out / "ood_near.csv")
    print(f"wrote train/test/ood_far/ood_near CSVs to {out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _load_config(args.config, args.seed)
    report = run_experiment(config, out_dir=args.out_dir)
    summary = report.summary
    print(f"final accuracy {summary['final_test_accuracy']:.4f} "
          f"(best {summary['best_test_accuracy']:.4f}); "
          f"far-OOD auroc {summary['ood']['far']['auroc']:.4f}")
    if args.out_dir:
        print(f"report written to {Path(args.out_dir) / 'report.json'}")
    return EXIT_OK


def _net_inputs(features, path, input_dim):
    """features, once their width is checked against the saved nets' input width."""
    if features.shape[1] != input_dim:
        raise ConfigError(f"{path} has {features.shape[1]} feature columns, "
                          f"the saved nets take {input_dim}")
    return features


def _cmd_ood_eval(args) -> int:
    stems = [Path(path).stem for path in args.ood_csv]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:  # the results are keyed by stem: one file's would overwrite another's
        raise ConfigError(f"--ood-csv files must differ in name without the extension; "
                          f"{', '.join(shared)} names more than one")
    run_dir = Path(args.run_dir)
    config = RunConfig.from_json(run_dir / "config.json")
    model_paths = sorted((run_dir / "models").glob("net*.npz"))
    if not model_paths:
        raise FileNotFoundError(f"no saved models under {run_dir / 'models'}")
    nets = [load_model(p) for p in model_paths]
    for path, net in zip(model_paths, nets):
        if net.input_dim != config.input_dim:
            raise ConfigError(f"{path} takes {net.input_dim} inputs, "
                              f"config.json says input_dim {config.input_dim}")
    if args.id_csv:
        id_inputs = _net_inputs(data_mod.read_dataset_csv(args.id_csv).features,
                                args.id_csv, config.input_dim)
    else:
        _, test_set, _, _ = build_datasets(config)
        id_inputs = test_set.features
    temperature = config.energy_temperature
    id_scores = ood_scores(nets, id_inputs, temperature)  # shared by every OOD file
    results = {}
    for ood_csv in args.ood_csv:
        ood_inputs = _net_inputs(data_mod.read_features_csv(ood_csv), ood_csv,
                                 config.input_dim)
        results[Path(ood_csv).stem] = ood_metrics(id_scores,
                                                  ood_scores(nets, ood_inputs, temperature))
    text = json.dumps(results, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    config = _load_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        seeds = None
    if not seeds:
        raise ConfigError("--seeds must be comma-separated nonnegative integers")
    for seed in seeds:
        config.replace(seed=seed)  # RunConfig rejects a bad seed before any run starts
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, variant in sweep_variants(args.grid, config):
        for seed in seeds:
            run_cfg = variant.replace(seed=seed)
            run_dir = out / f"{name}_seed{seed}" if args.keep_runs else None
            report = run_experiment(run_cfg, out_dir=run_dir)
            s = report.summary
            rows.append([name, seed, s["final_test_accuracy"], s["best_test_accuracy"],
                         s["final_selection_f1"], s["ood"]["far"]["auroc"],
                         s["ood"]["far"]["fpr95"], s["ood"]["near"]["auroc"],
                         s["ood"]["near"]["fpr95"]])
            print(f"{name} seed {seed}: final acc {s['final_test_accuracy']:.4f}")
    with open(out / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "final_accuracy", "best_accuracy",
                         "final_selection_f1", "far_auroc", "far_fpr95",
                         "near_auroc", "near_fpr95"])
        writer.writerows(rows)
    print(f"comparison written to {out / 'ablation.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisylab",
                                     description="Noisy-label training laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, out_required=True):
        p.add_argument("--config", help="JSON config file of run options (defaults apply)")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out-dir", required=out_required, help="output directory")

    p = sub.add_parser("gen-data", help="write dataset CSVs")
    common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run a full experiment")
    common(p, out_required=False)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ood-eval", help="score a saved run against OOD files")
    p.add_argument("--run-dir", required=True, help="directory written by train")
    p.add_argument("--ood-csv", required=True, nargs="+", help="OOD feature CSVs")
    p.add_argument("--id-csv", help="ID dataset CSV (defaults to the run's test split)")
    p.add_argument("--out", help="write the metrics JSON here too")
    p.set_defaults(func=_cmd_ood_eval)

    # no abbreviations: `--seed` would otherwise be read as `--seeds`
    p = sub.add_parser("ablate", help="run an ablation grid and emit a comparison CSV",
                       allow_abbrev=False)
    common(p, seed=False)
    p.add_argument("--grid", choices=SWEEP_GRIDS, required=True)
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    p.add_argument("--keep-runs", action="store_true",
                   help="keep every run's full output directory")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingError as exc:
        context = ""
        if exc.epoch is not None:
            batch = "" if exc.batch is None else f", batch {exc.batch}"
            context = f" (epoch {exc.epoch}{batch})"
        print(f"training error: {exc}{context}", file=sys.stderr)
        return EXIT_TRAINING
    except NoisylabError as exc:  # e.g. inputs that drive the nets' scores non-finite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
