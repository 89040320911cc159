"""Many-seed evidence from `noisylab ablate --grid vos` CSVs: paired gaps, intervals, identity.

    python3 benchmarks/seeds.py --out SEEDS_<n>.json \\
        --csv SETTING:LABEL=PATH [--csv SETTING:LABEL=PATH ...]

Each `--csv` names one `ablation.csv`, written by `noisylab ablate --grid
vos --seeds 1,...,20` (its `vos_on` and `vos_off` rows), under a noise
setting and a source-tree label, for example
`--csv symmetric-0.4:parent=runs/parent-sym/ablation.csv`. The first
label given for a setting is its base. The tool runs nothing; it follows
Bouthillier et al., "Accounting for Variance in Machine Learning
Benchmarks" (MLSys 2021), and writes, per setting and tree:

- `per_seed`: every metric of every seed, per variant;
- `means`: each metric's mean over the seeds, per variant;
- `vos_gap`: per metric, the gap `vos_on - vos_off` of each seed, its
  mean with a 95% percentile bootstrap interval, and the number of seeds
  on which `vos_on` is higher;
- `collapses`: per variant, the seeds whose far AUROC is below 0.5.

and, per setting and later tree, `vs_base`: the paired change of each
metric (tree minus base, per variant) with its interval, both trees'
far-AUROC collapse counts, the number of CSV cells that differ, and
`identical`, true when every cell of the CSV equals the base's as text.
That flag is proof (b) of a rounding-only change (README,
"Rounding-only changes").

Each interval resamples the seeds' values RESAMPLES times with
replacement, from a fresh `np.random.default_rng(0)`, and takes the 2.5th
and 97.5th percentiles of the resampled means. Uses numpy and the
standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

METRICS = ("final_accuracy", "best_accuracy", "final_selection_f1", "far_auroc", "far_fpr95",
           "near_auroc", "near_fpr95")
VARIANTS = ("vos_on", "vos_off")
RESAMPLES = 10_000
COLLAPSE_BELOW = 0.5  # a far AUROC below chance


def read_ablation(path) -> list[list[str]]:
    """The CSV's cells as text, header first."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["variant", "seed"] or not set(METRICS) <= set(rows[0]):
        raise SystemExit(f"{path}: not an ablation.csv of noisylab ablate")
    return rows


def _table(rows: list[list[str]]) -> dict:
    """{variant: {seed: {metric: value}}} of an ablation CSV's rows."""
    header = rows[0]
    table = {variant: {} for variant in VARIANTS}
    for row in rows[1:]:
        cells = dict(zip(header, row))
        if cells["variant"] in table:
            table[cells["variant"]][int(cells["seed"])] = {m: float(cells[m]) for m in METRICS}
    return table


def interval(values) -> dict:
    """The mean of values and its 95% percentile bootstrap interval."""
    values = np.asarray(values, dtype=np.float64)
    idx = np.random.default_rng(0).integers(0, len(values), size=(RESAMPLES, len(values)))
    lo, hi = np.percentile(values[idx].mean(axis=1), [2.5, 97.5])
    return {"mean": float(values.mean()), "ci95": [float(lo), float(hi)]}


def _collapses(table: dict, variant: str) -> list[int]:
    return [seed for seed, m in sorted(table[variant].items()) if m["far_auroc"] < COLLAPSE_BELOW]


def _seeds(table: dict) -> list[int]:
    seeds = sorted(table["vos_on"])
    if not seeds or seeds != sorted(table["vos_off"]):
        raise SystemExit("the CSV needs vos_on and vos_off rows of the same seeds")
    return seeds


def summarize(rows: list[list[str]]) -> dict:
    """Per-seed values, means, the paired VOS gap and the collapses of one CSV."""
    table = _table(rows)
    seeds = _seeds(table)
    gap = {}
    for m in METRICS:
        per_seed = [table["vos_on"][s][m] - table["vos_off"][s][m] for s in seeds]
        gap[m] = {**interval(per_seed), "per_seed": per_seed,
                  "vos_higher": sum(g > 0 for g in per_seed)}
    return {"seeds": seeds,
            "per_seed": {v: {str(s): table[v][s] for s in seeds} for v in VARIANTS},
            "means": {v: {m: float(np.mean([table[v][s][m] for s in seeds])) for m in METRICS}
                      for v in VARIANTS},
            "vos_gap": gap,
            "collapses": {v: _collapses(table, v) for v in VARIANTS}}


def compare(base_rows: list[list[str]], rows: list[list[str]]) -> dict:
    """The paired change of a tree against the base tree on the same setting."""
    base, table = _table(base_rows), _table(rows)
    seeds = _seeds(table)
    if seeds != _seeds(base):
        raise SystemExit("the trees' CSVs cover different seeds")
    cells = sum(a != b for x, y in zip(base_rows, rows) for a, b in zip(x, y))
    cells += abs(sum(map(len, base_rows)) - sum(map(len, rows)))
    return {"identical": base_rows == rows, "differing_cells": cells,
            "paired_change": {v: {m: interval([table[v][s][m] - base[v][s][m] for s in seeds])
                                  for m in METRICS} for v in VARIANTS},
            "collapses": {v: {"base": len(_collapses(base, v)), "this": len(_collapses(table, v))}
                          for v in VARIANTS}}


def _source(spec: str) -> tuple[str, str, Path]:
    setting, sep, rest = spec.partition(":")
    label, sep2, path = rest.partition("=")
    if not (sep and sep2 and setting and label and path):
        raise argparse.ArgumentTypeError(f"expected SETTING:LABEL=PATH, got {spec!r}")
    return setting, label, Path(path)


def _pts(e: dict) -> str:
    lo, hi = e["ci95"]
    return f"{100 * e['mean']:+.2f} [{100 * lo:+.2f}, {100 * hi:+.2f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", type=_source, action="append", required=True,
                        metavar="SETTING:LABEL=PATH",
                        help="an ablation.csv of a noise setting and a source tree (repeat the "
                             "flag; a setting's first label is its base)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    rows = {}
    for setting, label, path in args.csv:
        if label in rows.setdefault(setting, {}):
            parser.error(f"{setting}:{label} is given twice")
        rows[setting][label] = read_ablation(path)
    out = {"resamples": RESAMPLES, "level": 0.95, "rng": "np.random.default_rng(0) per interval",
           "collapse_below": COLLAPSE_BELOW, "settings": {}}
    for setting, trees in rows.items():
        labels = list(trees)
        entry = {"base": labels[0], "trees": {label: summarize(r) for label, r in trees.items()},
                 "vs_base": {label: compare(trees[labels[0]], trees[label])
                             for label in labels[1:]}}
        out["settings"][setting] = entry
        for label, s in entry["trees"].items():
            gap, on, off = s["vos_gap"], s["means"]["vos_on"], s["means"]["vos_off"]
            print(f"{setting} {label} ({len(s['seeds'])} seeds): accuracy gap "
                  f"{_pts(gap['final_accuracy'])} pts, VOS higher "
                  f"{gap['final_accuracy']['vos_higher']}/{len(s['seeds'])}; F1 gap "
                  f"{_pts(gap['final_selection_f1'])} pts; far AUROC with VOS "
                  f"{on['far_auroc']:.3f} (collapsed seeds {s['collapses']['vos_on']}); "
                  f"near AUROC on/off {on['near_auroc']:.3f} / {off['near_auroc']:.3f}")
        for label, c in entry["vs_base"].items():
            print(f"{setting} {label} vs {labels[0]}: identical {c['identical']} "
                  f"({c['differing_cells']} cells differ); accuracy change with VOS "
                  f"{_pts(c['paired_change']['vos_on']['final_accuracy'])} pts")
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
