"""Proof (a) of a rounding-only change: two source trees' golden reports, compared.

    python3 benchmarks/rounding.py --src parent=DIR --src change=DIR

A change is rounding-only if it keeps the algorithm and every random
draw, and only reorders float operations or changes kernels (README,
"Rounding-only changes"). Each `--src LABEL=DIR` names a directory
holding a noisylab package; both are loaded in this one interpreter with
bench.py's loader, BLAS and OpenMP pinned to one thread before numpy
loads. Both trees run the five golden report configs of
`tests/test_golden.py`, and their `report.json` documents are compared
value by value: every float by its relative difference
|a - b| / max(|a|, |b|), every other value (int, bool, string, null,
list length, key set) for equality, so the EM counts that every main
epoch records (`gmm_iterations`, `gmm_capped`) must be equal too.

Prints, per config, both report digests, the worst relative float
difference and where it is, every non-float difference and each report's
EM totals, summed over its epochs; then each tree's EM totals over all
configs. Exits 1 if a float differs by more than FLOAT_RTOL relative, or
if any non-float value differs; 0 otherwise. Uses numpy and the standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location("noisylab_bench",
                                               Path(__file__).with_name("bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)  # its loader and LABEL=DIR parser; it pins threads only in main

FLOAT_RTOL = 1e-10
_SMALL = dict(n_train=300, n_test=100, ood_n=60, warmup_epochs=2, total_epochs=8)
#: the golden report configs of tests/test_golden.py, as RunConfig keyword arguments
CONFIGS = {
    "blobs-seed3": dict(seed=3, **_SMALL),
    "ring-asym-seed4": dict(seed=4, generator="ring-classes", n_classes=3,
                            noise_mode="asymmetric", noise_rate=0.3, **_SMALL),
    "moons-novos-seed5": dict(seed=5, generator="two-moons-kd", n_classes=2, disable_vos=True,
                              **_SMALL),
    "default-seed1": dict(seed=1),
    "no_vos-seed1": dict(seed=1, disable_vos=True),
}


class Diff:
    """The differences between two JSON documents."""

    def __init__(self):
        self.worst = 0.0  # largest relative difference of two floats
        self.where = ""  # the path of that float
        self.other: list[str] = []  # every non-float difference, one line each

    def ok(self) -> bool:
        return self.worst <= FLOAT_RTOL and not self.other


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a, b, path: str = "", diff: Diff | None = None) -> Diff:
    """diff, or a fresh Diff, with the differences of documents a and b added."""
    diff = Diff() if diff is None else diff
    if type(a) is float and type(b) is float:
        rel = _relative(a, b)
        if rel > diff.worst:
            diff.worst, diff.where = rel, path
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() ^ b.keys()):
            diff.other.append(f"{path}/{key}: only in {'the first' if key in a else 'the second'}")
        for key in sorted(a.keys() & b.keys()):
            compare(a[key], b[key], f"{path}/{key}", diff)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.other.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                compare(x, y, f"{path}/{i}", diff)
    elif type(a) is not type(b) or a != b:
        diff.other.append(f"{path}: {a!r} != {b!r}")
    return diff


def em_totals(epochs) -> str:
    """The EM iterations and capped fits of report epochs, summed."""
    return (f"{sum(e.get('gmm_iterations') or 0 for e in epochs)} iterations, "
            f"{sum(e.get('gmm_capped') or 0 for e in epochs)} capped")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=bench._tree, action="append", required=True,
                        metavar="LABEL=DIR",
                        help="a tree to compare: a label and the directory holding its "
                             "noisylab package (give the flag twice: base, then change)")
    args = parser.parse_args(argv)
    labels = [label for label, _ in args.src]
    if len(labels) != 2 or labels[0] == labels[1]:
        parser.error(f"give exactly two trees with different labels, got {labels}")

    for var in bench.THREAD_VARS:
        os.environ[var] = "1"  # BLAS reads it once, when numpy loads
    trees = {label: bench.load_tree(label, src) for label, src in args.src}
    epochs = {label: [] for label in labels}  # every config's, for the EM totals

    failed = False
    for name, kwargs in CONFIGS.items():
        docs, digests = {}, {}
        for label, tree in trees.items():
            raw = tree.run_experiment(tree.RunConfig(**kwargs)).canonical_json()
            docs[label], digests[label] = json.loads(raw), hashlib.sha256(raw).hexdigest()
        diff = compare(*docs.values())
        failed |= not diff.ok()
        for label, doc in docs.items():
            epochs[label] += doc["epochs"]
        print(f"{name}: " + ", ".join(f"{label} {digests[label][:16]}" for label in labels)
              + f"; worst float {diff.worst:.2e} relative"
              + (f" at {diff.where}" if diff.where else "")
              + f"; {len(diff.other)} non-float difference(s); EM "
              + ", ".join(f"{label} {em_totals(docs[label]['epochs'])}" for label in labels)
              + ("" if diff.ok() else "  FAIL"))
        for line in diff.other:
            print(f"  {line}")
    for label in labels:
        print(f"EM totals {label}: {em_totals(epochs[label])}")
    print(f"FAIL: a float beyond {FLOAT_RTOL:g} relative or a non-float value differs"
          if failed else f"ok: floats within {FLOAT_RTOL:g} relative, non-float values equal")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
