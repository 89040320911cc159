"""Markdown tables from one committed evidence file: a bench file or a SEEDS file.

    python3 benchmarks/tables.py FILE

The file's own keys choose the table:

- `vs_first` (a kernel bench file of `bench.py`): per kernel and later
  tree, the median per-round change against the first tree in % and the
  rounds in which the tree was faster, of `rounds`;
- `rss` (a bench file of `bench.py --rss`): per phase, each tree's median
  `ru_maxrss`, each later tree's median per-pair difference from the
  first with the pairs in which it was lower, and, where the file holds
  `tracemalloc_mb`, each tree's `tracemalloc` peak of the phase;
- `settings` (a SEEDS file of `seeds.py`): per noise setting, its base
  tree's VOS gaps in accuracy and selection F1 with their 95% intervals,
  the seeds on which VOS reads the higher accuracy, far AUROC with VOS
  with the seeds below `collapse_below`, and near AUROC with VOS on and
  off.

README holds each table between `<!-- tables.py FILE -->` and
`<!-- /tables.py -->`, and `tests/test_tables.py` renders every such
block again and compares it byte for byte. Uses the standard library
only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location("noisylab_bench",
                                               Path(__file__).with_name("bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)  # its RSS_PHASES; it pins threads only in main


def _signed(value: float, digits: int) -> str:
    return f"{value:+.{digits}f}".replace("-", "\N{MINUS SIGN}")


def _rows(header: list[str], rows: list[list[str]]) -> str:
    lines = [header, ["---"] * len(header), *rows]
    return "".join("| " + " | ".join(cells) + " |\n" for cells in lines)


def _base(runs: dict, later: dict) -> str:
    """The first tree: the one tree of `runs` that `vs_first` does not compare."""
    (base,) = set(runs) - set(later)
    return base


def kernel_table(doc: dict) -> str:
    later = doc["vs_first"]
    base = _base(doc["runs"], later)
    kernels = list(next(iter(later.values())))
    return _rows(["kernel"] + [f"`{label}` vs `{base}`" for label in later],
                 [[f"`{name}`"] + [f"{_signed(100 * d[name]['ms'], 1)}% "
                                   f"({d[name]['faster_rounds']} of {doc['rounds']})"
                                   for d in later.values()]
                  for name in kernels])


def rss_table(doc: dict) -> str:
    rss = doc["rss"]
    later = rss["vs_first"]
    base = _base(rss["runs"], later)
    labels = [base, *later]
    traced = rss.get("tracemalloc_mb")
    header = (["phase"] + [f"`{label}` MiB" for label in labels]
              + [f"`{label}` − `{base}` (lower pairs)" for label in later]
              + ([f"tracemalloc MB ({' / '.join(labels)})"] if traced else []))
    rows = []
    for phase in sorted(rss["runs"][base], key=bench.RSS_PHASES.index):
        row = [f"`{phase}`"] + [f"{rss['runs'][label][phase]['median_mib']:.2f}"
                                for label in labels]
        row += [f"{_signed(d[phase]['mib'], 2)} ({d[phase]['lower_pairs']} of {rss['pairs']})"
                for d in later.values()]
        if traced:
            row.append(" / ".join(f"{traced[label][phase]:.2f}" for label in labels))
        rows.append(row)
    return _rows(header, rows)


def _pts(gap: dict) -> str:
    lo, hi = gap["ci95"]
    return f"{_signed(100 * gap['mean'], 2)} [{_signed(100 * lo, 2)}, {_signed(100 * hi, 2)}]"


def seeds_table(doc: dict) -> str:
    rows = []
    for setting, entry in doc["settings"].items():
        tree = entry["trees"][entry["base"]]
        gap, on, off = tree["vos_gap"], tree["means"]["vos_on"], tree["means"]["vos_off"]
        collapsed = ", ".join(map(str, tree["collapses"]["vos_on"])) or "none"
        rows.append([setting, _pts(gap["final_accuracy"]),
                     f"{gap['final_accuracy']['vos_higher']}/{len(tree['seeds'])}",
                     _pts(gap["final_selection_f1"]),
                     f"{on['far_auroc']:.3f} ({collapsed})",
                     f"{on['near_auroc']:.3f} / {off['near_auroc']:.3f}"])
    return _rows(["setting", "accuracy gap, pts", "VOS higher", "F1 gap, pts",
                  f"far AUROC with VOS (seeds < {doc['collapse_below']})",
                  "near AUROC, on / off"], rows)


def render(path) -> str:
    """The markdown table of one evidence file; SystemExit with one line if it has none."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: {exc}") from None
    if isinstance(doc, dict):
        for key, table in (("rss", rss_table), ("vs_first", kernel_table),
                           ("settings", seeds_table)):
            if key in doc:
                return table(doc)
    raise SystemExit(f"{path}: no `rss`, `vs_first` or `settings` key: "
                     "not a bench file or a SEEDS file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="a BENCH_*.json or SEEDS_*.json file")
    sys.stdout.write(render(parser.parse_args(argv).file))
    return 0


if __name__ == "__main__":
    sys.exit(main())
