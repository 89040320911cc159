"""README's evidence tables: `benchmarks/tables.py` on hand-made files, README's marked
blocks against the committed files they name, and no committed evidence file twice."""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCK = re.compile(r"<!-- tables\.py (\S+) -->\n(.*?)<!-- /tables\.py -->\n", re.DOTALL)


@pytest.fixture(scope="module")
def tables():
    spec = importlib.util.spec_from_file_location("tables_tool", ROOT / "benchmarks" / "tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _render(tables, tmp_path, doc) -> list[str]:
    path = tmp_path / "evidence.json"
    path.write_text(json.dumps(doc))
    return tables.render(path).splitlines()


def test_kernel_file(tables, tmp_path):
    runs = {label: {"sgd_step": {}, "softmax": {}} for label in ("base", "b", "c")}
    later = {"b": {"sgd_step": {"ms": -0.804, "faster_rounds": 25},
                   "softmax": {"ms": 0.072, "faster_rounds": 3}},
             "c": {"sgd_step": {"ms": 0.0, "faster_rounds": 12},
                   "softmax": {"ms": -0.0004, "faster_rounds": 14}}}
    assert _render(tables, tmp_path, {"rounds": 25, "runs": runs, "vs_first": later}) == [
        "| kernel | `b` vs `base` | `c` vs `base` |",
        "| --- | --- | --- |",
        "| `sgd_step` | −80.4% (25 of 25) | +0.0% (12 of 25) |",
        "| `softmax` | +7.2% (3 of 25) | −0.0% (14 of 25) |",
    ]


def test_rss_file(tables, tmp_path):
    rss = {"pairs": 10,
           "runs": {"base": {"train": {"median_mib": 41.716796875}},
                    "new": {"train": {"median_mib": 40.392578125}}},
           "vs_first": {"new": {"train": {"mib": -1.314453125, "lower_pairs": 10}}}}
    header = "| phase | `base` MiB | `new` MiB | `new` − `base` (lower pairs) |"
    assert _render(tables, tmp_path, {"rss": rss}) == [
        header, "| --- | --- | --- | --- |", "| `train` | 41.72 | 40.39 | −1.31 (10 of 10) |"]
    rss["tracemalloc_mb"] = {"base": {"train": 4.249}, "new": {"train": 3.253}}
    assert _render(tables, tmp_path, {"rss": rss}) == [
        header[:-1] + "| tracemalloc MB (base / new) |", "| --- | --- | --- | --- | --- |",
        "| `train` | 41.72 | 40.39 | −1.31 (10 of 10) | 4.25 / 3.25 |"]


def test_seeds_setting_without_a_collapse(tables, tmp_path):
    gap = {"final_accuracy": {"mean": 0.0091, "ci95": [-0.0015, 0.0202], "vos_higher": 13},
           "final_selection_f1": {"mean": -0.0011, "ci95": [-0.03, 0.0292], "vos_higher": 9}}
    tree = {"seeds": list(range(1, 21)), "vos_gap": gap, "collapses": {"vos_on": [],
                                                                       "vos_off": [1, 2]},
            "means": {"vos_on": {"far_auroc": 0.95, "near_auroc": 0.558},
                      "vos_off": {"far_auroc": 0.1, "near_auroc": 0.196}}}
    other = dict(tree, collapses={"vos_on": [4], "vos_off": []})
    doc = {"collapse_below": 0.5,
           "settings": {"sym": {"base": "p", "trees": {"c": other, "p": tree}, "vs_base": {}}}}
    assert _render(tables, tmp_path, doc)[2:] == [
        "| sym | +0.91 [−0.15, +2.02] | 13/20 | −0.11 [−3.00, +2.92] | 0.950 (none) "
        "| 0.558 / 0.196 |"]


def test_a_file_of_no_known_kind_is_one_line(tables, tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"environment": {}, "workloads": []}))
    with pytest.raises(SystemExit) as exc:
        tables.main([str(path)])
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert exc.value.code.startswith(f"{path}: no `rss`, `vs_first` or `settings` key")


def test_readme_holds_each_table_as_rendered(tables):
    readme = README.read_text()
    blocks = BLOCK.findall(readme)
    assert len(blocks) >= 3  # a kernel file, an rss file and a SEEDS file at least
    for name, block in blocks:
        assert block == tables.render(ROOT / name), f"README's {name} table is not the file's"


@pytest.mark.parametrize("section", ["Rounding-only changes", "Performance"])
def test_every_table_in_an_evidence_section_is_rendered(section):
    text = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    loose = [line for line in BLOCK.sub("", text).splitlines() if line.startswith("|")]
    assert loose == []


def test_no_evidence_file_is_committed_twice():
    files = sorted(ROOT.glob("BENCH_*.json")) + sorted(ROOT.glob("SEEDS_*.json"))
    by_digest = {}
    for path in files:
        by_digest.setdefault(hashlib.sha256(path.read_bytes()).hexdigest(), []).append(path.name)
    assert [names for names in by_digest.values() if len(names) > 1] == []
