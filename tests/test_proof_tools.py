"""The rounding-only proof tools on hand-made inputs: nothing here trains a net.

`benchmarks/rounding.py` compares report documents (proof (a));
`benchmarks/seeds.py` summarizes `noisylab ablate --grid vos` CSVs
(proof (b) and the many-seed evidence).
"""

import copy
import csv
import importlib.util
import json
from pathlib import Path

import pytest

import test_golden
from noisylab import RunConfig

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"{name}_tool", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rounding():
    return _load("rounding")


@pytest.fixture(scope="module")
def seeds():
    return _load("seeds")


REPORT = {"schema_version": 1,
          "summary": {"final_test_accuracy": 0.8125, "ood": {"far": {"auroc": 0.96875}}},
          "epochs": [{"phase": "warmup", "n_labeled": 120, "loss_prior": 3.0e-05,
                      "converged": True, "selected": [1, 2, 3]}],
          "incomplete": False, "note": None}


def _shifted(doc, rel):
    out = copy.deepcopy(doc)
    out["summary"]["ood"]["far"]["auroc"] *= 1.0 + rel
    return out


class TestRounding:
    def test_configs_are_the_golden_ones(self, rounding):
        assert rounding.CONFIGS.keys() == test_golden.GOLDEN.keys() | test_golden.FULL_SIZE.keys()
        for name, (kwargs, _) in test_golden.GOLDEN.items():
            assert rounding.CONFIGS[name] == kwargs, name
        for name, (config, _) in test_golden.FULL_SIZE.items():
            assert RunConfig(**rounding.CONFIGS[name]) == config, name

    def test_a_float_beyond_the_bound_fails(self, rounding):
        diff = rounding.compare(REPORT, _shifted(REPORT, 1e-9))
        assert not diff.ok() and diff.other == []
        assert diff.where == "/summary/ood/far/auroc"
        assert diff.worst == pytest.approx(1e-9, rel=1e-3)

    def test_a_float_within_the_bound_passes(self, rounding):
        diff = rounding.compare(REPORT, _shifted(REPORT, 1e-13))
        assert diff.ok() and 0.0 < diff.worst < rounding.FLOAT_RTOL
        assert rounding.compare(REPORT, copy.deepcopy(REPORT)).worst == 0.0

    @pytest.mark.parametrize("path, value", [
        (("epochs", 0, "n_labeled"), 121),  # an int
        (("epochs", 0, "converged"), False),  # a bool
        (("epochs", 0, "selected"), [1, 2]),  # a list length
        (("epochs", 0, "n_labeled"), 120.0),  # an int become a float
        (("note",), "x"),
    ])
    def test_a_changed_non_float_is_reported(self, rounding, path, value):
        changed = copy.deepcopy(REPORT)
        owner = changed
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        diff = rounding.compare(REPORT, changed)
        assert not diff.ok() and diff.worst == 0.0
        assert len(diff.other) == 1
        assert diff.other[0].startswith("/" + "/".join(map(str, path)))

    def test_a_missing_key_is_reported(self, rounding):
        changed = copy.deepcopy(REPORT)
        del changed["summary"]["final_test_accuracy"]
        assert rounding.compare(REPORT, changed).other == [
            "/summary/final_test_accuracy: only in the first"]


HEADER = ["variant", "seed", "final_accuracy", "best_accuracy", "final_selection_f1",
          "far_auroc", "far_fpr95", "near_auroc", "near_fpr95"]
#: seed -> (vos_on accuracy, vos_off accuracy, vos_on far AUROC)
FIXTURE = {1: (0.80, 0.79, 0.95), 2: (0.82, 0.80, 0.30), 3: (0.78, 0.785, 0.91),
           4: (0.81, 0.80, 0.99)}


def _rows():
    rows = [HEADER]
    for variant in ("vos_on", "vos_off"):
        for seed, (acc_on, acc_off, far_on) in FIXTURE.items():
            on = variant == "vos_on"
            rows.append([variant, str(seed), repr(acc_on if on else acc_off), "0.9", "0.85",
                         repr(far_on if on else 0.6), "0.4", "0.55", "0.9"])
    return rows


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _summarize(seeds, tmp_path, changed_rows):
    base = _write(tmp_path / "base.csv", _rows())
    other = _write(tmp_path / "other.csv", changed_rows)
    out = tmp_path / "seeds.json"
    assert seeds.main(["--csv", f"sym:parent={base}", "--csv", f"sym:change={other}",
                       "--out", str(out)]) == 0
    return json.loads(out.read_text())["settings"]["sym"]


class TestSeeds:
    def test_paired_gap(self, seeds, tmp_path, capsys):
        entry = _summarize(seeds, tmp_path, _rows())
        gap = entry["trees"]["parent"]["vos_gap"]["final_accuracy"]
        want = [on - off for on, off, _ in FIXTURE.values()]
        assert gap["per_seed"] == pytest.approx(want, abs=1e-15)
        assert gap["mean"] == pytest.approx(sum(want) / 4, abs=1e-15)
        assert gap["vos_higher"] == 3
        lo, hi = gap["ci95"]
        assert min(want) <= lo <= gap["mean"] <= hi <= max(want)
        assert entry["vs_base"]["change"]["identical"] is True
        assert entry["vs_base"]["change"]["paired_change"]["vos_on"]["final_accuracy"] == \
            {"mean": 0.0, "ci95": [0.0, 0.0]}

    def test_one_changed_cell_clears_identical(self, seeds, tmp_path, capsys):
        rows = _rows()
        rows[3][6] = "0.41"  # one far FPR95 of vos_on
        change = _summarize(seeds, tmp_path, rows)["vs_base"]["change"]
        assert change["identical"] is False and change["differing_cells"] == 1
        assert change["paired_change"]["vos_on"]["far_fpr95"]["mean"] == pytest.approx(0.0025)

    def test_a_far_auroc_below_half_is_a_collapse(self, seeds, tmp_path, capsys):
        entry = _summarize(seeds, tmp_path, _rows())
        assert entry["trees"]["parent"]["collapses"] == {"vos_on": [2], "vos_off": []}
        assert entry["vs_base"]["change"]["collapses"]["vos_on"] == {"base": 1, "this": 1}

    def test_a_column_on_one_tree_only_is_that_tree_s_metric(self, seeds, tmp_path, capsys):
        cells = ["fisher_ratio"] + ["0.5"] * 4 + ["0.25"] * 4  # vos_on rows, then vos_off
        rows = [row + [cell] for row, cell in zip(_rows(), cells)]
        entry = _summarize(seeds, tmp_path, rows)
        change, parent = entry["trees"]["change"], entry["trees"]["parent"]
        assert "fisher_ratio" not in parent["vos_gap"]
        assert change["means"]["vos_on"]["fisher_ratio"] == 0.5
        assert change["vos_gap"]["fisher_ratio"]["per_seed"] == [0.25] * 4
        paired = entry["vs_base"]["change"]["paired_change"]["vos_on"]
        assert sorted(paired) == sorted(HEADER[2:])
        assert entry["vs_base"]["change"]["identical"] is False

    def test_a_header_without_variant_and_seed_is_one_line(self, seeds, tmp_path):
        path = _write(tmp_path / "bad.csv", [["seed", "variant"] + HEADER[2:]])
        with pytest.raises(SystemExit) as exc:
            seeds.read_ablation(path)
        assert exc.value.code == f"{path}: not an ablation.csv of noisylab ablate"
