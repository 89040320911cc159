"""The benchmark's workloads and the checks made on every operation.

Each workload drives noisylab through its public functions or its CLI
(`noisylab.cli.main`, called in process with stdout captured). It makes
its inputs from the benchmark seed; `prepare` builds fixtures outside
the timed region, `call(k)` is the timed operation on input set `k` and
`check` validates its output and returns the quality figures.

The training workloads give input set `k` the run seed
`seed + SEED_STRIDE * k`: a run's operations train on distinct seeds,
starting with the benchmark seed itself, so its median wall time does
not hinge on how fast one seed's EM fits happen to converge.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import jsonschema

from noisylab import RunConfig, data, harness

# the reduced config of the sampler sweep; ten warm-up epochs keep its
# accuracy and selection F1 steady across seeds
SMALL_CONFIG = {"n_train": 600, "n_test": 300, "ood_n": 300,
                "warmup_epochs": 10, "total_epochs": 30}
# gen-data config for the ood-eval CSVs: 20k ID rows, 1k rows per OOD file.
# FPR95 scans one threshold per score above the ID 5th percentile, about 19k
# of them from the ID file alone, plus the OOD rows that score there; short
# OOD files keep that work from swinging with how well the seed's nets
# detect OOD.
OOD_EVAL_CONFIG = {"n_test": 20000, "ood_n": 1000}
# run seed of input set k: seed + SEED_STRIDE * k
SEED_STRIDE = 1000
# a tiny run that warms lazy imports and first-call costs before timing
WARM_CONFIG = {"n_train": 120, "n_test": 40, "ood_n": 40,
               "warmup_epochs": 2, "total_epochs": 5}


@dataclass
class OpResult:
    """What `check` found in one operation's output."""

    rows: int  # input rows pushed through the nets
    quality: dict  # final_test_accuracy, selection_f1, far/near auroc and fpr95
    digests: list = field(default_factory=list)  # report sha256s
    problems: list = field(default_factory=list)  # empty when the output is correct


def _cli(argv) -> tuple[int, str]:
    """Run `noisylab <argv>` in process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sys.modules["noisylab.cli"].main([str(a) for a in argv])
    return code, out.getvalue()


def _in_unit_range(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_report(report: dict) -> list[str]:
    """Schema and range problems of one run report (empty when valid)."""
    try:
        jsonschema.validate(report, harness.REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return [f"report schema: {exc.message}"]
    problems = []
    summary = report["summary"]
    named = {f"summary.{k}": summary.get(k)
             for k in ("best_test_accuracy", "final_test_accuracy")}
    for k in ("final_selection_precision", "final_selection_recall", "final_selection_f1"):
        if summary.get(k) is not None:
            named[f"summary.{k}"] = summary[k]
    for regime in ("far", "near"):
        for k in ("auroc", "fpr95"):
            named[f"summary.ood.{regime}.{k}"] = summary["ood"].get(regime, {}).get(k)
    for rec in report["epochs"]:
        for k in ("test_accuracy", "selection_precision", "selection_recall", "selection_f1"):
            if rec.get(k) is not None:
                named[f"epoch {rec['epoch']}.{k}"] = rec[k]
    problems += [f"{name} = {value!r} is not a finite value in [0, 1]"
                 for name, value in named.items() if not _in_unit_range(value)]
    return problems


def _quality(reports: list[dict]) -> dict:
    """Mean summary quality over the reports of one operation."""
    def mean(get):
        values = [get(r["summary"]) for r in reports]
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else float("nan")

    q = {"final_test_accuracy": mean(lambda s: s["final_test_accuracy"]),
         "selection_f1": mean(lambda s: s.get("final_selection_f1"))}
    for regime in ("far", "near"):
        q[f"{regime}_auroc"] = mean(lambda s: s["ood"][regime]["auroc"])
        q[f"{regime}_fpr95"] = mean(lambda s: s["ood"][regime]["fpr95"])
    return q


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _write_config(path: Path, values: dict) -> Path:
    path.write_text(json.dumps(values, sort_keys=True) + "\n")
    return path


class Workload:
    name = ""
    # Python source timed in a fresh interpreter for setup_s; {src} and
    # {seed} are filled in, and it prints the elapsed seconds
    setup_code = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def input_seed(self, k: int) -> int:
        return self.seed + SEED_STRIDE * k

    def prepare(self) -> None:
        """Build fixtures and warm first-call costs; not timed."""
        harness.run_experiment(RunConfig(seed=self.seed, **WARM_CONFIG))

    def call(self, k: int):
        raise NotImplementedError

    def check(self, raw) -> OpResult:
        raise NotImplementedError

    def cleanup(self, k: int) -> None:
        """Remove what the operation on input set `k` left on disk."""


_EXPERIMENT_SETUP = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
from noisylab import RunConfig, harness
harness.Experiment(RunConfig(seed={seed}, disable_vos={novos}))
print(time.perf_counter() - t0)
"""

_CLI_SETUP = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import noisylab.cli
print(time.perf_counter() - t0)
"""


class TrainWorkload(Workload):
    """One `harness.run_experiment(RunConfig(seed=...[, disable_vos=True]))`."""

    disable_vos = False

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = RunConfig(seed=seed, disable_vos=self.disable_vos)
        self.setup_code = _EXPERIMENT_SETUP.replace("{novos}", str(self.disable_vos))

    def call(self, k):
        return harness.run_experiment(replace(self.config, seed=self.input_seed(k)))

    def check(self, report) -> OpResult:
        doc = report.to_dict()
        cfg = self.config
        rows = cfg.n_train * cfg.total_epochs * (1 if cfg.single_network else 2)
        return OpResult(rows, _quality([doc]), [_digest(report.canonical_json())],
                        check_report(doc))


class TrainDefault(TrainWorkload):
    name = "train-default"


class TrainNoVos(TrainWorkload):
    name = "train-novos"
    disable_vos = True


class OodEval(Workload):
    """`noisylab ood-eval` of a default run's nets on 20k ID and 2 x 1k OOD rows.

    Every operation scores the same fixture: its cost hardly depends on
    the seed, so there is one input set. The fixture is a default
    `noisylab train --seed S`, whose accuracy and selection F1 spread
    across seeds far less than those of a short run.
    """

    name = "ood-eval"
    setup_code = _CLI_SETUP

    def prepare(self):
        run_dir, data_dir = self.work / "run", self.work / "data"
        big = _write_config(self.work / "big.json", OOD_EVAL_CONFIG)
        for argv in (["train", "--seed", self.seed, "--out-dir", run_dir],
                     ["gen-data", "--config", big, "--seed", self.seed, "--out-dir", data_dir]):
            code, _ = _cli(argv)
            if code != 0:
                raise RuntimeError(f"fixture `noisylab {argv[0]}` exited {code}")
        self.run_report = json.loads((run_dir / "report.json").read_text())
        problems = check_report(self.run_report)
        if problems:
            raise RuntimeError(f"fixture run report: {problems}")
        self.id_csv = data_dir / "test.csv"
        self.ood_csvs = [data_dir / "ood_far.csv", data_dir / "ood_near.csv"]
        self.argv = ["ood-eval", "--run-dir", run_dir, "--id-csv", self.id_csv,
                     "--ood-csv", *self.ood_csvs]

        # reference: harness.evaluate_ood on the same nets and inputs
        nets = [harness.load_model(p) for p in sorted((run_dir / "models").glob("net*.npz"))]
        temperature = self.run_report["config"]["energy_temperature"]
        id_inputs = data.read_dataset_csv(self.id_csv).features
        self.reference = {}
        self.rows = 0
        for path in self.ood_csvs:
            ood_inputs = data.read_features_csv(path)
            self.reference[path.stem] = harness.evaluate_ood(nets, id_inputs, ood_inputs,
                                                             temperature)
            self.rows += (len(id_inputs) + len(ood_inputs)) * len(nets)

    def input_seed(self, k):
        return self.seed

    def call(self, k):
        return _cli(self.argv)

    def check(self, raw) -> OpResult:
        code, stdout = raw
        problems = [] if code == 0 else [f"ood-eval exited {code}"]
        result = json.loads(stdout) if code == 0 else {}
        if code == 0 and result != self.reference:
            problems.append(f"ood-eval printed {result}, evaluate_ood gives {self.reference}")
        for stem, scores in result.items():
            problems += [f"{stem}.{k} = {v!r} is not a finite value in [0, 1]"
                         for k, v in scores.items() if not _in_unit_range(v)]
        quality = _quality([self.run_report])  # the scored nets' own run
        for stem, regime in (("ood_far", "far"), ("ood_near", "near")):
            for k in ("auroc", "fpr95"):
                quality[f"{regime}_{k}"] = result.get(stem, {}).get(k, float("nan"))
        return OpResult(self.rows, quality, [], problems)


class SweepSamplers(Workload):
    """`noisylab ablate --grid sampler --seeds ...` on the reduced config."""

    name = "sweep-samplers"
    setup_code = _CLI_SETUP

    def prepare(self):
        super().prepare()
        self.config_path = _write_config(self.work / "small.json", SMALL_CONFIG)
        cfg = RunConfig(**SMALL_CONFIG)
        self.rows_per_run = cfg.n_train * cfg.total_epochs * 2

    def _out(self, k) -> Path:
        return self.work / f"sweep{k}"

    def call(self, k):
        out = self._out(k)
        code, _ = _cli(["ablate", "--grid", "sampler", "--seeds", self.input_seed(k),
                        "--config", self.config_path, "--out-dir", out, "--keep-runs"])
        return code, out

    def check(self, raw) -> OpResult:
        code, out = raw
        if code != 0:
            return OpResult(0, {}, [], [f"ablate exited {code}"])
        problems, reports, digests = [], [], []
        for path in sorted(out.glob("*_seed*/report.json")):
            raw_report = path.read_bytes()
            report = json.loads(raw_report)
            reports.append(report)
            digests.append(_digest(raw_report))
            problems += [f"{path.parent.name}: {p}" for p in check_report(report)]
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(reports) != 4 or len(rows) != 4:
            problems.append(f"expected 4 sampler runs, found {len(reports)} reports "
                            f"and {len(rows)} ablation.csv rows")
        for row in rows:
            for k, v in row.items():
                if k not in ("variant", "seed") and not _in_unit_range(float(v)):
                    problems.append(f"ablation.csv {row['variant']}.{k} = {v}")
        return OpResult(self.rows_per_run * len(reports), _quality(reports) if reports else {},
                        digests, problems)

    def cleanup(self, k):
        shutil.rmtree(self._out(k), ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainDefault, TrainNoVos, OodEval, SweepSamplers)}
