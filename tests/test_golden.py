"""Golden report digests: the fast gate for behaviour-preserving changes.

Each case pins the sha256 of the full `report.json` bytes of one small
run (under a second each). A refactor that keeps these digests computes
the same numbers as before, bit for bit, without waiting for the
acceptance suite. A digest may only change together with a CHANGES.md
entry that says why the bits moved: a rounding-only change re-pins them
once, after `benchmarks/rounding.py` has compared the reports of these
same configs against the parent's (README, "Rounding-only changes").
The digests were last re-pinned by a rounding-only change to the training
kernels (row sums as GEMVs and einsums, NT-Xent as one GEMM, one energy
pass per step). Before that, report schema 2 added each main epoch's EM
counts and dropped `disable_cl` from the config echo;
`test_schema_2_moved_no_number` maps each report back to schema 1, and
its digests, re-pinned with the others, were the parent's at that change.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisylab
from noisylab import RunConfig, run_experiment
from noisylab.cli import main as cli_main
from noisylab.harness import _EPOCH_TABLE

SMALL = dict(n_train=300, n_test=100, ood_n=60, warmup_epochs=2, total_epochs=8)

GOLDEN = {
    "blobs-seed3": (
        dict(seed=3, **SMALL),
        "433286325b27f310ac887a0c8c618d2ac4d0c0465d1e358d1517abe35f55b98d",
    ),
    "ring-asym-seed4": (
        dict(seed=4, generator="ring-classes", n_classes=3, noise_mode="asymmetric",
             noise_rate=0.3, **SMALL),
        "6efe66ac370ddf80d98dbade9945812070540dbebcb0222ede7e19d8bd1b9f1e",
    ),
    "moons-novos-seed5": (
        dict(seed=5, generator="two-moons-kd", n_classes=2, disable_vos=True, **SMALL),
        "96ebd42f910fa8eab04e6d207b62c2d20991146ce29c2967e5a2cf2441350e91",
    ),
}

# full-size seed-1 runs that the acceptance gate makes anyway (its `vos` grid,
# through the session's run cache, which keys runs by config): pinning them here
# costs no run when the whole suite runs, and pins the benchmark's own operation
FULL_SIZE = {
    "default-seed1": (
        RunConfig(seed=1),
        "b5a52367410463b35c0705c8e9151625d5b5b58b122e0c6c7da0701a049ea1ea",
    ),
    "no_vos-seed1": (
        RunConfig(seed=1, disable_vos=True),
        "45f358fccf391724ffbb97945c97d216acb72128a1d5d5998ff5a58c7097fb4b",
    ),
}

# the same five reports' digests in schema 1, which had no EM counts and echoed
# `"disable_cl": false`: when schema 2 landed, these were the parent's digests,
# the proof that it moved no number
SCHEMA_1 = {
    "blobs-seed3": "08c0585188aee1ee3eeee1a185146ca083264509316e9e49709d154e7baf024a",
    "ring-asym-seed4": "764cfd8af2bf5d2999f0d948c94f85c132a67f8a6d3a672569ad041bc2466574",
    "moons-novos-seed5": "e93dada8598a22f93c7cf45a0c2e560b049ab7d9f2acd191738554a1993aa59f",
    "default-seed1": "df3e0bd10c5a43cbcdca21f5e041bc9298350079e56b3afaa6101ea3b80dd624",
    "no_vos-seed1": "60715c7bb33713d9817b96256e9ac13f9571e55af5afb4b5636910ac1673eacb",
}

# `noisylab ood-eval` of the blobs-seed3 run on the ID and OOD CSVs that
# `gen-data` writes for the same config; the far set lies wholly on the
# wrong side of this short run's ID scores, the near set does not
GOLDEN_OOD_EVAL = {"ood_far": {"auroc": 0.0, "fpr95": 1.0},
                   "ood_near": {"auroc": 0.5366666666666666, "fpr95": 0.9333333333333333}}

# the dump files of the blobs-seed3 run with every dump switched on
DUMPS = dict(dump_selection=True, dump_geometry=True, export_features=True)
GOLDEN_DUMPS = {
    "selection_net0.csv": "7921da21d352dc4145bd81f6263ca35b8b2e9c324e9994d5175be27a306af16e",
    "selection_net1.csv": "7b0f5676c2a39eb6fce8dd0a3869dad4e46a6c0ff31158e4bef043d98c32591b",
    "geometry_net0.jsonl": "add2d168af1e9a55d66e3398f4498ced886cf513b011c6ea4b6063fe9567b463",
    "geometry_net1.jsonl": "35797191a446e5674ea2fe1c17948aade4f4cdc70c43a1576dd5e9d1ad1588db",
    "features/epoch_0002.csv": "1315449d8992e9a8bf51cad9cf296ca503469de0561a3ec3d7acf830dafefb98",
    "features/epoch_0003.csv": "ff408bdbe3ebbcfc013d33d10d139d11c71e4687e23d90861364820f702aebe4",
    "features/epoch_0004.csv": "113fc716f8fc3d1e47da4256b7fe81cf8770a44e696c35aea405ccf7d81eed02",
    "features/epoch_0005.csv": "2daf8509cb53df4fe853fde57c1f244c65373053852fff7de5b5739afc72d324",
    "features/epoch_0006.csv": "cebf5c6525f917a8e07179b4f6a9a8516e5613df57cdfcf15897254cbc39838b",
    "features/epoch_0007.csv": "f491c694a56fa57c42a2fedfe4e9beb4f422282d3c33e31e10cea3cb7bca03f4",
}

# perfbench targets a training run never calls: CSV readers, ood-eval and the CLI
UNTRAINED_TARGETS = {"data.read_features_csv", "data.read_dataset_csv", "harness.evaluate_ood",
                     "harness.load_model", "cli.main"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    kwargs, expected = GOLDEN[name]
    report = run_experiment(RunConfig(**kwargs))
    assert hashlib.sha256(report.canonical_json()).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(FULL_SIZE))
def test_full_size_report_digest(run_cache, name):
    config, expected = FULL_SIZE[name]
    assert hashlib.sha256(run_cache.get(config).canonical_json()).hexdigest() == expected


def _as_schema_1(report) -> bytes:
    """report's bytes as schema 1 wrote them: epochs without the keys a later
    version added (by the epoch table's version column: the EM counts), and
    `disable_cl`, which was always false, in the config echo."""
    doc = json.loads(report.canonical_json())
    doc["schema_version"] = 1
    doc["config"]["disable_cl"] = False
    for epoch in doc["epochs"]:
        for name, *_, version in _EPOCH_TABLE:
            if version > 1:
                del epoch[name]
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", sorted(SCHEMA_1))
def test_schema_2_moved_no_number(run_cache, name):
    config = RunConfig(**GOLDEN[name][0]) if name in GOLDEN else FULL_SIZE[name][0]
    assert hashlib.sha256(_as_schema_1(run_cache.get(config))).hexdigest() == SCHEMA_1[name]


def test_default_seed1_em_totals(run_cache):
    # the totals perfbench's tracer counts for seed 1: 2 nets' fits in each of 30 main epochs
    main = [e for e in run_cache.get(RunConfig(seed=1)).epochs if e["phase"] == "main"]
    assert 2 * len(main) == 60
    assert sum(e["gmm_iterations"] for e in main) == 4724
    assert sum(e["gmm_capped"] for e in main) == 25


def test_dump_file_digests(tmp_path):
    kwargs, _ = GOLDEN["blobs-seed3"]
    run_experiment(RunConfig(**kwargs, **DUMPS), out_dir=tmp_path)
    features = {str(p.relative_to(tmp_path)) for p in (tmp_path / "features").glob("*.csv")}
    assert features == {name for name in GOLDEN_DUMPS if name.startswith("features/")}
    for name, expected in GOLDEN_DUMPS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected, name


def _load_perfbench_spans():
    """perfbench/spans.py as a module, imported without writing bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_perfbench_tracer_contract():
    # the benchmark traces the package by name: every target must resolve, a
    # traced run must keep its digest, and the counters it reads must move
    spans = _load_perfbench_spans()
    for module_name, path in spans.TARGETS:
        owner, attr = spans._resolve(sys.modules[f"noisylab.{module_name}"], path)
        assert callable(getattr(owner, attr)), f"{module_name}.{path}"
    kwargs, expected = GOLDEN["blobs-seed3"]
    tracer = spans.Tracer()
    with tracer.active():
        report = run_experiment(RunConfig(**kwargs))
    assert hashlib.sha256(report.canonical_json()).hexdigest() == expected
    assert {name for _, _, name, _, _ in tracer.spans} == \
        set(spans.span_names()) - UNTRAINED_TARGETS
    for counter in ("em_fits", "forward_rows", "candidates"):
        assert tracer.counts[counter] > 0, counter


def test_report_digest_independent_of_blas_threads():
    # one fresh interpreter per thread count: OpenBLAS reads it only at load
    kwargs, expected = GOLDEN["blobs-seed3"]
    child = ("import hashlib, json, sys\n"
             "from noisylab import RunConfig, run_experiment\n"
             "report = run_experiment(RunConfig(**json.loads(sys.argv[1])))\n"
             "print(hashlib.sha256(report.canonical_json()).hexdigest())\n")
    src = str(Path(noisylab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-c", child, json.dumps(kwargs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[threads] = proc.stdout.strip()
    assert digests == {"1": expected, "2": expected}


def test_ood_eval_json(tmp_path, capsys):
    kwargs, _ = GOLDEN["blobs-seed3"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(kwargs))
    run, csvs = tmp_path / "run", tmp_path / "data"
    assert cli_main(["train", "--config", str(config), "--out-dir", str(run)]) == 0
    assert cli_main(["gen-data", "--config", str(config), "--out-dir", str(csvs)]) == 0
    capsys.readouterr()
    assert cli_main(["ood-eval", "--run-dir", str(run), "--id-csv", str(csvs / "test.csv"),
                     "--ood-csv", str(csvs / "ood_far.csv"), str(csvs / "ood_near.csv")]) == 0
    assert capsys.readouterr().out == json.dumps(GOLDEN_OOD_EVAL, indent=2, sort_keys=True) + "\n"
