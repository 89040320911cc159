"""Golden report digests: the fast gate for behaviour-preserving changes.

Each case pins the sha256 of the full `report.json` bytes of one small
run (under a second each). A refactor that keeps these digests computes
the same numbers as before, bit for bit, without waiting for the
acceptance suite. A digest may only change together with a CHANGES.md
entry that says why the bits moved.
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

SMALL = dict(n_train=300, n_test=100, ood_n=60, warmup_epochs=2, total_epochs=8)

GOLDEN = {
    "blobs-seed3": (
        dict(seed=3, **SMALL),
        "96e3698a0fce90c7bfa81750609662a47625ddaf68ff19bad900e4b75ca472d6",
    ),
    "ring-asym-seed4": (
        dict(seed=4, generator="ring-classes", n_classes=3, noise_mode="asymmetric",
             noise_rate=0.3, **SMALL),
        "4636f1dde3e532d93be90d20d72519665e0168019bd49e251f3074b3ecf0f82f",
    ),
    "moons-novos-seed5": (
        dict(seed=5, generator="two-moons-kd", n_classes=2, disable_vos=True, **SMALL),
        "3e3843d5c26796986a165ef0320bfac08c7d38d0fe52d8ee6d6393e0d1328792",
    ),
}

# full-size seed-1 runs that the acceptance gate makes anyway (its `vos` grid,
# through the session's run cache, which keys runs by config): pinning them here
# costs no run when the whole suite runs, and pins the benchmark's own operation
FULL_SIZE = {
    "default-seed1": (
        RunConfig(seed=1),
        "9fae2bf61b1959db6fc88d65ef8001e342816eced51897237593880cea8b14b9",
    ),
    "no_vos-seed1": (
        RunConfig(seed=1, disable_vos=True),
        "fb01b91f27fef46499d559f2f8407d047f83d183ba1e44ecdb5fcd02efde4203",
    ),
}

# `noisylab ood-eval` of the blobs-seed3 run on the ID and OOD CSVs that
# `gen-data` writes for the same config; the far set lies wholly on the
# wrong side of this short run's ID scores, the near set does not
GOLDEN_OOD_EVAL = {"ood_far": {"auroc": 0.0, "fpr95": 1.0},
                   "ood_near": {"auroc": 0.5366666666666666, "fpr95": 0.9333333333333333}}

# the dump files of the blobs-seed3 run with every dump switched on
DUMPS = dict(dump_selection=True, dump_geometry=True, export_features=True)
GOLDEN_DUMPS = {
    "selection_net0.csv": "9632a5568c75191de77a5907122ce303a5ae1e5f61d66ee05d98e4f2da3bf1fd",
    "selection_net1.csv": "403c246d50d376c32bc58e51c98f1e7cf3efc6284cef8a908900d0183e99fd74",
    "geometry_net0.jsonl": "07e2c7b99d4e34e98c7888d0e6de51cde5ffea1db9cd1d426f0fba76784b82e7",
    "geometry_net1.jsonl": "01c098f68c84a2009e36564ea7f76b7b4e928983b6326c0d72db2067ba9c1090",
    "features/epoch_0002.csv": "3878e01ccb4eaf7f8a8056833feb05b10162f6fb6f265965293473dc32a0531e",
    "features/epoch_0003.csv": "87aa931e7a2f2c48e68b60f05a5a0f90838bba221e78cbd6a03a44e2e885031d",
    "features/epoch_0004.csv": "7d9ada7732cc8eb0f6f9a9761a06d57822219e98d21ec617695a1473c8376e5e",
    "features/epoch_0005.csv": "44ec3dbc4173a346ab96f890351cf37b1afae6b68cc0052837291b4fbec4c977",
    "features/epoch_0006.csv": "52212ccda88b5256c5fb9c2710c9ea3a2b1046aaca3c8a82cb52bde0c035b7bf",
    "features/epoch_0007.csv": "0d3deafb29968f82f6449b3b0b7898ad89f95373da186da24edf2c3f7d1bbf12",
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
