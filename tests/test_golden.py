"""Golden report digests: the fast gate for behaviour-preserving changes.

Each case pins the sha256 of the full `report.json` bytes of one small
run (under a second each). A refactor that keeps these digests computes
the same numbers as before, bit for bit, without waiting for the
acceptance suite. A digest may only change together with a CHANGES.md
entry that says why the bits moved: a rounding-only change re-pins them
once, after `benchmarks/rounding.py` has compared the reports of these
same configs against the parent's (README, "Rounding-only changes").
The digests were last re-pinned when report schema 2 added each main
epoch's EM counts and dropped `disable_cl` from the config echo;
`test_schema_2_moved_no_number` proves that re-pin kept every number.
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
        "fd493125a307c359ee34263d9047d031591d88169c3277b8b95a2b72a715e574",
    ),
    "ring-asym-seed4": (
        dict(seed=4, generator="ring-classes", n_classes=3, noise_mode="asymmetric",
             noise_rate=0.3, **SMALL),
        "31d8f2d87a82e1f8c40fa332e201a302dd55654c7ccedaa2c314b0ec27d165ea",
    ),
    "moons-novos-seed5": (
        dict(seed=5, generator="two-moons-kd", n_classes=2, disable_vos=True, **SMALL),
        "dacfcb7b6d8a7bc33273e10fb89e373ad3cdc223858d4d4e82cb19aa05cd874c",
    ),
}

# full-size seed-1 runs that the acceptance gate makes anyway (its `vos` grid,
# through the session's run cache, which keys runs by config): pinning them here
# costs no run when the whole suite runs, and pins the benchmark's own operation
FULL_SIZE = {
    "default-seed1": (
        RunConfig(seed=1),
        "3d41971f2941f098eb5e066b8fe2cbeea28d4ae15313c2b30348561c9774f7d4",
    ),
    "no_vos-seed1": (
        RunConfig(seed=1, disable_vos=True),
        "d44e7bc982fcbdfa99fcefdc82d39b89a489a88cc2bca2f4e75d887269b27ac2",
    ),
}

# the same five reports' digests in schema 1, which had no EM counts and echoed
# `"disable_cl": false`: the proof that schema 2 moved no number
SCHEMA_1 = {
    "blobs-seed3": "59ee8b02aa2b0f676bf148fa7a343c29f5ba42325d936820740005652de6194d",
    "ring-asym-seed4": "a3c90e2bba942f486c1d1620b7b13ef3fc1679aed9341c27f39c6172c14de43d",
    "moons-novos-seed5": "e759df01055f35d7d36d5d3b48f87b8c98ac995bb3bc1816bdcb1afd14a8f09e",
    "default-seed1": "d3a9a5162b94b58272a45a89602c09531455b2acd3838de85062dbeaace9289a",
    "no_vos-seed1": "02d6ccb494bc29ab4c3dcca02bf74c9acedc927ff430c0345ab7744084fab6c9",
}

# `noisylab ood-eval` of the blobs-seed3 run on the ID and OOD CSVs that
# `gen-data` writes for the same config; the far set lies wholly on the
# wrong side of this short run's ID scores, the near set does not
GOLDEN_OOD_EVAL = {"ood_far": {"auroc": 0.0, "fpr95": 1.0},
                   "ood_near": {"auroc": 0.5366666666666666, "fpr95": 0.9333333333333333}}

# the dump files of the blobs-seed3 run with every dump switched on
DUMPS = dict(dump_selection=True, dump_geometry=True, export_features=True)
GOLDEN_DUMPS = {
    "selection_net0.csv": "ed8dba0da4cac56613214019b40cb09445d403cb57fbb4dcfa0165f3b4e9c6da",
    "selection_net1.csv": "e1b5dedfbaa4bc2dd677b9f3b4d19a562f65ee511f0f8e850f916e3db4e95e04",
    "geometry_net0.jsonl": "effa08c91a1deefddd12a18a47b4f38193dc8dd7b9a4fa1bccabc6330b436426",
    "geometry_net1.jsonl": "2b8ea80fa88cd018f9fe925b75e37eacb7779f8e49d8cef658bff67e518687ff",
    "features/epoch_0002.csv": "48774dbcd21ff0bd7dcf3707776bb4823c434674b5f38b7e975f5da472e3ad8d",
    "features/epoch_0003.csv": "d873e89e9b62b5572572f545e918d5ae249b6e688084f7880ef35beb0ed55d57",
    "features/epoch_0004.csv": "0c727800530018756506f783fe52eaf70be3076c9018450331f731db7c700563",
    "features/epoch_0005.csv": "59c818df4aa4a27a511907ede13c74444adeb30fa3d4e2e192ab88b24ecf31f5",
    "features/epoch_0006.csv": "3c888788931184baf2329ecf7443a2b73bbc2ff57300964844e2904edcdaf89d",
    "features/epoch_0007.csv": "3617355854c618cbb5611b584d78652c59112fae6c6244ed7fae56b25e6279ec",
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
    """report's bytes as schema 1 wrote them: epochs without the EM counts, and
    `disable_cl`, which was always false, in the config echo."""
    doc = json.loads(report.canonical_json())
    doc["schema_version"] = 1
    doc["config"]["disable_cl"] = False
    for epoch in doc["epochs"]:
        del epoch["gmm_iterations"], epoch["gmm_capped"]
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
