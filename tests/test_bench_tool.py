"""The benchmark tools: bench.py's loader, every source tree its own package in one
interpreter, and reach.py's statement lister."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _environ() -> dict:
    """os.environ without the variable pytest itself rewrites in each test phase."""
    return {k: v for k, v in os.environ.items() if k != "PYTEST_CURRENT_TEST"}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "benchmarks" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    environ = _environ()
    spec.loader.exec_module(module)
    assert _environ() == environ  # the thread pins wait for main()
    return module


@pytest.fixture
def clean_process():
    """Asserts that the test leaves os.environ as it was; drops the trees it loaded."""
    environ = _environ()
    yield
    for name in [n for n in sys.modules if n.startswith("noisylab@")]:
        del sys.modules[name]
    assert _environ() == environ


def test_two_labels_on_one_tree_are_two_packages(bench, clean_process):
    a, b = bench.load_tree("a", SRC), bench.load_tree("b", SRC)
    assert a is not b and a.__name__ == "noisylab@a" and b.__name__ == "noisylab@b"
    assert a.nn is not b.nn
    assert a.harness.nn is a.nn and b.harness.nn is b.nn
    assert a.nn.DenseNet is not b.nn.DenseNet


def test_a_patched_copy_changes_only_its_own_label(bench, clean_process, tmp_path):
    shutil.copytree(SRC / "noisylab", tmp_path / "noisylab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "noisylab" / "nn.py", "a") as fh:
        fh.write("\n\ndef ntxent_term(z, temperature):\n    return 'sentinel'\n")
    real, patched = bench.load_tree("real", SRC), bench.load_tree("patched", tmp_path)
    z = np.random.default_rng(0).normal(size=(8, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    assert patched.nn.ntxent_term(z, 0.5) == "sentinel"
    assert sys.modules["noisylab@patched.nn"].ntxent_term(z, 0.5) == "sentinel"
    value, grad = real.nn.ntxent_term(z, 0.5)
    assert np.isfinite(value) and grad.shape == z.shape


def test_a_directory_without_the_package_is_one_line(bench, clean_process, tmp_path):
    (tmp_path / "noisylab").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench.load_tree("empty", tmp_path)
    message = str(exc.value.code)
    assert "empty" in message and str(tmp_path) in message and "\n" not in message
    assert "noisylab@empty" not in sys.modules


def test_rss_pairs_rotate_the_tree_order(bench):
    order = []
    peaks = bench.rss_pairs({"a": "A", "b": "B", "c": "C"}, 4,
                            lambda src: order.append(src) or {"setup": len(order)})
    assert "".join(order) == "ABC" + "BCA" + "CAB" + "ABC"
    assert peaks["a"] == [{"setup": 1}, {"setup": 6}, {"setup": 8}, {"setup": 10}]


def test_one_traced_child_per_tree_fills_tracemalloc_mb(bench):
    calls = []

    def child(src, traced=False):
        calls.append((src, traced))
        return {phase: (10.0 if traced else 40.0) + len(calls) for phase in bench.RSS_PHASES}

    peaks = bench.rss_pairs({"a": "A", "b": "B"}, 2, child)
    traced = bench.rss_traced({"a": "A", "b": "B"}, child)
    assert calls == [("A", False), ("B", False), ("B", False), ("A", False),
                     ("A", True), ("B", True)]
    rss = bench.rss_entry(peaks, traced)
    assert rss["tracemalloc_mb"] == {"a": dict.fromkeys(bench.RSS_PHASES, 15.0),
                                     "b": dict.fromkeys(bench.RSS_PHASES, 16.0)}
    assert rss["runs"]["a"]["setup"] == {"mib": [41.0, 44.0], "median_mib": 42.5}
    assert rss["vs_first"]["b"]["setup"] == {"mib": 0.0, "lower_pairs": 1}


TINY_RSS = {"n_train": 120, "n_test": 40, "ood_n": 20, "warmup_epochs": 1, "total_epochs": 3,
            "window": 1, "hidden_dims": [16, 8]}


def test_rss_bench_file_on_a_tiny_config(bench, monkeypatch, tmp_path):
    # four fresh interpreters, a pair and a traced one per tree, each through every
    # phase on a tiny run and tiny CSVs
    monkeypatch.setattr(bench, "RSS_RUN_CONFIG", TINY_RSS)
    monkeypatch.setattr(bench, "RSS_DATA_CONFIG", dict(TINY_RSS, n_test=700))
    for var in bench.THREAD_VARS:
        monkeypatch.setenv(var, "1")  # main pins them; the fixture restores them
    out = tmp_path / "bench.json"
    assert bench.main(["--rss", "1", "--src", f"a={SRC}", "--src", f"b={SRC}",
                       "--out", str(out)]) == 0
    rss = json.loads(out.read_text())["rss"]
    assert rss["pairs"] == 1 and rss["data_config"]["n_test"] == 700
    assert set(rss["runs"]) == {"a", "b"} and set(rss["vs_first"]) == {"b"}
    for runs in rss["runs"].values():
        assert list(runs) == sorted(bench.RSS_PHASES)
        mib = [runs[phase]["mib"][0] for phase in bench.RSS_PHASES]
        assert mib == sorted(mib) and mib[0] > 10  # a peak never falls
        assert all(runs[phase]["median_mib"] == runs[phase]["mib"][0] for phase in runs)
    for phase, d in rss["vs_first"]["b"].items():
        assert d["mib"] == rss["runs"]["b"][phase]["mib"][0] - rss["runs"]["a"][phase]["mib"][0]
        assert d["lower_pairs"] == (d["mib"] < 0)
    # one traced child per tree: each phase's own peak, so none holds the whole process
    for traced in rss["tracemalloc_mb"].values():
        assert list(traced) == sorted(bench.RSS_PHASES)
        assert all(0 < mb < rss["runs"]["a"]["setup"]["mib"][0] for mb in traced.values())
    with pytest.raises(SystemExit):
        bench.main(["--rss", "0", "--src", f"a={SRC}", "--out", str(out)])


THREE_FUNCTIONS = '''\
def used(x):
    """Calls helper when x is true."""
    if x:
        return helper(x)
    return 0


def helper(x):
    global SEEN
    return x + 1


def unused():
    return 2
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", ROOT / "benchmarks" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_lists_the_statements_that_did_not_run(reach, tmp_path):
    path = tmp_path / "three.py"
    path.write_text(THREE_FUNCTIONS)
    spec = importlib.util.spec_from_file_location("three", path)
    three = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(three)
    with reach.tracing(str(tmp_path)) as ran:
        assert three.used(1) == 2
    # neither the docstring nor `global` runs code, so neither is a statement here
    assert sorted(reach.statements(path)) == [3, 4, 5, 10, 14]
    assert reach.unreached(path, ran[str(path)]) == [5, 14]
    owners = reach.owners(path)
    assert [owners[line] for line in [3, 4, 5, 10, 14]] == ["used"] * 3 + ["helper", "unused"]


def test_reach_names_the_innermost_function(reach, tmp_path):
    path = tmp_path / "nested.py"
    path.write_text("class A:\n    def f(self):\n        def g():\n            return 1\n"
                    "        return g\n")
    assert reach.owners(path) == {3: "A.f", 4: "A.f.g", 5: "A.f"}


#: {(file, function): its statements that no route of reach.py runs}. Each is a
#: check of a state a run can reach only on other inputs, an internal invariant,
#: a name perfbench traces, or a finding CHANGES.md names. A statement that a
#: change leaves unrun, or newly runs, changes this table.
UNREACHED = {
    ("data.py", "_bad_line_error"): 1,  # a CSV that no single line makes bad
    ("geometry.py", "Envelope.__post_init__"): 1,  # invariants of the geometry kernels
    ("geometry.py", "estimate_envelope"): 1,
    ("geometry.py", "class_centroids"): 1,
    ("geometry.py", "_sample_gaussian"): 1,  # a class with no support rows
    ("geometry.py", "filter_outliers"): 1,
    ("harness.py", "_within_numpy_limits"): 1,  # a NoisylabError inside the block
    ("harness.py", "evaluate_ood"): 1,  # perfbench traces it
    ("harness.py", "Experiment._sgd_steps"): 1,  # a non-finite loss without a numpy error
    ("metrics.py", "accuracy"): 2,  # shape and empty-input checks of the metrics
    ("metrics.py", "selection_metrics"): 2,
    ("metrics.py", "_score_pair"): 2,
    ("nn.py", "DenseNet.__deepcopy__"): 1,  # Python's copy protocol; src never copies a net
    ("nn.py", "_run_segment"): 1,  # shape invariants of the nets and batches
    ("nn.py", "normalize_rows"): 4,  # a zero projection row
    ("nn.py", "_backward_projection"): 1,
    ("nn.py", "ntxent_term"): 1,
    ("nn.py", "total_loss_and_grads"): 1,
    ("partition.py", "Gmm1d.__post_init__"): 2,  # invariants of the EM fit
    ("partition.py", "fit_gmm_1d"): 3,  # fewer than two losses, all losses equal
    ("partition.py", "normalize_losses"): 1,
    ("partition.py", "partition_epoch"): 1,
    ("semisup.py", "apply_mixup"): 1,
}


def test_no_route_leaves_another_statement_unrun(reach, tmp_path):
    # about a second: every route of reach.py, traced in this process
    from noisylab import cli

    with reach.tracing(str(reach.PACKAGE)) as ran:
        reach.routes(cli.main, tmp_path)
    missed = [(path.name, reach.owners(path)[line], line)
              for path in sorted(reach.PACKAGE.glob("*.py"))
              for line in reach.unreached(path, ran.get(str(path), set()))]
    counts = Counter((name, owner) for name, owner, _ in missed)
    moved = {key: (counts[key], UNREACHED.get(key, 0))
             for key in counts.keys() | UNREACHED.keys() if counts[key] != UNREACHED.get(key, 0)}
    assert not moved, f"unrun statements, (now, pinned): {moved}; unrun lines: {missed}"


def test_no_route_loads_numpy_ma(reach, tmp_path):
    # np.percentile and np.unique import numpy.ma; no route may (a fresh interpreter,
    # since this process's oracles load it)
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(reach.ROOT / 'benchmarks')!r}]\n"
            "from pathlib import Path\nimport reach\nfrom noisylab import cli\n"
            f"reach.routes(cli.main, Path({str(tmp_path)!r}))\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
