"""Golden report digests: the fast gate for behaviour-preserving changes.

Each case pins the sha256 of the full `report.json` bytes of one small
run (under a second each). A refactor that keeps these digests computes
the same numbers as before, bit for bit, without waiting for the
acceptance suite. A digest may only change together with a CHANGES.md
entry that says why the bits moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisylab
from noisylab import RunConfig, run_experiment

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    kwargs, expected = GOLDEN[name]
    report = run_experiment(RunConfig(**kwargs))
    assert hashlib.sha256(report.canonical_json()).hexdigest() == expected


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
