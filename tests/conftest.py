import os

# one BLAS thread, as perfbench and bench.py use: set before anything loads numpy,
# since OpenBLAS reads it only then. A second thread costs a core and slows a run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402

import pytest  # noqa: E402

from noisylab import RunConfig, run_experiment  # noqa: E402


class RunCache:
    """Lazily run and cache full experiments shared across acceptance tests."""

    def __init__(self):
        self._runs = {}
        self.wall_clock = {}

    def config_for(self, variant: str, seed: int) -> RunConfig:
        base = RunConfig(seed=seed)
        if variant == "default":
            return base
        if variant == "no_vos":
            return base.replace(disable_vos=True)
        if variant.startswith("sampler:"):
            return base.replace(sampler=variant.split(":", 1)[1])
        if variant.startswith("tau:"):
            return base.replace(tau_auto_scale=float(variant.split(":", 1)[1]))
        raise KeyError(variant)

    def get(self, variant: str, seed: int):
        key = (variant, seed)
        if key not in self._runs:
            start = time.perf_counter()
            self._runs[key] = run_experiment(self.config_for(variant, seed))
            self.wall_clock[key] = time.perf_counter() - start
        return self._runs[key]

    def summaries(self, variant: str, seeds=(1, 2, 3, 4, 5)):
        return [self.get(variant, seed).summary for seed in seeds]


@pytest.fixture(scope="session")
def run_cache():
    return RunCache()
