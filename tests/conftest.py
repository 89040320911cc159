import os
import time

# one BLAS thread, as perfbench and bench.py use: set before anything loads numpy,
# since OpenBLAS reads it only then. A second thread costs a core and slows a run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from gradcheck import run_suite  # noqa: E402
from noisylab import RunConfig, run_experiment  # noqa: E402
from noisylab.harness import sweep_variants  # noqa: E402


class RunCache:
    """Lazily run and cache full experiments shared across acceptance tests,
    keyed by their resolved config, so equal variants of two grids run once."""

    def __init__(self):
        self._runs = {}

    def get(self, config: RunConfig):
        key = repr(config)
        if key not in self._runs:
            self._runs[key] = run_experiment(config)
        return self._runs[key]

    def sweep(self, grid: str, seeds=(1, 2, 3, 4, 5)):
        """{variant name: [report per seed]} over the default config's grid."""
        return {name: [self.get(variant.replace(seed=seed)) for seed in seeds]
                for name, variant in sweep_variants(grid, RunConfig())}


@pytest.fixture(scope="session")
def run_cache():
    return RunCache()


@pytest.fixture(scope="session")
def gradient_suite():
    """A loss kind's (worst relative finite-difference error over 100 configs from
    seed 1000, seconds that took): `gradcheck.run_suite`, run once per kind and
    session however many tests ask."""
    results = {}

    def result(kind: str) -> tuple[float, float]:
        if kind not in results:
            start = time.perf_counter()
            worst = run_suite(kind, n_configs=100, seed_base=1000)
            results[kind] = (worst, time.perf_counter() - start)
        return results[kind]

    return result
