"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same operation can take 1.6 times as long in one
minute as in the next, and that drift outlasts a run. `run.py` runs this
kernel after each operation, for 15% of that operation's time, and reports
`wall_rel`: the median operation time divided by the median kernel time
of the same run. The drift slows both alike, so the ratio keeps steady
where wall seconds do not, while a change to noisylab moves only the
numerator.

The kernel is a frozen miniature of a training run's two hottest layers,
written here in plain numpy so that no change to noisylab can move it:
an EM fit of a two-component 1-D Gaussian mixture on 2000 values (the
loss partition) and forward/backward passes of an 8-64-8 MLP on 64-row
batches (the nets). Its inputs are fixed, not drawn from the benchmark
seed.
"""

from __future__ import annotations

import time

import numpy as np

# keeps each call near 70 ms on a 2-core VM: short enough to slip between
# operations, long enough to time reliably
EM_ITERS = 100
MLP_STEPS = 200

_rng = np.random.default_rng(0)
_LOSSES = np.concatenate([_rng.normal(0.2, 0.1, 1400), _rng.normal(0.8, 0.2, 600)])
_BATCH = _rng.standard_normal((64, 8))
_W1 = _rng.standard_normal((8, 64))
_W2 = _rng.standard_normal((64, 8))


def _em() -> None:
    x = _LOSSES[:, None]
    mu, var, pi = np.array([0.1, 0.9]), np.array([0.05, 0.05]), np.array([0.5, 0.5])
    for _ in range(EM_ITERS):
        ll = -0.5 * (x - mu) ** 2 / var - 0.5 * np.log(2 * np.pi * var) + np.log(pi)
        resp = np.exp(ll - ll.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        nk = resp.sum(axis=0)
        mu = (resp * x).sum(axis=0) / nk
        var = (resp * (x - mu) ** 2).sum(axis=0) / nk + 1e-6
        pi = nk / len(x)


def _mlp() -> None:
    for _ in range(MLP_STEPS):
        hidden = np.maximum(_BATCH @ _W1, 0.0)
        out = hidden @ _W2
        grad_out = out - out.mean(axis=1, keepdims=True)
        grad_hidden = (grad_out @ _W2.T) * (hidden > 0)
        _BATCH.T @ grad_hidden
        hidden.T @ grad_out


def run_once() -> float:
    """Wall seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    _em()
    _mlp()
    return time.perf_counter() - t0


def run_for(seconds: float) -> list[float]:
    """Passes of the kernel until they add up to `seconds` (at least one)."""
    times = [run_once()]
    while sum(times) < seconds:
        times.append(run_once())
    return times
