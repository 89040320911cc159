"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

Checks BENCHMARK.json against the benchmark's contract, runs each
workload (the declared ones and UNDECLARED) at minimal length with
tracing off and on, and asserts that
every declared metric is emitted with its unit, that no operation
failed (error_rate 0) and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
# workloads run.py knows that BENCHMARK.json does not declare
UNDECLARED = ["train-novos", "sweep-samplers"]


def check_declaration(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, sorted(bench)
    assert 1 <= len(bench["paths"]) <= 16
    for p in bench["paths"]:
        assert PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/"), p
        assert (ROOT / p).is_dir(), p
    assert 1 <= len(bench["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    names = [m["name"] for m in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower"), m
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def run(bench: dict, workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable if a == "python3" else a for a in bench["command"]]
    argv += ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(bench: dict, workload: str, trace: int) -> None:
    done = run(bench, workload, trace)
    assert done.returncode == 0, (workload, trace, done.returncode, done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, done.stderr)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    assert "error_rate 0.0000" in done.stdout, done.stdout
    digests = [line for line in done.stdout.splitlines() if "sha256" in line]
    print(f"ok  {workload:15s} trace={trace}  attempted={result['attempted']}  "
          + (digests[0].split(": ")[-1][:16] if digests else ""))


def check_bare_directory(bench: dict) -> None:
    """Without the program's sources the benchmark exits non-zero and prints no result."""
    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns(".work", "out"))
        done = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
        assert done.returncode != 0, "benchmark ran without the program's sources"
        assert '"metrics"' not in done.stdout, done.stdout
        print(f"ok  bare directory: exit {done.returncode}, {done.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declaration(bench)
    print("ok  BENCHMARK.json declaration")
    check_bare_directory(bench)
    for workload in argv or [w["name"] for w in bench["workloads"]] + UNDECLARED:
        for trace in (0, 1):
            check_run(bench, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
