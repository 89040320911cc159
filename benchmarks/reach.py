"""Which statements of src/noisylab no CLI route runs.

    python3 benchmarks/reach.py

Runs `noisylab.cli.main` under `sys.settrace` on small configs that cover
every generator, noise mode, sampler, ablation switch and dump; `gen-data`;
`ood-eval` with and without `--id-csv` (that file long enough to be scored
in row blocks) and with `--out`; `ablate` on every grid; and a fixed list
of bad inputs, one per documented error class, each of which must end in
its exit code. Then prints `file:line function` of every statement in a
function body of src/noisylab that no route ran, and their count.
`tests/test_bench_tool.py` pins these counts per file and function.
Standard library only; it takes a few seconds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import shutil
import struct
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noisylab"
TINY = {"n_train": 120, "n_test": 40, "ood_n": 20, "warmup_epochs": 1, "total_epochs": 3,
        "window": 1, "hidden_dims": [16, 8]}
TRAIN = [  # with TINY: every generator, noise mode, sampler, switch and dump
    {"dump_selection": True, "dump_geometry": True, "export_features": True},
    {"generator": "ring-classes", "n_classes": 3, "noise_mode": "asymmetric",
     "noise_rate": 0.6, "sampler": "gaussian", "tau_auto": False},
    {"generator": "two-moons-kd", "n_classes": 2, "sampler": "perturbation",
     "single_network": True},
    {"sampler": "hybrid"},
    {"disable_vos": True, "ood_n": 3},  # fewer near-OOD rows than classes
]


def statements(path) -> dict[int, range]:
    """{first line: the lines whose running runs it} of each statement in a
    function body of the source file path. A compound statement runs its
    header (decorators included); docstrings and `global` run nothing."""
    found = {}
    for fn in ast.walk(ast.parse(Path(path).read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in (n for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.stmt)):
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            found[node.lineno] = range(start, end + 1)
    return found


def owners(path) -> dict[int, str]:
    """{first line: the qualified name (`f`, `Class.method`, `outer.inner`) of the
    innermost function holding it} of each statement in a function body of path."""
    found = {}

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if owner is not None and isinstance(child, ast.stmt):
                found.setdefault(child.lineno, owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                visit(child, owner if isinstance(child, ast.ClassDef) else name, name + ".")
            else:
                visit(child, owner, prefix)

    visit(ast.parse(Path(path).read_text()), None, "")
    return found


def unreached(path, ran: set[int]) -> list[int]:
    """First lines of path's function-body statements none of whose lines ran."""
    return sorted(line for line, span in statements(path).items() if ran.isdisjoint(span))


@contextlib.contextmanager
def tracing(prefix: str):
    """Yields {file name: lines run}, filled while the block runs, for files under prefix."""
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code.co_filename.startswith(prefix) else None)
    try:
        yield ran
    finally:
        sys.settrace(previous)


_HEAD = "id," + ",".join(f"f{j}" for j in range(8)) + "\n"  # the TINY nets' 8 inputs
_ROW = "0" + ",1.0" * 8 + "\n"
#: `train --config` files that end in a config error (exit 2): unknown key, mistyped
#: or out-of-range values, bad JSON, a generator's limit, sizes beyond numpy's limits
BAD_CONFIGS = [{"nope": 1}, {"lr": True}, {"disable_vos": "yes"}, {"lr": 10 ** 400},
               {"n_train": 1.5}, {"hidden_dims": "64"}, {"gce_q": 0.0}, b"{", b"[]",
               b'{"sampler": "\xff"}',
               {"generator": "two-moons-kd", "n_classes": 3}, {"separation": 1e308},
               dict(TINY, n_cand_cap=2 ** 62, n_cand_factor=2 ** 62), dict(TINY, n_aug=10 ** 11)]
#: `ood-eval --ood-csv` files that end in exit 2: a bad header, cell, row, width or
#: byte (in the header's block of text, and past it), no rows, and rows that
#: overflow the nets (every sign pattern of huge cells)
BAD_CSVS = ["x" + _HEAD, _HEAD + _ROW + "0,abc" + ",1.0" * 7 + "\n", _HEAD + "0,1_0" + _ROW[5:],
            _HEAD + "0,1.0\n", _HEAD + "\n" + _ROW, _HEAD, _HEAD + "0,nan" + _ROW[5:],
            _HEAD.encode() + b"0,\xff" + _ROW[2:].encode(),
            (_HEAD + _ROW * 1000).encode() + b"0,\xff" + _ROW[2:].encode(), "id,f0,f1\n0,1,2\n",
            _HEAD + "".join(f"{m}," + ",".join(("-1.7e308", "1.7e308")[m >> j & 1]
                                               for j in range(8)) + "\n" for m in range(256))]


def _npy(descr: str, shape: tuple, data: bytes) -> bytes:
    """The bytes of a version 1.0 .npy file."""
    header = repr({"descr": descr, "fortran_order": False, "shape": shape}).encode()
    header += b" " * (-(len(header) + 11) % 64) + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header + data


#: replacements of a TINY net's file, or of arrays in it (None drops one), that
#: `ood-eval` rejects with exit 2: not a zip, a missing array, 1-D weights, a
#: bias of another width, unknown activations, bad splits, widths that disagree
#: in the extractor and at a head, 2-D splits, 0-d activations, complex weights,
#: another input width
BAD_MODELS = [b"not a model\n", {"activations.npy": None},
              {"w0.npy": _npy("<f8", (128,), bytes(1024))},
              {"b0.npy": _npy("<f8", (3,), bytes(24))},
              {"activations.npy": _npy("<U4", (4,), "tanh".encode("utf-32-le") * 4)},
              {"splits.npy": _npy("<i8", (2,), struct.pack("<2q", 0, 1))},
              {"w1.npy": _npy("<f8", (8, 15), bytes(8 * 120))},
              {"w2.npy": _npy("<f8", (4, 7), bytes(8 * 28))},
              {"splits.npy": _npy("<i8", (2, 2), struct.pack("<4q", 1, 2, 2, 3))},
              {"activations.npy": _npy("<U4", (), "relu".encode("utf-32-le"))},
              {"w0.npy": _npy("<c16", (16, 8), bytes(16 * 128))},
              {"w0.npy": _npy("<f8", (16, 9), bytes(8 * 144))}]


def routes(main, tmp: Path) -> None:
    """Every route above through main; SystemExit if one ends in another exit code."""
    def run(code, *argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                got = main([str(a) for a in argv])
            except SystemExit as exc:  # argparse
                got = exc.code
        if got != code:
            raise SystemExit(f"exit {got}, not {code}: {' '.join(map(str, argv))}")

    def file(name, body):
        (tmp / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp / name).write_bytes(body if isinstance(body, bytes) else
                                 body.encode() if isinstance(body, str) else
                                 json.dumps(body).encode())
        return tmp / name

    def model_run(name, replacement):  # run0 with models/net1.npz replaced or edited
        run_dir = tmp / name
        shutil.copytree(tmp / "run0", run_dir)
        npz = run_dir / "models" / "net1.npz"
        if isinstance(replacement, bytes):
            npz.write_bytes(replacement)
            return run_dir
        with zipfile.ZipFile(npz) as z:
            arrays = dict({m: z.read(m) for m in z.namelist()}, **replacement)
        with zipfile.ZipFile(npz, "w") as z:
            for member, data in arrays.items():
                if data is not None:
                    z.writestr(member, data)
        return run_dir

    for i, extra in enumerate(TRAIN):
        run(0, "train", "--config", file(f"c{i}.json", dict(TINY, **extra)),
            "--out-dir", tmp / f"run{i}")
    tiny, run0, far = file("tiny.json", TINY), tmp / "run0", tmp / "d" / "ood_far.csv"
    run(0, "train", "--config", tiny, "--seed", 2)
    run(0, "gen-data", "--config", file("d.json", dict(TINY, n_test=1300)), "--out-dir", tmp / "d")
    run(0, "ood-eval", "--run-dir", run0, "--ood-csv", far, tmp / "d" / "ood_near.csv")
    run(0, "ood-eval", "--run-dir", run0, "--id-csv", tmp / "d" / "test.csv", "--ood-csv", far,
        "--out", tmp / "ood.json")
    for grid in ("vos", "sampler", "tau"):
        run(0, "ablate", "--config", tiny, "--grid", grid, "--seeds", 1, "--keep-runs",
            "--out-dir", tmp / grid)

    for i, body in enumerate(BAD_CONFIGS):
        run(2, "train", "--config", file(f"bad{i}.json", body))
    run(3, "train", "--config", file("lr.json", dict(TINY, lr=1000)),  # inside an SGD step
        "--out-dir", tmp / "diverged")
    run(3, "train", "--config", file("huge.json", {"n_train": 40, "n_test": 20, "ood_n": 10,
                                                   "warmup_epochs": 1, "lr": 1e300,
                                                   "total_epochs": 3}))  # outside one
    run(2, "train", "--disable-vos")
    run(2, "train", "--seed", -5)
    run(2, "ablate", "--grid", "vos", "--seeds", "a", "--out-dir", tmp / "ab")
    run(2, "ablate", "--grid", "vos", "--seeds", "1,-2", "--out-dir", tmp / "ab")
    for i, body in enumerate(BAD_CSVS):
        run(2, "ood-eval", "--run-dir", run0, "--ood-csv", file(f"csv{i}/ood.csv", body))
    run(2, "ood-eval", "--run-dir", run0, "--ood-csv", file("a/x.csv", _HEAD + _ROW),
        file("b/x.csv", _HEAD + _ROW))
    run(2, "ood-eval", "--run-dir", run0, "--ood-csv", far, "--id-csv",
        file("id.csv", "id,true_label,noisy_label" + _HEAD[2:] + "x,0,0" + _ROW[1:]))
    for i, replacement in enumerate(BAD_MODELS):
        run(2, "ood-eval", "--run-dir", model_run(f"m{i}", replacement), "--ood-csv", far)
    shutil.copytree(run0, tmp / "empty", ignore=shutil.ignore_patterns("*.npz"))  # no nets
    run(4, "ood-eval", "--run-dir", tmp / "empty", "--ood-csv", far)
    run(4, "ood-eval", "--run-dir", tmp / "missing", "--ood-csv", far)


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
    sys.path.insert(0, str(PACKAGE.parent))
    from noisylab import cli

    with tempfile.TemporaryDirectory() as tmp, tracing(str(PACKAGE)) as ran:
        routes(cli.main, Path(tmp))
    sources = sorted(PACKAGE.glob("*.py"))
    missed = [f"{p.relative_to(ROOT)}:{line} {owners(p)[line]}" for p in sources
              for line in unreached(p, ran.get(str(p), set()))]
    print("\n".join(missed + [f"{len(missed)} of {sum(len(statements(p)) for p in sources)} "
                              "function-body statements run by no route"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
