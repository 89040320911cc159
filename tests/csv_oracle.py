"""The pure-Python CSV readers that `noisylab.data` replaced, kept as an oracle.

`csv.reader` splits the cells and Python's int()/float() convert them one
by one. `data.read_dataset_csv`/`read_features_csv` parse with numpy's C
reader and must return equal arrays of equal dtypes for every file these
accept, and name the same line for every file these reject. Where the
two differ on purpose, the property test in `test_data.py` says so.
"""

import csv

import numpy as np

from noisylab.data import LabeledDataset
from noisylab.errors import ConfigError


def read_dataset_csv(path) -> LabeledDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["id", "true_label", "noisy_label"]:
            raise ConfigError(f"unexpected dataset header in {path}")
        ids, true_l, noisy_l, feats = [], [], [], []
        try:
            for row in reader:
                ids.append(int(row[0]))
                true_l.append(int(row[1]))
                noisy_l.append(int(row[2]))
                feats.append([float(v) for v in row[3:]])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
    return LabeledDataset(np.array(ids), _feature_matrix(path, feats, len(header) - 3),
                          np.array(true_l), np.array(noisy_l))


def read_features_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:1] != ["id"]:
            raise ConfigError(f"unexpected feature header in {path}")
        try:
            rows = [[float(v) for v in row[1:]] for row in reader]
        except ValueError as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
    return _feature_matrix(path, rows, len(header) - 1)


def _feature_matrix(path, rows: list, width: int) -> np.ndarray:
    """Rows as an (n, width) array; ConfigError naming the first bad line."""
    if not rows:
        raise ConfigError(f"{path} holds no data rows")
    try:
        out = np.array(rows, dtype=np.float64)
    except ValueError:  # ragged rows
        out = None
    if out is None or out.shape[1] != width:
        line, row = next((i, r) for i, r in enumerate(rows, start=2) if len(r) != width)
        raise ConfigError(f"{path}, line {line}: {len(row)} feature values, "
                          f"the header names {width}")
    return out
