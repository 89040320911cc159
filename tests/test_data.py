"""Dataset generation, noise injection, OOD sets, and CSV round trips."""

import re
import tempfile
import tracemalloc
from pathlib import Path

import csv_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab import data
from noisylab.config import RunConfig
from noisylab.errors import ConfigError


class TestGenerate:
    def test_well_separated_blobs_linearly_classifiable(self):
        spec = data.SyntheticSpec(n_samples=400, n_classes=3, input_dim=5,
                                  separation=10.0, seed=1)
        ds = data.generate(spec)
        # one-vs-all least squares on [X, 1]
        X = np.hstack([ds.features, np.ones((len(ds.ids), 1))])
        Y = np.zeros((len(ds.ids), 3))
        Y[np.arange(len(ds.ids)), ds.true_labels] = 1.0
        W, *_ = np.linalg.lstsq(X, Y, rcond=None)
        pred = (X @ W).argmax(axis=1)
        assert (pred == ds.true_labels).all()

    def test_one_sample_per_class(self):
        spec = data.SyntheticSpec(n_samples=4, n_classes=4, seed=3)
        ds = data.generate(spec)
        assert sorted(ds.true_labels) == [0, 1, 2, 3]

    def test_balanced_within_one(self):
        spec = data.SyntheticSpec(n_samples=103, n_classes=4, seed=5)
        counts = np.bincount(data.generate(spec).true_labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_same_seed_bit_identical(self):
        spec = data.SyntheticSpec(seed=7)
        a, b = data.generate(spec), data.generate(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.true_labels, b.true_labels)

    @pytest.mark.parametrize("generator,k", [("gaussian-blobs", 4),
                                             ("two-moons-kd", 2),
                                             ("ring-classes", 3)])
    def test_all_generators_produce_finite_features(self, generator, k):
        spec = data.SyntheticSpec(generator=generator, n_samples=120, n_classes=k,
                                  input_dim=6, seed=2)
        ds = data.generate(spec)
        assert np.isfinite(ds.features).all()
        assert ds.features.shape == (120, 6)

    # The specs carry no checks of their own: RunConfig, their only builder's
    # source, rejects what a generator cannot honour before any data is drawn.
    def test_moons_requires_two_classes(self):
        with pytest.raises(ConfigError, match="two-moons-kd is a two-class generator"):
            RunConfig.from_dict({"generator": "two-moons-kd", "n_classes": 3})

    def test_invalid_spec_fields(self):
        with pytest.raises(ConfigError, match="generator must be one of"):
            RunConfig.from_dict({"generator": "spirals"})
        with pytest.raises(ConfigError, match="n_train must cover every class"):
            RunConfig.from_dict({"n_train": 2, "n_classes": 4})


def _blob_test_split(train_spec, n_samples, seed):
    """The gaussian-blobs test split as its own code path once drew it.

    Kept as an oracle: `generate_test_split` is now `generate` with the
    new size and seed, which must give these arrays bit for bit.
    """
    centers = data._blob_centers(train_spec.n_classes, train_spec.input_dim,
                                 train_spec.separation)
    rng = np.random.default_rng(seed)
    counts = data._balanced_counts(n_samples, train_spec.n_classes)
    labels = np.repeat(np.arange(train_spec.n_classes), counts)
    feats = centers[labels] + rng.normal(size=(n_samples, train_spec.input_dim))
    order = rng.permutation(n_samples)
    return data.LabeledDataset(np.arange(n_samples), feats[order], labels[order],
                               labels[order].copy())


class TestGenerateTestSplit:
    def test_blobs_match_the_old_blob_branch(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(2, 2 * d + 1))
            spec = data.SyntheticSpec("gaussian-blobs", int(rng.integers(k, 300)), k, d,
                                      float(rng.uniform(0.1, 10.0)), int(rng.integers(2 ** 32)))
            n_test, seed = int(rng.integers(k, 300)), int(rng.integers(2 ** 32))
            got = data.generate_test_split(spec, n_test, seed)
            want = _blob_test_split(spec, n_test, seed)
            for field in ("ids", "features", "true_labels", "noisy_labels"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (spec, field)


class TestInjectNoise:
    def _ds(self, n=10_000, k=10, seed=0):
        return data.generate(data.SyntheticSpec(n_samples=n, n_classes=k,
                                                input_dim=5, seed=seed))

    def test_zero_rate_keeps_labels(self):
        ds = self._ds(200, 4)
        noisy = data.inject_noise(ds, data.NoiseSpec(rate=0.0, seed=1))
        assert np.array_equal(noisy.noisy_labels, ds.true_labels)

    def test_symmetric_rate_concentrates(self):
        ds = self._ds()
        noisy = data.inject_noise(ds, data.NoiseSpec(mode="symmetric", rate=0.4, seed=2))
        flip_frac = (noisy.noisy_labels != noisy.true_labels).mean()
        assert abs(flip_frac - 0.4) <= 0.015  # 3 sigma binomial bound

    def test_symmetric_never_flips_to_true_label(self):
        ds = self._ds(5000, 5)
        noisy = data.inject_noise(ds, data.NoiseSpec(mode="symmetric", rate=0.9, seed=3))
        flipped = noisy.noisy_labels != noisy.true_labels
        assert flipped.any()
        # every flip leaves the class; (checked by construction on all samples)
        assert (noisy.noisy_labels[flipped] != noisy.true_labels[flipped]).all()

    def test_asymmetric_flips_follow_circular_map(self):
        ds = self._ds(8000, 4)
        noisy = data.inject_noise(ds, data.NoiseSpec(mode="asymmetric", rate=0.3, seed=4))
        # exhaustive pair tally
        for i in range(8000):
            t, y = noisy.true_labels[i], noisy.noisy_labels[i]
            assert y == t or y == (t + 1) % 4

    def test_true_labels_preserved(self):
        ds = self._ds(300, 3)
        noisy = data.inject_noise(ds, data.NoiseSpec(rate=0.5, seed=5))
        assert np.array_equal(noisy.true_labels, ds.true_labels)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError, match=r"noise_rate must lie in \[0, 1\)"):
            RunConfig.from_dict({"noise_rate": 1.0})


class TestTrainViewFirewall:
    def test_view_has_no_true_labels(self):
        ds = data.generate(data.SyntheticSpec(n_samples=20, seed=0))
        view = ds.train_view()
        assert not hasattr(view, "true_labels")
        assert set(view.__dataclass_fields__) == {"ids", "features", "noisy_labels"}

    def test_view_is_a_copy(self):
        ds = data.generate(data.SyntheticSpec(n_samples=20, seed=0))
        view = ds.train_view()
        view.features[0, 0] = 1e9
        assert ds.features[0, 0] != 1e9


class TestGenerateOod:
    def _ds(self):
        return data.generate(data.SyntheticSpec(n_samples=400, n_classes=4,
                                                input_dim=6, seed=9))

    def test_far_box_entirely_outside_id_range(self):
        ds = self._ds()
        ood = data.generate_ood(data.OodSpec(regime="far", n_samples=500, seed=1), ds)
        lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
        inside = ((ood >= lo) & (ood <= hi)).all(axis=1)
        assert inside.sum() == 0
        assert (ood > hi).all()

    def test_near_centers_at_prescribed_distance(self):
        ds = self._ds()
        spec = data.OodSpec(regime="near", n_samples=4, seed=2, near_spread=0.0)
        ood = data.generate_ood(spec, ds)
        centroids = np.stack([ds.features[ds.true_labels == c].mean(axis=0)
                              for c in range(4)])
        radius = data._class_radius(ds)
        for center in ood:
            d = np.sqrt(((center - centroids) ** 2).sum(axis=1)).min()
            assert abs(d - 1.5 * radius) <= 1e-9

    def test_seeded_regeneration_bit_identical(self):
        ds = self._ds()
        spec = data.OodSpec(regime="near", n_samples=100, seed=3)
        assert np.array_equal(data.generate_ood(spec, ds), data.generate_ood(spec, ds))


class TestCsvRoundTrip:
    def test_dataset_lossless(self, tmp_path):
        ds = data.inject_noise(
            data.generate(data.SyntheticSpec(n_samples=50, seed=11)),
            data.NoiseSpec(rate=0.4, seed=12))
        path = tmp_path / "train.csv"
        data.write_dataset_csv(ds, path)
        back = data.read_dataset_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert np.array_equal(back.noisy_labels, ds.noisy_labels)
        assert np.array_equal(back.ids, ds.ids)

    def test_header_layout(self, tmp_path):
        ds = data.generate(data.SyntheticSpec(n_samples=4, input_dim=3, seed=0))
        path = tmp_path / "t.csv"
        data.write_dataset_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "id,true_label,noisy_label,f0,f1,f2"

    def test_features_lossless(self, tmp_path):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(30, 5)) * 10.0 ** rng.integers(-8, 8, size=(30, 5))
        path = tmp_path / "ood.csv"
        data.write_features_csv(feats, path)
        assert np.array_equal(data.read_features_csv(path), feats)

    @pytest.mark.parametrize("body,where", [
        ("id,f0,f1\n0,1.0,2.0\n1,1.0,oops\n", "line 3"),
        ("id,f0,f1\n0,1.0,2.0\n1,1.0\n", "line 3"),
        ("id,f0,f1\n", "no data rows"),
        ("", "unexpected feature header"),
        (b"id,f\xff0\n0,1.0\n", "is not utf-8 text: invalid start byte \\(byte 0xff\\)"),
        (b"id,f0\n0,\xff1.0\n", "is not utf-8 text"),
        # the header decodes alone; the bad byte lies in a later chunk of the body
        (b"id,f0\n" + b"0,1.0\n" * 5000 + b"1,\xff1.0\n", "is not utf-8 text"),
    ], ids=["non-numeric", "ragged", "header-only", "empty", "undecodable-header",
            "undecodable-cell", "undecodable-past-first-chunk"])
    def test_malformed_features_raise_config_error(self, tmp_path, body, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(body.encode() if isinstance(body, str) else body)
        with pytest.raises(ConfigError, match=where):
            data.read_features_csv(path)

    def test_malformed_dataset_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,true_label,noisy_label,f0\n0,1,1,0.5\n1,x,1,0.5\n")
        with pytest.raises(ConfigError, match="line 3"):
            data.read_dataset_csv(path)


class TestCsvReaderMemory:
    def test_peak_is_near_the_returned_arrays(self, tmp_path):
        # the body is parsed as it streams from the file: no copy of its text
        # is held, and the columns are views of the parsed table, not copies
        path = tmp_path / "train.csv"
        data.write_dataset_csv(data.generate(data.SyntheticSpec(n_samples=20_000, seed=0)),
                               path)
        tracemalloc.start()
        try:
            back = data.read_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(a.nbytes for a in (back.ids, back.true_labels, back.noisy_labels,
                                        back.features))
        assert len(back.ids) == 20_000
        assert peak <= 1.5 * nbytes, (peak, nbytes)


# cells that neither Python's int()/float() nor numpy's reader take as a number
TEXT_CELLS = ("abc", "1.2.3", "", "--1", "0x1f", "1e", "#3")


@st.composite
def csv_files(draw):
    """(kind, file text, corruption): a valid dataset or feature CSV, at most
    one corruption applied.

    Cells are written with `.17g` or `repr`, padded with spaces and tabs,
    optionally quoted; lines end in \\n, \\r\\n or \\r.
    """
    kind = draw(st.sampled_from(["dataset", "features"]))
    width = draw(st.integers(1, 5))
    lead = ["id", "true_label", "noisy_label"] if kind == "dataset" else ["id"]

    def cell(text):
        pad = st.text(alphabet=" \t", max_size=2)
        text = draw(pad) + text + draw(pad)
        return f'"{text}"' if draw(st.booleans()) else text

    def number():
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        return cell(format(value, ".17g") if draw(st.booleans()) else repr(value))

    def lead_cell():
        if kind == "dataset":
            return cell(str(draw(st.integers(-2 ** 63, 2 ** 63 - 1))))
        return cell(draw(st.text(alphabet="ab #-_.0123456789", max_size=6)))

    quote_header = draw(st.booleans())
    header = [f'"{name}"' if quote_header else name
              for name in lead + [f"f{j}" for j in range(width)]]
    rows = [[lead_cell() for _ in lead] + [number() for _ in range(width)]
            for _ in range(draw(st.integers(1, 6)))]

    corruption = draw(st.sampled_from([None, "drop", "extra", "text", "blank", "header-only"]))
    i = draw(st.integers(0, len(rows) - 1))
    if corruption == "drop":
        del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
    elif corruption == "extra":
        rows[i].insert(draw(st.integers(0, len(rows[i]))), number())
    elif corruption == "text":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(TEXT_CELLS))
    elif corruption == "blank":
        rows.insert(draw(st.integers(0, len(rows))), [])
    elif corruption == "header-only":
        rows = []
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(",".join(r) for r in [header] + rows)
    return kind, text + (end if draw(st.booleans()) else ""), corruption


def _outcome(read, path):
    """(result, None) or (None, the line number the ConfigError names, or 0 for none)."""
    try:
        return read(path), None
    except ConfigError as exc:
        match = re.search(r"line (\d+)", str(exc))
        return None, int(match.group(1)) if match else 0


class TestCsvReaderOracle:
    """numpy-parsed readers against the Python readers in `csv_oracle`.

    Deliberate differences, outside the property test: a cell that Python
    parses but numpy's reader does not (digit separators like `1_0`,
    non-ASCII digits) is rejected now, and so is a non-finite feature
    (`nan`, `inf`, or a number past the float range), which the Python
    readers returned. numpy also strips the ASCII separators 0x1c-0x1f
    around a number, which Python's float() refuses.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csv_files())
    def test_same_arrays_or_same_bad_line(self, case):
        kind, text, corruption = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.csv"
            path.write_bytes(text.encode())
            if kind == "dataset":
                new, new_line = _outcome(data.read_dataset_csv, path)
                old, old_line = _outcome(csv_oracle.read_dataset_csv, path)
            else:
                new, new_line = _outcome(data.read_features_csv, path)
                old, old_line = _outcome(csv_oracle.read_features_csv, path)
        assert new_line == old_line, (corruption, text)
        if new is None:
            assert corruption is not None
            return
        if kind == "dataset":
            pairs = [(new.ids, old.ids), (new.true_labels, old.true_labels),
                     (new.noisy_labels, old.noisy_labels), (new.features, old.features)]
        else:
            pairs = [(new, old)]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.ndim == 1 or got.strides[1] == got.itemsize  # contiguous rows
            assert got.tobytes() == want.tobytes()  # == to the bit, -0.0 included
        if kind == "features":  # no lead column is kept: the matrix is the table
            assert new.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("header, rows", [
        ("id,f0,f1", "0,1.0,2.0\n1,1_0,2.0\n"),
        ("id,f0,f1", "0,1.0,2.0\n1,1.0,\u0663\n"),
        ("id,true_label,noisy_label,f0", "0,1,1,1.0\n1_0,1,1,1.0\n"),
        ("id,true_label,noisy_label,f0", "0,1,1,1.0\n\u0661,1,1,1.0\n"),
    ], ids=["separator-float", "arabic-indic-float", "separator-int", "arabic-indic-int"])
    def test_python_only_numbers_rejected(self, tmp_path, header, rows):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{rows}", encoding="utf-8")
        dataset = header.startswith("id,true_label")
        oracle = csv_oracle.read_dataset_csv if dataset else csv_oracle.read_features_csv
        oracle(path)  # Python's int()/float() take the cell
        with pytest.raises(ConfigError, match="line 3: .* is not a"):
            (data.read_dataset_csv if dataset else data.read_features_csv)(path)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity", "1e999"])
    def test_non_finite_feature_names_the_line(self, tmp_path, cell):
        path = tmp_path / "ood.csv"
        path.write_text(f"id,f0,f1\n0,1.0,2.0\n1,{cell},2.0\n2,1.0,2.0\n")
        assert not np.isfinite(csv_oracle.read_features_csv(path)).all()
        with pytest.raises(ConfigError, match=f"line 3: '{cell}' is not a finite number"):
            data.read_features_csv(path)

    def test_blank_line_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,true_label,noisy_label,f0\n0,1,1,0.5\n\n1,0,1,0.5\n")
        with pytest.raises(ConfigError, match="line 3: blank line"):
            data.read_dataset_csv(path)
