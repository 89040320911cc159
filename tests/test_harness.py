"""Configuration, orchestration, reports, persistence, and the CLI."""

import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import batch_oracle
import noisylab
from noisylab import RunConfig, data, metrics, nn, run_experiment
from noisylab.cli import main as cli_main
from noisylab.errors import ConfigError
from noisylab.harness import (_MEAN_KEYS, _RECORD_KEYS, _SUM_KEYS, REPORT_SCHEMA, SWEEP_GRIDS,
                              Experiment, _mean_probs, build_datasets, evaluate_ood, load_model,
                              mean_of_net_rows, ood_scores, save_model, sweep_variants)
from noisylab.nn import SCORE_BLOCK_ROWS

SMOKE = dict(n_train=300, n_test=150, warmup_epochs=2, total_epochs=5,
             hidden_dims=(16, 8), ood_n=100, window=2)
INPUT_DIM = RunConfig().input_dim
FEATURE_HEADER = "id," + ",".join(f"f{j}" for j in range(INPUT_DIM)) + "\n"
TINY_RUN = dict(n_train=200, n_test=60, ood_n=40, warmup_epochs=1, total_epochs=3)


def widened(net):
    """A copy of net whose first layer takes one more input column."""
    first = net.layers[0]
    wider = nn.DenseLayer(np.hstack([first.weights, np.zeros((first.out_dim, 1))]),
                          first.bias, first.activation)
    return nn.DenseNet([wider] + net.layers[1:], net.extractor_end, net.classifier_end)


def resaved(path, change):
    """Rewrite the model file at path with change(arrays)'s entries replacing its arrays'."""
    with np.load(path) as blob:
        arrays = dict(blob)
    np.savez(path, **dict(arrays, **change(arrays)))


def _child_env():
    """This environment with noisylab's sources first on PYTHONPATH, for a child
    interpreter (pytest's `pythonpath` setting reaches only the test process)."""
    src = str(Path(noisylab.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def smoke_report():
    return run_experiment(RunConfig(seed=3, **SMOKE))


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("saved_run")
    run_experiment(RunConfig(seed=2, **SMOKE), out_dir=run_dir)
    return run_dir


class TestConfig:
    def test_defaults_valid(self):
        RunConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"learning_rate": 0.1})

    def test_bad_values_rejected(self):
        for key, value in [("noise_rate", 1.5), ("tau_clean", 0.0), ("gce_q", 2.0),
                           ("sampler", "sobol"), ("total_epochs", 3), ("lr", -0.1),
                           ("batch_size", 1), ("window", 0), ("lambda_u", -1.0),
                           ("sharpen_temperature", 0.0), ("seed", -1),
                           ("separation", float("inf")), ("ood_far_gap", float("inf")),
                           ("lr", float("nan")), ("n_train", float("inf")),
                           ("n_train", float("nan")), ("weak_jitter", 10 ** 400),
                           ("n_test", 3), ("n_train", 2 ** 63), ("seed", 1e19),
                           ("generator", "spirals"), ("n_train", 3), ("noise_rate", 1.0),
                           ("gce_q", 0.0), ("gce_q", -1.0), ("energy_temperature", 0.0),
                           ("contrast_temperature", 0.0), ("mixup_alpha", 0.0),
                           ("n_cand_factor", 0), ("n_cand_cap", 0), ("lr", 0.0),
                           ("tau_clean", 1.0), ("sampler", "metropolis")]:
            base = {"warmup_epochs": 5} if key == "total_epochs" else {}
            with pytest.raises(ConfigError):
                RunConfig.from_dict({key: value, **base})
        # the generators' own limits
        with pytest.raises(ConfigError, match="two-moons-kd is a two-class generator"):
            RunConfig.from_dict({"generator": "two-moons-kd", "n_classes": 3})
        with pytest.raises(ConfigError, match=r"at most 2 \* input_dim classes"):
            RunConfig.from_dict({"n_classes": 17, "input_dim": 8})

    def test_candidate_count_bound(self):
        # the bound is on the candidates an epoch can draw, min(factor * n_train, cap):
        # a huge cap alone leaves the default factor's 10 * n_train
        RunConfig.from_dict(dict(TINY_RUN, n_cand_cap=2 ** 62))
        with pytest.raises(ConfigError, match="exceed numpy's largest array"):
            RunConfig.from_dict(dict(TINY_RUN, n_cand_cap=2 ** 62, n_cand_factor=2 ** 62))

    def test_type_mismatch_rejected(self):
        for key, value in [("batch_size", 64.5), ("disable_vos", "yes"), ("lr", True),
                           ("lambda_u", "5"), ("seed", True), ("hidden_dims", [1.7, True]),
                           ("hidden_dims", [64, True]), ("hidden_dims", "64")]:
            with pytest.raises(ConfigError):
                RunConfig.from_dict({key: value})

    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "sampler": "hybrid", "lambda_u": 5}))
        cfg = RunConfig.from_json(path)
        assert cfg.seed == 9 and cfg.sampler == "hybrid" and cfg.lambda_u == 5.0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_json(path)

    def test_resolved_echo_contains_every_field(self):
        echo = RunConfig().to_dict()
        import dataclasses

        assert set(echo) == {f.name for f in dataclasses.fields(RunConfig)}


class TestWarmup:
    def test_zero_epochs_leaves_nets_untouched(self):
        cfg = RunConfig(seed=5, warmup_epochs=0, total_epochs=0, **{
            k: v for k, v in SMOKE.items() if k not in ("warmup_epochs", "total_epochs")})
        exp = Experiment(cfg)
        before = [l.weights.copy() for net in exp.nets for l in net.layers]
        exp.warmup()
        after = [l.weights for net in exp.nets for l in net.layers]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_clean_separable_data_reaches_high_train_accuracy(self):
        cfg = RunConfig(seed=2, n_train=400, n_test=200, noise_rate=0.0, separation=6.0,
                        warmup_epochs=12, total_epochs=12, hidden_dims=(32, 16), ood_n=50)
        exp = Experiment(cfg)
        exp.warmup()
        probs = nn.softmax(nn.forward_batch(exp.nets[0], exp.view.features).logits)
        from noisylab import metrics

        train_acc = metrics.accuracy(probs, exp.dataset.true_labels)
        assert train_acc > 0.95

    def test_identical_seeds_identical_weights(self):
        cfg = RunConfig(seed=11, **SMOKE)
        a, b = Experiment(cfg), Experiment(cfg)
        a.warmup()
        b.warmup()
        params = [[p for net in exp.nets for l in net.layers for p in (l.weights, l.bias)]
                  for exp in (a, b)]
        assert len(params[0]) == len(params[1]) > 0
        assert all(np.array_equal(pa, pb) for pa, pb in zip(*params))


def within_rounding(a, b, rtol=1e-12) -> bool:
    """None alike, or equal shapes whose entries agree within rtol relative."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=0.0))


class TestBuildBatch:
    def test_matches_per_view_oracle_to_rounding(self):
        # one forward per peer over all views reorders the per-view oracle's
        # sums and draws nothing else: fields within 1e-12, streams equal
        cfg = RunConfig(seed=4, n_train=300, n_test=60, ood_n=40)
        assert (cfg.batch_size, cfg.n_aug, len(cfg.hidden_dims)) == (64, 2, 2)
        exp, ref = Experiment(cfg), Experiment(cfg)
        rng = np.random.default_rng(0)
        w = rng.random(cfg.n_train)
        support = rng.choice(cfg.n_train, 90, replace=False)
        outliers = rng.normal(size=(50, exp.nets[0].feature_dim))
        ids = rng.permutation(cfg.n_train)
        no_rows = np.empty(0, dtype=int)
        steps = [(ids[:64], ids[64:128]), (ids[128:192], ids[192:256]),
                 (ids[256:293], ids[293:]),  # a short last batch, fewer unlabeled rows
                 (ids[:64], no_rows), (ids[64:66], ids[66:67])]
        for step, (xb_ids, ub_ids) in enumerate(steps):
            args = (xb_ids, ub_ids, w, support, outliers, 1.0, 0.5, 0.1)
            got = exp._build_batch(*args)
            want = batch_oracle.build_batch(ref, *args)
            for f in dataclasses.fields(nn.TotalLossBatch):
                assert within_rounding(getattr(got, f.name), getattr(want, f.name)), \
                    (step, f.name)
            for name in ("augment", "mixup", "contrast", "energy_draw"):
                assert (exp.streams[name].bit_generator.state
                        == ref.streams[name].bit_generator.state), (step, name)
            # an SGD step on every net, so that later batches see other peers
            for e, batch in ((exp, got), (ref, want)):
                for net in e.nets:
                    nn.sgd_step(net, nn.total_loss_and_grads(net, batch)[2], cfg.lr)


class TestRunExperiment:
    def test_smoke_run_completes_and_validates(self, smoke_report):
        jsonschema = pytest.importorskip("jsonschema")
        report = json.loads(smoke_report.canonical_json())
        jsonschema.validate(report, REPORT_SCHEMA)
        # only a report that a training error cut short may have an empty summary
        with pytest.raises(jsonschema.ValidationError, match="best_test_accuracy"):
            jsonschema.validate(dict(report, summary={}), REPORT_SCHEMA)
        assert not smoke_report.incomplete
        assert len(smoke_report.epochs) == 5
        assert smoke_report.epochs[0]["phase"] == "warmup"
        assert smoke_report.epochs[-1]["phase"] == "main"

    def test_schema_version_present(self, smoke_report):
        assert json.loads(smoke_report.canonical_json())["schema_version"] == 2

    def test_config_echo_in_report(self, smoke_report):
        assert smoke_report.config["n_train"] == 300
        assert smoke_report.config["seed"] == 3

    def test_empty_support_epochs_are_flagged(self, smoke_report):
        main = [e for e in smoke_report.epochs if e["phase"] == "main"]
        # window=2: the first main epoch cannot have a full window
        assert main[0]["support_fallback"] is True
        assert main[0]["envelope_log_volume"] is None

    def test_byte_identical_reports_across_runs(self):
        cfg = RunConfig(seed=17, **SMOKE)
        a = run_experiment(cfg).canonical_json()
        b = run_experiment(cfg).canonical_json()
        assert a == b

    def test_wall_clock_kept_out_of_report(self, smoke_report):
        assert "wall_clock" not in smoke_report.canonical_json().decode()
        assert smoke_report.wall_clock_seconds > 0

    def test_single_network_mode(self):
        report = run_experiment(RunConfig(seed=4, single_network=True, **SMOKE))
        assert not report.incomplete
        assert report.summary["final_test_accuracy"] > 0.25

    @pytest.mark.parametrize("generator,k", [("two-moons-kd", 2), ("ring-classes", 3)])
    def test_alternate_generators_run_end_to_end(self, generator, k):
        cfg = RunConfig(seed=5, generator=generator, n_classes=k, **SMOKE)
        report = run_experiment(cfg)
        assert not report.incomplete
        assert len(report.epochs) == cfg.total_epochs

    def test_asymmetric_noise_mode(self):
        report = run_experiment(RunConfig(seed=6, noise_mode="asymmetric",
                                          noise_rate=0.3, **SMOKE))
        assert not report.incomplete


class TestEpochRecordRule:
    def test_mean_of_net_rows(self):
        terms0 = dict.fromkeys(nn.LOSS_TERMS, 0.25)
        # net 0 has an empty support: no precision, no geometry, no energies
        net0 = {"loss_total": 1.5, "loss_labeled": 0.75, "n_labeled": 40, "n_support": 0,
                "gmm_iterations": 37, "gmm_capped": 0, "support_fallback": True,
                "selection_precision": None,
                "selection_recall": 0.0, "selection_f1": 0.0, "mean_energy_clean": None,
                "mean_energy_outlier": None, "first_batch_terms": terms0}
        net1 = {"loss_total": 0.5, "loss_labeled": 0.3, "n_labeled": 45, "n_support": 31,
                "gmm_iterations": 100, "gmm_capped": 1, "support_fallback": False,
                "selection_precision": 0.8,
                "selection_recall": 0.6, "selection_f1": 0.7, "mean_energy_clean": -4.0,
                "envelope_log_volume": 2.5, "n_candidates": 310, "n_outliers": 12,
                "tau_rej_effective": 1.25, "mean_energy_outlier": -1.0,
                "first_batch_terms": dict.fromkeys(nn.LOSS_TERMS, 9.0)}
        record = mean_of_net_rows([net0, net1])
        assert set(record) == set(REPORT_SCHEMA["properties"]["epochs"]["items"]["properties"]) \
            - {"epoch", "phase", "test_accuracy"}
        assert record["loss_total"] == 1.0 and record["loss_labeled"] == float(np.mean([0.75, 0.3]))
        assert record["n_labeled"] == 42.5 and type(record["n_labeled"]) is float
        assert record["n_support"] == 15.5
        # the EM counts add up over the nets, and stay integers
        assert (record["gmm_iterations"], record["gmm_capped"]) == (137, 1)
        assert type(record["gmm_iterations"]) is int and type(record["gmm_capped"]) is int
        # a value only one net has is that net's value, not half of it
        assert record["selection_precision"] == 0.8
        assert record["mean_energy_clean"] == -4.0 and record["mean_energy_outlier"] == -1.0
        assert (record["envelope_log_volume"], record["n_candidates"], record["n_outliers"],
                record["tau_rej_effective"]) == (2.5, 310.0, 12.0, 1.25)
        assert record["selection_recall"] == 0.3
        # a key that no net has is None
        assert record["loss_prior"] is None
        assert record["support_fallback"] is True
        assert record["first_batch_terms"] is terms0
        assert mean_of_net_rows([net1, net0])["first_batch_terms"]["labeled"] == 9.0
        assert mean_of_net_rows([dict(net1, support_fallback=False, first_batch_terms=None),
                                 net1])["support_fallback"] is False
        assert mean_of_net_rows([dict(net1, first_batch_terms=None), net1])[
            "first_batch_terms"] is None
        single = mean_of_net_rows([net0])
        assert single["selection_precision"] is None and single["n_support"] == 0.0
        assert single["envelope_log_volume"] is None
        assert (single["gmm_iterations"], single["gmm_capped"]) == (37, 0)

    def test_schema_is_pinned(self):
        # the schema the epoch table derives: any change to a key's type, its
        # requiredness or the summary's keys moves this digest
        digest = hashlib.sha256(json.dumps(REPORT_SCHEMA, sort_keys=True).encode()).hexdigest()
        assert digest == "a42c91082451f3eaf5eb30c02d47faff1e7b914826954e4691f19a8ca5c51de3"

    def test_every_epoch_key_has_one_rule(self, smoke_report):
        # a count must be summed: as a mean over the nets it would become a float
        properties = REPORT_SCHEMA["properties"]["epochs"]["items"]["properties"]
        assert set(_RECORD_KEYS) == {"epoch", "phase", "test_accuracy", "support_fallback",
                                     "first_batch_terms"}
        assert set(_SUM_KEYS) == {"gmm_iterations", "gmm_capped"}
        for key in properties:
            assert [key in _RECORD_KEYS, key in _SUM_KEYS, key in _MEAN_KEYS].count(True) == 1, key
        integers = {key for key, rule in properties.items()
                    if "integer" in np.ravel(rule.get("type", "enum"))}
        assert integers == {"epoch"} | set(_SUM_KEYS)
        for record in smoke_report.epochs:
            for key in _SUM_KEYS:
                if record["phase"] == "main":
                    assert type(record[key]) is int, (key, record[key])
                else:
                    assert record[key] is None, key


class TestAblationIsolation:
    def test_disable_vos_changes_only_energy_terms_at_first_batch(self):
        base = dict(seed=23, n_train=300, n_test=100, warmup_epochs=1,
                    total_epochs=3, hidden_dims=(16, 8), ood_n=60, window=1)
        on = run_experiment(RunConfig(**base))
        off = run_experiment(RunConfig(disable_vos=True, **base))
        # first main epoch with a support set: epoch index 1 (window=1)
        r_on = next(e for e in on.epochs if e["phase"] == "main")
        r_off = next(e for e in off.epochs if e["phase"] == "main")
        t_on, t_off = r_on["first_batch_terms"], r_off["first_batch_terms"]
        for name in ("labeled", "unlabeled", "prior", "contrastive"):
            assert t_on[name] == t_off[name], name
        assert t_off["energy"] == 0.0
        assert t_on["energy"] != 0.0

    def test_disable_cl_zeroes_contrastive_term(self):
        report = run_experiment(RunConfig(seed=6, lambda_cl=0.0, **SMOKE))
        for e in report.epochs:
            if e["phase"] == "main":
                assert e["loss_contrastive"] == 0.0


class TestSweepVariants:
    # each grid's variants in `ablation.csv` order, and the keys each one sets
    GRIDS = {
        "vos": {"vos_on": dict(disable_vos=False), "vos_off": dict(disable_vos=True)},
        "sampler": {s: dict(sampler=s) for s in ("uniform", "gaussian", "perturbation",
                                                  "hybrid")},
        "tau": {f"tau_{s}x": dict(tau_auto=True, tau_auto_scale=float(s))
                for s in ("0.5", "1", "1.5")},
    }

    def test_grids(self):
        assert SWEEP_GRIDS == tuple(self.GRIDS)

    def test_unknown_grid_rejected(self, tmp_path, capsys):
        # argparse's choices are the one check of a grid's name
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["ablate", "--grid", "lambda", "--seeds", "1", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'lambda'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", SWEEP_GRIDS)
    def test_variants_in_csv_order(self, grid):
        # a base that differs from every variant in the keys the grids set
        base = RunConfig(**TINY_RUN, disable_vos=True, sampler="hybrid", tau_auto=False,
                         tau_auto_scale=2.0)
        variants = sweep_variants(grid, base)
        assert [name for name, _ in variants] == list(self.GRIDS[grid])
        for name, config in variants:
            assert config == base.replace(**self.GRIDS[grid][name]), name
            config.validate()


class TestOutputs:
    def test_output_files_written(self, tmp_path):
        cfg = RunConfig(seed=8, dump_selection=True, dump_geometry=True,
                        export_features=True, **SMOKE)
        run_experiment(cfg, out_dir=tmp_path / "run")
        run_dir = tmp_path / "run"
        for name in ("report.json", "config.json", "run_meta.json"):
            assert (run_dir / name).exists()
        assert (run_dir / "models" / "net0.npz").exists()
        assert (run_dir / "models" / "net1.npz").exists()
        meta = json.loads((run_dir / "run_meta.json").read_text())
        assert meta["wall_clock_seconds"] > 0

        # selection dump: header + one row per sample per main epoch
        lines = (run_dir / "selection_net0.csv").read_text().splitlines()
        assert lines[0] == "epoch,sample_id,loss,w_i,in_support"
        assert len(lines) == 1 + 300 * 3

        geo_lines = (run_dir / "geometry_net0.jsonl").read_text().splitlines()
        entry = json.loads(geo_lines[0])
        assert set(entry) == {"epoch", "b_min", "b_max", "centroids",
                              "n_candidates", "n_accepted", "sampler"}

        feature_files = sorted((run_dir / "features").glob("epoch_*.csv"))
        assert len(feature_files) == 3
        header = feature_files[0].read_text().splitlines()[0]
        assert header.startswith("id,split,f0")

    def test_dump_logs_kept_only_with_an_output_directory(self, tmp_path):
        # only the output files read the dump logs, so a run without a
        # directory keeps no epoch's losses, weights or geometry
        cfg = RunConfig(seed=8, dump_selection=True, dump_geometry=True, **SMOKE)
        kept, dropped = Experiment(cfg), Experiment(cfg)
        kept.run(tmp_path / "run")
        dropped.run()
        assert all(kept._selection_log) and all(kept._geometry_log)
        assert dropped._selection_log == [[], []] and dropped._geometry_log == [[], []]
        assert dropped.report.canonical_json() == kept.report.canonical_json()

    def test_report_file_byte_identical_across_runs(self, tmp_path):
        cfg = RunConfig(seed=31, **SMOKE)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()


class TestModelPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        net = nn.build_network(5, 3, hidden=(7, 4), projection_dim=3, rng=rng)
        save_model(net, tmp_path / "net.npz")
        back = load_model(tmp_path / "net.npz")
        x = rng.normal(size=(4, 5))
        assert np.array_equal(nn.forward_batch(net, x).logits,
                              nn.forward_batch(back, x).logits)

    def test_ood_scores_are_negated_energies(self):
        rng = np.random.default_rng(1)
        net = nn.build_network(3, 4, hidden=(6,), projection_dim=2, rng=rng)
        x = rng.normal(size=(5, 3))
        scores = ood_scores([net], x)
        energies = nn.energies(nn.forward_batch(net, x).logits)
        assert np.allclose(scores, -energies)

    def test_evaluate_ood_on_separated_sets(self):
        rng = np.random.default_rng(2)
        net = nn.build_network(2, 2, hidden=(4,), projection_dim=2, rng=rng)
        id_x = rng.normal(size=(50, 2))
        out = evaluate_ood([net], id_x, id_x + 0.01)
        assert 0.0 <= out["auroc"] <= 1.0 and 0.0 <= out["fpr95"] <= 1.0


def assert_to_rounding(got, want, *context):
    """|got - want| <= 1e-12 * max |want|: equal up to a blocked pass's rounding,
    which BLAS may sum in another order at another row count."""
    assert got.shape == want.shape, context
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), context


class TestBlockedScores:
    """`ood_scores` runs the nets on row blocks; the scores agree with an
    unblocked pass's to rounding."""

    @staticmethod
    def _unblocked(nets, x, temperature):
        return -np.mean([nn.energies(nn.predict_logits(net, x), temperature)
                         for net in nets], axis=0)

    # one block (up to 640 rows), the edges of two and three blocks, the edges
    # of the earlier 640-to-1279-row and 1024-row blocks, then inputs of 4 to
    # 157 blocks
    @pytest.mark.parametrize("rows", [1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS,
                                      SCORE_BLOCK_ROWS + 1, 2 * SCORE_BLOCK_ROWS - 1,
                                      2 * SCORE_BLOCK_ROWS, 2 * SCORE_BLOCK_ROWS + 1,
                                      3 * SCORE_BLOCK_ROWS + 1,
                                      1023, 1024, 2047, 2048, 2049, 3073,
                                      4095, 4096, 8191, 8192, 8193, 12289, 30_000, 100_000])
    def test_equal_to_one_pass_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        # four random nets, then a 2-class net on a wide last hidden layer, a
        # net's narrowest product
        shapes = [(int(rng.integers(2, 10)), int(rng.integers(2, 6)),
                   tuple(int(h) for h in rng.integers(2, 65, size=rng.integers(1, 3))))
                  for _ in range(4)] + [(8, 2, (48,))]
        for d, k, hidden in shapes:
            nets = [nn.build_network(d, k, hidden=hidden, projection_dim=4, rng=rng)
                    for _ in range(2)]
            x = rng.normal(scale=3.0, size=(rows, d))
            temperature = float(rng.choice([0.5, 1.0, 2.0]))
            assert_to_rounding(ood_scores(nets, x, temperature),
                               self._unblocked(nets, x, temperature), d, k, hidden, temperature)

    @pytest.mark.parametrize("hidden", [(1,), (64, 1), (1, 64), (8, 1, 8)])
    def test_one_wide_layer_equal_to_rounding(self, hidden):
        # numpy sends a product with one output column to GEMV
        rng = np.random.default_rng(len(hidden))
        nets = [nn.build_network(8, 3, hidden=hidden, projection_dim=4, rng=rng)
                for _ in range(2)]
        for rows in (30_000, 100_000):
            x = rng.normal(scale=3.0, size=(rows, 8))
            assert_to_rounding(ood_scores(nets, x), self._unblocked(nets, x, 1.0), rows)

    def test_peak_memory_is_one_block(self):
        cfg = RunConfig()
        rng = np.random.default_rng(0)
        nets = [nn.build_network(cfg.input_dim, cfg.n_classes, hidden=cfg.hidden_dims,
                                 projection_dim=cfg.projection_dim, rng=rng)
                for _ in range(2)]
        x = rng.normal(size=(20_000, cfg.input_dim))
        tracemalloc.start()
        try:
            scores = ood_scores(nets, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scores) == 20_000
        assert peak < 1.5e6, peak  # an unblocked pass holds every row's 64-wide layers


class TestBlockedTrainingPasses:
    """A run's full-set passes run in row blocks; each agrees with one unblocked
    pass to rounding."""

    @staticmethod
    def _experiment(rows, d, k, hidden):
        return Experiment(RunConfig(n_train=rows, n_test=rows, ood_n=10, input_dim=d,
                                    n_classes=k, hidden_dims=hidden, projection_dim=4,
                                    energy_temperature=0.5))

    @staticmethod
    def _passes(exp, ids):
        """(blocked, unblocked) results of each full-set pass of exp's training loop."""
        cfg, view, test = exp.config, exp.view, exp.test_set
        blocked, unblocked = {}, {}
        for k, net in enumerate(exp.nets):
            blocked[f"gce{k}"] = exp._per_sample_gce(net)
            unblocked[f"gce{k}"] = nn.gce_losses(nn.softmax(nn.predict_logits(
                net, view.features)), view.noisy_labels, cfg.gce_q)
            blocked[f"features{k}"] = exp._features(net, ids)
            unblocked[f"features{k}"] = nn.predict_features(net, view.features[ids])
            blocked[f"energies{k}"] = exp._energies(net, ids)
            unblocked[f"energies{k}"] = nn.energies(nn.predict_logits(net, view.features[ids]),
                                                    cfg.energy_temperature)
        blocked["test_probs"] = _mean_probs(exp.nets, test.features)
        unblocked["test_probs"] = np.mean([nn.softmax(nn.predict_logits(net, test.features))
                                           for net in exp.nets], axis=0)
        blocked["test_accuracy"] = np.array(exp._test_accuracy())
        unblocked["test_accuracy"] = np.array(
            metrics.accuracy(unblocked["test_probs"], test.true_labels))
        return blocked, unblocked

    # both sides of one, two and three blocks, the default n_train, and 7 blocks
    @pytest.mark.parametrize("rows", [639, 640, 641, 1279, 1280, 1281, 2000, 4097])
    def test_equal_to_one_pass_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        # three random shapes, then TestBlockedScores' narrow 2-class net
        shapes = [(int(rng.integers(2, 10)), int(rng.integers(2, 5)),
                   tuple(int(h) for h in rng.integers(2, 65, size=rng.integers(1, 3))))
                  for _ in range(3)] + [(8, 2, (48,))]
        for d, k, hidden in shapes:
            exp = self._experiment(rows, d, k, hidden)
            ids = rng.permutation(rows)  # support ids come in any order
            blocked, unblocked = self._passes(exp, ids)
            for name, want in unblocked.items():
                assert_to_rounding(blocked[name], want, name, d, k, hidden)

    @pytest.mark.parametrize("hidden", [(1,), (64, 1), (1, 64), (8, 1, 8)])
    def test_one_wide_layer_equal_to_rounding(self, hidden):
        for rows in (1280, 4097):
            exp = self._experiment(rows, 8, 3, hidden)
            blocked, unblocked = self._passes(exp, np.arange(rows))
            for name, want in unblocked.items():
                assert_to_rounding(blocked[name], want, name, rows)

    def test_epoch_peak_memory(self):
        # window=1 gives the first epoch a support, so its geometry runs too
        exp = Experiment(RunConfig(n_train=20_000, n_test=200, ood_n=10, window=1))
        tracemalloc.start()
        try:
            record = exp.run_epoch(exp.config.warmup_epochs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record["n_support"] > 5000 and record["n_candidates"] == exp.config.n_cand_cap
        # unblocked passes hold every row's 64-wide hidden layer: 10.24 MB a copy
        assert peak < 6e6, peak


class TestBuildDatasets:
    def test_shapes_and_determinism(self):
        cfg = RunConfig(seed=12, **SMOKE)
        train, test, far, near = build_datasets(cfg)
        assert len(train.ids) == 300 and len(test.ids) == 150
        assert far.shape == (100, cfg.input_dim) and near.shape == (100, cfg.input_dim)
        train2, *_ = build_datasets(cfg)
        assert np.array_equal(train.noisy_labels, train2.noisy_labels)

    def test_train_noise_rate_applied(self):
        cfg = RunConfig(seed=12, n_train=4000, n_test=100, noise_rate=0.4, ood_n=50,
                        warmup_epochs=1, total_epochs=2)
        train, *_ = build_datasets(cfg)
        assert abs((train.noisy_labels != train.true_labels).mean() - 0.4) < 0.03

    def test_every_accepted_config_builds(self):
        # 1,152 small configs across the dataset keys: RunConfig is the only check of
        # them, so whatever it accepts must build without a ConfigError
        keys = ("generator", "n_classes", "input_dim", "n_train", "ood_n", "noise_mode",
                "separation")
        failures = []
        for values in itertools.product(data.GENERATORS, range(2, 10), range(2, 5), (12, 40),
                                        (1, 7), data.NOISE_MODES, (0.01, 3.0)):
            raw = dict(zip(keys, values), n_test=values[3])
            try:
                config = RunConfig.from_dict(raw)
            except ConfigError:
                continue
            try:
                build_datasets(config)
            except ConfigError as exc:
                failures.append((raw, str(exc)))
        assert not failures, failures


class TestCli:
    def test_gen_data_writes_csvs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 50, "n_test": 20, "ood_n": 10}))
        rc = cli_main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
        assert rc == 0
        for name in ("train.csv", "test.csv", "ood_far.csv", "ood_near.csv"):
            assert (tmp_path / "d" / name).exists()
        back = data.read_dataset_csv(tmp_path / "d" / "train.csv")
        assert len(back.ids) == 50

    def test_gen_data_writes_nothing_when_datasets_fail(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"separation": 1e308}))
        capsys.readouterr()
        assert cli_main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
    @pytest.mark.parametrize("body", [{"generator": "two-moons-kd", "n_classes": 3},
                                      {"n_classes": 5, "input_dim": 2},
                                      dict(TINY_RUN, window=1, n_cand_cap=2 ** 62,
                                           n_cand_factor=2 ** 62)],
                             ids=["moons-3-classes", "blobs-5-classes-2-dims",
                                  "n-cand-beyond-int64-bytes"])
    def test_generator_limits_rejected_before_any_output(self, tmp_path, capsys, command,
                                                         body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out-dir", str(out)]
        if command == "ablate":
            argv += ["--grid", "vos", "--seeds", "1"]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_train_and_ood_eval_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMOKE, hidden_dims=list(SMOKE["hidden_dims"]))))
        rc = cli_main(["train", "--config", str(cfg), "--seed", "2",
                       "--out-dir", str(tmp_path / "run")])
        assert rc == 0
        rc = cli_main(["gen-data", "--config", str(cfg), "--seed", "2",
                       "--out-dir", str(tmp_path / "d")])
        assert rc == 0
        rc = cli_main(["ood-eval", "--run-dir", str(tmp_path / "run"),
                       "--ood-csv", str(tmp_path / "d" / "ood_far.csv"),
                       "--out", str(tmp_path / "ood.json")])
        assert rc == 0
        result = json.loads((tmp_path / "ood.json").read_text())
        assert "ood_far" in result and "auroc" in result["ood_far"]

    def test_train_run_options_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMOKE, hidden_dims=list(SMOKE["hidden_dims"]),
                                       disable_vos=True, sampler="gaussian", tau_rej=1.5,
                                       tau_auto=False)))
        rc = cli_main(["train", "--config", str(cfg), "--seed", "9",
                       "--out-dir", str(tmp_path / "r")])
        assert rc == 0
        echo = json.loads((tmp_path / "r" / "config.json").read_text())
        assert echo["disable_vos"] is True
        assert echo["sampler"] == "gaussian"
        assert echo["tau_rej"] == 1.5 and echo["tau_auto"] is False
        assert echo["seed"] == 9

    @pytest.mark.parametrize("argv", [
        ["train", "--disable-vos"],
        ["ablate", "--grid", "vos", "--seed", "3", "--seeds", "1"],
    ], ids=["train-disable-vos", "ablate-seed"])
    def test_removed_run_option_flags_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--out-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def assert_training_error(config: dict, tmp_path) -> str:
        """Train config in a fresh interpreter (pytest would collect numpy's warnings
        from stderr); assert exit 3, one stderr line and a schema-valid incomplete
        report, and return that line."""
        jsonschema = pytest.importorskip("jsonschema")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.run([sys.executable, "-m", "noisylab.cli", "train", "--config", str(cfg),
                               "--out-dir", str(tmp_path / "r")],
                              env=_child_env(), capture_output=True, text=True, timeout=300)
        err = proc.stderr
        assert proc.returncode == 3, err
        assert err.count("\n") == 1, err  # no numpy warning before the message
        assert err.startswith("training error: ") and "(epoch " in err, err
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["incomplete"] is True and report["summary"] == {}
        jsonschema.validate(report, REPORT_SCHEMA)
        return err

    def test_training_error_exit_code(self, tmp_path):
        err = self.assert_training_error({"n_train": 200, "n_test": 60, "ood_n": 40,
                                          "warmup_epochs": 2, "total_epochs": 5, "lr": 1000},
                                         tmp_path)
        assert ", batch " in err, err  # raised inside an SGD step

    # huge but finite weights after one step: the next full-set pass overflows,
    # which once printed numpy warnings and fed NaNs to EM
    @pytest.mark.parametrize("config", [
        {"n_train": 40, "n_test": 20, "ood_n": 10, "warmup_epochs": 1, "total_epochs": 3,
         "lr": 1e300},
        {"n_train": 40, "n_test": 20, "ood_n": 10, "warmup_epochs": 1, "total_epochs": 4,
         "window": 1, "contrast_temperature": 1e-300},
    ], ids=["huge-lr", "tiny-contrast-temperature"])
    def test_training_error_outside_a_step_exit_code(self, tmp_path, config):
        err = self.assert_training_error(config, tmp_path)
        assert err.endswith(")\n") and ", batch " not in err, err

    def test_old_disable_cl_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"disable_cl": False}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli_main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown config keys: ['disable_cl']\n"
        assert not out.exists()

    def test_old_run_directory_with_disable_cl_rejected(self, saved_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(saved_run, run)
        echo = json.loads((run / "config.json").read_text())
        (run / "config.json").write_text(json.dumps(dict(echo, disable_cl=False)))
        capsys.readouterr()
        # the config is read before any CSV, so the CSV need not exist
        assert cli_main(["ood-eval", "--run-dir", str(run),
                         "--ood-csv", str(tmp_path / "ood.csv")]) == 2
        assert capsys.readouterr().err == "config error: unknown config keys: ['disable_cl']\n"

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert cli_main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("body", ['{"separation": Infinity}', '{"ood_far_gap": Infinity}',
                                      '{"n_train": Infinity}', '{"lr": true}',
                                      '{"hidden_dims": [1.7, true]}',
                                      '{"separation": 1e308}', '{"ood_far_gap": 1e308}',
                                      '{"n_train": 1e30}', '{"n_test": 1e30}',
                                      '{"ood_n": 1e19}', '{"input_dim": 100000000000}',
                                      b'{"sampler": "gaussian\xff"}',
                                      # sizes numpy refuses at once: TiB or beyond int64 bytes
                                      '{"projection_dim": 100000000000}',
                                      '{"hidden_dims": [100000000000]}',
                                      '{"projection_dim": 4611686018427387904}',
                                      '{"hidden_dims": [4611686018427387904]}',
                                      json.dumps(dict(TINY_RUN, window=1, n_cand_cap=1e11,
                                                      n_cand_factor=1e11)),
                                      json.dumps(dict(TINY_RUN, n_aug=1e11)),
                                      json.dumps(dict(TINY_RUN, window=1, n_cand_cap=2 ** 62,
                                                      n_cand_factor=2 ** 62))],
                             ids=["inf-separation", "inf-ood-far-gap", "inf-n-train",
                                  "boolean-lr", "mistyped-hidden-dims", "huge-separation",
                                  "huge-ood-far-gap", "huge-n-train", "huge-n-test",
                                  "huge-ood-n", "huge-input-dim", "undecodable-byte",
                                  "huge-projection-dim", "huge-hidden-width",
                                  "projection-dim-beyond-int64-bytes",
                                  "hidden-width-beyond-int64-bytes", "huge-n-cand",
                                  "huge-n-aug", "n-cand-beyond-int64-bytes"])
    def test_bad_number_in_config_exit_code(self, tmp_path, capsys, body):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(body.encode() if isinstance(body, str) else body)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("body", [
        "id,f0,f1,f2\n0,1.0,2.0,3.0\n",
        FEATURE_HEADER + "0,abc" + ",1.0" * (INPUT_DIM - 1) + "\n",
        FEATURE_HEADER,
        FEATURE_HEADER + "0,nan" + ",1.0" * (INPUT_DIM - 1) + "\n",
        FEATURE_HEADER + "0" + ",1.0" * (INPUT_DIM - 1) + ",-inf\n",
        FEATURE_HEADER.encode() + b"0,\xff1.0" + b",1.0" * (INPUT_DIM - 1) + b"\n",
    ], ids=["narrower-than-nets", "non-numeric", "header-only", "nan-cell", "inf-cell",
            "undecodable-byte"])
    def test_malformed_ood_csv_exit_code(self, saved_run, tmp_path, capsys, body):
        path = tmp_path / "ood.csv"
        path.write_bytes(body.encode() if isinstance(body, str) else body)
        capsys.readouterr()
        rc = cli_main(["ood-eval", "--run-dir", str(saved_run), "--ood-csv", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    # with missing files, a config error shows that no CSV was opened
    @pytest.mark.parametrize("files_exist", [True, False], ids=["files", "no-files"])
    def test_ood_csvs_of_one_name_rejected_before_any_read(self, saved_run, tmp_path, capsys,
                                                           files_exist):
        # each result is keyed by its file's stem, so one of the two would be lost
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            if files_exist:
                (tmp_path / sub / "x.csv").write_text(FEATURE_HEADER + "0"
                                                      + ",1.0" * INPUT_DIM + "\n")
        capsys.readouterr()
        rc = cli_main(["ood-eval", "--run-dir", str(saved_run), "--ood-csv",
                       str(tmp_path / "a" / "x.csv"), str(tmp_path / "b" / "x.csv")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert "; x names more than one" in captured.err, captured.err

    def test_ood_rows_that_overflow_the_nets_exit_code(self, saved_run, tmp_path, capsys):
        # finite cells whose products overflow the nets (-1e308 cells are enough for
        # default-config nets; these smaller smoke nets need -1.7e308)
        path = tmp_path / "ood.csv"
        path.write_text(FEATURE_HEADER + "0" + ",-1.7e308" * INPUT_DIM + "\n")
        capsys.readouterr()
        rc = cli_main(["ood-eval", "--run-dir", str(saved_run), "--ood-csv", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: 1 of 1 input rows overflow the nets to a non-finite OOD score\n"

    @pytest.mark.parametrize("corrupt, message", [
        (lambda models: (models / "net1.npz").write_text("not a model\n"),
         "net1.npz: not a saved noisylab model"),
        (lambda models: np.savez(models / "net1.npz", w0=np.zeros((2, 2)), b0=np.zeros(2)),
         "net1.npz: not a saved noisylab model"),
        (lambda models: np.savez(models / "net1.npz", w0=np.zeros((4, INPUT_DIM)),
                                 b0=np.zeros(3), activations=np.array(["relu"]),
                                 splits=np.array([1, 1])),
         "net1.npz: not a saved noisylab model"),
        (lambda models: save_model(widened(load_model(models / "net1.npz")),
                                   models / "net2.npz"),
         f"net2.npz takes {INPUT_DIM + 1} inputs, config.json says input_dim {INPUT_DIM}"),
        (lambda models: resaved(models / "net1.npz",
                                lambda a: {"splits": np.array([[1, 2], [2, 3]])}),
         "net1.npz: not a saved noisylab model: splits is int64 of shape (2, 2)"),
        (lambda models: resaved(models / "net1.npz",
                                lambda a: {"activations": np.array("relu")}),
         "net1.npz: not a saved noisylab model: activations has shape ()"),
        (lambda models: resaved(models / "net1.npz", lambda a: {"w0": a["w0"] + 1j}),
         "net1.npz: not a saved noisylab model: w0 holds complex128"),
    ], ids=["text-file", "no-activations", "mismatched-arrays", "net2-wider-input",
            "2d-splits", "0d-activations", "complex-weights"])
    def test_bad_model_file_exit_code(self, saved_run, tmp_path, capsys, corrupt, message):
        run_dir = tmp_path / "run"
        shutil.copytree(saved_run, run_dir)
        corrupt(run_dir / "models")
        capsys.readouterr()
        rc = cli_main(["ood-eval", "--run-dir", str(run_dir), "--ood-csv", "unread.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert message in err, err

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-5"],
        ["ablate", "--grid", "vos", "--seeds", "a"],
        ["ablate", "--grid", "vos", "--seeds", "1,-2"],
        ["ablate", "--grid", "vos", "--seeds", ","],
        ["train", "--seed", str(2 ** 63)],
        ["ablate", "--grid", "vos", "--seeds", f"1,{2 ** 63}"],
    ], ids=["train-negative-seed", "ablate-non-integer-seeds", "ablate-negative-seed",
            "ablate-no-seeds", "train-seed-beyond-int64", "ablate-seed-beyond-int64"])
    def test_bad_seed_exit_code(self, tmp_path, capsys, argv):
        capsys.readouterr()
        rc = cli_main(argv + ["--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_io_error_exit_code(self, tmp_path):
        assert cli_main(["ood-eval", "--run-dir", str(tmp_path / "missing"),
                         "--ood-csv", "x.csv"]) == 4

    def test_ablate_emits_comparison_csv(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        small = dict(SMOKE, hidden_dims=list(SMOKE["hidden_dims"]),
                     n_train=150, n_test=60, total_epochs=3, warmup_epochs=1)
        cfg.write_text(json.dumps(small))
        rc = cli_main(["ablate", "--config", str(cfg), "--grid", "vos",
                       "--seeds", "1,2", "--out-dir", str(tmp_path / "ab")])
        assert rc == 0
        lines = (tmp_path / "ab" / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("variant,seed,final_accuracy")
        assert len(lines) == 1 + 2 * 2  # two variants x two seeds
        assert hashlib.sha256((tmp_path / "ab" / "ablation.csv").read_bytes()).hexdigest() == \
            "437ba30e5fed8e0ecd43b7645251bd4b1079677e20ba51736722758c33972c34"

    def test_export_features_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        small = dict(SMOKE, hidden_dims=list(SMOKE["hidden_dims"]),
                     n_train=120, n_test=50, total_epochs=3, warmup_epochs=1,
                     export_features=True)
        cfg.write_text(json.dumps(small))
        rc = cli_main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "ef")])
        assert rc == 0
        assert len(list((tmp_path / "ef" / "features").glob("epoch_*.csv"))) == 2

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "noisylab.cli", "--help"],
                              env=_child_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout
