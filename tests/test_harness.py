"""Configuration, orchestration, reports, persistence, and the CLI."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from noisylab import RunConfig, data, nn, run_experiment
from noisylab.cli import main as cli_main
from noisylab.errors import ConfigError
from noisylab.harness import (REPORT_SCHEMA, Experiment, build_datasets, evaluate_ood,
                              load_model, ood_scores, save_model)

SMOKE = dict(n_train=300, n_test=150, warmup_epochs=2, total_epochs=5,
             hidden_dims=(16, 8), ood_n=100, window=2)
INPUT_DIM = RunConfig().input_dim
FEATURE_HEADER = "id," + ",".join(f"f{j}" for j in range(INPUT_DIM)) + "\n"


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
                           ("sharpen_temperature", 0.0)]:
            base = {"warmup_epochs": 5} if key == "total_epochs" else {}
            with pytest.raises(ConfigError):
                RunConfig.from_dict({key: value, **base})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"batch_size": 64.5})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"disable_vos": "yes"})

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
        losses = exp.warmup()
        after = [l.weights for net in exp.nets for l in net.layers]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert len(losses) == 2 and all(np.isfinite(l).all() for l in losses)

    def test_clean_separable_data_reaches_high_train_accuracy(self):
        cfg = RunConfig(seed=2, n_train=400, n_test=200, noise_rate=0.0, separation=6.0,
                        warmup_epochs=12, total_epochs=12, hidden_dims=(32, 16), ood_n=50)
        exp = Experiment(cfg)
        exp.warmup()
        probs = nn.softmax(nn.forward_batch(exp.nets[0], exp.view.features).logits)
        from noisylab import metrics

        train_acc = metrics.accuracy(probs, exp.dataset.true_labels)
        assert train_acc > 0.95

    def test_identical_seeds_identical_loss_tables(self):
        cfg = RunConfig(seed=11, **SMOKE)
        a = Experiment(cfg).warmup()
        b = Experiment(cfg).warmup()
        for la, lb in zip(a, b):
            assert np.array_equal(la, lb)


class TestRunExperiment:
    def test_smoke_run_completes_and_validates(self, smoke_report):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(json.loads(smoke_report.canonical_json()), REPORT_SCHEMA)
        assert not smoke_report.incomplete
        assert len(smoke_report.epochs) == 5
        assert smoke_report.epochs[0]["phase"] == "warmup"
        assert smoke_report.epochs[-1]["phase"] == "main"

    def test_schema_version_present(self, smoke_report):
        assert json.loads(smoke_report.canonical_json())["schema_version"] == 1

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
        report = run_experiment(RunConfig(seed=6, disable_cl=True, **SMOKE))
        for e in report.epochs:
            if e["phase"] == "main":
                assert e["loss_contrastive"] == 0.0


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

    def test_train_cli_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMOKE, hidden_dims=list(SMOKE["hidden_dims"]))))
        rc = cli_main(["train", "--config", str(cfg), "--disable-vos", "--sampler",
                       "gaussian", "--tau-rej", "1.5",
                       "--out-dir", str(tmp_path / "r")])
        assert rc == 0
        echo = json.loads((tmp_path / "r" / "config.json").read_text())
        assert echo["disable_vos"] is True
        assert echo["sampler"] == "gaussian"
        assert echo["tau_rej"] == 1.5 and echo["tau_auto"] is False

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert cli_main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("body", [
        "id,f0,f1,f2\n0,1.0,2.0,3.0\n",
        FEATURE_HEADER + "0,abc" + ",1.0" * (INPUT_DIM - 1) + "\n",
        FEATURE_HEADER,
    ], ids=["narrower-than-nets", "non-numeric", "header-only"])
    def test_malformed_ood_csv_exit_code(self, saved_run, tmp_path, capsys, body):
        path = tmp_path / "ood.csv"
        path.write_text(body)
        capsys.readouterr()
        rc = cli_main(["ood-eval", "--run-dir", str(saved_run), "--ood-csv", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("corrupt", [
        lambda path: path.write_text("not a model\n"),
        lambda path: np.savez(path, w0=np.zeros((2, 2)), b0=np.zeros(2)),
        lambda path: np.savez(path, w0=np.zeros((4, INPUT_DIM)), b0=np.zeros(3),
                              activations=np.array(["relu"]), splits=np.array([1, 1])),
    ], ids=["text-file", "no-activations", "mismatched-arrays"])
    def test_bad_model_file_exit_code(self, saved_run, tmp_path, capsys, corrupt):
        run_dir = tmp_path / "run"
        shutil.copytree(saved_run, run_dir)
        corrupt(run_dir / "models" / "net1.npz")
        capsys.readouterr()
        rc = cli_main(["ood-eval", "--run-dir", str(run_dir), "--ood-csv", "unread.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "net1.npz: not a saved noisylab model" in err

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

    def test_export_features_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        small = dict(SMOKE, hidden_dims=list(SMOKE["hidden_dims"]),
                     n_train=120, n_test=50, total_epochs=3, warmup_epochs=1)
        cfg.write_text(json.dumps(small))
        rc = cli_main(["export-features", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "ef")])
        assert rc == 0
        assert len(list((tmp_path / "ef" / "features").glob("epoch_*.csv"))) == 2

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "noisylab.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout
