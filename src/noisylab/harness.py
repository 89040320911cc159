"""Experiment orchestration: warm-up, per-epoch co-divide + geometry +
semi-supervised training, evaluation, and all file I/O.

Determinism: every random draw comes from a purpose-tagged stream
derived from the master seed, so ablation switches leave unrelated
streams untouched and identical configs reproduce runs byte for byte.
The serialized report deliberately excludes wall-clock time (it goes to
a sidecar meta file) so report bytes are reproducible.
"""

from __future__ import annotations

import csv
import json
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import geometry, metrics, nn, partition, semisup
from .config import RunConfig
from .errors import ConfigError, TrainingError

SCHEMA_VERSION = 1

# purpose tags for derived random streams
_STREAM_TAGS = {
    "data": 0,
    "noise": 1,
    "test_data": 2,
    "ood_far": 3,
    "ood_near": 4,
    "init0": 5,
    "init1": 6,
    "warmup_shuffle": 7,
    "train_shuffle": 8,
    "augment": 9,
    "mixup": 10,
    "contrast": 11,
    "geometry": 12,
    "energy_draw": 13,
}


def child_seed(master: int, tag: int) -> int:
    return int(np.random.SeedSequence([master, tag]).generate_state(1)[0])


def make_stream(master: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master, _STREAM_TAGS[name]]))


def build_datasets(config: RunConfig):
    """Train (noisy), test (clean), and the two OOD input sets."""
    seed = config.seed
    train_spec = data_mod.SyntheticSpec(
        generator=config.generator, n_samples=config.n_train, n_classes=config.n_classes,
        input_dim=config.input_dim, separation=config.separation,
        seed=child_seed(seed, _STREAM_TAGS["data"]))
    clean_train = data_mod.generate(train_spec)
    test_set = data_mod.generate_test_split(train_spec, config.n_test,
                                            child_seed(seed, _STREAM_TAGS["test_data"]))
    noisy_train = data_mod.inject_noise(
        clean_train, data_mod.NoiseSpec(mode=config.noise_mode, rate=config.noise_rate,
                                        seed=child_seed(seed, _STREAM_TAGS["noise"])))
    ood_far = data_mod.generate_ood(
        data_mod.OodSpec("far", config.ood_n, child_seed(seed, _STREAM_TAGS["ood_far"]),
                         far_gap=config.ood_far_gap), clean_train)
    ood_near = data_mod.generate_ood(
        data_mod.OodSpec("near", config.ood_n, child_seed(seed, _STREAM_TAGS["ood_near"]),
                         near_radius_factor=config.ood_near_radius_factor,
                         near_spread=config.ood_near_spread), clean_train)
    return noisy_train, test_set, ood_far, ood_near


# ---------------------------------------------------------------------------
# model persistence


def save_model(net: nn.DenseNet, path) -> None:
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.bias
    arrays["activations"] = np.array([l.activation for l in net.layers])
    arrays["splits"] = np.array([net.extractor_end, net.classifier_end])
    np.savez(path, **arrays)


def load_model(path) -> nn.DenseNet:
    """The net `save_model` wrote; ConfigError if the file is not such a model."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            activations = [str(a) for a in blob["activations"]]
            layers = [nn.DenseLayer(blob[f"w{i}"], blob[f"b{i}"], act)
                      for i, act in enumerate(activations)]
            splits = blob["splits"]
            return nn.DenseNet(layers, int(splits[0]), int(splits[1]))
    # ValueError covers numpy's unreadable-file errors and the nets' ShapeError
    except (ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a saved noisylab model: {exc}") from exc


# ---------------------------------------------------------------------------
# OOD scoring


def ood_scores(nets, inputs: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Negated mean energy across networks: higher = more in-distribution."""
    e = np.mean([nn.energies(nn.forward_batch(net, inputs).logits, temperature)
                 for net in nets], axis=0)
    return -e


def evaluate_ood(nets, id_inputs, ood_inputs, temperature: float = 1.0) -> dict:
    id_s = ood_scores(nets, id_inputs, temperature)
    ood_s = ood_scores(nets, ood_inputs, temperature)
    return {"auroc": metrics.auroc(id_s, ood_s),
            "fpr95": metrics.fpr_at_95_tpr(id_s, ood_s)}


# ---------------------------------------------------------------------------
# run report

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "config", "incomplete", "epochs", "summary"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "config": {"type": "object"},
        "incomplete": {"type": "boolean"},
        "epochs": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["epoch", "phase", "loss_total", "test_accuracy"],
                "properties": {
                    "epoch": {"type": "integer"},
                    "phase": {"enum": ["warmup", "main"]},
                    "loss_total": {"type": "number"},
                    "loss_labeled": {"type": ["number", "null"]},
                    "loss_unlabeled": {"type": ["number", "null"]},
                    "loss_prior": {"type": ["number", "null"]},
                    "loss_contrastive": {"type": ["number", "null"]},
                    "loss_energy": {"type": ["number", "null"]},
                    "n_labeled": {"type": ["number", "null"]},
                    "n_support": {"type": ["number", "null"]},
                    "support_fallback": {"type": ["boolean", "null"]},
                    "selection_precision": {"type": ["number", "null"]},
                    "selection_recall": {"type": ["number", "null"]},
                    "selection_f1": {"type": ["number", "null"]},
                    "envelope_log_volume": {"type": ["number", "null"]},
                    "n_candidates": {"type": ["number", "null"]},
                    "n_outliers": {"type": ["number", "null"]},
                    "tau_rej_effective": {"type": ["number", "null"]},
                    "mean_energy_clean": {"type": ["number", "null"]},
                    "mean_energy_outlier": {"type": ["number", "null"]},
                    "test_accuracy": {"type": "number"},
                    "first_batch_terms": {
                        "type": ["object", "null"],
                        "additionalProperties": False,
                        "properties": {
                            "labeled": {"type": "number"},
                            "unlabeled": {"type": "number"},
                            "prior": {"type": "number"},
                            "contrastive": {"type": "number"},
                            "energy": {"type": "number"},
                        },
                    },
                },
            },
        },
        "summary": {
            "type": "object",
            "additionalProperties": False,
            "required": ["best_test_accuracy", "final_test_accuracy", "ood"],
            "properties": {
                "best_test_accuracy": {"type": "number"},
                "final_test_accuracy": {"type": "number"},
                "final_selection_precision": {"type": ["number", "null"]},
                "final_selection_recall": {"type": ["number", "null"]},
                "final_selection_f1": {"type": ["number", "null"]},
                "peak_envelope_log_volume": {"type": ["number", "null"]},
                "final_envelope_log_volume": {"type": ["number", "null"]},
                "ood": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "far": {"type": "object"},
                        "near": {"type": "object"},
                    },
                },
            },
        },
    },
}

#: every per-epoch record carries all of these keys, null when not measured
_EPOCH_KEYS = tuple(REPORT_SCHEMA["properties"]["epochs"]["items"]["properties"])


def _mean_or_none(values: list) -> float | None:
    return float(np.mean(values)) if values else None


@dataclass
class RunReport:
    config: dict
    epochs: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    incomplete: bool = False
    wall_clock_seconds: float | None = None  # sidecar only, never serialized

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "incomplete": self.incomplete,
            "epochs": self.epochs,
            "summary": self.summary,
        }

    def canonical_json(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# the experiment


class Experiment:
    def __init__(self, config: RunConfig):
        self.config = config
        self.dataset, self.test_set, self.ood_far, self.ood_near = build_datasets(config)
        self.view = self.dataset.train_view()
        self.feature_std = self.view.features.std(axis=0)
        self.n_nets = 1 if config.single_network else 2
        self.nets = [nn.build_network(config.input_dim, config.n_classes,
                                      hidden=config.hidden_dims,
                                      projection_dim=config.projection_dim,
                                      rng=make_stream(config.seed, f"init{k}"))
                     for k in range(self.n_nets)]
        self.opt_states = [None] * self.n_nets
        self.sel_states = [partition.SelectionState(config.n_train, config.window)
                           for _ in range(self.n_nets)]
        self.streams = {name: make_stream(config.seed, name)
                        for name in ("warmup_shuffle", "train_shuffle", "augment",
                                     "mixup", "contrast", "geometry", "energy_draw")}
        self.report = RunReport(config=config.to_dict())
        self.out_dir: Path | None = None
        self._geometry_log: list[list[dict]] = [[] for _ in range(self.n_nets)]
        self._selection_rows: list[list] = [[] for _ in range(self.n_nets)]

    # -- shared helpers ----------------------------------------------------

    def _per_sample_gce(self, net) -> np.ndarray:
        probs = nn.softmax(nn.forward_batch(net, self.view.features).logits)
        return nn.gce_losses(probs, self.view.noisy_labels, self.config.gce_q)

    def _test_accuracy(self) -> float:
        probs = np.mean([nn.softmax(nn.forward_batch(net, self.test_set.features).logits)
                         for net in self.nets], axis=0)
        return metrics.accuracy(probs, self.test_set.true_labels)

    def _weak(self, x):
        return semisup.weak_augment(x, self.feature_std, self.streams["augment"],
                                    self.config.weak_jitter)

    def _strong(self, x):
        return semisup.strong_augment(
            x, self.feature_std, self.streams["contrast"], self.config.weak_jitter,
            (self.config.strong_scale_low, self.config.strong_scale_high),
            self.config.strong_dropout)

    # -- warm-up -----------------------------------------------------------

    def warmup(self):
        """Train every network on all noisy data with the GCE loss."""
        cfg = self.config
        for epoch in range(cfg.warmup_epochs):
            gce_means = []
            for k, net in enumerate(self.nets):
                order = self.streams["warmup_shuffle"].permutation(cfg.n_train)
                epoch_loss = 0.0
                n_batches = 0
                for start in range(0, cfg.n_train, cfg.batch_size):
                    ids = order[start:start + cfg.batch_size]
                    value, bundle = nn.gce_loss_and_grads(
                        net, self.view.features[ids], self.view.noisy_labels[ids], cfg.gce_q)
                    if not np.isfinite(value):
                        raise TrainingError("warm-up diverged", epoch=epoch, batch=n_batches)
                    self.opt_states[k] = nn.sgd_step(net, bundle, cfg.lr, cfg.weight_decay,
                                                     cfg.momentum, self.opt_states[k])
                    epoch_loss += value
                    n_batches += 1
                gce_means.append(epoch_loss / max(n_batches, 1))
            self.report.epochs.append(self._record(
                epoch=epoch, phase="warmup", loss_total=float(np.mean(gce_means)),
                test_accuracy=self._test_accuracy()))
        return [self._per_sample_gce(net) for net in self.nets]

    # -- one main epoch ----------------------------------------------------

    def run_epoch(self, epoch: int):
        cfg = self.config
        main_idx = epoch - cfg.warmup_epochs
        raw_losses = [self._per_sample_gce(net) for net in self.nets]
        norm_losses = [partition.normalize_losses(l) for l in raw_losses]

        per_net = []
        first_batch_terms = None
        for k, net in enumerate(self.nets):
            peer = (1 - k) if self.n_nets == 2 else k
            gmm = partition.fit_gmm_1d(norm_losses[peer])
            labeled_ids, unlabeled_ids, w = partition.partition_epoch(
                self.sel_states[k], norm_losses[peer], gmm, cfg.tau_clean)
            support = partition.support_set(self.sel_states[k])
            fallback = support.size == 0
            train_labeled = labeled_ids if fallback else support
            train_unlabeled = np.arange(cfg.n_train)[~self._id_mask(train_labeled)]

            geo = self._epoch_geometry(net, support, epoch) if not cfg.disable_vos else None
            stats = self._train_net(k, net, train_labeled, train_unlabeled, w,
                                    support, geo, main_idx, epoch)
            batch_terms = stats.pop("first_batch_terms")
            if k == 0:
                first_batch_terms = batch_terms
            sel = metrics.selection_metrics(self._id_mask(support), self.dataset.clean_mask)
            per_net.append({
                "n_labeled": len(labeled_ids), "n_support": len(support),
                "fallback": fallback, "selection": sel, "geometry": geo, "stats": stats,
                "support": support,
            })
            if cfg.dump_selection:
                in_support = self._id_mask(support)
                for i in range(cfg.n_train):
                    self._selection_rows[k].append(
                        [epoch, i, norm_losses[peer][i], w[i], int(in_support[i])])

        record = self._epoch_record(epoch, per_net, first_batch_terms)
        self.report.epochs.append(record)
        if cfg.export_features and self.out_dir is not None:
            self._export_features(epoch, per_net[0]["geometry"])
        return record

    def _id_mask(self, ids) -> np.ndarray:
        """Boolean mask over the training set, True at ids."""
        mask = np.zeros(self.config.n_train, dtype=bool)
        mask[ids] = True
        return mask

    def _epoch_geometry(self, net, support_ids, epoch):
        """Envelope, centroids, candidate synthesis, and filtering for one net."""
        cfg = self.config
        if support_ids.size == 0:
            return None
        feats = nn.forward_batch(net, self.view.features[support_ids],
                                 want_logits=False).features
        labels = self.view.noisy_labels[support_ids]
        envelope = geometry.estimate_envelope(feats, epoch)
        centroids = geometry.class_centroids(feats, labels, epoch)
        if cfg.tau_auto:
            mean_dist = geometry.mean_centroid_distance(centroids)
            tau = (cfg.tau_auto_scale * 0.5 * mean_dist) if mean_dist is not None else cfg.tau_rej
        else:
            tau = cfg.tau_rej
        n_cand = int(min(cfg.n_cand_factor * len(support_ids), cfg.n_cand_cap))
        candidates = geometry.sample_candidates(envelope, centroids, feats, labels, n_cand,
                                                cfg.sampler, self.streams["geometry"])
        batch = geometry.filter_outliers(candidates, centroids, tau, cfg.sampler)
        return {"envelope": envelope, "centroids": centroids, "outliers": batch, "tau": tau}

    def _train_net(self, k, net, labeled_ids, unlabeled_ids, w, support_ids, geo,
                   main_idx, epoch):
        cfg = self.config
        lam_u = cfg.lambda_u * min(1.0, main_idx / cfg.lambda_u_ramp_epochs)
        lam_cl = 0.0 if cfg.disable_cl else cfg.lambda_cl
        lam_energy = 0.0 if cfg.disable_vos else cfg.lambda_energy
        outliers = geo["outliers"].features if geo is not None else np.empty((0, net.feature_dim))
        term_sums = dict.fromkeys(nn.LOSS_TERMS, 0.0)
        total_sum = 0.0
        first_batch_terms = None

        order = self.streams["train_shuffle"].permutation(labeled_ids)
        u_order = self.streams["train_shuffle"].permutation(unlabeled_ids)
        n_steps = int(np.ceil(len(order) / cfg.batch_size))
        executed = 0
        u_pos = 0
        for step in range(n_steps):
            xb_ids = order[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            if len(xb_ids) < 2:
                continue  # mixup and batch statistics need at least two rows
            ub_ids = np.empty(0, dtype=int)
            if len(u_order):
                take = min(cfg.batch_size, len(u_order))
                idx = (u_pos + np.arange(take)) % len(u_order)
                ub_ids = u_order[idx]
                u_pos = (u_pos + take) % len(u_order)

            batch = self._build_batch(net, xb_ids, ub_ids, w, support_ids, outliers,
                                      lam_u, lam_cl, lam_energy)
            value, terms, bundle = nn.total_loss_and_grads(net, batch)
            if not np.isfinite(value) or not bundle.is_finite():
                raise TrainingError(f"non-finite training loss (net {k})",
                                    epoch=epoch, batch=step)
            self.opt_states[k] = nn.sgd_step(net, bundle, cfg.lr, cfg.weight_decay,
                                             cfg.momentum, self.opt_states[k])
            if first_batch_terms is None:
                first_batch_terms = dict(terms)
            for name in term_sums:
                term_sums[name] += terms[name]
            total_sum += value
            executed += 1

        n = max(executed, 1)
        out = {name: s / n for name, s in term_sums.items()}
        out["total"] = total_sum / n
        out["first_batch_terms"] = first_batch_terms
        return out

    def _build_batch(self, net, xb_ids, ub_ids, w, support_ids, outliers,
                     lam_u, lam_cl, lam_energy) -> nn.TotalLossBatch:
        cfg = self.config
        xb = self.view.features[xb_ids]
        yb = self.view.noisy_labels[xb_ids]
        wb = w[xb_ids]
        x_views = [self._weak(xb), self._weak(xb)]
        preds = [nn.softmax(nn.forward_batch(peer, v).logits)
                 for peer in self.nets for v in x_views]
        tx = semisup.refine_labels(yb, wb, preds, cfg.n_classes, cfg.sharpen_temperature)

        u_views, tu = [], None
        if len(ub_ids):
            ub = self.view.features[ub_ids]
            u_views = [self._weak(ub) for _ in range(cfg.n_aug)]
            u_preds = [nn.softmax(nn.forward_batch(peer, v).logits)
                       for peer in self.nets for v in u_views]
            tu = semisup.guess_labels(u_preds, cfg.sharpen_temperature)

        all_x = np.vstack(x_views + u_views)
        all_t = np.vstack([tx] * len(x_views) + ([tu] * len(u_views) if u_views else []))
        perm = self.streams["mixup"].permutation(len(all_x))
        mixed_x, mixed_t, _ = semisup.mixup(all_x, all_t, all_x[perm], all_t[perm],
                                            cfg.mixup_alpha, self.streams["mixup"])
        n_lab = len(xb) * len(x_views)

        contrast_views = None
        if lam_cl > 0.0 and len(ub_ids) >= 2:
            s1, s2 = self._strong(self.view.features[ub_ids]), \
                self._strong(self.view.features[ub_ids])
            contrast_views = np.stack([s1, s2], axis=1).reshape(2 * len(ub_ids), -1)

        support_x = None
        outlier_feats = None
        if lam_energy > 0.0 and len(support_ids):
            take = min(cfg.batch_size, len(support_ids))
            sids = self.streams["energy_draw"].choice(support_ids, size=take, replace=False)
            support_x = self.view.features[sids]
            if len(outliers):
                take_o = min(cfg.batch_size, len(outliers))
                oidx = self.streams["energy_draw"].choice(len(outliers), size=take_o, replace=False)
                outlier_feats = outliers[oidx]

        return nn.TotalLossBatch(
            labeled_inputs=mixed_x[:n_lab], labeled_targets=mixed_t[:n_lab],
            unlabeled_inputs=mixed_x[n_lab:], unlabeled_targets=mixed_t[n_lab:],
            contrast_views=contrast_views, support_inputs=support_x,
            outlier_features=outlier_feats,
            lambda_u=lam_u, lambda_reg=cfg.lambda_reg, lambda_cl=lam_cl,
            lambda_energy=lam_energy, temperature=cfg.energy_temperature,
            contrast_temperature=cfg.contrast_temperature)

    # -- records -----------------------------------------------------------

    @staticmethod
    def _record(**kwargs) -> dict:
        record = dict.fromkeys(_EPOCH_KEYS)
        record.update(kwargs)
        return record

    def _epoch_record(self, epoch, per_net, first_batch_terms) -> dict:
        stats = [p["stats"] for p in per_net]
        mean_stat = {name: float(np.mean([s[name] for s in stats]))
                     for name in ("total",) + nn.LOSS_TERMS}
        sels = [p["selection"] for p in per_net]
        precisions = [s.precision for s in sels if s.precision is not None]
        geo_present = [p["geometry"] for p in per_net if p["geometry"] is not None]

        energy_clean, energy_outlier = self._epoch_energies(per_net)
        record = self._record(
            epoch=epoch, phase="main",
            loss_total=mean_stat["total"], loss_labeled=mean_stat["labeled"],
            loss_unlabeled=mean_stat["unlabeled"], loss_prior=mean_stat["prior"],
            loss_contrastive=mean_stat["contrastive"], loss_energy=mean_stat["energy"],
            n_labeled=float(np.mean([p["n_labeled"] for p in per_net])),
            n_support=float(np.mean([p["n_support"] for p in per_net])),
            support_fallback=any(p["fallback"] for p in per_net),
            selection_precision=_mean_or_none(precisions),
            selection_recall=float(np.mean([s.recall for s in sels])),
            selection_f1=float(np.mean([s.f1 for s in sels])),
            envelope_log_volume=_mean_or_none([g["envelope"].log_volume() for g in geo_present]),
            n_candidates=_mean_or_none([g["outliers"].n_candidates for g in geo_present]),
            n_outliers=_mean_or_none([g["outliers"].n_accepted for g in geo_present]),
            tau_rej_effective=_mean_or_none([g["tau"] for g in geo_present]),
            mean_energy_clean=energy_clean, mean_energy_outlier=energy_outlier,
            test_accuracy=self._test_accuracy(),
            first_batch_terms=first_batch_terms,
        )
        for k, p in enumerate(per_net):
            if p["geometry"] is not None:
                g = p["geometry"]
                self._geometry_log[k].append({
                    "epoch": epoch,
                    "b_min": [float(v) for v in g["envelope"].low],
                    "b_max": [float(v) for v in g["envelope"].high],
                    "centroids": {str(int(c)): [float(v) for v in center]
                                  for c, center in zip(g["centroids"].class_ids,
                                                       g["centroids"].centers)},
                    "n_candidates": g["outliers"].n_candidates,
                    "n_accepted": g["outliers"].n_accepted,
                    "sampler": g["outliers"].sampler,
                })
        return record

    def _epoch_energies(self, per_net):
        cfg = self.config
        clean_vals, out_vals = [], []
        for net, p in zip(self.nets, per_net):
            support = p["support"]
            if support.size:
                feats = nn.forward_batch(net, self.view.features[support],
                                         want_logits=False).features
                clean_vals.append(nn.energies(nn.head_forward(net, feats),
                                              cfg.energy_temperature).mean())
            g = p["geometry"]
            if g is not None and g["outliers"].n_accepted:
                out_vals.append(nn.energies(nn.head_forward(net, g["outliers"].features),
                                            cfg.energy_temperature).mean())
        return _mean_or_none(clean_vals), _mean_or_none(out_vals)

    def _export_features(self, epoch, geo):
        out = self.out_dir / "features"
        out.mkdir(exist_ok=True)
        feats = nn.forward_batch(self.nets[0], self.view.features,
                                 want_logits=False).features
        clean = self.dataset.clean_mask
        d = feats.shape[1]
        with open(out / f"epoch_{epoch:04d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "split"] + [f"f{j}" for j in range(d)])
            for i in range(len(feats)):
                writer.writerow([int(self.view.ids[i]), "clean" if clean[i] else "noisy"]
                                + [format(v, ".17g") for v in feats[i]])
            if geo is not None:
                for j, row in enumerate(geo["outliers"].features):
                    writer.writerow([-(j + 1), "outlier"]
                                    + [format(v, ".17g") for v in row])

    # -- full run ----------------------------------------------------------

    def run(self, out_dir=None) -> RunReport:
        cfg = self.config
        self.out_dir = Path(out_dir) if out_dir is not None else None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        try:
            self.warmup()
            for epoch in range(cfg.warmup_epochs, cfg.total_epochs):
                self.run_epoch(epoch)
            self._finalize_summary()
        except TrainingError:
            self.report.incomplete = True
            self.report.wall_clock_seconds = time.time() - started
            if self.out_dir is not None:
                self._write_outputs()
            raise
        self.report.wall_clock_seconds = time.time() - started
        if self.out_dir is not None:
            self._write_outputs()
        return self.report

    def _finalize_summary(self):
        cfg = self.config
        records = self.report.epochs
        main = [r for r in records if r["phase"] == "main"]
        vols = [r["envelope_log_volume"] for r in main if r["envelope_log_volume"] is not None]
        summary = {
            "best_test_accuracy": max(r["test_accuracy"] for r in records) if records else 0.0,
            "final_test_accuracy": records[-1]["test_accuracy"] if records else 0.0,
            "final_selection_precision": main[-1]["selection_precision"] if main else None,
            "final_selection_recall": main[-1]["selection_recall"] if main else None,
            "final_selection_f1": main[-1]["selection_f1"] if main else None,
            "peak_envelope_log_volume": max(vols) if vols else None,
            "final_envelope_log_volume": vols[-1] if vols else None,
            "ood": {
                "far": evaluate_ood(self.nets, self.test_set.features, self.ood_far,
                                    cfg.energy_temperature),
                "near": evaluate_ood(self.nets, self.test_set.features, self.ood_near,
                                     cfg.energy_temperature),
            },
        }
        self.report.summary = summary

    def _write_outputs(self):
        out = self.out_dir
        (out / "report.json").write_bytes(self.report.canonical_json())
        (out / "config.json").write_text(
            json.dumps(self.config.to_dict(), sort_keys=True, indent=2) + "\n")
        meta = {"wall_clock_seconds": self.report.wall_clock_seconds,
                "incomplete": self.report.incomplete}
        (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        models = out / "models"
        models.mkdir(exist_ok=True)
        for k, net in enumerate(self.nets):
            save_model(net, models / f"net{k}.npz")
        if self.config.dump_selection:
            for k, rows in enumerate(self._selection_rows):
                with open(out / f"selection_net{k}.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["epoch", "sample_id", "loss", "w_i", "in_support"])
                    for row in rows:
                        writer.writerow([row[0], row[1], format(row[2], ".17g"),
                                         format(row[3], ".17g"), row[4]])
        if self.config.dump_geometry:
            for k, entries in enumerate(self._geometry_log):
                with open(out / f"geometry_net{k}.jsonl", "w") as fh:
                    for entry in entries:
                        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def run_experiment(config: RunConfig, out_dir=None) -> RunReport:
    """Warm-up, all training epochs, final OOD evaluation, file outputs."""
    return Experiment(config).run(out_dir)
