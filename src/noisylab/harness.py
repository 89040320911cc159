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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import geometry, metrics, nn, partition, semisup
from .config import RunConfig
from .errors import ConfigError, NoisylabError, ParameterError, TrainingError

SCHEMA_VERSION = 2

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


@contextmanager
def _within_numpy_limits():
    """Run a block whose arrays the config sizes and scales: overflow to inf
    (FloatingPointError, OverflowError), numpy's array dimension limit
    (ValueError) or an allocation that cannot succeed becomes a ConfigError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except NoisylabError:
        raise
    except (ArithmeticError, ValueError, MemoryError) as exc:
        raise _beyond_limits(exc) from exc


def _beyond_limits(exc: Exception) -> ConfigError:
    # a MemoryError that Python raises (e.g. for a list) carries no message
    return ConfigError(f"the config's sizes or scales exceed numpy's limits: "
                       f"{str(exc) or 'out of memory'}")


@contextmanager
def _epoch_rule(epoch: int):
    """Run a training epoch: numpy's divide, overflow and invalid errors raise,
    and one raised outside an SGD step (in the full-set passes, the GMM, the
    geometry or the test accuracy) stops the run as a TrainingError naming
    the epoch. `_sgd_steps` names the step of one raised inside it."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingError(f"floating-point error: {exc}", epoch=epoch) from exc


def build_datasets(config: RunConfig):
    """Train (noisy), test (clean), and the two OOD input sets.

    ConfigError if the config's sizes or scales overflow float64 or exceed
    what numpy can allocate.
    """
    seed = config.seed
    train_spec = data_mod.SyntheticSpec(
        generator=config.generator, n_samples=config.n_train, n_classes=config.n_classes,
        input_dim=config.input_dim, separation=config.separation,
        seed=child_seed(seed, _STREAM_TAGS["data"]))
    with _within_numpy_limits():
        clean_train = data_mod.generate(train_spec)
        test_set = data_mod.generate_test_split(
            train_spec, config.n_test, child_seed(seed, _STREAM_TAGS["test_data"]))
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
            activations, splits = blob["activations"], blob["splits"]
            if activations.ndim != 1:
                raise ValueError(f"activations has shape {activations.shape}, not 1-D")
            if splits.shape != (2,) or splits.dtype.kind not in "iu":
                raise ValueError(f"splits is {splits.dtype} of shape {splits.shape}, "
                                 "not two integers")
            layers = [nn.DenseLayer(_real(blob, f"w{i}"), _real(blob, f"b{i}"), str(act))
                      for i, act in enumerate(activations)]
            return nn.DenseNet(layers, int(splits[0]), int(splits[1]))
    # ValueError covers numpy's unreadable-file errors and the nets' ShapeError
    except (ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a saved noisylab model: {exc}") from exc


def _real(blob, key: str) -> np.ndarray:
    """blob[key]; ValueError unless it holds real numbers (a complex array
    would lose its imaginary parts to float64)."""
    array = blob[key]
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{key} holds {array.dtype}, not real numbers")
    return array


# ---------------------------------------------------------------------------
# OOD scoring


def ood_scores(nets, inputs: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Negated mean energy across networks: higher = more in-distribution.

    The nets run on row blocks (`nn.in_row_blocks`), so only one block's
    hidden layers are held at a time.

    ParameterError if some input rows overflow the nets to a non-finite score.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = nn.in_row_blocks(lambda block: np.mean(
            [nn.energies(nn.predict_logits(net, block), temperature) for net in nets], axis=0),
            inputs)
    n_bad = np.count_nonzero(~np.isfinite(e))
    if n_bad:
        raise ParameterError(f"{n_bad} of {len(e)} input rows overflow the nets "
                             "to a non-finite OOD score")
    return -e


def _mean_probs(nets, inputs: np.ndarray) -> np.ndarray:
    """The nets' softmax predictions of inputs, averaged over the nets, in row blocks."""
    return nn.in_row_blocks(lambda block: np.mean(
        [nn.softmax(nn.predict_logits(net, block)) for net in nets], axis=0), inputs)


def ood_metrics(id_s: np.ndarray, ood_s: np.ndarray) -> dict:
    """AUROC and FPR95 of ID against OOD scores (higher = more in-distribution)."""
    return {"auroc": metrics.auroc(id_s, ood_s), "fpr95": metrics.fpr_at_95_tpr(id_s, ood_s)}


def evaluate_ood(nets, id_inputs, ood_inputs, temperature: float = 1.0) -> dict:
    return ood_metrics(ood_scores(nets, id_inputs, temperature),
                       ood_scores(nets, ood_inputs, temperature))


# ---------------------------------------------------------------------------
# run report

_NUMBER_OR_NULL = {"type": ["number", "null"]}

#: one row per key of an epoch record, which carries every key (null when not
#: measured): its name; its JSON schema, required if that admits no null; how a
#: main epoch merges the nets' values into it ("record": set once for the epoch,
#: "mean" or "sum": the mean or integer sum of the nets' values, None if no net
#: has one); and the schema version that added it
_EPOCH_TABLE = (
    ("epoch", {"type": "integer"}, "record", 1),
    ("phase", {"enum": ["warmup", "main"]}, "record", 1),
    ("loss_total", {"type": "number"}, "mean", 1),
    *((f"loss_{t}", _NUMBER_OR_NULL, "mean", 1) for t in nn.LOSS_TERMS),
    ("n_labeled", _NUMBER_OR_NULL, "mean", 1),
    ("n_support", _NUMBER_OR_NULL, "mean", 1),
    ("support_fallback", {"type": ["boolean", "null"]}, "record", 1),
    ("selection_precision", _NUMBER_OR_NULL, "mean", 1),
    ("selection_recall", _NUMBER_OR_NULL, "mean", 1),
    ("selection_f1", _NUMBER_OR_NULL, "mean", 1),
    ("envelope_log_volume", _NUMBER_OR_NULL, "mean", 1),
    ("n_candidates", _NUMBER_OR_NULL, "mean", 1),
    ("n_outliers", _NUMBER_OR_NULL, "mean", 1),
    ("tau_rej_effective", _NUMBER_OR_NULL, "mean", 1),
    ("mean_energy_clean", _NUMBER_OR_NULL, "mean", 1),
    ("mean_energy_outlier", _NUMBER_OR_NULL, "mean", 1),
    ("gmm_iterations", {"type": ["integer", "null"]}, "sum", 2),  # counts, kept integers
    ("gmm_capped", {"type": ["integer", "null"]}, "sum", 2),
    ("test_accuracy", {"type": "number"}, "record", 1),
    ("first_batch_terms", {"type": ["object", "null"], "additionalProperties": False,
                           "properties": {t: {"type": "number"} for t in nn.LOSS_TERMS}},
     "record", 1),
)
_EPOCH_KEYS = tuple(name for name, *_ in _EPOCH_TABLE)
_RECORD_KEYS, _MEAN_KEYS, _SUM_KEYS = (
    tuple(name for name, _, rule, _ in _EPOCH_TABLE if rule == wanted)
    for wanted in ("record", "mean", "sum"))
#: the epoch keys whose last main value the summary reports as `final_<key>`
_SELECTION_KEYS = tuple(k for k in _EPOCH_KEYS if k.startswith("selection_"))

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
                "required": [name for name, schema, *_ in _EPOCH_TABLE
                             if "null" not in np.ravel(schema.get("type", "enum"))],
                "properties": {name: schema for name, schema, *_ in _EPOCH_TABLE},
            },
        },
        "summary": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "best_test_accuracy": {"type": "number"},
                "final_test_accuracy": {"type": "number"},
                **{f"final_{key}": _NUMBER_OR_NULL for key in _SELECTION_KEYS},
                "peak_envelope_log_volume": _NUMBER_OR_NULL,
                "final_envelope_log_volume": _NUMBER_OR_NULL,
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
    # a run stopped by a training error writes its report with an empty summary
    "if": {"properties": {"incomplete": {"const": False}}},
    "then": {"properties": {"summary": {
        "required": ["best_test_accuracy", "final_test_accuracy", "ood"]}}},
}


def mean_of_net_rows(rows: list[dict]) -> dict:
    """A main epoch's record values from the nets' rows, in net order.

    A `mean` key of `_EPOCH_TABLE` is the mean of the nets' values that are
    present and not None, a `sum` key their integer sum (None if no net has
    one); `support_fallback` is True if any net fell back, and
    `first_batch_terms` is net 0's (None if net 0 ran no step).
    """
    values = {key: [row[key] for row in rows if row.get(key) is not None]
              for key in _MEAN_KEYS + _SUM_KEYS}
    record = {key: (sum(v) if key in _SUM_KEYS else float(np.mean(v))) if v else None
              for key, v in values.items()}
    record["support_fallback"] = any(row["support_fallback"] for row in rows)
    record["first_batch_terms"] = rows[0]["first_batch_terms"]
    return record


def _geometry_entry(epoch: int, geo: dict, sampler: str) -> dict:
    """One net's line of the geometry dump for one epoch."""
    return {
        "epoch": epoch,
        "b_min": [float(v) for v in geo["envelope"].low],
        "b_max": [float(v) for v in geo["envelope"].high],
        "centroids": {str(int(c)): [float(v) for v in center]
                      for c, center in zip(geo["centroids"].class_ids, geo["centroids"].centers)},
        "n_candidates": geo["outliers"].n_candidates,
        "n_accepted": geo["outliers"].n_accepted,
        "sampler": sampler,
    }


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
        with _within_numpy_limits():
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
        # per-net, per-epoch dump data, kept only while that dump is on
        self._geometry_log: list[list[dict]] = [[] for _ in range(self.n_nets)]
        self._selection_log: list[list[tuple]] = [[] for _ in range(self.n_nets)]

    # -- shared helpers ----------------------------------------------------

    def _per_sample_gce(self, net) -> np.ndarray:
        return nn.in_row_blocks(lambda x, y: nn.gce_losses(
            nn.softmax(nn.predict_logits(net, x)), y, self.config.gce_q),
            self.view.features, self.view.noisy_labels)

    def _test_accuracy(self) -> float:
        return metrics.accuracy(_mean_probs(self.nets, self.test_set.features),
                                self.test_set.true_labels)

    def _features(self, net, ids: np.ndarray) -> np.ndarray:
        """net's extractor features of the training rows ids."""
        return nn.in_row_blocks(lambda b: nn.predict_features(net, self.view.features[b]), ids)

    def _energies(self, net, ids: np.ndarray) -> np.ndarray:
        """net's energies of the training rows ids."""
        return nn.in_row_blocks(lambda b: nn.energies(
            nn.predict_logits(net, self.view.features[b]), self.config.energy_temperature), ids)

    def _weak(self, x):
        return semisup.weak_augment(x, self.feature_std, self.streams["augment"],
                                    self.config.weak_jitter)

    def _strong(self, x):
        return semisup.strong_augment(
            x, self.feature_std, self.streams["contrast"], self.config.weak_jitter,
            (self.config.strong_scale_low, self.config.strong_scale_high),
            self.config.strong_dropout)

    # -- SGD steps ---------------------------------------------------------

    def _sgd_steps(self, k: int, epoch: int, batches, loss_and_grads, terms=()) -> dict:
        """Net k's SGD steps, one per batch, on `loss_and_grads(net, batch)`: the loss,
        a dict holding its `terms`, and the gradient vector. Run under
        `_epoch_rule`: the first floating-point error or a non-finite loss or
        gradient stops the run with a TrainingError naming the epoch and step.
        Returns the mean loss ("loss_total"), each term's mean ("loss_<term>")
        and the first step's terms ("first_batch_terms")."""
        cfg = self.config
        sums = dict.fromkeys(("loss_total",) + tuple(f"loss_{t}" for t in terms), 0.0)
        first_terms = None
        n_steps = 0
        try:
            for batch in batches:
                value, step_terms, grad = loss_and_grads(self.nets[k], batch)
                if not np.isfinite(value) or not np.isfinite(grad).all():
                    raise FloatingPointError("non-finite loss or gradient")
                self.opt_states[k] = nn.sgd_step(self.nets[k], grad, cfg.lr, cfg.weight_decay,
                                                 cfg.momentum, self.opt_states[k])
                if first_terms is None:
                    first_terms = step_terms
                sums["loss_total"] += value
                for t in terms:
                    sums[f"loss_{t}"] += step_terms[t]
                n_steps += 1
        except FloatingPointError as exc:
            raise TrainingError(f"floating-point error (net {k}): {exc}", epoch=epoch,
                                batch=n_steps) from exc
        row = {key: total / max(n_steps, 1) for key, total in sums.items()}
        row["first_batch_terms"] = first_terms
        return row

    # -- warm-up -----------------------------------------------------------

    def warmup(self):
        """Train every network on all noisy data with the GCE loss."""
        cfg = self.config
        x, y = self.view.features, self.view.noisy_labels

        def gce(net, ids):
            value, grad = nn.gce_loss_and_grads(net, x[ids], y[ids], cfg.gce_q)
            return value, {}, grad

        for epoch in range(cfg.warmup_epochs):
            with _epoch_rule(epoch):
                gce_means = []
                for k in range(self.n_nets):
                    order = self.streams["warmup_shuffle"].permutation(cfg.n_train)
                    batches = (order[s:s + cfg.batch_size]
                               for s in range(0, cfg.n_train, cfg.batch_size))
                    gce_means.append(self._sgd_steps(k, epoch, batches, gce)["loss_total"])
                self.report.epochs.append(self._record(
                    epoch=epoch, phase="warmup", loss_total=float(np.mean(gce_means)),
                    test_accuracy=self._test_accuracy()))

    # -- one main epoch ----------------------------------------------------

    def run_epoch(self, epoch: int):
        with _epoch_rule(epoch):
            norm_losses = [partition.normalize_losses(self._per_sample_gce(net))
                           for net in self.nets]
            rows = [self._net_epoch(k, epoch, norm_losses) for k in range(self.n_nets)]
            record = self._record(epoch=epoch, phase="main", **mean_of_net_rows(rows),
                                  test_accuracy=self._test_accuracy())
        self.report.epochs.append(record)
        return record

    def _net_epoch(self, k: int, epoch: int, norm_losses: list) -> dict:
        """Net k's main epoch, phase by phase, and its row of record values. After
        its own training net k is only read (as a peer), so its values are final here."""
        cfg = self.config
        net = self.nets[k]
        peer_losses = norm_losses[(1 - k) if self.n_nets == 2 else k]
        gmm = partition.fit_gmm_1d(peer_losses)
        labeled, w = partition.partition_epoch(self.sel_states[k], peer_losses, gmm,
                                               cfg.tau_clean)
        in_support = partition.support_mask(self.sel_states[k])
        support = np.flatnonzero(in_support)
        fallback = support.size == 0
        train_labeled = labeled if fallback else in_support

        geo = self._epoch_geometry(net, support)
        row = self._train_net(k, epoch, np.flatnonzero(train_labeled),
                              np.flatnonzero(~train_labeled), w, support, geo)

        sel = metrics.selection_metrics(in_support, self.dataset.clean_mask)
        em_iterations = max(len(gmm.log_likelihood_history) - 1, 0)  # 0: all losses equal
        row.update(gmm_iterations=em_iterations,
                   gmm_capped=int(em_iterations >= partition.EM_MAX_ITERS),
                   n_labeled=np.count_nonzero(labeled), n_support=len(support),
                   support_fallback=fallback, selection_precision=sel.precision,
                   selection_recall=sel.recall, selection_f1=sel.f1)
        if support.size:
            row["mean_energy_clean"] = self._energies(net, support).mean()
        if geo is not None:
            outliers = geo["outliers"]
            row.update(envelope_log_volume=geo["envelope"].log_volume(),
                       n_candidates=outliers.n_candidates, n_outliers=outliers.n_accepted,
                       tau_rej_effective=geo["tau"])
            if outliers.n_accepted:
                row["mean_energy_outlier"] = nn.energies(
                    nn.head_forward(net, outliers.features), cfg.energy_temperature).mean()

        if self.out_dir is not None:  # the dumps are written, and their logs read, only there
            if cfg.dump_selection:
                self._selection_log[k].append((epoch, peer_losses, w, in_support))
            if cfg.dump_geometry and geo is not None:
                self._geometry_log[k].append(_geometry_entry(epoch, geo, cfg.sampler))
            if k == 0 and cfg.export_features:
                self._export_features(epoch, geo)
        return row

    def _epoch_geometry(self, net, support_ids):
        """One net's envelope, centroids and filtered outliers; None without VOS or support."""
        cfg = self.config
        if cfg.disable_vos or support_ids.size == 0:
            return None
        feats = self._features(net, support_ids)
        labels = self.view.noisy_labels[support_ids]
        envelope = geometry.estimate_envelope(feats)
        centroids = geometry.class_centroids(feats, labels)
        if cfg.tau_auto:
            mean_dist = geometry.mean_centroid_distance(centroids)
            tau = (cfg.tau_auto_scale * 0.5 * mean_dist) if mean_dist is not None else cfg.tau_rej
        else:
            tau = cfg.tau_rej
        n_cand = int(min(cfg.n_cand_factor * len(support_ids), cfg.n_cand_cap))
        candidates = geometry.sample_candidates(envelope, centroids, feats, labels, n_cand,
                                                cfg.sampler, self.streams["geometry"])
        batch = geometry.filter_outliers(candidates, centroids, tau)
        return {"envelope": envelope, "centroids": centroids, "outliers": batch, "tau": tau}

    def _train_net(self, k, epoch, labeled_ids, unlabeled_ids, w, support_ids, geo):
        """Net k's SGD steps; its mean losses and first-batch terms under the record's keys."""
        cfg = self.config
        net = self.nets[k]
        main_idx = epoch - cfg.warmup_epochs
        lam_u = cfg.lambda_u * min(1.0, main_idx / cfg.lambda_u_ramp_epochs)
        lam_energy = 0.0 if cfg.disable_vos else cfg.lambda_energy
        outliers = geo["outliers"].features if geo is not None else np.empty((0, net.feature_dim))
        order = self.streams["train_shuffle"].permutation(labeled_ids)
        u_order = self.streams["train_shuffle"].permutation(unlabeled_ids)

        def batches():
            u_pos = 0
            # a last batch of one row is left out: mixup and batch statistics need two
            for start in range(0, len(order) - 1, cfg.batch_size):
                ub_ids = np.empty(0, dtype=int)
                if len(u_order):
                    take = min(cfg.batch_size, len(u_order))
                    ub_ids = u_order[(u_pos + np.arange(take)) % len(u_order)]
                    u_pos = (u_pos + take) % len(u_order)
                yield self._build_batch(order[start:start + cfg.batch_size], ub_ids, w,
                                        support_ids, outliers, lam_u, cfg.lambda_cl, lam_energy)

        return self._sgd_steps(k, epoch, batches(),
                               lambda net, batch: nn.total_loss_and_grads(net, batch),
                               nn.LOSS_TERMS)

    def _build_batch(self, xb_ids, ub_ids, w, support_ids, outliers,
                     lam_u, lam_cl, lam_energy) -> nn.TotalLossBatch:
        cfg = self.config
        xb = self.view.features[xb_ids]
        ub = self.view.features[ub_ids]
        n_u_views = cfg.n_aug if len(ub_ids) else 0
        # two weak views of xb, then n_aug of ub, in one draw: the stream fills
        # rows in order, so each view gets the jitter of a draw of its own
        all_x = self._weak(np.vstack([xb, xb] + [ub] * n_u_views))
        n_lab = 2 * len(xb)

        # each peer runs once on all views; its predictions are sliced into
        # views, in (peer, view) order
        x_preds, u_preds = [], []
        n_x, n_u = len(xb), len(ub)
        for peer in self.nets:
            preds = nn.softmax(nn.predict_logits(peer, all_x))
            x_preds += [preds[:n_x], preds[n_x:n_lab]]
            u_preds += [preds[n_lab + i * n_u:n_lab + (i + 1) * n_u] for i in range(n_u_views)]
        tx = semisup.refine_labels(self.view.noisy_labels[xb_ids], w[xb_ids], x_preds,
                                   cfg.n_classes, cfg.sharpen_temperature)
        targets = [tx, tx]
        if n_u_views:
            targets += [semisup.guess_labels(u_preds, cfg.sharpen_temperature)] * n_u_views
        all_t = np.vstack(targets)
        perm = self.streams["mixup"].permutation(len(all_x))
        mixed_x, mixed_t, _ = semisup.mixup(all_x, all_t, all_x[perm], all_t[perm],
                                            cfg.mixup_alpha, self.streams["mixup"])

        contrast_views = None
        if lam_cl > 0.0 and len(ub_ids) >= 2:
            s1, s2 = self._strong(ub), self._strong(ub)
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

    def _export_features(self, epoch, geo):
        out = self.out_dir / "features"
        out.mkdir(exist_ok=True)
        feats = self._features(self.nets[0], np.arange(len(self.view.features)))
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
        started = time.perf_counter()
        try:
            self.warmup()
            for epoch in range(cfg.warmup_epochs, cfg.total_epochs):
                self.run_epoch(epoch)
            self._finalize_summary()
        except TrainingError:
            self.report.incomplete = True
            self.report.wall_clock_seconds = time.perf_counter() - started
            if self.out_dir is not None:
                self._write_outputs()
            raise
        except MemoryError as exc:  # batches or candidates that n_aug or n_cand_* size
            raise _beyond_limits(exc) from exc
        self.report.wall_clock_seconds = time.perf_counter() - started
        if self.out_dir is not None:
            self._write_outputs()
        return self.report

    def _finalize_summary(self):
        temperature = self.config.energy_temperature
        id_scores = ood_scores(self.nets, self.test_set.features, temperature)
        records = self.report.epochs
        main = [r for r in records if r["phase"] == "main"]
        vols = [r["envelope_log_volume"] for r in main if r["envelope_log_volume"] is not None]
        summary = {
            "best_test_accuracy": max(r["test_accuracy"] for r in records) if records else 0.0,
            "final_test_accuracy": records[-1]["test_accuracy"] if records else 0.0,
            **{f"final_{key}": main[-1][key] if main else None for key in _SELECTION_KEYS},
            "peak_envelope_log_volume": max(vols) if vols else None,
            "final_envelope_log_volume": vols[-1] if vols else None,
            "ood": {regime: ood_metrics(id_scores, ood_scores(self.nets, inputs, temperature))
                    for regime, inputs in (("far", self.ood_far), ("near", self.ood_near))},
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
            for k, epochs in enumerate(self._selection_log):
                with open(out / f"selection_net{k}.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["epoch", "sample_id", "loss", "w_i", "in_support"])
                    for epoch, losses, w, in_support in epochs:
                        for i in range(len(losses)):
                            writer.writerow([epoch, i, format(losses[i], ".17g"),
                                             format(w[i], ".17g"), int(in_support[i])])
        if self.config.dump_geometry:
            for k, entries in enumerate(self._geometry_log):
                with open(out / f"geometry_net{k}.jsonl", "w") as fh:
                    for entry in entries:
                        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def run_experiment(config: RunConfig, out_dir=None) -> RunReport:
    """Warm-up, all training epochs, final OOD evaluation, file outputs."""
    return Experiment(config).run(out_dir)


#: each `noisylab ablate` grid: the named variants of a config that it compares,
#: in the order `ablation.csv` lists them
_SWEEP_VARIANTS = {
    "vos": lambda config: [("vos_on", config.replace(disable_vos=False)),
                           ("vos_off", config.replace(disable_vos=True))],
    "sampler": lambda config: [(s, config.replace(sampler=s)) for s in geometry.SAMPLERS],
    "tau": lambda config: [(f"tau_{s:g}x", config.replace(tau_auto=True, tau_auto_scale=s))
                           for s in (0.5, 1.0, 1.5)],
}
SWEEP_GRIDS = tuple(_SWEEP_VARIANTS)


def sweep_variants(grid: str, config: RunConfig) -> list[tuple[str, RunConfig]]:
    """The named variants of config that one of SWEEP_GRIDS compares, in the
    order `noisylab ablate` writes them."""
    return _SWEEP_VARIANTS[grid](config)
