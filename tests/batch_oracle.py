"""The per-view composition of one training step's batch, kept as an oracle.

`build_batch` draws each weak view's jitter separately and runs every
peer once per view, the composition that `Experiment._build_batch`
replaced with one draw and one forward per view block. Both consume the
experiment's streams in the same order, so on identical experiments they
must return the same batch, bit for bit, and leave the same stream states.
"""

import numpy as np

from noisylab import nn, semisup


def build_batch(exp, xb_ids, ub_ids, w, support_ids, outliers,
                lam_u, lam_cl, lam_energy) -> nn.TotalLossBatch:
    cfg = exp.config
    xb = exp.view.features[xb_ids]
    yb = exp.view.noisy_labels[xb_ids]
    wb = w[xb_ids]
    x_views = [exp._weak(xb), exp._weak(xb)]
    preds = [nn.softmax(nn.predict_logits(peer, v))
             for peer in exp.nets for v in x_views]
    tx = semisup.refine_labels(yb, wb, preds, cfg.n_classes, cfg.sharpen_temperature)

    u_views, tu = [], None
    if len(ub_ids):
        ub = exp.view.features[ub_ids]
        u_views = [exp._weak(ub) for _ in range(cfg.n_aug)]
        u_preds = [nn.softmax(nn.predict_logits(peer, v))
                   for peer in exp.nets for v in u_views]
        tu = semisup.guess_labels(u_preds, cfg.sharpen_temperature)

    all_x = np.vstack(x_views + u_views)
    all_t = np.vstack([tx] * len(x_views) + ([tu] * len(u_views) if u_views else []))
    perm = exp.streams["mixup"].permutation(len(all_x))
    mixed_x, mixed_t, _ = semisup.mixup(all_x, all_t, all_x[perm], all_t[perm],
                                        cfg.mixup_alpha, exp.streams["mixup"])
    n_lab = len(xb) * len(x_views)

    contrast_views = None
    if lam_cl > 0.0 and len(ub_ids) >= 2:
        s1, s2 = exp._strong(ub), exp._strong(ub)
        contrast_views = np.stack([s1, s2], axis=1).reshape(2 * len(ub_ids), -1)

    support_x = None
    outlier_feats = None
    if lam_energy > 0.0 and len(support_ids):
        take = min(cfg.batch_size, len(support_ids))
        sids = exp.streams["energy_draw"].choice(support_ids, size=take, replace=False)
        support_x = exp.view.features[sids]
        if len(outliers):
            take_o = min(cfg.batch_size, len(outliers))
            oidx = exp.streams["energy_draw"].choice(len(outliers), size=take_o, replace=False)
            outlier_feats = outliers[oidx]

    return nn.TotalLossBatch(
        labeled_inputs=mixed_x[:n_lab], labeled_targets=mixed_t[:n_lab],
        unlabeled_inputs=mixed_x[n_lab:], unlabeled_targets=mixed_t[n_lab:],
        contrast_views=contrast_views, support_inputs=support_x,
        outlier_features=outlier_feats,
        lambda_u=lam_u, lambda_reg=cfg.lambda_reg, lambda_cl=lam_cl,
        lambda_energy=lam_energy, temperature=cfg.energy_temperature,
        contrast_temperature=cfg.contrast_temperature)
