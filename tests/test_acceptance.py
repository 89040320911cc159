"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line. The heavier
criteria read the `vos`, `sampler` and `tau` ablation grids of
`harness.sweep_variants` at seeds 1-5 through the session-scoped cache,
which runs each distinct config once; run with
`pytest -s tests/test_acceptance.py` to watch the lines appear.
"""

import time

import numpy as np

from noisylab import RunConfig, geometry, metrics, nn, partition, run_experiment
import loss_oracles
from gradcheck import REL_TOL


def criterion(number: int, ok: bool, message: str):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {number}: {message}"


def final_accuracies(reports):
    return np.array([r.summary["final_test_accuracy"] for r in reports])


def test_criterion_1_gradient_suite(gradient_suite):
    kinds = ("ce", "gce", "mse", "prior_kl", "contrastive", "energy_bce", "total")
    results = {kind: gradient_suite(kind) for kind in kinds}
    worst = {kind: err for kind, (err, _) in results.items()}
    elapsed = sum(seconds for _, seconds in results.values())  # the session's one run
    worst_overall = max(worst.values())
    ok = worst_overall <= REL_TOL and elapsed < 60.0
    per_kind = ", ".join(f"{kind} {err:.2e}" for kind, err in worst.items())
    criterion(1, ok, f"worst relative FD error {worst_overall:.2e} over "
                     f"7 losses x 100 configs ({per_kind}) in {elapsed:.1f}s (< 60s)")


def test_criterion_2_oracle_suite():
    # GMM mean recovery on a planted mixture
    rng = np.random.default_rng(0)
    comp = rng.random(2000) < 0.5
    x = np.where(comp, rng.normal(0.1, 0.03, 2000), rng.normal(0.8, 0.05, 2000))
    gmm = partition.fit_gmm_1d(x)
    means = np.sort(gmm.means)
    gmm_ok = abs(means[0] - 0.1) <= 0.03 and abs(means[1] - 0.8) <= 0.03

    # acceptance rate on the unit-square/disk construction
    cand = np.random.default_rng(1).uniform(0, 1, size=(100_000, 2))
    cents = geometry.CentroidSet(np.array([0]), np.array([[0.5, 0.5]]))
    batch = geometry.filter_outliers(cand, cents, 0.3)
    rate = batch.n_accepted / batch.n_candidates
    disk_ok = abs(rate - (1.0 - np.pi * 0.09)) <= 0.01

    # AUROC vs the O(n^2) pairwise oracle
    auroc_ok = True
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = np.round(rng.normal(size=12), 1)
        b = np.round(rng.normal(size=15), 1)
        wins = sum(1.0 if ai > bi else 0.5 if ai == bi else 0.0 for ai in a for bi in b)
        if abs(metrics.auroc(a, b) - wins / (len(a) * len(b))) > 1e-12:
            auroc_ok = False

    # envelope / centroids vs brute-force scans
    feats = rng.normal(size=(500, 5))
    labels = rng.integers(0, 4, size=500)
    env = geometry.estimate_envelope(feats)
    scan_ok = all(env.low[j] == min(feats[:, j]) and env.high[j] == max(feats[:, j])
                  for j in range(5))
    cents = geometry.class_centroids(feats, labels)
    for i, c in enumerate(np.unique(labels)):
        rows = feats[labels == c]
        if not (cents.class_ids[i] == c
                and np.array_equal(cents.centers[i], rows.sum(axis=0) / len(rows))):
            scan_ok = False

    ok = gmm_ok and disk_ok and auroc_ok and scan_ok
    criterion(2, ok, f"gmm means {np.round(means, 3)} (+-0.03), disk rate {rate:.4f} "
                     f"vs {1 - np.pi * 0.09:.4f} (+-0.01), auroc oracle exact: {auroc_ok}, "
                     f"envelope/centroid scans exact: {scan_ok}")


def test_criterion_3_energy_invariants():
    rng = np.random.default_rng(3)
    worst_shift = 0.0
    for i in range(10_000):
        k = int(rng.integers(2, 12))
        scale = 1e3 if i % 10 == 0 else 10.0 ** rng.uniform(-1, 2)
        logits = rng.uniform(-1.0, 1.0, size=k) * scale
        if i % 10 == 0:  # pin the max-magnitude coordinate at exactly 1e3
            j = int(np.argmax(np.abs(logits)))
            logits = logits * (1e3 / max(np.abs(logits[j]), 1e-12))
        c = rng.uniform(-100.0, 100.0)
        err = abs(nn.energies(logits + c) - (nn.energies(logits) - c))
        worst_shift = max(worst_shift, err)
    uniform_ok = all(abs(nn.energies(np.zeros(k)) + np.log(k)) <= 1e-12
                     for k in range(2, 21))
    ok = worst_shift <= 1e-9 and uniform_ok
    criterion(3, ok, f"shift identity worst error {worst_shift:.2e} over 1e4 cases "
                     f"(<= 1e-9), uniform-logits -log K exact to 1e-12: {uniform_ok}")


def test_criterion_4_energy_separation_toy():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    clean = np.vstack([rng.normal(-2.0, 0.2, size=(40, 2)),
                       rng.normal(2.0, 0.2, size=(40, 2))])
    outliers = rng.normal(0.0, 0.2, size=(40, 2))
    net = nn.build_network(2, 2, hidden=(2,), projection_dim=2, rng=rng)
    state = None
    for _ in range(500):
        _, bundle = loss_oracles.energy_bce_head_only(net, clean, outliers, 1.0)
        state = nn.sgd_step(net, bundle, lr=0.5, momentum=0.9, state=state)
    e_clean = nn.energies(nn.head_forward(net, clean)).mean()
    e_out = nn.energies(nn.head_forward(net, outliers)).mean()
    elapsed = time.perf_counter() - start
    ok = (e_clean + 2.0 < e_out) and elapsed < 10.0
    criterion(4, ok, f"mean energy clean {e_clean:.2f} + 2 < outlier {e_out:.2f} "
                     f"after 500 steps in {elapsed:.1f}s (< 10s)")


def test_criterion_5_vos_ablation(run_cache):
    vos = run_cache.sweep("vos")
    acc_gap = final_accuracies(vos["vos_on"]).mean() - final_accuracies(vos["vos_off"]).mean()
    f1_on = np.mean([r.summary["final_selection_f1"] for r in vos["vos_on"]])
    f1_off = np.mean([r.summary["final_selection_f1"] for r in vos["vos_off"]])
    runtime = sum(r.wall_clock_seconds for reports in vos.values() for r in reports)
    ok = acc_gap >= 0.01 and f1_on > f1_off and runtime <= 600.0
    criterion(5, ok, f"accuracy gap {100 * acc_gap:+.2f} pts (>= 1), selection F1 "
                     f"{f1_on:.4f} vs {f1_off:.4f} (strictly higher), "
                     f"10 runs in {runtime:.0f}s (<= 600s)")


def test_criterion_6_sampling_strategies(run_cache):
    means = {name: final_accuracies(reports).mean()
             for name, reports in run_cache.sweep("sampler").items()}
    uniform = means.pop("uniform")
    ties, ok = [], True
    report = [f"uniform {uniform:.4f}"]
    for other, mean in means.items():
        report.append(f"{other} {mean:.4f}")
        if uniform >= mean:
            continue
        if mean - uniform <= 0.005:
            ties.append(other)  # within half a point: report the tie
        else:
            ok = False
    tie_note = f" (ties within 0.5 pts: {ties})" if ties else ""
    criterion(6, ok, "mean final accuracy " + ", ".join(report) + tie_note)


def test_criterion_7_ood_detection(run_cache):
    vos = run_cache.sweep("vos")
    on, off = ([r.summary for r in vos[name]] for name in ("vos_on", "vos_off"))
    far_on = np.mean([s["ood"]["far"]["auroc"] for s in on])
    far_off = np.mean([s["ood"]["far"]["auroc"] for s in off])
    fpr_on = np.mean([s["ood"]["far"]["fpr95"] for s in on])
    fpr_off = np.mean([s["ood"]["far"]["fpr95"] for s in off])
    ok = far_on >= 0.95 and far_on > far_off and fpr_on < fpr_off
    criterion(7, ok, f"far-OOD AUROC {far_on:.4f} (>= 0.95) vs {far_off:.4f} without, "
                     f"FPR95 {fpr_on:.4f} vs {fpr_off:.4f}")


def test_criterion_8_envelope_contraction(run_cache):
    report = run_cache.get(RunConfig(seed=1))
    vols = [e["envelope_log_volume"] for e in report.epochs
            if e["envelope_log_volume"] is not None]
    ok = len(vols) > 1 and vols[-1] < max(vols)
    criterion(8, ok, f"envelope log-volume final {vols[-1]:.2f} < peak {max(vols):.2f}")


def test_criterion_9_determinism(run_cache):
    first = run_cache.get(RunConfig(seed=1)).canonical_json()
    second = run_experiment(RunConfig(seed=1)).canonical_json()
    ok = first == second
    criterion(9, ok, f"byte-identical reports across repeated runs: {ok} "
                     f"({len(first)} bytes)")


def test_criterion_10_tau_robustness(run_cache):
    means = {reports[0].config["tau_auto_scale"]: final_accuracies(reports).mean()
             for reports in run_cache.sweep("tau").values()}
    band = max(means.values()) - min(means.values())
    ok = band <= 0.03
    criterion(10, ok, "accuracy across tau multipliers "
                      + ", ".join(f"x{s}: {m:.4f}" for s, m in sorted(means.items()))
                      + f" -> band {100 * band:.2f} pts (<= 3)")
