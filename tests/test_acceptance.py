"""Release acceptance suite.

One test per criterion; each prints a single PASS/FAIL verdict line (visible
with `pytest -s` or in captured output). Criteria that need the public
NSL-KDD / CIC-IDS2018 files skip with an explicit reason when the data is not
present — run scripts/fetch_nslkdd.py (needs network) or point
GANIDS_NSLKDD_DIR at a directory containing KDDTrain+.txt and KDDTest+.txt.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import (encoded_dataset, fd_param_grad, float64_model, rel_err,
                      singleton_bundles)

from ganids import autodiff as ad
from ganids import gan, gbdt, imbalance, metrics, nn, pipeline
from ganids.data import builtin_schema, load_dataset
from ganids.demo import write_demo_dataset


def verdict(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def nslkdd_dir():
    default = Path(__file__).resolve().parent.parent / "data" / "nslkdd"
    p = Path(os.environ.get("GANIDS_NSLKDD_DIR", default))
    if (p / "KDDTrain+.txt").exists() and (p / "KDDTest+.txt").exists():
        return p
    return None


NSLKDD_SKIP = ("NSL-KDD files not found: set GANIDS_NSLKDD_DIR or run "
               "scripts/fetch_nslkdd.py (requires network access, which this "
               "environment does not provide)")


def _load_nslkdd(p):
    schema = builtin_schema("nslkdd")
    return load_dataset([p / "KDDTrain+.txt", p / "KDDTest+.txt"], schema)


# -- criterion 1: gradient correctness ---------------------------------------


def _critic_loss_graph(spec, params, real, fake, x_hat, masks, lam):
    """Critic loss with penalty as one differentiable graph.

    Returns (loss Var, per-name grads, relu sign patterns).
    """
    pv = {k: ad.leaf(v) for k, v in params.tensors.items()}
    of, s1 = nn.forward_var(spec, pv, ad.leaf(fake), train=True, masks=masks)
    orr, s2 = nn.forward_var(spec, pv, ad.leaf(real), train=True, masks=masks)
    xh = ad.leaf(x_hat)
    oh, s3 = nn.forward_var(spec, pv, xh, train=True, masks=masks)
    (gin,) = ad.grad(ad.sum_(oh), [xh], create_graph=True)
    norm = ad.sqrt(ad.sum_(ad.square(gin), axis=1))
    pen = lam * ad.mean(ad.square(norm - 1.0))
    loss = ad.mean(of) - ad.mean(orr) + pen
    names = sorted(pv)
    grads = dict(zip(names, ad.grad(loss, [pv[n] for n in names])))
    return loss, pen, grads, s1 + s2 + s3


def _fd_probes(loss_fn, params, grads, rng, worst):
    """Up to 5 finite-difference probes of `grads` at random entries, over
    at most 40 draws; returns (probes done, worst relative error)."""
    names = sorted(params.tensors)
    done = 0
    for _ in range(40):
        if done >= 5:
            break
        name = names[rng.integers(len(names))]
        idx = int(rng.integers(params.tensors[name].size))
        fd = fd_param_grad(loss_fn, params, name, idx)
        if fd is None:
            continue  # probe stepped over an activation kink
        worst = max(worst, rel_err(fd, grads[name].flat[idx], floor=1e-4))
        done += 1
    return done, worst


def test_c01_critic_loss_gradients_match_finite_differences():
    t0 = time.time()
    dims = [8, 16, 41, 8, 16]
    worst = 0.0
    probes = 0
    # the training step's own gradients, `gan.critic_grads` on a float64
    # model, against finite differences of the critic loss it returns
    step_worst = 0.0
    step_probes = 0
    for i in range(20):
        dim = dims[i % len(dims)]
        rng = np.random.default_rng(100 + i)
        spec = gan.critic_spec(dim)
        params = nn.init_params(spec, 100 + i)
        real = rng.random((4, dim))
        fake = rng.random((4, dim))
        eps = rng.random((4, 1))
        x_hat = eps * real + (1 - eps) * fake
        masks = nn.dropout_masks(spec, 4, rng)

        loss, pen, grads, _ = _critic_loss_graph(spec, params, real, fake,
                                                 x_hat, masks, 10.0)

        def loss_fn(p, _spec=spec, _r=real, _f=fake, _x=x_hat, _m=masks):
            lv, pv, _, signs = _critic_loss_graph(_spec, p, _r, _f, _x, _m, 10.0)
            return lv.item(), signs

        names = sorted(params.tensors)
        done = 0
        for _ in range(40):
            if done >= 5:
                break
            name = names[rng.integers(len(names))]
            idx = int(rng.integers(params.tensors[name].size))
            fd = fd_param_grad(loss_fn, params, name, idx)
            if fd is None:
                continue  # probe stepped over an activation kink
            err = rel_err(fd, grads[name].data.flat[idx], floor=1e-4)
            worst = max(worst, err)
            done += 1
            probes += 1
        assert done >= 4

        # penalty-only gradients, checked against the dedicated entry point
        pen_val, pen_grads = nn.gradient_penalty(spec, params, x_hat, 10.0,
                                                 masks=masks, train=True)
        assert np.isclose(pen_val, pen.item(), atol=1e-10)

        model = float64_model(gan.build_gan(dim, 100 + i))
        model.d_params = params
        step_seed = 1000 + i
        # the interpolates and mask critic_grads draws, for the probes' kinks
        draws = np.random.default_rng(step_seed)
        eps_k = draws.random((4, 1))
        masks_k = nn.dropout_masks(spec, 4, draws)
        x_hat_k = eps_k * real + (1 - eps_k) * fake

        def step_loss(p, _m=model, _r=real, _f=fake, _x=x_hat_k, _mk=masks_k,
                      _s=step_seed):
            _m.d_params = p
            loss_d = gan.critic_grads(_m, p.zeros(), _r,
                                      np.random.default_rng(_s), 10.0,
                                      fake_batch=_f)[0]
            signs = _critic_loss_graph(_m.d_spec, p, _r, _f, _x, _mk, 10.0)[3]
            return loss_d, signs

        step_grads = params.zeros()
        gan.critic_grads(model, step_grads, real,
                         np.random.default_rng(step_seed), 10.0,
                         fake_batch=fake)
        step_grads = step_grads.tensors
        done, step_worst = _fd_probes(step_loss, params, step_grads, rng,
                                      step_worst)
        assert done >= 4
        step_probes += done

    elapsed = time.time() - t0
    verdict("C1 gradient-correctness",
            worst <= 1e-4 and probes >= 80 and step_worst <= 1e-4
            and step_probes >= 80 and elapsed < 120,
            f"max rel err {worst:.2e} over {probes} probes, critic_grads "
            f"{step_worst:.2e} over {step_probes} probes, {elapsed:.1f}s")


def test_c02_gradient_penalty_closed_form():
    spec = nn.NetworkSpec(2, (nn.FullyConnected(1),))
    params = nn.ParamSet({"l0.w": np.array([[3.0], [4.0]]),
                          "l0.b": np.zeros(1)})
    penalty, grads = nn.gradient_penalty(
        spec, params, np.array([[0.1, 0.2], [2.0, -1.0]]), 10.0)
    ok = (abs(penalty - 160.0) <= 1e-12
          and np.allclose(grads["l0.w"].ravel(), [48.0, 64.0], atol=1e-12)
          and np.allclose(grads["l0.b"], 0.0, atol=1e-12))
    verdict("C2 penalty-closed-form", ok,
            f"penalty {penalty!r}, grad {grads['l0.w'].ravel()}")


def test_c03_nslkdd_census_reference_counts():
    p = nslkdd_dir()
    if p is None:
        pytest.skip(NSLKDD_SKIP)
    t0 = time.time()
    ds = _load_nslkdd(p)
    census = imbalance.class_census(ds)
    counts_ok = census.counts == {"Normal": 77054, "DoS": 53385,
                                  "Probe": 14077, "R2L": 3749, "U2R": 252}
    ratios_ok = census.display_ratios() == {"DoS": 1.443, "Probe": 5.474,
                                            "R2L": 20.553, "U2R": 305.770}
    out = imbalance.filter_minority(ds, gamma=10.0)
    routed_ok = sorted(out.minority) == ["R2L", "U2R"] \
        and len(out.normal) == 77054
    elapsed = time.time() - t0
    verdict("C3 census-fidelity",
            counts_ok and ratios_ok and routed_ok and elapsed < 60,
            f"counts {census.counts}, {elapsed:.1f}s")


# -- criterion 4: pretraining reduces fine-tuning iterations -----------------


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _gaussian_family(seed, dim=8):
    rng = np.random.default_rng(seed)
    mu = np.full(dim, 0.4)
    shift = mu.copy()
    shift[: dim // 2] += 0.1
    normal = np.clip(rng.normal(mu, 0.08, size=(2000, dim)), 0, 1)
    minority = np.clip(rng.normal(shift, 0.08, size=(200, dim)), 0, 1)
    classes = ["normal", "rare"]
    return (encoded_dataset(normal, np.zeros(2000), classes),
            encoded_dataset(minority, np.ones(200), classes))


def _c04_ratio(seed):
    """One seed's warm/cold ratio of fine-tuning steps."""
    cfg = gan.GanConfig(stop_delta=0.05, finetune_stop_delta=0.05,
                        stop_window=50, max_steps=6000)
    normal, minority = _gaussian_family(seed)
    model, _ = gan.pretrain(gan.build_gan(8, seed), normal, seed, cfg)
    # the arm without pretraining, as run_ablation builds it: the same
    # initial weights, pretrained for 0 steps
    untrained, _ = gan.pretrain(gan.build_gan(8, seed), normal, seed,
                                replace(cfg, max_steps=0))
    ft_cfg = replace(cfg, max_steps=4000)
    _, warm = gan.finetune(model, minority, seed, ft_cfg)
    _, cold = gan.finetune(untrained, minority, seed, ft_cfg)
    return warm.steps_to_stop / cold.steps_to_stop


def test_c04_pretraining_reduces_finetune_steps():
    t0 = time.time()
    # the seeds are independent: two spawned workers, each with one BLAS
    # thread, so that the two do not contend for the cores (a worker that
    # dies fails the test rather than hanging it)
    spawn = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, dict.fromkeys(BLAS_THREAD_VARS, "1")), \
            ProcessPoolExecutor(2, mp_context=spawn) as pool:
        ratios = list(pool.map(_c04_ratio, range(5)))
    median = float(np.median(ratios))
    elapsed = time.time() - t0
    verdict("C4 pretraining-speedup", median <= 0.7 and elapsed < 900,
            f"median warm/cold step ratio {median:.3f} "
            f"(ratios {[round(r, 3) for r in ratios]}), {elapsed:.0f}s")


# -- criteria 5/6: real-dataset pipeline results -----------------------------


def _nslkdd_config(p, out_dir, seed, skip_augment):
    return pipeline.PipelineConfig(
        dataset_paths=[str(p / "KDDTrain+.txt"), str(p / "KDDTest+.txt")],
        schema="builtin:nslkdd",
        out_dir=str(out_dir),
        seed=seed,
        gan=gan.GanConfig(stop_delta=0.05, finetune_stop_delta=0.05,
                          max_steps=3000),
        boost=gbdt.BoostParams(rounds=60, min_leaf=20, max_depth=8),
        skip_augment=skip_augment)


def test_c05_augmentation_improves_minority_recall(tmp_path):
    p = nslkdd_dir()
    if p is None:
        pytest.skip(NSLKDD_SKIP)
    schema = builtin_schema("nslkdd")
    r2l, u2r = schema.class_id("R2L"), schema.class_id("U2R")
    f1_deltas, recall_deltas = [], []
    for seed in range(3):
        with_aug = pipeline.run_pipeline(
            _nslkdd_config(p, tmp_path / f"aug{seed}", seed, False))
        without = pipeline.run_pipeline(
            _nslkdd_config(p, tmp_path / f"plain{seed}", seed, True))
        f1_deltas.append(with_aug.eval_report.macro_f1
                         - without.eval_report.macro_f1)
        recall_deltas.append(np.mean(
            [with_aug.eval_report.recall[k] - without.eval_report.recall[k]
             for k in (r2l, u2r)]))
    ok = float(np.median(f1_deltas)) >= 0.0 \
        and float(np.median(recall_deltas)) >= 0.05
    verdict("C5 augmentation-benefit", ok,
            f"median macro-F1 delta {np.median(f1_deltas):.4f}, "
            f"median minority recall delta {np.median(recall_deltas):.4f}")


def test_c06_headline_metrics(tmp_path):
    p = nslkdd_dir()
    if p is None:
        pytest.skip(NSLKDD_SKIP)
    art = pipeline.run_pipeline(_nslkdd_config(p, tmp_path / "headline", 0,
                                               False))
    rep = art.eval_report
    verdict("C6 headline-metrics",
            rep.accuracy >= 0.97 and rep.macro_f1 >= 0.93,
            f"accuracy {rep.accuracy:.4f}, macro F1 {rep.macro_f1:.4f}")


def test_c06b_cic_headline_metrics():
    cfg_path = os.environ.get("GANIDS_CIC_CONFIG")
    if cfg_path is None:
        pytest.skip("CIC-IDS2018 data not available in this environment "
                    "(non-blocking target); set GANIDS_CIC_CONFIG to a "
                    "pipeline config JSON referencing the dataset and its "
                    "schema to enable")
    art = pipeline.run_pipeline(pipeline.PipelineConfig.from_json(cfg_path))
    rep = art.eval_report
    verdict("C6b cic-headline-metrics",
            rep.accuracy >= 0.93 and rep.macro_f1 >= 0.80,
            f"accuracy {rep.accuracy:.4f}, macro F1 {rep.macro_f1:.4f}")


def test_c07_goss_weighted_sum_unbiased():
    t0 = time.time()
    g = np.random.default_rng(42).standard_normal(10000) + 0.5
    true = g.sum()
    sums = []
    for seed in range(1000):
        idx, w = gbdt.goss_sample(g, 0.2, 0.1, seed=seed)
        sums.append(np.sum(g[idx] * w))
    err = abs(np.mean(sums) - true) / abs(true)
    elapsed = time.time() - t0
    verdict("C7 goss-unbiasedness", err <= 0.05 and elapsed < 60,
            f"relative error {err:.4f}, {elapsed:.1f}s")


def test_c08_feature_bundling_is_lossless(monkeypatch):
    rng = np.random.default_rng(8)
    n = 1000
    blocks = [np.eye(w)[rng.integers(0, w, size=n)] for w in (6, 4, 5, 3)]
    num = rng.random((n, 2))
    x = np.hstack(blocks + [num])
    y = (blocks[0].argmax(1) + blocks[2].argmax(1)
         + (num[:, 1] > 0.5)) % 4
    mismatches = 0
    trees = 0
    classes = ["a", "b", "c", "d"]
    params = gbdt.BoostParams(rounds=10, min_leaf=10, max_depth=5)
    mapper, binned = gbdt.bin_features(encoded_dataset(x.copy(), y, classes),
                                       params.max_bins)
    assert len(gbdt.efb_bundle(binned, mapper.n_bins).bundles) < x.shape[1]
    ens_on = gbdt.fit(encoded_dataset(x.copy(), y, classes), params)
    # the unbundled arm: every feature in a bundle of its own
    monkeypatch.setattr(gbdt, "efb_bundle", singleton_bundles)
    ens_off = gbdt.fit(encoded_dataset(x.copy(), y, classes), params)
    for r_on, r_off in zip(ens_on.trees, ens_off.trees):
        for t_on, t_off in zip(r_on, r_off):
            trees += 1
            mismatches += t_on.structure() != t_off.structure()
    verdict("C8 bundling-losslessness", mismatches == 0,
            f"{mismatches} of {trees} trees differ")


def test_c09_split_search_matches_brute_force():
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(12, 65))
        m = int(rng.integers(2, 6))
        ds = encoded_dataset(rng.random((n, m)), rng.integers(0, 2, n),
                             ["a", "b"])
        params = gbdt.BoostParams(min_leaf=int(rng.integers(1, 5)),
                                  max_bins=8)
        mapper, binned = gbdt.bin_features(ds, params.max_bins)
        bm = gbdt.efb_bundle(binned, mapper.n_bins)
        ctx = gbdt._HistContext(binned, bm, params)
        g = rng.standard_normal(n)
        h = rng.random(n) + 0.1
        got = ctx.best_split(np.arange(n), g, h)

        best, second = None, None
        for f in range(m):
            for t in range(mapper.n_bins[f] - 1):
                left = binned[:, f] <= t
                nl = int(left.sum())
                if nl < params.min_leaf or n - nl < params.min_leaf:
                    continue
                gain = gbdt.split_gain(g[left].sum(), h[left].sum(),
                                       g[~left].sum(), h[~left].sum(),
                                       params.lam_leaf)
                if gain <= 0:
                    continue
                if best is None or gain > best[0]:
                    best, second = (gain, f, t), best
                elif second is None or gain > second[0]:
                    second = (gain, f, t)
        if best is None:
            if got is not None:
                failures.append((seed, "expected no split", got))
            continue
        if got is None:
            failures.append((seed, "missed split", best))
            continue
        if abs(got[0] - best[0]) > 1e-9 * max(1.0, abs(best[0])):
            failures.append((seed, got, best))
        elif (second is None or best[0] - second[0] > 1e-9) \
                and (got[1], got[2]) != (best[1], best[2]):
            failures.append((seed, got, best))
    verdict("C9 split-oracle", not failures, f"failures: {failures[:3]}")


def test_c10_metric_recount_oracle():
    bad = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 50))
        truth = rng.integers(0, k, size=n)
        pred = rng.integers(0, k, size=n)
        rep = metrics.evaluate(pred, truth, k)
        acc = sum(int(a == b) for a, b in zip(pred, truth)) / n
        if rep.accuracy != acc:
            bad.append((seed, "accuracy"))
        for c in range(k):
            tp = sum(1 for a, b in zip(pred, truth) if a == c and b == c)
            fp = sum(1 for a, b in zip(pred, truth) if a == c and b != c)
            fn = sum(1 for a, b in zip(pred, truth) if a != c and b == c)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            if (rep.precision[c], rep.recall[c], rep.f1[c]) != (prec, rec, f1):
                bad.append((seed, c))
    truth = np.array([1] * 9 + [0] * 11)
    pred = np.concatenate([np.ones(8), np.zeros(1), np.ones(2),
                           np.zeros(9)]).astype(int)
    rep = metrics.evaluate(pred, truth, 2)
    fixed_ok = rep.accuracy == 0.85 and abs(rep.f1[1] - 0.8421) <= 1e-4
    verdict("C10 metric-oracle", not bad and fixed_ok,
            f"recount mismatches {bad[:3]}, binary acc {rep.accuracy}, "
            f"f1 {rep.f1[1]:.4f}")


def test_c11_pipeline_determinism(tmp_path):
    demo = write_demo_dataset(tmp_path / "data", rows=600, seed=0)

    def run(tag):
        cfg = pipeline.PipelineConfig(
            dataset_paths=[str(demo["csv"])], schema=str(demo["schema"]),
            out_dir=str(tmp_path / tag),
            gan=gan.GanConfig(max_steps=30, batch_size=16, stop_window=5),
            boost=gbdt.BoostParams(rounds=6, min_leaf=5, max_depth=4))
        art = pipeline.run_pipeline(cfg)
        manifest = json.loads((art.out_dir / "manifest.json").read_text())
        return art.eval_report.to_dict(), manifest

    rep_a, man_a = run("a")
    rep_b, man_b = run("b")
    ok = rep_a == rep_b and man_a["eval_hash"] == man_b["eval_hash"] \
        and man_a["artifacts"] == man_b["artifacts"]
    verdict("C11 determinism", ok,
            f"eval hashes equal: {man_a['eval_hash'] == man_b['eval_hash']}, "
            f"artifact hashes equal: {man_a['artifacts'] == man_b['artifacts']}")
