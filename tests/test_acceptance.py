"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and
runtime budget and prints a single pass/fail line (run with ``-s`` to see
them).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import softds as s
from softds.baselines import _DS_SMOOTHING, _ds_m_step, _label_frequencies
from softds.cli import main
from softds.mathutils import dirichlet_log_density
from softds.sds import _INIT_SCALE, _log_weights
from util import diagonal_spec, model, q_function, q_grad_pi, random_instance


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{name}: {elapsed:.2f}s exceeded the {budget_seconds}s budget")
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def recovery_instance():
    """Seed-fixed N=2000, J=5, K=3 dataset with diagonally dominant true
    confusion rows (10 on the diagonal, 0.15 off)."""
    spec = diagonal_spec(10.0, 0.15, seed=7, n_items=2000, n_members=3,
                         n_classes=5)
    preds, truth = s.sample(spec)
    return spec, preds, truth


def test_criterion_1_degenerate_metric_anchors():
    with criterion("degenerate-metric-anchors", 1.0):
        post = s.PosteriorMatrix(np.full((50, 1000), 1.0 / 1000))
        truth = s.GroundTruth(np.arange(50) % 1000)
        assert s.brier(post, truth) == pytest.approx(0.999, abs=1e-12)
        assert s.nll(post, truth) == pytest.approx(np.log(1000.0), abs=1e-9)
        # any other truth assignment scores identically
        other = s.GroundTruth(np.full(50, 123))
        assert s.brier(post, other) == pytest.approx(0.999, abs=1e-12)
        assert s.nll(post, other) == pytest.approx(np.log(1000.0), abs=1e-9)


def test_criterion_2_gradient_matches_finite_differences():
    with criterion("analytic-gradient-vs-finite-differences", 10.0):
        rng = np.random.default_rng(100)
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            j = int(rng.integers(2, 5))
            preds, post, pi, nu = random_instance(rng, n, k, j)
            grad = q_grad_pi(preds, post, model(pi, nu))
            fd = np.empty_like(grad)
            for idx in np.ndindex(pi.shape):
                up = pi.copy()
                up[idx] += h
                dn = pi.copy()
                dn[idx] -= h
                fd[idx] = (q_function(preds, post, model(up, nu))
                           - q_function(preds, post, model(dn, nu))) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-8)
            worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
        assert worst <= 1e-5


def test_criterion_3_e_step_equals_density_oracle():
    with criterion("e-step-vs-dirichlet-density-oracle", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 4))
            j = int(rng.integers(2, 5))
            preds, _, pi, nu = random_instance(rng, n, k, j)
            got = s.e_step_raw(preds, model(pi, nu)).rows
            log_nu = np.log(np.maximum(nu, 1e-300))
            for i in range(n):
                w = log_nu.copy()
                for cls in range(j):
                    for m in range(k):
                        w[cls] += dirichlet_log_density(preds.probs[i, m],
                                                        pi[m, cls])
                oracle = np.exp(w - np.logaddexp.reduce(w))
                assert np.max(np.abs(got[i] - oracle)) <= 1e-10


def test_criterion_4_prior_update_is_optimal():
    with criterion("closed-form-prior-beats-perturbations", 10.0):
        rng = np.random.default_rng(102)
        violations = 0
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            j = int(rng.integers(2, 5))
            preds, post, pi, _ = random_instance(rng, n, k, j)
            mass = post.sum(axis=0)
            nu_star = mass / mass.sum()
            q_star = q_function(preds, post, model(pi, nu_star))
            for _ in range(100):
                other = np.maximum(nu_star + rng.normal(0.0, 0.05, size=j),
                                   1e-9)
                other = other / other.sum()
                if q_function(preds, post, model(pi, other)) > q_star + 1e-12:
                    violations += 1
        assert violations == 0


def _row_tv_max(fitted, spec):
    """The largest total variation between a row of the fitted confusion
    tensor and the same true row, each normalised to sum to 1."""
    rows = fitted.pi.pi / fitted.pi.pi.sum(axis=2, keepdims=True)
    true_rows = spec.pi_true.pi / spec.pi_true.pi.sum(axis=2, keepdims=True)
    return float(np.max(0.5 * np.abs(rows - true_rows).sum(axis=2)))


def test_criterion_5_synthetic_recovery(recovery_instance):
    with criterion("synthetic-confusion-recovery", 60.0):
        spec, preds, truth = recovery_instance
        fitted, post, _ = s.fit(preds)  # default configuration
        assert _row_tv_max(fitted, spec) <= 0.1
        acc_sds = s.accuracy(post, truth)
        acc_ea = s.accuracy(s.ensemble_average(preds), truth)
        assert acc_sds >= acc_ea


def test_criterion_6_online_offline_consistency():
    with criterion("online-offline-consistency", 10.0):
        spec = diagonal_spec(4.0, 0.3, seed=103, n_items=400, n_classes=4)
        preds, _ = s.sample(spec)
        held_out = s.PredictionSet(preds.probs[300:], preds.item_ids[300:])
        fit_batch = s.PredictionSet(preds.probs[:300], preds.item_ids[:300])

        # under the true parameters the online posterior is the exact one
        truth_model = s.SdsModel(spec.pi_true, spec.nu_true)
        oracle = s.bayes_posterior(spec, preds).rows[300:]
        for i in range(held_out.n_items):
            row = s.online_infer(held_out.probs[i], truth_model)
            assert np.max(np.abs(row - oracle[i])) <= 1e-10

        # under a fitted model the online posterior is bitwise the batch row
        model, _, _ = s.fit(fit_batch, s.SdsConfig(em_iterations=10))
        batch = s.e_step_raw(held_out, model).rows
        for i in range(held_out.n_items):
            row = s.online_infer(held_out.probs[i], model)
            assert np.array_equal(row, batch[i])


def test_criterion_7_no_averaging_ablation():
    with criterion("undamped-e-step-ablation", 60.0):
        spec = diagonal_spec(6.0, 0.2, seed=104, n_items=300, n_classes=4)
        preds, _ = s.sample(spec)
        cfg = s.SdsConfig(alpha=1.0, em_iterations=30)
        _, post, trace = s.fit(preds, cfg)
        assert np.all(trace.alpha == 1.0)
        assert len(trace) == 30
        assert np.all(np.isfinite(post.rows))
        assert np.all(post.rows >= 0.0)
        assert np.max(np.abs(post.rows.sum(axis=1) - 1.0)) <= 1e-9


def test_criterion_8_metric_oracles():
    with criterion("metric-oracles", 10.0):
        rng = np.random.default_rng(105)
        # AUROC equals the O(n^2) pairwise comparison exactly
        for _ in range(50):
            a = np.round(rng.random(int(rng.integers(1, 40))), 1)
            b = np.round(rng.random(int(rng.integers(1, 40))), 1)
            greater = (b[:, None] > a[None, :]).sum()
            equal = (b[:, None] == a[None, :]).sum()
            assert s.auroc(a, b) == (greater + 0.5 * equal) / (a.size * b.size)
        # single-bin ECE is the accuracy/confidence gap
        rows = rng.dirichlet(np.ones(5), size=500)
        truth = rng.integers(0, 5, size=500)
        gap = abs(s.accuracy(rows, truth) - rows.max(axis=1).mean())
        assert s.ece(rows, truth, n_bins=1) == pytest.approx(gap, abs=1e-12)
        # ground-truth confusion equals a direct tally
        preds = s.PredictionSet.from_probs(rng.dirichlet(np.ones(3),
                                                         size=(80, 2)))
        labels = rng.integers(0, 3, size=80)
        mats = s.true_confusion(preds, labels)
        hard = s.harden(preds)
        for m in range(2):
            counts = np.zeros((3, 3))
            for i in range(80):
                counts[labels[i], hard[i, m]] += 1
            np.testing.assert_allclose(
                mats[m], counts / counts.sum(axis=1, keepdims=True),
                atol=1e-15)


def test_criterion_9_cli_thread_independence(recovery_instance, tmp_path):
    with criterion("cli-thread-independence", 120.0):
        _, preds, truth = recovery_instance
        manifest = s.save_predictions(preds, tmp_path / "data")
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"post_t{threads}.csv"
            code = main(["aggregate", "--method", "sds",
                         "--manifest", str(manifest),
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_10_throughput():
    j = 10
    pi = np.where(np.eye(j, dtype=bool), 6.0, 0.4)[None].repeat(3, axis=0)
    spec = s.GenerativeSpec(10_000, 3, j,
                            s.ClassPrior(np.full(j, 1.0 / j)),
                            s.ConfusionTensor(pi), seed=106)
    preds, _ = s.sample(spec)  # generation excluded from the budget
    with criterion("aggregation-throughput", 10.0):
        model, post, trace = s.fit(preds)  # default: 100 EM iterations
        assert len(trace) == 100
        assert post.n_items == 10_000


def _log_likelihood(preds, m):
    """The observed-data log likelihood sum_i logsumexp_j w_ij, with w the
    E-step's log weights: ln nu_j plus each member's Dirichlet log density."""
    w = _log_weights(np.log(preds.probs), m._terms)
    top = w.max(axis=1)
    return float(np.sum(top + np.log(np.exp(w - top[:, None]).sum(axis=1))))


def test_criterion_11_fit_moves_the_model():
    # perfbench's acceptance truth.  At alpha = 1, lr 0.1 the iterative fit
    # must leave its start well behind; seeds 1-10 read a max row TV of
    # 0.236-0.257 at the start and 0.013-0.018 after the fit, and a log
    # likelihood gain of 41,264-43,910 nats (the default setting: TV
    # 0.210-0.230, gain 6,170-7,101)
    spec = diagonal_spec(3.0, 0.4, seed=5, n_items=10_000, n_members=3,
                         n_classes=10)
    preds, _ = s.sample(spec)
    with criterion("fit-moves-the-model", 30.0):
        # the fit's start pi_0 and prior, from the pieces fit starts from
        hard = s.harden(preds)
        conf, nu = _ds_m_step(hard, _label_frequencies(hard, 10), _DS_SMOOTHING)
        start = model(_INIT_SCALE * (conf + _DS_SMOOTHING), nu)
        fitted, _, _ = s.fit(preds, s.SdsConfig(alpha=1.0, learning_rate=0.1,
                                                em_iterations=100))
        tv_start, tv_fit = _row_tv_max(start, spec), _row_tv_max(fitted, spec)
        assert tv_fit <= 0.05 and tv_fit <= 0.2 * tv_start, (tv_start, tv_fit)
        gain = _log_likelihood(preds, fitted) - _log_likelihood(preds, start)
        assert gain >= 3.0 * preds.n_items, gain
