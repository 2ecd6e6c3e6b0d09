"""Core fitting machinery: Q function, analytic gradient, E/M steps, the
EM driver, online inference, and the posterior decomposition."""

import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softds as s
from softds.mathutils import dirichlet_log_density
from softds.optim import AdamState
from util import diagonal_spec, model, random_instance, reference_fit

LN_HALF = -0.6931471805599453
LN_THREE_QUARTERS = -0.2876820724517809  # ln 0.5 + 2 ln 0.5 + ln 6


@pytest.fixture
def log_gamma_calls(monkeypatch):
    """A list that gains one entry per call of ``softds.sds.log_gamma``."""
    calls = []
    real = s.sds.log_gamma

    def counting(x):
        calls.append(None)
        return real(x)

    monkeypatch.setattr(s.sds, "log_gamma", counting)
    return calls


def single_item_instance():
    """N=1, K=1, J=2 with c = (0.5, 0.5)."""
    preds = s.PredictionSet.from_probs(np.array([[[0.5, 0.5]]]))
    post = np.array([[1.0, 0.0]])
    nu = np.array([0.5, 0.5])
    return preds, post, nu


class TestQFunction:
    def test_uniform_dirichlet_row(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        assert s.q_function(preds, post, model(pi, nu)) == pytest.approx(
            LN_HALF, abs=1e-12)

    def test_symmetric_beta_row(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[2.0, 2.0], [1.0, 1.0]]])
        assert s.q_function(preds, post, model(pi, nu)) == pytest.approx(
            LN_THREE_QUARTERS, abs=1e-12)

    def test_zero_mass_class_ignores_its_row(self):
        preds, post, nu = single_item_instance()
        pi_a = np.array([[[1.5, 0.5], [1.0, 1.0]]])
        pi_b = np.array([[[1.5, 0.5], [9.0, 0.2]]])  # row 1 changed
        assert s.q_function(preds, post, model(pi_a, nu)) == \
            s.q_function(preds, post, model(pi_b, nu))

    def test_rejects_nonpositive_pi(self):
        preds, post, nu = single_item_instance()
        with pytest.raises(ValueError):
            s.q_function(preds, post, model(np.zeros((1, 2, 2)), nu))

    def test_rejects_zero_prior_with_mass(self):
        preds, post, _ = single_item_instance()
        pi = np.ones((1, 2, 2))
        with pytest.raises(ValueError, match="zero"):
            s.q_function(preds, post, model(pi, np.array([0.0, 1.0])))

    def test_matches_extended_precision_oracle(self):
        # brute-force evaluation of the objective in 50-digit arithmetic
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(19)
        preds, post, pi, nu = random_instance(rng, 4, 2, 3)
        expected = mpmath.mpf(0)
        for i in range(4):
            for j in range(3):
                term = mpmath.log(mpmath.mpf(float(nu[j])))
                for k in range(2):
                    row_sum = mpmath.mpf(0)
                    for l in range(3):
                        p_kjl = mpmath.mpf(float(pi[k, j, l]))
                        c_ikl = mpmath.mpf(float(preds.probs[i, k, l]))
                        term += (p_kjl - 1) * mpmath.log(c_ikl)
                        term -= mpmath.loggamma(p_kjl)
                        row_sum += p_kjl
                    term += mpmath.loggamma(row_sum)
                expected += mpmath.mpf(float(post[i, j])) * term
        got = s.q_function(preds, post, model(pi, nu))
        assert abs(got - float(expected)) <= 1e-12 * abs(float(expected))


class TestQGradPi:
    def test_hand_computed_entry(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        grad = s.q_grad_pi(preds, post, model(pi, nu))
        # ln 0.5 - psi(1) + psi(2) = ln 0.5 + 1
        expected = LN_HALF + 1.0
        np.testing.assert_allclose(grad[0, 0], expected, atol=1e-12)

    def test_zero_mass_rows_have_zero_gradient(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[1.0, 1.0], [2.0, 0.7]]])
        grad = s.q_grad_pi(preds, post, model(pi, nu))
        np.testing.assert_array_equal(grad[0, 1], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        h = 1e-5
        for _ in range(20):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            j = int(rng.integers(2, 5))
            preds, post, pi, nu = random_instance(rng, n, k, j)
            grad = s.q_grad_pi(preds, post, model(pi, nu))
            fd = np.empty_like(grad)
            for idx in np.ndindex(pi.shape):
                up = pi.copy()
                up[idx] += h
                dn = pi.copy()
                dn[idx] -= h
                fd[idx] = (s.q_function(preds, post, model(up, nu))
                           - s.q_function(preds, post, model(dn, nu))) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) <= 1e-5


class TestMStepNu:
    def test_hand_computed(self):
        prior = s.m_step_nu(np.array([[1.0, 0.0], [0.5, 0.5]]))
        np.testing.assert_allclose(prior.nu, [0.75, 0.25], atol=1e-15)

    def test_identical_rows(self):
        row = np.array([0.2, 0.3, 0.5])
        prior = s.m_step_nu(np.tile(row, (7, 1)))
        np.testing.assert_allclose(prior.nu, row, atol=1e-12)

    def test_matches_column_mean_oracle(self):
        rng = np.random.default_rng(21)
        rows = rng.dirichlet(np.ones(4), size=100)
        prior = s.m_step_nu(rows)
        np.testing.assert_allclose(prior.nu, rows.mean(axis=0), rtol=1e-15,
                                   atol=1e-15)

    def test_optimal_for_q(self):
        # the closed form must beat random prior perturbations
        rng = np.random.default_rng(22)
        for _ in range(20):
            preds, post, pi, _ = random_instance(rng, 6, 2, 3)
            nu_star = s.m_step_nu(post).nu
            q_star = s.q_function(preds, post, model(pi, nu_star))
            for _ in range(100):
                other = np.maximum(nu_star + rng.normal(0, 0.05, size=3), 1e-9)
                other = other / other.sum()
                assert s.q_function(preds, post, model(pi, other)) <= q_star + 1e-12


class TestMStepPi:
    def test_zero_posterior_mass_leaves_pi(self):
        preds, _, nu = single_item_instance()
        pi = np.array([[[1.2, 0.8], [0.5, 1.5]]])
        cfg = s.SdsConfig(weight_decay=0.0).validate()
        post = np.zeros((1, 2))
        tensor, state = s.m_step_pi(preds, post, model(pi, nu), cfg,
                                    AdamState.zeros(pi.size))
        np.testing.assert_array_equal(tensor.pi, pi)
        assert state.step == cfg.inner_steps

    def test_single_step_moves_by_learning_rate(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        cfg = s.SdsConfig(inner_steps=1, learning_rate=0.1,
                          weight_decay=0.0).validate()
        tensor, _ = s.m_step_pi(preds, post, model(pi, nu), cfg,
                                AdamState.zeros(pi.size))
        # gradient is positive on row 0, so entries rise by ~lr
        np.testing.assert_allclose(tensor.pi[0, 0], 1.1, rtol=1e-5)
        np.testing.assert_array_equal(tensor.pi[0, 1], pi[0, 1])

    def test_entries_clamped_to_floor(self):
        preds, post, nu = single_item_instance()
        pi = np.full((1, 2, 2), 2e-6)
        cfg = s.SdsConfig(inner_steps=3, learning_rate=0.1).validate()
        tensor, _ = s.m_step_pi(preds, post, model(pi, nu), cfg,
                                AdamState.zeros(pi.size))
        assert np.all(tensor.pi >= cfg.pi_floor)

    def test_inner_steps_do_not_reduce_q(self):
        # monitored along a seeded fit trajectory
        spec = diagonal_spec(3.0, 0.4, seed=21, n_items=400, n_classes=4)
        preds, _ = s.sample(spec)

        def check(post, before, after):
            q_before = s.q_function(preds, post, before)
            q_after = s.q_function(preds, post, after)
            assert q_after >= q_before - 1e-6 * abs(q_before)

        reference_fit(preds, s.SdsConfig(em_iterations=25), on_m_step=check)


class TestEStepRaw:
    def e_model(self):
        pi = np.array([[[2.0, 1.0], [1.0, 2.0]]])
        nu = np.array([0.5, 0.5])
        return pi, nu

    def test_center_is_uninformative(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.5, 0.5]]]))
        post = s.e_step_raw(preds, model(*self.e_model()))
        np.testing.assert_allclose(post.rows, [[0.5, 0.5]], atol=1e-12)

    def test_density_ratio(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.9, 0.1]]]))
        post = s.e_step_raw(preds, model(*self.e_model()))
        np.testing.assert_allclose(post.rows, [[0.9, 0.1]], atol=1e-10)

    def test_one_hot_prior_dominates(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.7, 0.3]]]))
        pi, _ = self.e_model()
        post = s.e_step_raw(preds, model(pi, np.array([0.0, 1.0])))
        np.testing.assert_allclose(post.rows, [[0.0, 1.0]], atol=1e-12)

    def test_matches_dirichlet_density_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 4))
            j = int(rng.integers(2, 5))
            preds, _, pi, nu = random_instance(rng, n, k, j)
            got = s.e_step_raw(preds, model(pi, nu)).rows
            for i in range(n):
                w = np.log(np.maximum(nu, 1e-300)).copy()
                for cls in range(j):
                    for m in range(k):
                        w[cls] += dirichlet_log_density(preds.probs[i, m],
                                                        pi[m, cls])
                np.testing.assert_allclose(
                    got[i], np.exp(w - np.logaddexp.reduce(w)), atol=1e-10)

    def test_rows_are_on_simplex(self):
        rng = np.random.default_rng(24)
        preds, _, pi, nu = random_instance(rng, 50, 3, 4)
        rows = s.e_step_raw(preds, model(pi, nu)).rows
        assert np.all(rows >= 0.0)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9

    def test_rejects_nonpositive_pi(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.5, 0.5]]]))
        with pytest.raises(ValueError):
            s.e_step_raw(preds, model(np.zeros((1, 2, 2)), np.array([0.5, 0.5])))


# (N, K, J): one member, a typical ensemble, J in the hundreds, K past
# numpy's eight-term pairwise-sum threshold, and J = 1000.
KERNEL_SHAPES = [(50, 1, 2), (200, 3, 10), (60, 5, 100), (40, 9, 7), (10, 2, 1000)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda sh: "x".join(map(str, sh)))
class TestEStepContracts:
    """Bitwise contracts of the E-step kernel at the shapes that change how
    its einsum and member reduction run."""

    def instance(self, shape):
        preds, _, pi, nu = random_instance(np.random.default_rng(sum(shape)), *shape)
        return preds, model(pi, nu)

    def test_online_row_equals_batch_row(self, shape):
        preds, m = self.instance(shape)
        batch = s.e_step_raw(preds, m).rows
        stream = np.stack([s.online_infer(preds.probs[i], m)
                           for i in range(preds.n_items)])
        assert np.array_equal(stream, batch)

    def test_sub_batches_equal_full_batch(self, shape):
        preds, m = self.instance(shape)
        batch = s.e_step_raw(preds, m).rows
        parts = [s.e_step_raw(s.PredictionSet(preds.probs[lo:lo + 7]), m).rows
                 for lo in range(0, preds.n_items, 7)]
        assert np.array_equal(np.concatenate(parts), batch)

    def test_member_permutation_invariant(self, shape):
        preds, m = self.instance(shape)
        perm = np.arange(shape[1])[::-1]
        permuted = s.e_step_raw(s.PredictionSet(preds.probs[:, perm]),
                                model(m.pi.pi[perm], m.nu.nu))
        assert np.array_equal(permuted.rows, s.e_step_raw(preds, m).rows)


class TestPolyakUpdate:
    def test_alpha_one_returns_new_exactly(self):
        rng = np.random.default_rng(25)
        old = rng.dirichlet(np.ones(3), size=5)
        new = rng.dirichlet(np.ones(3), size=5)
        out = s.polyak_update(old, new, 1.0)
        assert np.array_equal(out.rows, new)

    def test_halfway(self):
        out = s.polyak_update(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.5)
        np.testing.assert_allclose(out.rows, [[0.5, 0.5]], atol=1e-15)

    @given(st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_convex_combination_stays_on_simplex(self, alpha):
        rng = np.random.default_rng(26)
        old = rng.dirichlet(np.ones(4), size=10)
        new = rng.dirichlet(np.ones(4), size=10)
        rows = s.polyak_update(old, new, alpha).rows
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9

    def test_rejects_bad_alpha(self):
        rows = np.array([[0.5, 0.5]])
        for alpha in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                s.polyak_update(rows, rows, alpha)


@pytest.fixture(scope="module")
def chunked_preds():
    """Predictions large enough that the E-step and the statistics run
    over two item chunks, so a thread pool has work to split."""
    spec = diagonal_spec(3.0, 0.4, seed=30, n_items=1000, n_classes=20)
    preds, _ = s.sample(spec)
    return preds


class TestFit:
    def test_single_perfect_member_is_followed(self):
        spec = diagonal_spec(60.0, 0.05, seed=31, n_items=300, n_members=1,
                             n_classes=4)
        preds, _ = s.sample(spec)
        model, post, _ = s.fit(preds, s.SdsConfig(em_iterations=10))
        member_argmax = np.argmax(preds.probs[:, 0, :], axis=1)
        agree = np.mean(np.argmax(post.rows, axis=1) == member_argmax)
        assert agree >= 0.99

    def test_alpha_schedule_switch_recorded(self):
        spec = diagonal_spec(5.0, 0.3, seed=32, n_items=40, n_classes=3)
        preds, _ = s.sample(spec)
        cfg = s.SdsConfig(alpha_schedule=[(0, 1e-5), (100, 1e-3)],
                          em_iterations=200)
        _, _, trace = s.fit(preds, cfg)
        assert len(trace) == 200
        assert np.all(trace.alpha[:100] == 1e-5)
        assert np.all(trace.alpha[100:] == 1e-3)

    def test_deterministic_bitwise(self):
        spec = diagonal_spec(4.0, 0.4, seed=33, n_items=120, n_classes=3)
        preds, _ = s.sample(spec)
        cfg = s.SdsConfig(em_iterations=15)
        m1, p1, t1 = s.fit(preds, cfg)
        m2, p2, t2 = s.fit(preds, cfg)
        assert np.array_equal(m1.pi.pi, m2.pi.pi)
        assert np.array_equal(m1.nu.nu, m2.nu.nu)
        assert np.array_equal(p1.rows, p2.rows)
        assert np.array_equal(t1.q, t2.q)

    def test_thread_count_does_not_change_results(self):
        spec = diagonal_spec(4.0, 0.4, seed=34, n_items=6000, n_classes=6)
        preds, _ = s.sample(spec)
        cfg = s.SdsConfig(em_iterations=5)
        m1, p1, _ = s.fit(preds, cfg, threads=1)
        m8, p8, _ = s.fit(preds, cfg, threads=8)
        assert np.array_equal(m1.pi.pi, m8.pi.pi)
        assert np.array_equal(p1.rows, p8.rows)

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("cfg", [
        s.SdsConfig(),
        s.SdsConfig(alpha_schedule=[(0, 1e-3), (10, 0.5)], em_iterations=20,
                    reset_optimizer_each_m_step=True),
        # stops after 25 of the 100 iterations on this data
        s.SdsConfig(alpha_schedule=[(0, 1.0)], q_rel_tolerance=3.5e-4),
    ], ids=["default", "schedule_reset", "early_stop"])
    def test_equals_reference_steps_bitwise(self, chunked_preds, cfg, threads):
        model, post, trace = s.fit(chunked_preds, cfg, threads=threads)
        ref_model, ref_post, ref_q = reference_fit(chunked_preds, cfg)
        assert np.array_equal(model.pi.pi, ref_model.pi.pi)
        assert np.array_equal(model.nu.nu, ref_model.nu.nu)
        assert np.array_equal(post.rows, ref_post.rows)
        assert np.array_equal(trace.q, ref_q)

    def test_member_permutation_equivariance(self):
        spec = diagonal_spec(4.0, 0.4, seed=35, n_items=150, n_classes=4)
        preds, _ = s.sample(spec)
        perm = [2, 0, 1]
        permuted = s.PredictionSet(preds.probs[:, perm, :],
                                   list(preds.item_ids))
        cfg = s.SdsConfig(em_iterations=12)
        base_model, base_post, _ = s.fit(preds, cfg)
        perm_model, perm_post, _ = s.fit(permuted, cfg)
        assert np.array_equal(base_post.rows, perm_post.rows)
        assert np.array_equal(base_model.pi.pi[perm], perm_model.pi.pi)
        assert np.array_equal(base_model.nu.nu, perm_model.nu.nu)

    def test_q_trend_mostly_non_decreasing(self):
        spec = diagonal_spec(3.0, 0.4, seed=21, n_items=800, n_classes=4)
        preds, _ = s.sample(spec)
        _, _, trace = s.fit(preds)
        increasing = np.diff(trace.q) >= -1e-9 * np.abs(trace.q[:-1])
        assert increasing.mean() >= 0.95

    def test_improves_on_ensemble_average_for_noisy_members(self):
        spec = diagonal_spec(0.8, 0.25, seed=23, n_items=2000)
        preds, truth = s.sample(spec)
        _, post, _ = s.fit(preds)
        acc_sds = s.accuracy(post, truth)
        acc_ea = s.accuracy(s.ensemble_average(preds), truth)
        assert acc_sds > acc_ea

    def test_early_stop_on_q_tolerance(self):
        # undamped E-step so Q settles within the iteration budget
        spec = diagonal_spec(5.0, 0.3, seed=36, n_items=60, n_classes=3)
        preds, _ = s.sample(spec)
        cfg = s.SdsConfig(em_iterations=100, alpha_schedule=[(0, 1.0)],
                          q_rel_tolerance=1e-3)
        _, _, trace = s.fit(preds, cfg)
        assert len(trace) < 100
        # disabled tolerance runs the full budget
        cfg_full = s.SdsConfig(em_iterations=30, alpha_schedule=[(0, 1.0)])
        _, _, full_trace = s.fit(preds, cfg_full)
        assert len(full_trace) == 30

    def test_schedule_not_covering_zero_rejected(self):
        spec = diagonal_spec(5.0, 0.3, seed=37, n_items=20, n_classes=3)
        preds, _ = s.sample(spec)
        with pytest.raises(s.FormatError):
            s.fit(preds, s.SdsConfig(alpha_schedule=[(1, 0.5)]))

    def test_optimizer_reset_flag_changes_trajectory(self):
        spec = diagonal_spec(2.0, 0.4, seed=39, n_items=150, n_classes=3)
        preds, _ = s.sample(spec)
        carried, _, _ = s.fit(preds, s.SdsConfig(em_iterations=10))
        reset, _, _ = s.fit(preds, s.SdsConfig(
            em_iterations=10, reset_optimizer_each_m_step=True))
        assert not np.array_equal(carried.pi.pi, reset.pi.pi)

    def test_model_terms_once_per_iteration(self, log_gamma_calls):
        # the log-Gamma normalizer of each iteration's model is computed
        # once, for its Q and the next E-step, plus once for the start
        spec = diagonal_spec(4.0, 0.4, seed=37, n_items=60, n_classes=3)
        preds, _ = s.sample(spec)
        s.fit(preds, s.SdsConfig(em_iterations=6))
        assert len(log_gamma_calls) == 2 * (6 + 1)


@pytest.fixture(scope="module")
def fitted():
    spec = diagonal_spec(4.0, 0.3, seed=38, n_items=250, n_classes=4)
    preds, truth = s.sample(spec)
    model, _, _ = s.fit(preds, s.SdsConfig(em_iterations=10))
    return spec, preds, truth, model


EDGES = ["k1", "n1", "identical_members", "constant_members", "rows_at_floor"]


def edge_predictions(edge, seed):
    """Small predictions at one edge of the input space: a single member,
    a single item, members that agree on every item, members that output
    one vector for every item, or one-hot rows (entries at ``PROB_FLOOR``)."""
    rng = np.random.default_rng(seed)
    n = 1 if edge == "n1" else int(rng.integers(2, 8))
    k = 1 if edge == "k1" else int(rng.integers(2, 4))
    j = int(rng.integers(2, 6))
    probs = rng.dirichlet(np.full(j, 0.5), size=(n, k))
    if edge == "identical_members":
        probs[:] = probs[:, :1]
    elif edge == "constant_members":
        probs[:] = probs[:1]
    elif edge == "rows_at_floor":
        probs = np.eye(j)[rng.integers(0, j, size=(n, k))]
    return s.PredictionSet.from_probs(probs)


def assert_simplex_rows_or_numeric_error(compute_rows):
    try:
        rows = compute_rows()
    except s.NumericError:
        return
    assert np.all(np.isfinite(rows))
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9


class TestEdgeProperties:
    """At each edge a fit or an E-step gives finite rows on the simplex,
    or fails with :class:`NumericError`."""

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("cfg", [
        s.SdsConfig(em_iterations=10),
        s.SdsConfig(alpha_schedule=[(0, 1.0)], learning_rate=0.5,
                    em_iterations=10),
    ], ids=["default_rates", "undamped_lr_0.5"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_fit(self, edge, cfg, seed):
        preds = edge_predictions(edge, seed)
        assert_simplex_rows_or_numeric_error(lambda: s.fit(preds, cfg)[1].rows)

    @pytest.mark.parametrize("edge", EDGES)
    @given(seed=st.integers(0, 2**32 - 1),
           log10_pi=st.floats(-3.0, 3.0), spread=st.floats(0.0, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_e_step_raw(self, edge, seed, log10_pi, spread):
        preds = edge_predictions(edge, seed)
        rng = np.random.default_rng(seed)
        shape = (preds.n_members, preds.n_classes, preds.n_classes)
        pi = 10.0 ** (log10_pi + spread * rng.uniform(-1.0, 1.0, shape))
        nu = rng.dirichlet(np.ones(preds.n_classes))
        assert_simplex_rows_or_numeric_error(
            lambda: s.e_step_raw(preds, model(pi, nu)).rows)


class TestOnlineInfer:
    def test_bitwise_equal_to_batch_row(self, fitted):
        _, preds, _, model = fitted
        batch = s.e_step_raw(preds, model).rows
        for i in (0, 7, 101):
            row = s.online_infer(preds.probs[i], model)
            assert np.array_equal(row, batch[i])

    def test_stream_equals_stacked_batch(self, fitted):
        _, preds, _, model = fitted
        stream = np.stack([s.online_infer(preds.probs[i], model)
                           for i in range(40)])
        batch = s.e_step_raw(preds, model).rows[:40]
        assert np.array_equal(stream, batch)

    def test_matches_bayes_posterior_under_true_parameters(self, fitted):
        spec, preds, _, _ = fitted
        truth_model = s.SdsModel(spec.pi_true, spec.nu_true)
        oracle = s.bayes_posterior(spec, preds).rows
        for i in range(50):
            row = s.online_infer(preds.probs[i], truth_model)
            np.testing.assert_allclose(row, oracle[i], atol=1e-10)

    def test_rejects_wrong_shape(self, fitted):
        _, _, _, model = fitted
        with pytest.raises(ValueError):
            s.online_infer(np.full((2, 4), 0.25), model)

    def test_rejects_bad_row_sums(self, fitted):
        _, _, _, model = fitted
        bad = np.full((3, 4), 0.3)
        with pytest.raises(ValueError):
            s.online_infer(bad, model)

    def test_model_terms_once_per_model(self, fitted, log_gamma_calls):
        _, preds, _, fitted_model = fitted
        model = s.SdsModel(fitted_model.pi, fitted_model.nu)
        for i in range(50):
            s.online_infer(preds.probs[i], model)
        assert len(log_gamma_calls) <= 2

    def test_safe_under_concurrent_callers(self, fitted):
        # the model is frozen and the function is pure, so hammering it
        # from a pool must reproduce the sequential results exactly
        from concurrent.futures import ThreadPoolExecutor

        _, preds, _, fitted_model = fitted
        items = [preds.probs[i] for i in range(60)]
        sequential = [s.online_infer(item, fitted_model) for item in items]
        # a fresh model, so that the callers race to compute its terms
        model = s.SdsModel(fitted_model.pi, fitted_model.nu)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(pool.map(lambda it: s.online_infer(it, model),
                                           items))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(sequential, concurrent):
            assert np.array_equal(a, b)


class TestExplain:
    def test_terms_reproduce_posterior(self):
        rng = np.random.default_rng(40)
        preds, _, pi, nu = random_instance(rng, 6, 3, 4)
        breakdown = s.explain(preds, model(pi, nu), 2)
        recomposed = (breakdown.log_prior
                      + breakdown.member_evidence.sum(axis=0)
                      + breakdown.member_normalizer.sum(axis=0))
        np.testing.assert_allclose(recomposed, breakdown.log_weights,
                                   atol=1e-10)
        batch = s.e_step_raw(preds, model(pi, nu)).rows[2]
        assert np.array_equal(breakdown.posterior, batch)
        # the same members in another order give the same bits
        order = [2, 0, 1]
        permuted = s.explain(s.PredictionSet(preds.probs[:, order, :]),
                             model(pi[order], nu), 2)
        assert np.array_equal(permuted.log_weights, breakdown.log_weights)
        assert np.array_equal(permuted.posterior, breakdown.posterior)
        assert np.array_equal(permuted.member_evidence,
                              breakdown.member_evidence[order])

    def test_uniform_member_votes_equally(self):
        # member 1 outputs 1/J everywhere and has identical confusion rows,
        # so its evidence term cannot distinguish classes
        j = 4
        probs = np.stack([np.array([0.7, 0.1, 0.1, 0.1]), np.full(j, 0.25)])
        preds = s.PredictionSet.from_probs(probs[None])
        pi = np.stack([np.eye(j) * 2.0 + 0.5, np.tile(np.full(j, 1.3), (j, 1))])
        nu = np.full(j, 0.25)
        breakdown = s.explain(preds, model(pi, nu), 0)
        spread = np.ptp(breakdown.member_evidence[1])
        assert spread <= 1e-12

    def test_argmax_matches_bayes_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            preds, _, pi, nu = random_instance(rng, 3, 2, 4)
            breakdown = s.explain(preds, model(pi, nu), 1)
            w = np.log(np.maximum(nu, 1e-300)).copy()
            for cls in range(4):
                for m in range(2):
                    w[cls] += dirichlet_log_density(preds.probs[1, m],
                                                    pi[m, cls])
            oracle = np.exp(w - np.logaddexp.reduce(w))
            assert np.argmax(breakdown.posterior) == np.argmax(oracle)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(42)
        preds, _, pi, nu = random_instance(rng, 2, 1, 3)
        with pytest.raises(IndexError):
            s.explain(preds, model(pi, nu), 2)


class TestSerialization:
    def test_fit_trace_round_trip(self, tmp_path):
        trace = s.FitTrace(np.arange(4), np.array([-5.0, -4.0, -3.5, -3.4]),
                           np.array([1e-3] * 4), np.array([1.0, 2.0, 1.5, 1.2]))
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        again = s.FitTrace.load_csv(path)
        assert np.array_equal(trace.iteration, again.iteration)
        assert np.array_equal(trace.q, again.q)
        assert np.array_equal(trace.alpha, again.alpha)
        assert np.array_equal(trace.millis, again.millis)

    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        model = s.SdsModel(s.ConfusionTensor(rng.uniform(0.5, 5.0, (2, 3, 3))),
                           s.ClassPrior(np.array([0.2, 0.3, 0.5])))
        path = tmp_path / "model.json"
        s.save_model(model, path)
        again = s.load_model(path)
        assert np.array_equal(model.pi.pi, again.pi.pi)
        assert np.array_equal(model.nu.nu, again.nu.nu)

    def test_model_is_frozen(self):
        rng = np.random.default_rng(44)
        frozen = model(rng.uniform(0.5, 5.0, (2, 3, 3)), np.full(3, 1.0 / 3.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.pi = s.ConfusionTensor(np.ones((2, 3, 3)))
        # nor can the parameters under it be swapped
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.pi.pi = np.ones((2, 3, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.nu.nu = np.full(3, 1.0 / 3.0)

    @pytest.mark.parametrize("change", [
        {"nu": ["x", 0.5]},
        {"nu": [[0.5], 0.5]},
        {"members": [{"pi": [[1.0, "x"], [1.0, 1.0]]}]},
        {"members": [{"pi": [[1.0, 1.0], [1.0]]}]},
    ], ids=["nu_string", "nu_ragged", "pi_string", "pi_ragged"])
    def test_model_loader_names_file(self, tmp_path, change):
        obj = {"nu": [0.5, 0.5], "members": [{"pi": [[1.0, 1.0], [1.0, 1.0]]}],
               **change}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(s.FormatError, match="model.json"):
            s.load_model(path)

    def test_legacy_pi_floor_key_is_ignored(self, tmp_path):
        # older model files carry a "pi_floor"; it is read as no more than
        # any other extra key, whatever its value
        path = tmp_path / "model.json"
        pi = [[2.0, 0.7], [0.9, 3.0]]
        path.write_text(json.dumps({"nu": [0.5, 0.5], "members": [{"pi": pi}],
                                    "pi_floor": "x"}))
        model = s.load_model(path)
        assert np.array_equal(model.pi.pi, [pi])
        s.save_model(model, tmp_path / "again.json")
        assert json.loads((tmp_path / "again.json").read_text()) == {
            "nu": [0.5, 0.5], "members": [{"pi": pi}]}

    def test_trace_loader_names_file_and_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iteration,q,alpha,millis\n0,abc,0.001,1.0\n")
        with pytest.raises(s.FormatError, match="trace.csv, line 2"):
            s.FitTrace.load_csv(path)

    def test_trace_requires_increasing_iterations(self):
        with pytest.raises(s.FormatError):
            s.FitTrace(np.array([0, 0]), np.zeros(2), np.zeros(2) + 0.1,
                       np.zeros(2))
