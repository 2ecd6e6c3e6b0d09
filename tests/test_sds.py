"""Core fitting machinery: the Q and gradient kernels, E/M steps, the EM
driver, online inference, and the posterior decomposition."""

import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softds as s
from softds.mathutils import dirichlet_log_density
from util import (INNER_STEPS, PI_FLOOR, REFERENCE_SHAPES, WEIGHT_DECAY, diagonal_spec,
                  evidence_stats, m_step_pi, model, q_function, q_grad_pi, random_instance,
                  reference_adamw_pi, reference_evidence_stats, reference_fit,
                  reference_log_weights)

LN_HALF = -0.6931471805599453
LN_THREE_QUARTERS = -0.2876820724517809  # ln 0.5 + 2 ln 0.5 + ln 6


@pytest.fixture
def log_gamma_calls(monkeypatch):
    """A list that gains the argument's shape per call of
    ``softds.sds.log_gamma``."""
    calls = []
    real = s.sds.log_gamma

    def counting(x):
        calls.append(np.shape(x))
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
        assert q_function(preds, post, model(pi, nu)) == pytest.approx(
            LN_HALF, abs=1e-12)

    def test_symmetric_beta_row(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[2.0, 2.0], [1.0, 1.0]]])
        assert q_function(preds, post, model(pi, nu)) == pytest.approx(
            LN_THREE_QUARTERS, abs=1e-12)

    def test_zero_mass_class_ignores_its_row(self):
        preds, post, nu = single_item_instance()
        pi_a = np.array([[[1.5, 0.5], [1.0, 1.0]]])
        pi_b = np.array([[[1.5, 0.5], [9.0, 0.2]]])  # row 1 changed
        assert q_function(preds, post, model(pi_a, nu)) == \
            q_function(preds, post, model(pi_b, nu))

    def test_rejects_nonpositive_pi(self):
        preds, post, nu = single_item_instance()
        with pytest.raises(ValueError):
            q_function(preds, post, model(np.zeros((1, 2, 2)), nu))

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
        got = q_function(preds, post, model(pi, nu))
        assert abs(got - float(expected)) <= 1e-12 * abs(float(expected))


class TestQGradPi:
    def test_hand_computed_entry(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        grad = q_grad_pi(preds, post, model(pi, nu))
        # ln 0.5 - psi(1) + psi(2) = ln 0.5 + 1
        expected = LN_HALF + 1.0
        np.testing.assert_allclose(grad[0, 0], expected, atol=1e-12)

    def test_zero_mass_rows_have_zero_gradient(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[1.0, 1.0], [2.0, 0.7]]])
        grad = q_grad_pi(preds, post, model(pi, nu))
        np.testing.assert_array_equal(grad[0, 1], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        h = 1e-5
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
            assert np.max(np.abs(grad - fd) / denom) <= 1e-5


class TestMStepNu:
    """``fit``'s prior update: nu is the column mean of its posterior."""

    def test_identical_rows(self):
        # alike items get bitwise alike posterior rows
        probs = np.tile([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]], (7, 1, 1))
        m, post, _ = s.fit(s.PredictionSet.from_probs(probs),
                           s.SdsConfig(em_iterations=3))
        np.testing.assert_allclose(m.nu.nu, post.rows[0], atol=1e-12)

    def test_matches_column_mean_oracle(self):
        preds, _ = s.sample(diagonal_spec(3.0, 0.4, seed=21, n_items=100,
                                          n_classes=4))
        m, post, _ = s.fit(preds, s.SdsConfig(em_iterations=5))
        np.testing.assert_allclose(m.nu.nu, post.rows.mean(axis=0),
                                   rtol=1e-15, atol=1e-15)

    def test_optimal_for_q(self):
        # the closed form must beat random prior perturbations
        rng = np.random.default_rng(22)
        for _ in range(20):
            preds, post, pi, _ = random_instance(rng, 6, 2, 3)
            mass = post.sum(axis=0)
            nu_star = mass / mass.sum()
            q_star = q_function(preds, post, model(pi, nu_star))
            for _ in range(100):
                other = np.maximum(nu_star + rng.normal(0, 0.05, size=3), 1e-9)
                other = other / other.sum()
                assert q_function(preds, post, model(pi, other)) <= q_star + 1e-12


def adamw(pi, grad, lr, moments=None, step=0):
    """``fit``'s AdamW M-step at learning rate ``lr`` on a loss whose
    gradient in pi is ``grad``: with zero class mass dQ/dpi is exactly S,
    so S is ``-grad``.  Returns ``(pi, m, v)``; ``moments``, if given, are
    updated in place."""
    m, v = moments if moments is not None else (np.zeros_like(pi), np.zeros_like(pi))
    new_pi = s.sds._adamw_pi(-grad, np.zeros(pi.shape[1]), pi, lr, m, v, step)
    return new_pi, m, v


def reference_adamw(pi, grad, lr, n_steps=INNER_STEPS):
    """:func:`reference_adamw_pi` from zero moments on the constant
    gradient ``grad``.  Returns ``(pi, m, v)``, as :func:`adamw` does."""
    state = [0, np.zeros_like(pi), np.zeros_like(pi)]
    return reference_adamw_pi(pi, lambda _: grad, lr, state, n_steps), state[1], state[2]


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


class TestMStepPi:
    def test_zero_posterior_mass_leaves_pi(self):
        # with no mass the gradient is zero, so only the decoupled decay
        # moves pi, by lr * WEIGHT_DECAY of itself per step
        preds, _, nu = single_item_instance()
        pi = np.array([[[1.2, 0.8], [0.5, 1.5]]])
        lr = s.SdsConfig().learning_rate
        new_pi, m, v = m_step_pi(preds, np.zeros((1, 2)), model(pi, nu), lr)
        assert_same_bits((new_pi, m, v), reference_adamw(pi, np.zeros_like(pi), lr))
        np.testing.assert_allclose(new_pi, pi, rtol=INNER_STEPS * lr * WEIGHT_DECAY)
        # a zero gradient leaves both moments at zero over all inner steps
        assert not np.any(m) and not np.any(v)

    def test_single_step_moves_by_learning_rate(self):
        preds, post, nu = single_item_instance()
        pi = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        new_pi, _, _ = m_step_pi(preds, post, model(pi, nu), 0.1)
        stats = evidence_stats(preds, post)
        state = [0, np.zeros_like(pi), np.zeros_like(pi)]
        steps = [pi]
        for _ in range(INNER_STEPS):
            steps.append(reference_adamw_pi(
                steps[-1], lambda p: -s.sds._grad_from_stats(*stats, p), 0.1, state, 1))
        assert np.array_equal(new_pi, steps[-1])
        # the gradient is positive on row 0, so the first step raises its
        # entries by lr less the decay lr * WEIGHT_DECAY * 1.0, and each
        # later one by a little less, as the gradient shrinks; row 1 has
        # no mass and only decays
        rises = [after[0, 0] - before[0, 0] for before, after in zip(steps, steps[1:])]
        np.testing.assert_allclose(rises[0], 0.1 - 0.1 * WEIGHT_DECAY, rtol=1e-6)
        assert all(np.all((0.9 * 0.1 < r) & (r < 0.1)) for r in rises)
        np.testing.assert_allclose(new_pi[0, 1], (1.0 - 0.1 * WEIGHT_DECAY) ** INNER_STEPS,
                                   rtol=1e-14)

    def test_entries_clamped_to_floor(self):
        # a positive gradient pushes entries at 2e-6 down by lr = 0.1
        pi, grad = np.full((1, 2, 2), 2e-6), np.ones((1, 2, 2))
        new_pi, m, v = adamw(pi, grad, 0.1)
        assert_same_bits((new_pi, m, v), reference_adamw(pi, grad, 0.1))
        assert np.all(new_pi == PI_FLOOR)

    def test_inner_steps_do_not_reduce_q(self):
        # monitored along a seeded fit trajectory
        spec = diagonal_spec(3.0, 0.4, seed=21, n_items=400, n_classes=4)
        preds, _ = s.sample(spec)

        def check(post, before, after):
            q_before = q_function(preds, post, before)
            q_after = q_function(preds, post, after)
            assert q_after >= q_before - 1e-6 * abs(q_before)

        reference_fit(preds, s.SdsConfig(em_iterations=25), on_m_step=check)

    def test_first_step_equals_learning_rate(self):
        pi, grad = np.full((1, 1, 1), 1.0), np.full((1, 1, 1), 1.0)
        assert_same_bits(adamw(pi, grad, 0.1), reference_adamw(pi, grad, 0.1))
        first_pi, m, v = reference_adamw(pi, grad, 0.1, n_steps=1)
        # lr, plus the decay lr * WEIGHT_DECAY * pi
        assert first_pi[0, 0, 0] == pytest.approx(0.9 - 0.1 * WEIGHT_DECAY, abs=1e-6)
        assert m[0, 0, 0] == 1.0 - 0.9
        assert v[0, 0, 0] == 1.0 - 0.999

    def test_decoupled_weight_decay(self):
        pi, grad = np.full((1, 1, 1), 1.0), np.full((1, 1, 1), 1.0)
        new_pi, _, _ = adamw(pi, grad, 0.1)
        assert np.array_equal(new_pi, reference_adamw(pi, grad, 0.1)[0])
        # every plain step is lr, so pi is 1.0, 0.9, ... before the steps,
        # and each step takes lr * WEIGHT_DECAY of it on top
        decay = sum(0.1 * WEIGHT_DECAY * (1.0 - 0.1 * t) for t in range(INNER_STEPS))
        assert new_pi[0, 0, 0] == pytest.approx(1.0 - INNER_STEPS * 0.1 - decay, abs=1e-8)

    def test_zero_gradient_leaves_params(self):
        # only the decay moves them
        pi = np.array([[[2.5, 1.0], [0.5, 3.0]]])
        new_pi, _, _ = adamw(pi, np.zeros_like(pi), 0.1)
        np.testing.assert_allclose(new_pi, pi * (1.0 - 0.1 * WEIGHT_DECAY) ** INNER_STEPS,
                                   rtol=1e-14)

    def test_constant_gradient_update_magnitude_converges_to_lr(self):
        # the loss falls as pi grows, so pi rises away from the floor
        lr = 0.01
        pi, grad = np.full((1, 1, 1), 1.0), np.full((1, 1, 1), -3.0)
        moments = np.zeros_like(pi), np.zeros_like(pi)
        last = pi
        for call in range(100):
            last = pi
            pi, _, _ = adamw(pi, grad, lr, moments, call * INNER_STEPS)
        # each of the M-step's steps moves pi by about lr
        move = INNER_STEPS * lr
        assert abs(abs(pi[0, 0, 0] - last[0, 0, 0]) - move) <= 0.01 * move

    def test_first_step_independent_of_gradient_scale(self):
        steps = [adamw(np.full((1, 1, 1), 1.0), np.full((1, 1, 1), g), 0.05)[0][0, 0, 0]
                 for g in (1e-3, 1.0, 1e3)]
        np.testing.assert_allclose(steps, steps[0], rtol=1e-4)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        pi = rng.uniform(0.5, 2.0, size=(2, 3, 3))
        grad = rng.standard_normal((2, 3, 3))
        assert_same_bits(adamw(pi, grad, 0.01), adamw(pi, grad, 0.01))

    def test_second_moment_nonnegative_and_carried(self):
        start = np.full((1, 3, 3), 1.0)
        grad = np.tile([1.0, -2.0, 0.5], (1, 3, 1))
        moments = np.zeros_like(start), np.zeros_like(start)
        pi = start
        for call in range(2):
            pi, _, v = adamw(pi, grad, 0.1, moments, call * INNER_STEPS)
            assert np.all(v >= 0.0)
        # two M-steps carrying the moments are one run of twice the steps
        assert_same_bits((pi, *moments), reference_adamw(start, grad, 0.1, 2 * INNER_STEPS))

    def test_rejects_non_finite_gradient(self):
        with pytest.raises(s.NumericError, match="non-finite gradient"):
            adamw(np.full((1, 1, 2), 1.0), np.array([[[1.0, np.nan]]]), 0.1)


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


@pytest.mark.parametrize("shape", REFERENCE_SHAPES,
                         ids=lambda sh: "x".join(map(str, sh)))
class TestLogWeightsMatchReference:
    """The kernel, one einsum per member on the item-first ``log c`` taken
    a chunk at a time, equals the single item-first contraction bit for
    bit."""

    def instance(self, shape):
        assert len(s.sds._chunks(*shape)) >= 2
        preds, _, pi, nu = random_instance(np.random.default_rng(sum(shape)), *shape)
        return preds.probs, pi, nu

    def test_batch(self, shape):
        probs, pi, nu = self.instance(shape)
        terms = s.sds._log_weight_terms(pi, nu)
        w = np.concatenate([s.sds._log_weights(np.log(probs[rows]), terms)
                            for rows in s.sds._chunks(*shape)])
        assert np.array_equal(w, reference_log_weights(probs, pi, nu))

    def test_one_item_batches(self, shape):
        probs, pi, nu = self.instance(shape)
        terms = s.sds._log_weight_terms(pi, nu)
        for i in (0, s.sds._chunks(*shape)[0].stop, shape[0] - 1):
            one = probs[i:i + 1]
            w = s.sds._log_weights(np.log(one), terms)
            assert np.array_equal(w, reference_log_weights(one, pi, nu))


@pytest.mark.parametrize("shape", REFERENCE_SHAPES,
                         ids=lambda sh: "x".join(map(str, sh)))
class TestEvidenceStatsMatchReference:
    """S of the item-first ``log c``, with each chunk copied item-last on
    its own, equals the whole-array item-last kernel bit for bit, serial
    or threaded."""

    def check(self, shape, map_chunks):
        assert len(s.sds._chunks(*shape)) >= 2
        preds, post, _, _ = random_instance(np.random.default_rng(sum(shape)), *shape)
        got = evidence_stats(preds, post, map_chunks)
        want = reference_evidence_stats(preds.probs, post)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_serial(self, shape):
        self.check(shape, map)

    def test_pool(self, shape):
        with ThreadPoolExecutor(max_workers=2) as pool:
            self.check(shape, pool.map)


class TestPolyakUpdate:
    """``fit``'s damped posterior update: iteration n's posterior is
    (1 - alpha) * old + alpha * new, with ``old`` and the model behind
    ``new`` those of an (n - 1)-iteration fit."""

    def damped(self, alpha, n=3):
        """``(old, new, posterior of iteration n)``."""
        preds, _ = s.sample(diagonal_spec(4.0, 0.4, seed=25, n_items=30,
                                          n_classes=3))
        prev, old, _ = s.fit(preds, s.SdsConfig(alpha=alpha, em_iterations=n - 1))
        _, post, _ = s.fit(preds, s.SdsConfig(alpha=alpha, em_iterations=n))
        return old.rows, s.e_step_raw(preds, prev).rows, post.rows

    def test_alpha_one_returns_new_exactly(self):
        _, new, out = self.damped(1.0)
        assert np.array_equal(out, new)

    def test_halfway(self):
        old, new, out = self.damped(0.5)
        assert np.array_equal(out, 0.5 * old + 0.5 * new)

    @given(st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_convex_combination_stays_on_simplex(self, alpha):
        rows = self.damped(alpha, n=2)[2]
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9


@pytest.fixture(scope="module")
def chunked_preds():
    """Predictions large enough that the E-step and the statistics run
    over two item chunks, so a thread pool has work to split."""
    spec = diagonal_spec(3.0, 0.4, seed=30, n_items=1500, n_classes=20)
    preds, _ = s.sample(spec)
    assert len(s.sds._chunks(*preds.probs.shape)) >= 2
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

    def test_alpha_recorded(self):
        spec = diagonal_spec(5.0, 0.3, seed=32, n_items=40, n_classes=3)
        preds, _ = s.sample(spec)
        _, _, trace = s.fit(preds, s.SdsConfig(alpha=1e-5, em_iterations=20))
        assert len(trace) == 20
        assert np.all(trace.alpha == 1e-5)

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
        assert len(s.sds._chunks(*preds.probs.shape)) >= 2
        cfg = s.SdsConfig(em_iterations=5)
        m1, p1, _ = s.fit(preds, cfg, threads=1)
        # the workers write their chunks' rows of one posterior in place;
        # switching threads every microsecond would expose a lost update
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            m8, p8, _ = s.fit(preds, cfg, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(m1.pi.pi, m8.pi.pi)
        assert np.array_equal(p1.rows, p8.rows)

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("cfg", [
        s.SdsConfig(),
        s.SdsConfig(alpha=0.5, em_iterations=20),
        # stops after 25 of the 100 iterations on this data
        s.SdsConfig(alpha=1.0, q_rel_tolerance=3.5e-4),
    ], ids=["default", "alpha_half", "early_stop"])
    def test_equals_reference_steps_bitwise(self, chunked_preds, cfg, threads):
        model, post, trace = s.fit(chunked_preds, cfg, threads=threads)
        ref_model, ref_post, ref_q = reference_fit(chunked_preds, cfg)
        assert np.array_equal(model.pi.pi, ref_model.pi.pi)
        assert np.array_equal(model.nu.nu, ref_model.nu.nu)
        assert np.array_equal(post.rows, ref_post)
        assert np.array_equal(trace.q, ref_q)

    def test_one_task_per_chunk_and_iteration(self, chunked_preds, monkeypatch):
        # the start runs in iteration 0's tasks, not as a pass of its own
        submitted = []

        class Counting(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args[-1])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(s.sds, "ThreadPoolExecutor", Counting)
        s.fit(chunked_preds, s.SdsConfig(em_iterations=3), threads=2)
        assert submitted == 3 * s.sds._chunks(*chunked_preds.probs.shape)

    def test_leaves_predictions_untouched(self, chunked_preds):
        before = chunked_preds.probs.copy()
        s.fit(chunked_preds, s.SdsConfig(em_iterations=2), threads=2)
        assert chunked_preds.probs.tobytes() == before.tobytes()
        assert not chunked_preds.probs.flags.writeable

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
        cfg = s.SdsConfig(alpha=1.0, em_iterations=100, q_rel_tolerance=1e-3)
        _, _, trace = s.fit(preds, cfg)
        assert len(trace) < 100
        # disabled tolerance runs the full budget
        cfg_full = s.SdsConfig(alpha=1.0, em_iterations=30)
        _, _, full_trace = s.fit(preds, cfg_full)
        assert len(full_trace) == 30

    def test_model_terms_once_per_iteration(self, log_gamma_calls):
        # the log-Gamma normalizer of each iteration's model is computed
        # once, for its Q and the next E-step, plus once for the start:
        # one log_gamma call over pi and one over its row sums, never one
        # per item chunk
        spec = diagonal_spec(4.0, 0.4, seed=37, n_items=60, n_classes=3)
        preds, _ = s.sample(spec)
        s.fit(preds, s.SdsConfig(em_iterations=6))
        k, j = preds.n_members, preds.n_classes
        assert log_gamma_calls == [(k, j, j), (k, j)] * (6 + 1)


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
        s.SdsConfig(alpha=1.0, learning_rate=0.5, em_iterations=10),
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


    @pytest.mark.parametrize("edge", EDGES)
    @given(seed=st.integers(0, 2**32 - 1), log10_pi=st.floats(-3.0, 3.0))
    @settings(max_examples=8, deadline=None)
    def test_posteriors_pass_the_container_check(self, edge, seed, log10_pi):
        # softds wraps these rows in a PosteriorMatrix without checking
        # them; the check, run here, would keep them bit for bit
        preds = edge_predictions(edge, seed)
        rng = np.random.default_rng(seed)
        shape = (preds.n_members, preds.n_classes, preds.n_classes)
        pi = 10.0 ** (log10_pi + rng.uniform(-1.0, 1.0, shape))
        computes = [
            lambda: s.fit(preds, s.SdsConfig(em_iterations=10))[1],
            lambda: s.fit(preds, s.SdsConfig(alpha=1.0, learning_rate=0.5,
                                             em_iterations=10))[1],
            lambda: s.e_step_raw(preds, model(pi, rng.dirichlet(np.ones(preds.n_classes)))),
            lambda: s.ensemble_average(preds),
            lambda: s.majority_vote(preds),
            lambda: s.ds_em(preds, 3)[2],
        ]
        for compute in computes:
            try:
                post = compute()
            except s.NumericError:
                continue
            checked = s.PosteriorMatrix(post.rows, post.item_ids)
            assert checked.rows.tobytes() == post.rows.tobytes()


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
        {"nu": ["0.5", 0.5]},
        {"members": [{"pi": [[1.0, True], [1.0, 1.0]]}]},
        {"members": [{"pi": [[1.0, "2.0"], [1.0, 1.0]]}]},
        {"nu": [10 ** 400, 0.5]},
    ], ids=["nu_string", "nu_ragged", "pi_string", "pi_ragged", "nu_numeric_string",
            "pi_bool", "pi_numeric_string", "nu_int_overflows_float"])
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
