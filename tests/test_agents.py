"""Networks, gradients, TD targets, replay, exploration, and determinism."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from mbnsim.agents import (Algorithm, DqnTrainer, ExplorationSchedule,
                           ReplayBuffer, TrainerConfig, select_action,
                           td_targets)
from mbnsim.nets import (AdamOptimizer, CheckpointError, DuelingQNetwork,
                         QNetwork, build_network, checkpoint_dict,
                         clip_gradients, load_checkpoint,
                         model_from_checkpoint, save_checkpoint)


def small_plain(seed=0, dims=(6, (8, 8), 4), dtype=np.float32):
    return QNetwork(dims[0], dims[1], dims[2], np.random.default_rng(seed),
                    dtype)


def small_dueling(seed=0, dims=(6, (8, 8), 4), dtype=np.float32):
    return DuelingQNetwork(dims[0], dims[1], dims[2],
                           np.random.default_rng(seed), dtype)


def reference_forward_plain(model, x):
    """Hand-rolled matrix-product oracle, independent of model.forward."""
    h = list(x)
    n_layers = len(model.params) // 2
    for layer in range(n_layers):
        w, b = model.params[2 * layer], model.params[2 * layer + 1]
        z = [sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j]
             for j in range(w.shape[1])]
        h = [max(v, 0.0) for v in z] if layer < n_layers - 1 else z
    return np.array(h)


def reference_forward_dueling(model, x):
    def dense(vec, w, b, relu):
        out = [sum(vec[i] * w[i, j] for i in range(w.shape[0])) + b[j]
               for j in range(w.shape[1])]
        return [max(v, 0.0) for v in out] if relu else out

    h = list(x)
    for layer in range(len(model.hidden_sizes)):
        h = dense(h, model.params[2 * layer], model.params[2 * layer + 1],
                  True)
    wv, bv, wa, ba = model.params[-4:]
    v = dense(h, wv, bv, False)[0]
    a = dense(h, wa, ba, False)
    mean_a = sum(a) / len(a)
    return np.array([v + ai - mean_a for ai in a])


class TestForward:
    def test_plain_matches_oracle(self):
        model = small_plain(seed=3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=6)
            assert np.allclose(model.forward(x),
                               reference_forward_plain(model, x), atol=1e-9)

    def test_dueling_matches_oracle(self):
        model = small_dueling(seed=3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=6)
            assert np.allclose(model.forward(x),
                               reference_forward_dueling(model, x), atol=1e-9)

    def test_zero_weights_give_bias(self):
        model = small_plain(seed=1)
        for p in model.params:
            p[...] = 0.0
        model.params[-1][...] = [1.0, -2.0, 3.0, 0.5]
        assert np.array_equal(model.forward(np.ones(6)),
                              np.array([1.0, -2.0, 3.0, 0.5]))
        for p in model.params:
            p[...] = 0.0
        assert np.array_equal(model.forward(np.ones(6)), np.zeros(4))

    def test_dueling_mean_is_value(self):
        model = small_dueling(seed=7, dtype=np.float64)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=6)
            q = model.forward(x)
            h = x
            for layer in range(len(model.hidden_sizes)):
                h = np.maximum(h @ model.params[2 * layer]
                               + model.params[2 * layer + 1], 0.0)
            wv, bv, _, _ = model.params[-4:]
            v = float((h @ wv + bv)[0])
            assert q.mean() == pytest.approx(v, abs=1e-9)

    def test_zero_advantage_stream_flattens_q(self):
        model = small_dueling(seed=7)
        model.params[-2][...] = 0.0  # advantage head weights
        model.params[-1][...] = 0.0  # advantage head bias
        q = model.forward(np.random.default_rng(0).normal(size=6))
        assert np.allclose(q, q[0], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            small_plain().forward(np.ones(7))
        with pytest.raises(ValueError):
            small_dueling().forward(np.ones(5))

    def test_forward_is_deterministic(self):
        model = small_plain(seed=9)
        x = np.random.default_rng(1).normal(size=6)
        assert np.array_equal(model.forward(x), model.forward(x))


def one_td_target(variant, online, target, reward, next_obs, done):
    """td_targets on a one-row batch at discount 0.9."""
    out = td_targets(variant, online, target, np.array([reward]),
                     np.asarray(next_obs)[None, :], np.array([done]), 0.9)
    return float(out[0])


class TestTdTargets:
    def test_done_transition_is_reward(self):
        for algo in Algorithm:
            online = build_network(algo.network_kind, 6, (8, 8), 4,
                                   np.random.default_rng(0))
            target = online.clone()
            assert one_td_target(algo, online, target, 1.75, np.zeros(6),
                                 True) == 1.75

    def test_identical_networks_make_variants_agree(self):
        online = small_plain(seed=2)
        target = online.clone()
        next_obs = np.full(6, 0.2)
        dqn = one_td_target(Algorithm.DQN, online, target, 0.3, next_obs, False)
        ddqn = one_td_target(Algorithm.DOUBLE_DQN, online, target, 0.3,
                             next_obs, False)
        assert dqn == pytest.approx(ddqn, abs=1e-12)

    def test_disagreeing_argmax_lowers_double_target(self):
        # direct weight choice: online prefers action 0, target values action 1
        online = small_plain(seed=0, dims=(2, (2, 2), 2))
        target = small_plain(seed=0, dims=(2, (2, 2), 2))
        for model, out_bias in ((online, [1.0, 0.0]), (target, [0.0, 1.0])):
            for p in model.params:
                p[...] = 0.0
            model.params[-1][...] = out_bias
        dqn = one_td_target(Algorithm.DQN, online, target, 0.0, np.zeros(2),
                            False)
        ddqn = one_td_target(Algorithm.DOUBLE_DQN, online, target, 0.0,
                             np.zeros(2), False)
        assert dqn == pytest.approx(0.9)   # max of target = 1
        assert ddqn == pytest.approx(0.0)  # target value of online argmax
        assert ddqn < dqn

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_double_never_exceeds_dqn(self, seed):
        rng = np.random.default_rng(seed)
        online = QNetwork(4, (6, 6), 5, rng)
        target = QNetwork(4, (6, 6), 5, rng)
        rewards = rng.normal(size=8)
        next_obs = rng.normal(size=(8, 4))
        dones = rng.uniform(size=8) < 0.3
        dqn = td_targets(Algorithm.DQN, online, target, rewards, next_obs,
                         dones, 0.9)
        ddqn = td_targets(Algorithm.DOUBLE_DQN, online, target, rewards,
                          next_obs, dones, 0.9)
        assert (ddqn <= dqn + 1e-12).all()


def finite_difference_check(model, seed, batch=None):
    """Central finite differences against analytic gradients on the batch
    mean-squared error to fixed targets; `batch` defaults to 5 dense rows."""
    rng = np.random.default_rng(seed)
    if batch is None:
        batch = rng.normal(size=(5, model.input_dim))
    actions = rng.integers(model.action_count, size=5)
    targets = rng.normal(size=5)

    def loss_at(flat):
        model.flat[...] = flat
        q = model.forward(batch)
        err = q[np.arange(5), actions] - targets
        return float(np.mean(err ** 2))

    cache = []
    q = model.forward(batch, cache)
    err = q[np.arange(5), actions] - targets
    dq = np.zeros_like(q)
    dq[np.arange(5), actions] = 2.0 * err / 5
    analytic = np.concatenate(
        [g.ravel() for g in model.backward(cache, dq)])

    flat = model.flat.copy()
    h = 1e-5
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        numeric[i] = (loss_at(flat + bump) - loss_at(flat - bump)) / (2 * h)
    model.flat[...] = flat
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
    return np.max(np.abs(analytic - numeric) / denom)


class TestGradients:
    """Finite differences need float64: a 1e-5 step is below float32's
    resolution of the loss. TestFloat32 covers the float32 backward."""

    def test_plain_gradient_matches_finite_differences(self):
        model = small_plain(seed=21, dims=(6, (8, 8), 4),  # ~164 params
                            dtype=np.float64)
        assert finite_difference_check(model, seed=1) < 1e-4

    def test_dueling_gradient_matches_finite_differences(self):
        model = small_dueling(seed=22, dims=(6, (8, 8), 4), dtype=np.float64)
        assert finite_difference_check(model, seed=2) < 1e-4

    def test_more_random_models(self):
        for seed in range(3):
            assert finite_difference_check(
                small_plain(seed=seed, dims=(4, (5, 6), 3), dtype=np.float64),
                seed) < 1e-4
            assert finite_difference_check(
                small_dueling(seed=seed, dims=(4, (5, 6), 3),
                              dtype=np.float64), seed) < 1e-4


class TestFloat32:
    # float32 resolves about 6e-8 relative; these nets sum a few dozen terms
    # of order one per output, so 1e-5 leaves two decades of slack
    RTOL, ATOL = 1e-5, 1e-6

    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    def test_matches_float64_copy_of_same_weights(self, make):
        m32 = make(seed=8)
        m64 = make(seed=8, dtype=np.float64)
        m64.flat[...] = m32.flat
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 6))
        dq = rng.normal(size=(5, 4))
        cache32, cache64 = [], []
        q32 = m32.forward(batch, cache32)
        q64 = m64.forward(batch, cache64)
        assert q32.dtype == np.float32 and q64.dtype == np.float64
        np.testing.assert_allclose(q32, q64, rtol=self.RTOL, atol=self.ATOL)
        g32 = m32.backward(cache32, dq.astype(np.float32))
        g64 = m64.backward(cache64, dq)
        assert g32.dtype == np.float32
        np.testing.assert_allclose(g32, g64, rtol=self.RTOL, atol=self.ATOL)

    @pytest.mark.parametrize("variant", list(Algorithm))
    def test_train_step_keeps_learner_state_float32(self, variant):
        trainer = make_trainer(variant=variant)
        rng = np.random.default_rng(2)
        for i in range(6):
            trainer.push(rng.normal(size=6), i % 4, rng.normal(),
                         rng.normal(size=6), i == 5)
        loss = trainer.train_step()
        assert type(loss) is float
        arrays = {"flat": trainer.online.flat, "grad": trainer.online.grad,
                  "target": trainer.target.flat,
                  "obs ring": trainer.buffer.obs,
                  "next_obs ring": trainer.buffer.next_obs,
                  **{f"adam m{i}": m for i, m in enumerate(trainer.optimizer.m)},
                  **{f"adam v{i}": v for i, v in enumerate(trainer.optimizer.v)}}
        assert {name: a.dtype for name, a in arrays.items()} == {
            name: np.float32 for name in arrays}
        assert trainer.buffer.rewards.dtype == np.float64


class TestReplayBuffer:
    def test_ring_overwrite(self):
        buf = ReplayBuffer(4, 2)
        for i in range(7):
            buf.push(np.full(2, i), i, float(i), np.zeros(2), False)
        assert len(buf) == 4
        assert sorted(buf.rewards.tolist()) == [3.0, 4.0, 5.0, 6.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(8, 1)
        for i in range(8):
            buf.push([i], 0, float(i), [0], False)
        _, _, rewards, _, _ = buf.sample(np.random.default_rng(0), 8)
        assert sorted(rewards.tolist()) == [float(i) for i in range(8)]

    def test_oversized_batch_rejected(self):
        buf = ReplayBuffer(8, 1)
        buf.push([0], 0, 0.0, [0], False)
        with pytest.raises(ValueError):
            buf.sample(np.random.default_rng(0), 2)

    @pytest.mark.parametrize("obs, next_obs", [
        ([1.0], np.zeros(3)), (np.zeros(3), [1.0]), (np.zeros(4), np.zeros(3)),
        (np.zeros((1, 3)), np.zeros(3)), (1.0, np.zeros(3))])
    def test_misshapen_observation_rejected(self, obs, next_obs):
        buf = ReplayBuffer(4, 3)
        with pytest.raises(ValueError, match="shape"):
            buf.push(obs, 0, 0.0, next_obs, False)
        assert len(buf) == 0


class TestExploration:
    def test_schedule_shape(self):
        sched = ExplorationSchedule(1.0, 0.05, 100)
        values = [sched.epsilon(s) for s in range(0, 301)]
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[100] == pytest.approx(0.05)
        assert values[300] == pytest.approx(0.05)

    def test_greedy_at_zero_epsilon(self):
        model = small_plain(seed=4)
        sched = ExplorationSchedule(0.0, 0.0, 1)
        rng = np.random.default_rng(0)
        obs = np.ones(6)
        expected = int(np.argmax(model.forward(obs)))
        assert all(select_action(model, obs, sched, 10, rng) == expected
                   for _ in range(20))

    def test_tie_breaks_to_lowest_index(self):
        model = small_plain(seed=4)
        for p in model.params:
            p[...] = 0.0
        sched = ExplorationSchedule(0.0, 0.0, 1)
        assert select_action(model, np.ones(6), sched, 0,
                             np.random.default_rng(0)) == 0

    def test_uniform_at_full_epsilon(self):
        model = small_plain(seed=4, dims=(6, (8, 8), 5))
        sched = ExplorationSchedule(1.0, 1.0, 1)
        rng = np.random.default_rng(123)
        draws = np.array([select_action(model, np.ones(6), sched, 0, rng)
                          for _ in range(100_000)])
        counts = np.bincount(draws, minlength=5)
        chi2 = ((counts - 20_000.0) ** 2 / 20_000.0).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=4)

    def test_deterministic_per_rng_seed(self):
        model = small_plain(seed=4)
        sched = ExplorationSchedule(0.7, 0.1, 50)
        a = [select_action(model, np.ones(6), sched, s,
                           np.random.default_rng(9)) for s in range(30)]
        b = [select_action(model, np.ones(6), sched, s,
                           np.random.default_rng(9)) for s in range(30)]
        assert a == b


def make_trainer(variant=Algorithm.DQN, seed=0, **cfg_kwargs):
    defaults = dict(batch_size=4, buffer_capacity=64, target_sync_period=5,
                    hidden_sizes=(8, 8))
    defaults.update(cfg_kwargs)
    return DqnTrainer(variant, 6, 4, TrainerConfig(**defaults), seed=seed)


class TestTrainer:
    def test_insufficient_buffer_raises(self):
        trainer = make_trainer()
        with pytest.raises(ValueError):
            trainer.train_step()

    def test_zero_td_error_leaves_weights(self):
        trainer = make_trainer(batch_size=2)
        obs = np.ones(6)
        # terminal transitions whose reward equals the current prediction,
        # evaluated through the same batched forward train_step uses
        q = trainer.online.forward(np.stack([obs, obs]))[0]
        trainer.push(obs, 0, float(q[0]), np.zeros(6), True)
        trainer.push(obs, 1, float(q[1]), np.zeros(6), True)
        before = trainer.online.flat.copy()
        loss = trainer.train_step()
        assert loss == 0.0
        assert np.array_equal(trainer.online.flat, before)

    def test_fixed_transition_td_error_shrinks(self):
        trainer = make_trainer(batch_size=1, learning_rate=5e-3)
        obs = np.ones(6)
        trainer.push(obs, 2, 0.7, np.zeros(6), True)
        for _ in range(600):
            trainer.train_step()
        assert abs(trainer.online.forward(obs)[2] - 0.7) < 1e-3

    def test_returns_pre_step_loss(self):
        trainer = make_trainer(batch_size=1, learning_rate=1e-2)
        obs = np.ones(6)
        trainer.push(obs, 1, 10.0, np.zeros(6), True)
        # the loss is float64 arithmetic on the network's float32 Q-value
        q_before = float(trainer.online.forward(obs)[1])
        loss = trainer.train_step()
        assert loss == pytest.approx((q_before - 10.0) ** 2, rel=1e-12)

    def test_target_sync_staleness(self):
        trainer = make_trainer(target_sync_period=5, batch_size=2)
        rng = np.random.default_rng(0)
        for i in range(8):
            trainer.push(rng.normal(size=6), i % 4, rng.normal(),
                         rng.normal(size=6), False)
        init = trainer.target.flat.copy()
        for step in range(1, 11):
            trainer.train_step()
            if step < 5:
                assert np.array_equal(trainer.target.flat, init)
            elif step == 5:
                synced = trainer.online.flat.copy()
                assert np.array_equal(trainer.target.flat, synced)
            elif step < 10:
                assert np.array_equal(trainer.target.flat, synced)

    def test_bit_exact_determinism(self):
        def run(seed):
            trainer = make_trainer(variant=Algorithm.DUEL_DQN, seed=seed,
                                   batch_size=4)
            rng = np.random.default_rng(77)
            actions = []
            for i in range(40):
                obs = rng.normal(size=6)
                actions.append(trainer.select_action(obs))
                trainer.push(obs, actions[-1], rng.normal(),
                             rng.normal(size=6), i % 5 == 0)
                if len(trainer.buffer) >= 4:
                    trainer.train_step()
            return actions, trainer.online.flat.copy()

        actions_a, weights_a = run(31)
        actions_b, weights_b = run(31)
        actions_c, weights_c = run(32)
        assert actions_a == actions_b
        assert np.array_equal(weights_a, weights_b)
        assert not np.array_equal(weights_a, weights_c)


class TestFlatLayout:
    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    def test_params_are_views_into_flat(self, make):
        model = make(seed=4)
        assert all(np.shares_memory(p, model.flat) for p in model.params)
        assert sum(p.size for p in model.params) == model.flat.size
        assert np.array_equal(model.flat,
                              np.concatenate([p.ravel() for p in model.params]))

    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    def test_target_sync_copies_into_own_flat(self, make):
        online, target = make(seed=1), make(seed=2)
        target.load_params_from(online)
        assert np.array_equal(target.flat, online.flat)
        assert all(np.shares_memory(p, target.flat) for p in target.params)
        assert not np.shares_memory(target.flat, online.flat)
        synced = [p.copy() for p in target.params]
        online.flat += 1.0
        assert all(np.array_equal(p, q) for p, q in zip(target.params, synced))

    def test_clip_below_bound_is_identity(self):
        grad = np.array([3.0, 4.0])
        assert clip_gradients(grad, 5.0) is grad
        assert clip_gradients(grad, 10.0) is grad

    def test_clip_above_bound_rescales_to_bound(self):
        grad = np.array([3.0, 4.0, 0.0])
        clipped = clip_gradients(grad, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        assert np.allclose(clipped, [0.6, 0.8, 0.0])
        assert np.array_equal(grad, [3.0, 4.0, 0.0])

    def test_clip_zero_gradient_is_unchanged(self):
        grad = np.zeros(4)
        assert np.array_equal(clip_gradients(grad, 1.0), np.zeros(4))

    @pytest.mark.parametrize("grad", [
        np.array([1.0, np.nan, 2.0]),
        np.array([1e200, 1e200]),                  # norm overflows float64
        np.full(4, 1e19, dtype=np.float32),        # norm overflows float32
    ], ids=["nan", "overflow64", "overflow32"])
    def test_clip_non_finite_norm_raises(self, grad):
        with pytest.raises(FloatingPointError):
            clip_gradients(grad, 10.0)

    def test_clip_float32_keeps_dtype(self):
        grad = np.array([3.0, 4.0], dtype=np.float32)
        clipped = clip_gradients(grad, 1.0)
        assert clipped.dtype == np.float32
        assert np.array_equal(clipped, grad * np.float32(0.2))


def peak_extra_bytes(fn) -> int:
    """Peak memory traced while `fn` runs, above what was live before it;
    one untraced call first so lazy set-up is not counted."""
    fn()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


class TestAdam:
    @staticmethod
    def reference_step(params, grads, m_list, v_list, t, lr,
                       beta1=0.9, beta2=0.999, eps=1e-8):
        """The textbook update written with allocating expressions."""
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        for p, g, m, v in zip(params, grads, m_list, v_list):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

    def test_in_place_step_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(11)
        params = [rng.normal(size=(7, 5)), rng.normal(size=5)]
        ref = [p.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in params]
        ref_v = [np.zeros_like(p) for p in params]
        opt = AdamOptimizer(params, 3e-3)
        for t in range(1, 7):
            grads = [rng.normal(scale=10.0 ** (t - 3), size=p.shape)
                     for p in params]
            opt.step(params, grads)
            self.reference_step(ref, grads, ref_m, ref_v, t, 3e-3)
            for got, want in ((params, ref), (opt.m, ref_m), (opt.v, ref_v)):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_full_scale_step_and_backward_allocate_little(self):
        # 462 -> 128 -> 128 is a full-scale eURLLC network over the 8 of 21
        # stations a full-scale scenario's users typically reach. Backward's
        # own temporaries are batch x hidden arrays, about 135 KB whatever
        # the input width, so its bound is half the parameters' bytes: it
        # still fails on one parameter-sized vector
        rng = np.random.default_rng(3)
        model = DuelingQNetwork(462, (128, 128), 140, rng)
        assert model.flat.dtype == np.float32
        cache: list = []
        model.forward(rng.normal(size=(64, 462)), cache)
        dq = rng.normal(size=(64, 140)).astype(np.float32)
        grad = model.backward(cache, dq).copy()
        opt = AdamOptimizer([model.flat], 1e-3)
        size = model.flat.nbytes
        assert peak_extra_bytes(lambda: opt.step([model.flat], [grad])) < size / 4
        assert peak_extra_bytes(lambda: model.backward(cache, dq)) < size / 2

    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    def test_backward_fills_own_gradient_buffer(self, make):
        model = make(seed=5)
        cache: list = []
        model.forward(np.random.default_rng(0).normal(size=(3, 6)), cache)
        grad = model.backward(cache, np.ones((3, 4)))
        assert grad is model.grad
        clone = model.clone()
        assert not np.shares_memory(clone.grad, model.grad)
        first = grad.copy()
        clone.backward(cache, 2.0 * np.ones((3, 4)))
        assert np.array_equal(model.grad, first)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: +0 and -0 differ, NaNs may match."""
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def reference_backward(model, cache: list, dq: np.ndarray) -> np.ndarray:
    """Dense gradient laid out like `flat`: the head through the model's
    own `_head_backward`, each trunk layer's weights as the allocating full
    product h_in.T @ grad over its whole input."""
    out = np.empty_like(model.flat)
    views = model._views(out)
    grad = model._head_backward(cache[-1], dq, views)
    for layer in reversed(range(len(model.hidden_sizes))):
        h_in, z = cache[layer]
        grad = grad * (z > 0.0)
        views[2 * layer][...] = h_in.T @ grad
        views[2 * layer + 1][...] = grad.sum(axis=0)
        grad = grad @ model.params[2 * layer].T
    return out


def dense_forward(model, x: np.ndarray, cache: list | None = None):
    """The forward pass with every layer the full product over its input;
    fills `cache` the way `forward` does."""
    h = x.astype(model.flat.dtype)
    for layer in range(len(model.hidden_sizes)):
        z = h @ model.params[2 * layer] + model.params[2 * layer + 1]
        if cache is not None:
            cache.append((h, z))
        h = np.maximum(z, 0.0)
    if cache is not None:
        cache.append(h)
    return model._head(h)


class TestCompactedFirstLayer:
    """Observations are sparse: most input features of a batch are zero.
    Nothing is compacted: the first layer's forward, gradient and Adam step
    run over every input, and must match the dense textbook expressions bit
    for bit. Rows of features that were never non-zero keep their initial
    weights and zero moments."""

    D, BATCH, ACTIONS, LR = 30, 5, 4, 1e-2
    HIDDEN = {"plain": (8, 6), "dueling": (8, 6), "linear": ()}

    def batch(self, rng, live: int, rows: int = BATCH):
        """A batch whose `live` random columns are non-zero in every row,
        and those columns in ascending order."""
        cols = np.sort(rng.choice(self.D, size=live, replace=False))
        x = np.zeros((rows, self.D))
        x[:, cols] = rng.normal(size=(rows, live))
        return x, cols

    @settings(deadline=None)
    @given(kind=st.sampled_from(["plain", "dueling", "linear"]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 10_000),
           live_counts=st.lists(st.integers(0, 18), min_size=1, max_size=8))
    # 0, 1 and 2 live columns; runs whose union passes half the inputs
    @example(kind="dueling", dtype=np.float32, seed=0,
             live_counts=[0, 1, 2, 2, 3])
    @example(kind="plain", dtype=np.float64, seed=1,
             live_counts=[2, 1, 0, 16, 1])
    @example(kind="plain", dtype=np.float32, seed=3, live_counts=[15, 0, 16])
    @example(kind="linear", dtype=np.float32, seed=2, live_counts=[1, 2, 16])
    def test_steps_match_dense_reference_bit_for_bit(self, kind, dtype, seed,
                                                     live_counts):
        rng = np.random.default_rng(seed)
        d, batch, actions = self.D, self.BATCH, self.ACTIONS
        model = build_network("dueling" if kind == "dueling" else "plain", d,
                              self.HIDDEN[kind], actions, rng, dtype)
        ref = model.clone()
        first = model.params[0].copy()
        opt = AdamOptimizer([model.flat], self.LR)
        ref_m, ref_v = [np.zeros_like(ref.flat)], [np.zeros_like(ref.flat)]
        ever_live = np.zeros(d, dtype=bool)
        for t, count in enumerate(live_counts, start=1):
            x = np.zeros((batch, d))
            cols = rng.choice(d, size=count, replace=False)
            # sparse rows too; the first row keeps every chosen column live
            x[:, cols] = rng.normal(size=(batch, count)) * (
                rng.random((batch, count)) < 0.6)
            x[0, cols] = rng.normal(size=count)
            ever_live[cols] = True
            acts = rng.integers(actions, size=batch)
            targets = rng.normal(size=batch)
            losses, grads = [], []
            for net in (model, ref):
                cache: list = []
                q = (net.forward(x, cache) if net is model
                     else dense_forward(ref, x, cache))
                td_err = q[np.arange(batch), acts] - targets
                losses.append(float(np.mean(td_err ** 2)))
                dq = np.zeros_like(q)
                dq[np.arange(batch), acts] = 2.0 * td_err / batch
                grads.append(clip_gradients(
                    model.backward(cache, dq) if net is model
                    else reference_backward(ref, cache, dq), 1.0))
            assert losses[0] == losses[1]
            eps = np.finfo(dtype).eps
            np.testing.assert_allclose(*grads, rtol=100 * eps, atol=100 * eps)
            opt.step([model.flat], [grads[0]])
            TestAdam.reference_step([ref.flat], [grads[0]], ref_m, ref_v, t,
                                    self.LR)
            assert same_bits(model.flat, ref.flat)
            assert same_bits(opt.m[0], ref_m[0])
            assert same_bits(opt.v[0], ref_v[0])
        dead = ~ever_live
        assert same_bits(model.params[0][dead], first[dead])
        for moment in (opt.m[0], opt.v[0]):
            assert not model._views(moment)[0][dead].any()

    def test_network_optimizer_takes_only_its_flat_vector(self):
        # one moment pair the size of the online network's `flat`, stepped
        # with that vector itself, not a copy
        cfg = TrainerConfig(batch_size=4, buffer_capacity=16,
                            hidden_sizes=(8, 8))
        trainer = DqnTrainer(Algorithm.DUEL_DQN, self.D, self.ACTIONS, cfg)
        opt = trainer.optimizer
        assert len(opt.m) == len(opt.v) == 1
        for moment in (opt.m[0], opt.v[0]):
            assert moment.shape == trainer.online.flat.shape
            assert moment.dtype == trainer.online.flat.dtype
        rng = np.random.default_rng(2)
        for _ in range(4):
            obs, next_obs = np.zeros((2, self.D))
            obs[3], next_obs[5] = rng.normal(size=2)
            trainer.push(obs, 1, 1.0, next_obs, False)
        before = trainer.online.flat
        snapshot = before.copy()
        trainer.train_step()
        assert trainer.online.flat is before
        assert not np.array_equal(before, snapshot)

    @pytest.mark.parametrize("variant", list(Algorithm))
    def test_trainer_matches_dense_trainer(self, variant):
        # the dense trainer's networks run the textbook full products
        cfg = TrainerConfig(batch_size=4, buffer_capacity=64,
                            target_sync_period=5, hidden_sizes=(8, 8))
        sparse, dense = (DqnTrainer(variant, 30, 4, cfg, seed=9)
                         for _ in range(2))
        for net in (dense.online, dense.target):
            net.forward = lambda x, cache=None, net=net: dense_forward(
                net, x, cache)
        dense.online.backward = lambda cache, dq: reference_backward(
            dense.online, cache, dq)
        rng = np.random.default_rng(5)
        for i in range(40):
            obs, next_obs = np.zeros((2, 30))
            obs[i % 7], next_obs[(i + 1) % 7] = rng.normal(size=2)
            transition = (obs, int(rng.integers(4)), rng.normal(), next_obs,
                          i % 5 == 4)
            for trainer in (sparse, dense):
                trainer.push(*transition)
            if i >= 4:
                assert sparse.train_step() == dense.train_step()
        assert sparse.train_count == 36 and sparse.train_count % 5 == 1
        assert same_bits(sparse.online.flat, dense.online.flat)
        assert same_bits(sparse.target.flat, dense.target.flat)

    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    @pytest.mark.parametrize("live", [11, 20, 30])
    def test_denser_batches_take_the_full_product(self, make, live):
        # after a dense batch, sparse and dense ones alike take the full
        # product, and the cache holds the whole input
        model = make(seed=4, dims=(self.D, (8, 6), self.ACTIONS))
        rng = np.random.default_rng(live)
        x, _ = self.batch(rng, live)
        model.forward(x)
        model.forward(self.batch(rng, 16)[0])
        for x in (x, self.batch(rng, 1)[0]):
            cache: list = []
            assert same_bits(model.forward(x, cache), dense_forward(model, x))
            assert same_bits(cache[0][0], x.astype(model.flat.dtype))

    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    @pytest.mark.parametrize("live", [0, 1, 2, 10, 30])
    def test_single_rows_take_the_full_product(self, make, live):
        # action selection and greedy rollouts
        model = make(seed=5, dims=(self.D, (8, 6), self.ACTIONS))
        x, _ = self.batch(np.random.default_rng(live), live, rows=1)
        want = dense_forward(model, x)[0]
        assert same_bits(model.forward(x[0]), want)
        assert same_bits(model.forward(x)[0], want)

    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    @pytest.mark.parametrize("live", [0, 1, 2, 5, 10])
    def test_gradient_matches_finite_differences(self, make, live):
        model = make(seed=30 + live, dims=(self.D, (8, 6), self.ACTIONS),
                     dtype=np.float64)
        rng = np.random.default_rng(live)
        # non-zero biases: with no live column, zero ones would put every
        # first-layer unit on the ReLU's kink
        for b in model.params[1::2]:
            b[...] = rng.normal(scale=0.5, size=b.shape)
        x, cols = self.batch(rng, live)
        cache: list = []
        model.forward(x, cache)
        assert np.array_equal(np.flatnonzero(cache[0][0].any(axis=0)), cols)
        assert finite_difference_check(model, seed=live, batch=x) < 1e-4

    @pytest.mark.parametrize("make", [small_plain, small_dueling])
    def test_other_rows_are_positive_zero(self, make):
        # the first layer's gradient rows of features that are zero in the
        # whole batch, so Adam leaves those weights exactly as they were
        model = make(seed=6, dims=(self.D, (8, 6), self.ACTIONS))
        rng = np.random.default_rng(6)
        for live in (0, 1, 3, 5, 2, 1):
            x, cols = self.batch(rng, live)
            dead = np.ones(self.D, dtype=bool)
            dead[cols] = False
            cache: list = []
            q = model.forward(x, cache)
            first = model._views(model.backward(
                cache, rng.normal(size=q.shape).astype(np.float32)))[0]
            assert same_bits(first[dead], np.zeros_like(first[dead]))
            assert np.isfinite(first).all()


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        for dtype in (np.float32, np.float64):
            model = small_dueling(seed=13, dtype=dtype)
            path = tmp_path / "model.json"
            save_checkpoint(model, path, {"note": "test"})
            back = load_checkpoint(path)
            assert type(back) is type(model)
            assert back.flat.dtype == dtype
            assert np.array_equal(back.flat, model.flat)

    # float32 bit patterns: +-0, the smallest and largest subnormals, +-max
    SPECIAL_FLOAT32 = [0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,
                       0x7F7FFFFF, 0xFF7FFFFF]

    @given(st.lists(st.integers(0, 2**32 - 1).filter(
        lambda bits: (bits >> 23) & 0xFF != 0xFF),  # inf and NaN excluded
        min_size=12, max_size=12))
    @example(SPECIAL_FLOAT32 * 2)
    def test_float32_round_trip_bit_exact_in_shortest_repr(self, patterns):
        model = QNetwork(2, (), 4, np.random.default_rng(0))  # 12 weights
        model.flat.view(np.uint32)[...] = patterns
        text = json.dumps(checkpoint_dict(model))
        back = model_from_checkpoint(json.loads(text))
        assert back.flat.dtype == np.float32
        assert np.array_equal(back.flat.view(np.uint32),
                              model.flat.view(np.uint32))
        # the shortest float32 repr has at most 9 significant digits, so at
        # most 19 characters; written as float64 a weight takes up to 17 digits
        for entry in json.loads(text)["arrays"]:
            for value in entry["data"]:
                mantissa = repr(value).split("e")[0].lstrip("-")
                assert len(mantissa.replace(".", "").strip("0")) <= 9
                assert len(json.dumps(value)) <= 19

    def test_version_1_loads_as_float64(self):
        model = small_plain(seed=3, dtype=np.float64)
        data = checkpoint_dict(model)
        data["format_version"] = 1
        del data["dtype"]
        back = model_from_checkpoint(data)
        assert back.flat.dtype == np.float64
        assert np.array_equal(back.flat, model.flat)

    @pytest.mark.parametrize("dtype", ["float16", "int64", None, ["float32"]])
    def test_unknown_dtype_rejected(self, dtype):
        data = checkpoint_dict(small_plain(seed=1))
        data["dtype"] = dtype
        with pytest.raises(CheckpointError, match="dtype"):
            model_from_checkpoint(data)

    def test_weight_beyond_float32_range_rejected(self):
        data = checkpoint_dict(small_plain(seed=1))
        data["arrays"][0]["data"][0] = 1e300
        with pytest.raises(CheckpointError, match="non-finite"):
            model_from_checkpoint(data)

    def test_dimension_mismatch_rejected(self):
        data = checkpoint_dict(small_plain(seed=1))
        data["arrays"][0]["shape"] = [7, 8]
        with pytest.raises(CheckpointError):
            model_from_checkpoint(data)

    @pytest.mark.parametrize("key", ["arrays", "kind", "shape", "data",
                                     "dtype"])
    def test_missing_key_rejected(self, key):
        data = checkpoint_dict(small_plain(seed=1))
        del (data if key in data else data["arrays"][0])[key]
        with pytest.raises(CheckpointError, match=key):
            model_from_checkpoint(data)

    @pytest.mark.parametrize("change", [
        lambda data: [],
        lambda data: {**data, "arrays": 5},
        lambda data: {**data, "arrays": ["w0", "b0"]},
        lambda data: {**data, "input_dim": "3"},
        lambda data: {**data, "input_dim": True},
        lambda data: {**data, "action_count": True},
        lambda data: {**data, "hidden_sizes": "4"},
        lambda data: {**data, "hidden_sizes": [4.5]},
        lambda data: {**data, "hidden_sizes": [0, 64]},
        lambda data: {**data, "kind": ["plain"]},
        lambda data: {**data, "kind": "dueling", "hidden_sizes": []},
        lambda data: {**data, "format_version": True},
        lambda data: {**data, "arrays": [{**data["arrays"][0], "shape": 5},
                                         *data["arrays"][1:]]},
        lambda data: {**data, "arrays": [{**data["arrays"][0], "data": {}},
                                         *data["arrays"][1:]]},
        lambda data: {**data, "arrays": [{**data["arrays"][0], "data": [1.0]},
                                         *data["arrays"][1:]]},
        # sizes numpy refuses to allocate: the arrays are checked first
        lambda data: {**data, "input_dim": 10**15},
        lambda data: {**data, "hidden_sizes": [10**15]},
    ], ids=["top_level_list", "arrays_int", "arrays_of_strings",
            "input_dim_string", "input_dim_bool", "action_count_bool",
            "hidden_sizes_string", "hidden_size_float", "hidden_size_zero",
            "kind_list", "dueling_without_hidden", "format_version_bool",
            "shape_int", "data_object", "data_too_short", "input_dim_huge",
            "hidden_size_huge"])
    def test_malformed_header_rejected(self, change):
        with pytest.raises(CheckpointError):
            model_from_checkpoint(change(checkpoint_dict(small_plain(seed=1))))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        data = checkpoint_dict(small_dueling(seed=1))
        data["arrays"][-2]["data"][3] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self):
        data = checkpoint_dict(small_plain(seed=1))
        data["format_version"] = 42
        with pytest.raises(CheckpointError):
            model_from_checkpoint(data)

    def test_config_echo_preserved(self, tmp_path):
        model = small_plain(seed=2)
        path = tmp_path / "m.json"
        save_checkpoint(model, path, {"algorithm": "dqn"})
        import json
        assert json.loads(path.read_text())["config"]["algorithm"] == "dqn"


class TestAlgorithmParsing:
    def test_canonical_names_only(self):
        for algorithm in Algorithm:
            assert Algorithm.parse(algorithm.value) is algorithm
        for name in ("a2c", "DuelDQN", "double-dqn", "ddqn", "dueling",
                     " dqn"):
            with pytest.raises(ValueError):
                Algorithm.parse(name)

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(discount=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            ExplorationSchedule(epsilon_start=0.1, epsilon_end=0.5)

    @pytest.mark.parametrize("field, value", [
        *[("learning_rate", v) for v in (float("nan"), float("inf"),
                                         -float("inf"))],
        *[("grad_clip", v) for v in (float("nan"), float("inf"),
                                     -float("inf"))],
        *[(name, v) for name in ("batch_size", "target_sync_period",
                                 "buffer_capacity") for v in (True, 64.5)],
        ("hidden_sizes", (0,)), ("hidden_sizes", (-3, 64)),
        ("hidden_sizes", (True, 8)), ("hidden_sizes", (8.5,)),
    ])
    def test_trainer_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            TrainerConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, 0, -1, float("nan")])
    def test_schedule_rejects_bad_decay_steps(self, value):
        with pytest.raises(ValueError, match="decay_steps"):
            ExplorationSchedule(decay_steps=value)
