import collections
import dataclasses
import os
import sys
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from helpers import (
    blas_env,
    entropy_rows,
    fd_wrt,
    make_blobs,
    max_rel_err,
    mlp_arrays,
    population_bn_stats,
    reference_fit_member,
    traced_peak,
)
from textuq import ensemble as ensemble_mod
from textuq.ensemble import (
    SCALE_BLOCK_ROWS,
    EnsembleConfig,
    EnsembleModel,
    MlpParams,
    _ce_loss_and_dlogits,
    _forward_cached,
    _input_backward,
    _worker_count,
    ensemble_predict,
    feature_scale_of,
    fit_ensemble,
    fit_member,
    init_mlp,
    loss_and_grads,
    mlp_forward,
    softmax,
    usable_cpus,
)
from textuq.errors import BatchTooSmall, DimensionMismatch, InvalidConfig, NonFiniteLoss


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Every thread a test starts, through fit_ensemble or itself, is joined
    before the test ends."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"


def zero_params(dim=2, hidden=4):
    p = init_mlp(dim, np.random.default_rng(0), hidden=hidden)
    for w in p.weights:
        w[:] = 0.0
    return p


def identity_params():
    """2-unit blocks that pass coordinates straight through."""
    eye = np.eye(2)
    return MlpParams(
        weights=[eye.copy() for _ in range(4)],
        biases=[np.zeros(2) for _ in range(4)],
        bn_scale=[np.ones(2) for _ in range(3)],
        bn_shift=[np.zeros(2) for _ in range(3)],
        bn_running_mean=[np.zeros(2) for _ in range(3)],
        bn_running_var=[np.ones(2) for _ in range(3)],
    )


def randomized_params(seed, dim=4, hidden=8):
    rng = np.random.default_rng(seed)
    p = init_mlp(dim, rng, hidden=hidden)
    for b in p.biases:
        b += 0.1 * rng.normal(size=b.shape)
    for i in range(3):
        p.bn_scale[i] += 0.1 * rng.normal(size=hidden)
        p.bn_shift[i] += 0.1 * rng.normal(size=hidden)
        p.bn_running_mean[i] = 0.3 * rng.normal(size=hidden)
        p.bn_running_var[i] = rng.uniform(0.5, 2.0, size=hidden)
    return p, rng


class TestConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EnsembleConfig(members=0).validate()
        with pytest.raises(ValueError):
            EnsembleConfig(batch_size=1).validate()
        with pytest.raises(ValueError):
            EnsembleConfig(fgsm_epsilon=-0.01).validate()
        with pytest.raises(ValueError):
            EnsembleConfig(hidden_units=0).validate()
        with pytest.raises(ValueError):
            EnsembleConfig(epochs=-1).validate()
        with pytest.raises(ValueError):
            EnsembleConfig(learning_rate=-1.0).validate()
        with pytest.raises(InvalidConfig, match="seed must be an integer >= 0"):
            EnsembleConfig(seed=-1).validate()

    @pytest.mark.parametrize("name", ["learning_rate", "fgsm_epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_validate_rejects_non_finite_values(self, name, value):
        with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
            EnsembleConfig(**{name: value}).validate()

    def test_validate_accepts_boundary_values(self):
        EnsembleConfig(hidden_units=1, epochs=0, learning_rate=0.0).validate()


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        p = zero_params()
        logits = mlp_forward(p, np.random.default_rng(1).normal(size=(4, 2)), "eval")
        assert np.all(logits == 0.0)
        probs = softmax(logits)
        assert np.all(probs == 1.0 / 3.0)

    def test_hand_computed_pass_through(self):
        # three BN blocks each shrink by 1/sqrt(1 + 1e-5); ReLU kills the
        # negative coordinate at the first block
        p = identity_params()
        logits = mlp_forward(p, np.array([[3.0, -2.0]]), "eval")
        assert logits[0, 0] == pytest.approx(3.0 / (1.0 + 1e-5) ** 1.5, rel=1e-15)
        assert logits[0, 0] == pytest.approx(2.999955000562493, rel=1e-12)
        assert logits[0, 1] == 0.0

    def test_eval_rows_ignore_batch_composition(self):
        p, rng = randomized_params(2)
        x = rng.normal(size=4)
        other_a, other_b = rng.normal(size=(2, 4))
        row_a = mlp_forward(p, np.stack([x, other_a]), "eval")[0]
        row_b = mlp_forward(p, np.stack([x, other_b]), "eval")[0]
        assert np.array_equal(row_a, row_b)
        alone = mlp_forward(p, x[None, :], "eval")[0]
        assert np.allclose(alone, row_a, rtol=0, atol=1e-12)

    def test_train_mode_requires_two_examples(self):
        p, rng = randomized_params(3)
        with pytest.raises(BatchTooSmall):
            mlp_forward(p, rng.normal(size=(1, 4)), "train")
        with pytest.raises(BatchTooSmall):
            loss_and_grads(p, rng.normal(size=(1, 4)), np.array([0]), "train")

    def test_rejects_unknown_mode_and_bad_width(self):
        p, rng = randomized_params(4)
        with pytest.raises(ValueError):
            mlp_forward(p, rng.normal(size=(2, 4)), "predict")
        with pytest.raises(DimensionMismatch):
            mlp_forward(p, rng.normal(size=(2, 5)), "eval")


class TestGradients:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_parameter_gradients_match_finite_differences(self, mode):
        p, rng = randomized_params(5)
        xs = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)

        def objective():
            return loss_and_grads(p, xs, labels, mode)[0]

        _, grads, _ = loss_and_grads(p, xs, labels, mode)
        for name, arr in p.trainable().items():
            fd = fd_wrt(arr, objective)
            assert max_rel_err(grads[name], fd) <= 1e-3, name

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_input_gradient_matches_finite_differences(self, mode):
        p, rng = randomized_params(6)
        xs = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)

        def objective():
            return loss_and_grads(p, xs, labels, mode)[0]

        _, _, dx = loss_and_grads(p, xs, labels, mode)
        fd = fd_wrt(xs, objective)
        assert max_rel_err(dx, fd) <= 1e-3


class TestInputBackward:
    def test_frozen_cache_matches_loss_and_grads_eval(self):
        p, rng = randomized_params(40)
        xs = rng.normal(size=(7, 4))
        labels = rng.integers(0, 3, size=7)
        stats = list(zip(p.bn_running_mean, p.bn_running_var))
        logits, acts = _forward_cached(p, xs, stats)
        dx = _input_backward(p, acts, _ce_loss_and_dlogits(logits, labels)[1])
        assert np.array_equal(dx, loss_and_grads(p, xs, labels, "eval")[2])

    def test_batch_cache_matches_a_pass_with_its_statistics_frozen(self):
        # training takes the FGSM gradient from the clean (batch-statistics)
        # pass; it must equal a separate pass with those statistics frozen
        p, rng = randomized_params(41)
        xs = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        logits, acts = _forward_cached(p, xs, None)
        dx = _input_backward(p, acts, _ce_loss_and_dlogits(logits, labels)[1])
        frozen = list(zip(acts.mu, acts.var))
        logits_f, acts_f = _forward_cached(p, xs, frozen)
        assert np.array_equal(logits_f, logits)
        dx_f = _input_backward(p, acts_f, _ce_loss_and_dlogits(logits_f, labels)[1])
        assert np.array_equal(dx, dx_f)


class TestInputGradientOut:
    def test_writes_into_out_with_the_bits_of_the_allocating_call(self):
        p, rng = randomized_params(42)
        xs = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        logits, acts = _forward_cached(p, xs, None)
        dlogits = _ce_loss_and_dlogits(logits, labels)[1]
        allocated = _input_backward(p, acts, dlogits)
        buf = np.full((6, 4), np.nan)
        assert _input_backward(p, acts, dlogits, out=buf) is buf
        assert np.array_equal(buf, allocated)

    def test_loss_and_grads_returns_a_dx_of_its_own(self):
        p, rng = randomized_params(43)
        labels = rng.integers(0, 3, size=5)
        dx = loss_and_grads(p, rng.normal(size=(5, 4)), labels, "train")[2]
        kept = dx.copy()
        loss_and_grads(p, rng.normal(size=(5, 4)), labels, "train")
        assert np.array_equal(dx, kept)


class TestFgsm:
    def test_ascends_the_loss_for_small_epsilon(self):
        # the FGSM step x + eps * sign(dCE/dx) that fit_member takes
        failures = 0
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            p = init_mlp(6, rng, hidden=8)
            x = rng.normal(size=(1, 6))
            y = np.array([int(rng.integers(0, 3))])
            before, _, dx = loss_and_grads(p, x, y, "eval")
            after = loss_and_grads(p, x + 1e-3 * np.sign(dx), y, "eval")[0]
            if after < before:
                failures += 1
        assert failures <= 1  # curvature can win on rare instances


class TestFeatureScale:
    def test_matches_column_std_with_floor(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(100, 3)) * np.array([2.0, 0.5, 1.0])
        feats[:, 2] = 7.0  # constant column hits the floor
        scale = feature_scale_of(feats)
        assert np.allclose(scale[:2], feats[:, :2].std(axis=0))
        assert scale[2] == 1e-8

    @pytest.mark.parametrize("n", [1, SCALE_BLOCK_ROWS - 1, SCALE_BLOCK_ROWS,
                                   SCALE_BLOCK_ROWS + 1, 8000])
    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_has_the_bits_of_the_floored_column_std(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        feats = 0.006 * rng.normal(size=(n, d)) + rng.normal(size=d)
        constant = feats.copy()
        constant[:, 0] = 0.3  # hits the floor
        for x in (feats, constant, np.asfortranarray(feats), feats[:, ::-1]):
            assert np.array_equal(feature_scale_of(x), np.maximum(np.std(x, axis=0), 1e-8))

    def test_peak_is_a_few_blocks_not_the_features(self):
        x = np.random.default_rng(12).normal(size=(8000, 200))
        scale, peak = traced_peak(feature_scale_of, x)
        assert np.array_equal(scale, np.maximum(np.std(x, axis=0), 1e-8))
        block = SCALE_BLOCK_ROWS * x.shape[1] * x.itemsize
        assert peak <= 2 * block < x.nbytes / 10


class TestFitMember:
    def small_cfg(self, **kw):
        base = dict(hidden_units=8, epochs=2, batch_size=4, seed=0)
        base.update(kw)
        return EnsembleConfig(**base)

    def data(self, seed, n=10, d=3):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.integers(0, 3, size=n)

    def test_zero_learning_rate_keeps_weights_but_updates_stats(self):
        feats, labels = self.data(11)
        cfg = self.small_cfg(learning_rate=0.0)
        fitted, _ = fit_member(feats, labels, cfg, seed=5)
        fresh = init_mlp(3, np.random.default_rng(5), hidden=8)
        for name, arr in fitted.trainable().items():
            assert np.array_equal(arr, fresh.trainable()[name]), name
        assert not np.array_equal(fitted.bn_running_mean[0], fresh.bn_running_mean[0])
        assert not np.array_equal(fitted.bn_running_var[0], fresh.bn_running_var[0])

    def test_same_seed_is_bit_identical(self):
        feats, labels = self.data(12)
        cfg = self.small_cfg()
        a, trace_a = fit_member(feats, labels, cfg, seed=3)
        b, trace_b = fit_member(feats, labels, cfg, seed=3)
        for name, arr in a.trainable().items():
            assert np.array_equal(arr, b.trainable()[name])
        for i in range(3):
            assert np.array_equal(a.bn_running_mean[i], b.bn_running_mean[i])
            assert np.array_equal(a.bn_running_var[i], b.bn_running_var[i])
        assert trace_a == trace_b

    def test_trace_skips_single_example_remainder(self):
        feats, labels = self.data(13, n=5)
        cfg = self.small_cfg(batch_size=2)  # 2 + 2 + 1, remainder dropped
        _, trace = fit_member(feats, labels, cfg, seed=0)
        assert len(trace) == 2 * 2
        assert all(type(t) is float for t in trace)  # a row's step is its position

    def test_non_finite_loss_reports_the_step(self):
        feats, labels = self.data(14)
        feats = feats.copy()
        feats[0, 0] = np.nan
        cfg = self.small_cfg(batch_size=10)
        with pytest.raises(NonFiniteLoss) as excinfo:
            fit_member(feats, labels, cfg, seed=0)
        assert excinfo.value.step == 0

    def test_peak_is_parameters_moments_and_one_scratch_set(self):
        rng = np.random.default_rng(16)
        n, d, b = 8000, 200, 500
        feats, labels = rng.normal(size=(n, d)), rng.integers(0, 3, size=n)
        cfg = EnsembleConfig(members=1, epochs=1, batch_size=b)
        (member, _), peak = traced_peak(fit_member, feats, labels, cfg, 0)
        h, c = cfg.hidden_units, member.num_classes
        # the parameters, Adam's two moments and the clean and adversarial gradients
        params = 5 * sum(arr.nbytes for arr in member.trainable().values())
        # _Activations: z - mean and block output per block, the logits and
        # three backward buffers; then the batch and its adversarial copy
        scratch = 3 * b * h * (8 + 8) + b * c * 8 + 3 * b * h * 8 + 2 * b * d * 8
        # slack for the permutation and per-step vectors, under one batch buffer
        assert peak < params + scratch + 0.5e6

    def test_stored_variance_is_the_population_variance(self):
        # features with a standard deviation near 0.006, as mean-pooled unit
        # token vectors of dimension 200 give
        rng = np.random.default_rng(17)
        feats = rng.normal(scale=0.006, size=(2000, 20))
        labels = rng.integers(0, 3, size=2000)
        cfg = EnsembleConfig(members=1, hidden_units=32, epochs=2, batch_size=100)
        member, _ = fit_member(feats, labels, cfg, seed=0)
        for i, (_, var) in enumerate(population_bn_stats(member, feats)):
            err = np.linalg.norm(member.bn_running_var[i] - var) / np.linalg.norm(var)
            assert err <= 0.05, f"block {i}: relative error {err:.3g}"

    def test_one_step_stores_its_batch_statistics_bit_for_bit(self):
        rng = np.random.default_rng(21)
        feats, labels = rng.normal(scale=0.006, size=(40, 6)), rng.integers(0, 3, size=40)
        cfg = EnsembleConfig(members=1, hidden_units=8, epochs=1, batch_size=40)
        member, trace = fit_member(feats, labels, cfg, seed=3)
        assert len(trace) == 1
        # the one batch: the member's first permutation of the rows, through
        # its initial weights
        gen = np.random.default_rng(3)
        initial = init_mlp(6, gen, hidden=8)
        _, acts = _forward_cached(initial, feats[gen.permutation(40)], None)
        for i in range(3):
            assert member.bn_running_mean[i].tobytes() == acts.mu[i].tobytes(), i
            assert member.bn_running_var[i].tobytes() == acts.var[i].tobytes(), i

    def test_learns_separable_blobs(self):
        rng = np.random.default_rng(15)
        feats, labels = make_blobs(rng)
        cfg = EnsembleConfig(members=1, hidden_units=16, epochs=10, batch_size=128)
        member, trace = fit_member(feats, labels, cfg, seed=0)
        preds = np.argmax(mlp_forward(member, feats, "eval"), axis=1)
        assert np.mean(preds == labels) >= 0.95
        assert len(trace) == 10 * 12  # ceil(1500 / 128) batches per epoch


class TestMatchesReferenceStep:
    """fit_member and fit_ensemble against a copy of the original three-pass
    training step (tests/helpers.py), bit for bit."""

    cfg = EnsembleConfig(members=2, hidden_units=8, epochs=3, batch_size=7,
                         fgsm_epsilon=0.05, seed=4)

    def data(self):
        rng = np.random.default_rng(50)
        # 23 rows in batches of 7: the last batch is a 2-row remainder
        return rng.normal(size=(23, 5)), rng.integers(0, 3, size=23)

    def assert_same(self, member, trace, ref, ref_objectives):
        got, want = mlp_arrays(member), mlp_arrays(ref)
        assert set(got) == set(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        assert trace == ref_objectives

    def test_fit_member(self):
        feats, labels = self.data()
        scale = feature_scale_of(feats)
        member, trace = fit_member(feats, labels, self.cfg, seed=9)
        assert len(trace) == 3 * 4
        self.assert_same(member, trace, *reference_fit_member(feats, labels, self.cfg, 9, scale))

    def test_fit_ensemble(self):
        feats, labels = self.data()
        scale = feature_scale_of(feats)
        model, traces = fit_ensemble(feats, labels, self.cfg)
        assert len(model.members) == 2
        for i, (member, trace) in enumerate(zip(model.members, traces)):
            ref = reference_fit_member(feats, labels, self.cfg, self.cfg.seed + i, scale)
            self.assert_same(member, trace, *ref)

    @pytest.mark.parametrize("thread", ["main", "executor"])
    def test_a_direct_call_starts_no_thread(self, monkeypatch, thread):
        # without workers every epoch runs in the calling thread, whichever it is
        feats, labels = self.data()
        scale = feature_scale_of(feats)

        def refuse(thread):
            raise AssertionError(f"fit_member started thread {thread.name}")

        def call():
            with monkeypatch.context() as patch:
                patch.setattr(threading.Thread, "start", refuse)
                return fit_member(feats, labels, self.cfg, 9)

        if thread == "main":
            member, trace = call()
        else:
            with ThreadPoolExecutor(1) as pool:
                member, trace = pool.submit(call).result(timeout=60)
        self.assert_same(member, trace, *reference_fit_member(feats, labels, self.cfg, 9, scale))

    @pytest.mark.parametrize("members, epochs", [(5, 2), (3, 3), (1, 3), (2, 0)])
    def test_fit_ensemble_in_two_worker_threads(self, two_workers, members, epochs):
        # more members than workers: members wait for turns, epoch by epoch,
        # and the results still come back in member order
        cfg = dataclasses.replace(self.cfg, members=members, epochs=epochs)
        assert _worker_count(cfg.members) == min(2, members)
        feats, labels = self.data()
        scale = feature_scale_of(feats)
        model, traces = fit_ensemble(feats, labels, cfg)
        assert len(model.members) == len(traces) == members
        for i, (member, trace) in enumerate(zip(model.members, traces)):
            ref = reference_fit_member(feats, labels, cfg, cfg.seed + i, scale)
            self.assert_same(member, trace, *ref)


class TestUsableCpus:
    def test_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert usable_cpus() == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestWorkerCount:
    @pytest.mark.parametrize("cpus, openblas, omp, members, want", [
        (2, None, None, 5, 1),  # unset: OpenBLAS takes every CPU
        (8, None, None, 5, 1),
        (2, "1", None, 5, 2),
        (2, None, "1", 5, 2),  # OMP_NUM_THREADS when OPENBLAS_NUM_THREADS is unset
        (2, "1", "2", 5, 2),  # OPENBLAS_NUM_THREADS comes first
        (2, "1", None, 1, 1),  # never more workers than members
        (8, "2", None, 5, 4),
        (16, "1", None, 5, 5),
        (2, "4", None, 5, 1),  # more BLAS threads than CPUs
        (2, "abc", None, 5, 1),  # unparsable or non-positive: as if unset
        (2, "0", None, 5, 1),
        (2, "-1", None, 5, 1),
        (2, "0", "1", 5, 2),  # ... so the next variable decides
        (2, "", "x", 5, 1),
    ])
    def test_rule(self, monkeypatch, cpus, openblas, omp, members, want):
        blas_env(monkeypatch, cpus, openblas, omp)
        assert _worker_count(members) == want


class TestFitEnsembleFailure:
    def test_non_finite_loss_in_worker_threads(self, two_workers):
        rng = np.random.default_rng(14)
        feats, labels = rng.normal(size=(10, 3)), rng.integers(0, 3, size=10)
        feats[0, 0] = np.nan
        cfg = EnsembleConfig(members=4, hidden_units=8, epochs=2, batch_size=10)
        with pytest.raises(NonFiniteLoss) as excinfo:
            fit_ensemble(feats, labels, cfg)
        assert excinfo.value.step == 0

    def test_the_lowest_index_members_error_is_raised(self, two_workers):
        # at this learning rate every member diverges, at a step its seed
        # decides; member 0's step is not the earliest, so on 2 workers
        # member 1 usually fails first
        rng = np.random.default_rng(14)
        feats, labels = rng.normal(size=(40, 3)), rng.integers(0, 3, size=40)
        cfg = EnsembleConfig(members=4, hidden_units=8, epochs=3, batch_size=4,
                             learning_rate=1e77, seed=3)
        steps = []
        for i in range(cfg.members):
            with pytest.raises(NonFiniteLoss) as excinfo:
                fit_member(feats, labels, cfg, seed=cfg.seed + i)
            steps.append(excinfo.value.step)
        assert steps[0] > min(steps[1:])
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many interleavings
        try:
            for _ in range(10):
                with pytest.raises(NonFiniteLoss) as excinfo:
                    fit_ensemble(feats, labels, cfg)
                assert excinfo.value.step == steps[0]
        finally:
            sys.setswitchinterval(switch)
        assert threading.active_count() == 1

    def test_an_interrupted_wait_stops_and_joins_every_member(self, two_workers, monkeypatch):
        # the caller's wait raises KeyboardInterrupt, as Ctrl-C would, while
        # both workers are in an epoch and the other members' first epochs
        # are queued; the running epochs end only after the pool is shut down
        events, lock = [], threading.Lock()
        busy, shut = threading.Semaphore(0), threading.Event()
        submit, result, shutdown = (ThreadPoolExecutor.submit, Future.result,
                                    ThreadPoolExecutor.shutdown)

        def recorded_submit(pool, fn, *args):
            if fn.__name__ != "epoch":
                return submit(pool, fn, *args)  # a member's fit_member call

            def recorded():
                with lock:
                    events.append("epoch")
                busy.release()
                shut.wait(timeout=10)
                return fn()
            return submit(pool, recorded)

        def interrupted_result(future, timeout=None):
            if threading.current_thread() is not threading.main_thread():
                return result(future, timeout)  # a member waiting for its epoch
            for _ in range(2):
                assert busy.acquire(timeout=10)
            raise KeyboardInterrupt

        def recorded_shutdown(pool, wait=True, *, cancel_futures=False):
            shutdown(pool, wait, cancel_futures=cancel_futures)
            if cancel_futures:
                with lock:
                    events.append("shutdown")
                shut.set()

        monkeypatch.setattr(ThreadPoolExecutor, "submit", recorded_submit)
        monkeypatch.setattr(Future, "result", interrupted_result)
        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", recorded_shutdown)
        rng = np.random.default_rng(52)
        feats, labels = rng.normal(size=(23, 5)), rng.integers(0, 3, size=23)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            fit_ensemble(feats, labels, EnsembleConfig(members=5, hidden_units=8, epochs=3,
                                                       batch_size=7))
        assert threading.active_count() == before
        # two epochs ran; the queued ones were cancelled, and none started after the shutdown
        assert events == ["epoch", "epoch", "shutdown"]


class TestEpochPool:
    def test_workers_share_the_epochs_in_turn(self, monkeypatch):
        # 7 members of 4 epochs on 3 workers, with a short switch interval:
        # never more than 3 epochs at once, every epoch run once, and no
        # member's second epoch before every member's first
        members, workers, epochs, gap = 7, 3, 4, 0.02
        blas_env(monkeypatch, cpus=workers, openblas="1")
        lock = threading.Lock()
        began, submitted = [], [0]
        all_queued = threading.Event()  # every member's first epoch is queued
        first_round = threading.Barrier(  # breaks unless 3 epochs run at once
            workers, action=lambda: began.append(time.monotonic()))
        running, order, peak = set(), [], [0]
        submit = ThreadPoolExecutor.submit

        def recorded_submit(pool, fn, *args):
            if fn.__name__ != "epoch":
                return submit(pool, fn, *args)  # a member's fit_member call
            # a member submits the same epoch closure every time, so it names the member
            with lock:
                submitted[0] += 1
                if submitted[0] == members:
                    all_queued.set()

            def recorded():
                with lock:
                    running.add(fn)
                    order.append(fn)
                    peak[0] = max(peak[0], len(running))
                    k = len(order)
                fn()
                if k <= workers:
                    first_round.wait(timeout=10)
                assert all_queued.wait(timeout=10)
                # the k-th epoch ends k gaps after the first round began, so
                # no two workers take an epoch off the queue at once
                time.sleep(max(0.0, began[0] + k * gap - time.monotonic()))
                with lock:
                    running.discard(fn)
            return submit(pool, recorded)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", recorded_submit)
        rng = np.random.default_rng(53)
        feats, labels = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
        cfg = EnsembleConfig(members=members, hidden_units=4, epochs=epochs, batch_size=4)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, traces = fit_ensemble(feats, labels, cfg)
        finally:
            sys.setswitchinterval(switch)
        assert [len(trace) for trace in traces] == [2 * epochs] * members
        assert len(set(order[:members])) == members  # all first epochs come first
        assert sorted(collections.Counter(order).values()) == [epochs] * members
        assert peak[0] == workers

    def test_no_more_activation_sets_alive_than_workers(self, two_workers, monkeypatch):
        # each epoch builds its own sets and frees them when it ends
        live, peak, lock = collections.Counter(), collections.Counter(), threading.Lock()

        def freed(rows):
            with lock:
                live[rows] -= 1

        class Counted(ensemble_mod._Activations):
            def __init__(self, rows, p):
                super().__init__(rows, p)
                with lock:
                    live[rows] += 1
                    peak[rows] = max(peak[rows], live[rows])
                weakref.finalize(self, freed, rows)

        monkeypatch.setattr(ensemble_mod, "_Activations", Counted)
        rng = np.random.default_rng(51)
        # 23 rows in batches of 7: batches of 7 and a 2-row remainder
        feats, labels = rng.normal(size=(23, 5)), rng.integers(0, 3, size=23)
        fit_ensemble(feats, labels, EnsembleConfig(members=5, hidden_units=8, epochs=2,
                                                   batch_size=7))
        assert set(peak) == {7, 2}
        assert max(peak.values()) <= 2
        assert set(live.values()) == {0}


class TestEnsemble:
    def test_members_differ_and_metadata_is_recorded(self):
        rng = np.random.default_rng(16)
        feats, labels = rng.normal(size=(20, 3)), rng.integers(0, 3, size=20)
        cfg = EnsembleConfig(members=2, hidden_units=8, epochs=1, batch_size=10,
                             fgsm_epsilon=0.02)
        model, traces = fit_ensemble(feats, labels, cfg)
        assert len(model.members) == 2
        assert len(traces) == 2
        assert model.dim == 3
        assert not np.array_equal(model.members[0].weights[0], model.members[1].weights[0])

    def test_single_member_prediction_is_its_softmax(self):
        p, rng = randomized_params(17)
        model = EnsembleModel(members=[p])
        xs = rng.normal(size=(5, 4))
        expected = softmax(mlp_forward(p, xs, "eval"))
        assert np.array_equal(ensemble_predict(model, xs), expected)

    def test_prediction_holds_one_pair_of_activations_with_the_same_bits(self):
        members = [randomized_params(40 + i, dim=200, hidden=200)[0] for i in range(5)]
        xs = np.random.default_rng(45).normal(size=(1000, 200))
        probs, peak = traced_peak(ensemble_predict, EnsembleModel(members=members), xs)
        # every member's forward pass with a full _Activations, as training builds
        # it: 9 buffers of (1000, 200) took the peak to 14.5 MB
        acc = None
        for p in members:
            logits, _ = _forward_cached(p, xs, list(zip(p.bn_running_mean, p.bn_running_var)))
            acc = softmax(logits) if acc is None else acc + softmax(logits)
            train_logits, _ = _forward_cached(p, xs, None)
            assert mlp_forward(p, xs, "train").tobytes() == train_logits.tobytes()
        assert probs.tobytes() == (acc / len(members)).tobytes()
        assert peak <= 4e6

    def test_identical_members_average_to_the_single_model(self):
        p, rng = randomized_params(18)
        xs = rng.normal(size=(5, 4))
        one = EnsembleModel(members=[p])
        five = EnsembleModel(members=[p] * 5)
        assert np.allclose(ensemble_predict(five, xs), ensemble_predict(one, xs),
                           rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        members = [randomized_params(19 + i)[0] for i in range(3)]
        model = EnsembleModel(members=members)
        xs = np.random.default_rng(22).normal(size=(9, 4))
        probs = ensemble_predict(model, xs)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_empty_ensemble_is_rejected(self):
        model = EnsembleModel(members=[])
        with pytest.raises(ValueError):
            ensemble_predict(model, np.zeros((1, 2)))

    def test_averaging_never_reduces_entropy(self):
        members = [randomized_params(30 + i)[0] for i in range(3)]
        model = EnsembleModel(members=members)
        xs = np.random.default_rng(33).normal(size=(200, 4))
        member_probs = [softmax(mlp_forward(p, xs, "eval")) for p in members]
        mean_member_entropy = np.mean([entropy_rows(mp) for mp in member_probs], axis=0)
        averaged_entropy = entropy_rows(ensemble_predict(model, xs))
        gap = averaged_entropy - mean_member_entropy
        assert np.all(gap >= -1e-12)
        spread = np.max(
            np.abs(member_probs[0] - member_probs[1])
            + np.abs(member_probs[1] - member_probs[2]),
            axis=1,
        )
        assert np.all(gap[spread > 1e-6] > 0.0)
