"""Loss, optimizer, schedule, and loop behavior."""

from dataclasses import asdict

import numpy as np
import pytest

from spikevid import autodiff as ad
from spikevid import training
from spikevid.data import gen_moving_patterns
from spikevid.model import VideoSpikeNet
from spikevid.training import (
    AdamW,
    TrainConfig,
    clip_gradients,
    cross_entropy,
    evaluate,
    fit,
    lr_at,
    tau_table,
)

from conftest import make_rng, tiny_config


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        for n_cls in (2, 8, 10):
            logits = ad.tensor(np.zeros((4, n_cls), dtype=np.float32))
            loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
            assert loss.item() == pytest.approx(np.log(n_cls), rel=1e-6)

    def test_confident_correct_is_near_zero(self):
        logits = np.full((1, 3), -50.0, dtype=np.float32)
        logits[0, 1] = 50.0
        loss = cross_entropy(ad.tensor(logits), np.array([1]))
        assert loss.item() < 1e-6

    def test_matches_reference_softmax(self):
        rng = make_rng(0)
        z = rng.standard_normal((5, 4))
        labels = np.array([0, 3, 1, 2, 2])
        with ad.precision(np.float64):
            loss = cross_entropy(ad.tensor(z), labels).item()
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        ref = -np.log(p[np.arange(5), labels]).mean()
        assert loss == pytest.approx(ref, rel=1e-10)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = make_rng(1)
        z = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = np.array([1, 0, 2])
        ad.backward(cross_entropy(z, labels))
        p = np.exp(z.data - z.data.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        onehot = np.eye(4)[labels]
        np.testing.assert_allclose(z.grad, (p - onehot) / 3, atol=1e-8)

    def test_shift_invariance_no_overflow(self):
        logits = np.array([[10000.0, 10001.0]], dtype=np.float32)
        loss = cross_entropy(ad.tensor(logits), np.array([1]))
        assert np.isfinite(loss.item())

    def test_label_validation(self):
        logits = ad.tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ad.ShapeError):
            cross_entropy(logits, np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([0, 3]))


class TestAdamW:
    def test_single_step_matches_hand_computation(self):
        lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
        cfg = TrainConfig(base_lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
        p = ad.Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([0.5], dtype=np.float32)
        opt = AdamW([p], cfg)
        opt.step(lr)
        # hand: m = 0.1*0.5, v = 0.001*0.25; bias-corrected both recover g
        m_hat = 0.5
        v_hat = 0.25
        expected = 2.0
        expected -= lr * wd * expected          # decoupled decay first
        expected -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert p.data[0] == pytest.approx(expected, rel=1e-6)

    def test_decay_is_decoupled_from_gradient(self):
        # zero gradient -> pure multiplicative shrink by (1 - lr*wd)
        cfg = TrainConfig(base_lr=0.1, weight_decay=0.5)
        p = ad.Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([0.0], dtype=np.float32)
        AdamW([p], cfg).step(0.1)
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5, rel=1e-6)

    def test_none_grad_skipped(self):
        cfg = TrainConfig()
        p = ad.Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        AdamW([p], cfg).step(0.1)
        assert p.data[0] == 1.0

    def test_moments_persist_across_steps(self):
        cfg = TrainConfig(weight_decay=0.0)
        p = ad.Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([p], cfg)
        for _ in range(3):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step(0.01)
        # constant gradient: each bias-corrected step is ~lr in magnitude
        assert p.data[0] == pytest.approx(-0.03, rel=1e-3)


class TestGradientClipping:
    def test_norm_reduced_to_bound(self):
        ps = [ad.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True) for _ in range(2)]
        ps[0].grad = np.array([3.0, 0.0, 0.0], dtype=np.float32)
        ps[1].grad = np.array([0.0, 4.0, 0.0], dtype=np.float32)
        norm = clip_gradients(ps, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in ps))
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_small_gradients_untouched(self):
        p = ad.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        p.grad = np.array([0.1, 0.1], dtype=np.float32)
        clip_gradients([p], 5.0)
        np.testing.assert_array_equal(p.grad, np.array([0.1, 0.1], dtype=np.float32))


class TestSchedule:
    def test_linear_warmup(self):
        cfg = TrainConfig(epochs=10, warmup_epochs=2, base_lr=1.0)
        spe = 5
        lrs = [lr_at(s, spe, cfg) for s in range(10)]
        np.testing.assert_allclose(lrs, (np.arange(10) + 1) / 10)

    def test_cosine_decay_to_zero(self):
        cfg = TrainConfig(epochs=10, warmup_epochs=2, base_lr=1.0)
        spe = 5
        assert lr_at(10, spe, cfg) == pytest.approx(1.0, rel=1e-6)  # peak
        mid = lr_at(30, spe, cfg)
        assert mid == pytest.approx(0.5, abs=1e-6)
        assert lr_at(50, spe, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_after_warmup(self):
        cfg = TrainConfig(epochs=6, warmup_epochs=1, base_lr=1.0)
        lrs = [lr_at(s, 4, cfg) for s in range(4, 24)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_warmup_shorter_than_run(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=3, warmup_epochs=3)


@pytest.fixture(scope="module")
def small_run():
    tr = gen_moving_patterns(seed=0, num=24, T=2, H=16, W=16, classes=3)
    te = gen_moving_patterns(seed=1, num=12, T=2, H=16, W=16, classes=3)
    model = VideoSpikeNet(tiny_config(), seed=0)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=8)
    history = fit(model, tr.clips, tr.labels, cfg, te.clips, te.labels)
    return model, history, te


class TestLoops:

    def test_history_layout(self, small_run):
        _, history, _ = small_run
        assert len(history) == 2
        assert [m.epoch for m in history] == [0, 1]
        assert all(np.isfinite(m.train_loss) for m in history)
        assert all(0.0 <= m.top1 <= 1.0 for m in history)
        assert all(m.wall_time > 0 for m in history)

    def test_taus_reported_per_layer(self, small_run):
        model, history, _ = small_run
        assert set(history[0].taus) == {n for n, _ in model.spiking_layers()}

    def test_firing_rates_reported_per_layer(self):
        tr = gen_moving_patterns(seed=0, num=8, T=2, H=16, W=16, classes=3)
        te = gen_moving_patterns(seed=1, num=4, T=2, H=16, W=16, classes=3)
        model = VideoSpikeNet(tiny_config(), seed=0)
        cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=8)
        (metrics,) = fit(model, tr.clips, tr.labels, cfg, te.clips, te.labels)
        rates = metrics.firing_rates
        assert set(rates) == {n for n, _ in model.spiking_layers()}
        assert all(0.0 <= r <= 1.0 for r in rates.values())
        record = asdict(metrics)
        assert record["firing_rates"] == rates
        assert list(record) == ["epoch", "train_loss", "top1", "lr", "firing_rates", "taus",
                                "wall_time"]  # metrics.jsonl's key order

    def test_evaluate_bounds_and_determinism(self, small_run):
        model, _, te = small_run
        a = evaluate(model, te.clips, te.labels, batch_size=8)
        b = evaluate(model, te.clips, te.labels, batch_size=4)
        assert a == b  # batching must not change predictions

    def test_evaluate_empty_rejected(self, small_run):
        model, _, _ = small_run
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 2, 3, 16, 16), dtype=np.float32),
                     np.zeros(0, dtype=np.int64))

    def test_training_is_deterministic(self):
        def run():
            tr = gen_moving_patterns(seed=0, num=16, T=2, H=16, W=16, classes=3)
            model = VideoSpikeNet(tiny_config(), seed=0)
            cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=8)
            history = fit(model, tr.clips, tr.labels, cfg)
            return [m.train_loss for m in history], dict(model.named_parameters())

        losses1, params1 = run()
        losses2, params2 = run()
        assert losses1 == losses2
        for name in params1:
            np.testing.assert_array_equal(params1[name].data, params2[name].data)

    def test_non_finite_loss_stops_before_any_update(self, monkeypatch):
        tr = gen_moving_patterns(seed=0, num=8, T=2, H=16, W=16, classes=3)
        model = VideoSpikeNet(tiny_config(), seed=0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        monkeypatch.setattr(training, "cross_entropy",
                            lambda logits, labels: ad.tensor(np.array(np.nan)))
        with pytest.raises(FloatingPointError, match=r"non-finite loss \(nan\)"):
            fit(model, tr.clips, tr.labels, TrainConfig(epochs=1, warmup_epochs=0, batch_size=8))
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_tau_table_covers_all_layers(self):
        model = VideoSpikeNet(tiny_config(), seed=0)
        taus = tau_table(model)
        assert all(t == pytest.approx(2.0) for t in taus.values())  # a_init = 0
