"""Membrane-dynamics tests against an independent scalar recurrence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikevid import autodiff as ad
from spikevid.neurons import NeuronConfig, SpikingLayer, plif_a_for_tau
from spikevid.profiler import Recording

from conftest import make_rng


def reference_recurrence(x_seq, kappa, v_th, v_reset):
    """Plain-python scalar evaluator of the membrane recurrence (float64)."""
    spikes = []
    v = np.full(np.shape(x_seq[0]), float(v_reset))
    for x in np.asarray(x_seq, dtype=np.float64):
        h = v + kappa * (x - (v - v_reset))
        s = (h >= v_th).astype(np.float64)
        v = h * (1 - s) + v_reset * s
        spikes.append(s)
    return np.stack(spikes)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NeuronConfig(kind="IZH")

    def test_lif_tau_bound(self):
        with pytest.raises(ValueError):
            NeuronConfig(kind="LIF", tau=1.0)

    def test_threshold_above_reset(self):
        with pytest.raises(ValueError):
            NeuronConfig(v_threshold=0.0, v_reset=0.0)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            NeuronConfig(surrogate_alpha=0.0)


class TestLayerMatchesRecurrence:
    def test_lif_float64_matches_reference_exactly(self):
        rng = make_rng(0)
        with ad.precision(np.float64):
            for trial in range(50):
                tau = float(rng.uniform(1.2, 8.0))
                v_th = float(rng.uniform(0.3, 2.0))
                cfg = NeuronConfig(kind="LIF", tau=tau, v_threshold=v_th)
                x = rng.standard_normal((6, 3, 2))
                layer = SpikingLayer(cfg)
                layer.reset_state()
                out = layer(ad.tensor(x)).data
                ref = reference_recurrence(x, 1.0 / tau, v_th, 0.0)
                np.testing.assert_array_equal(out, ref)

    def test_membrane_resets_after_spike(self):
        cfg = NeuronConfig(kind="LIF", tau=2.0)
        layer = SpikingLayer(cfg)
        layer.reset_state()
        out = layer.step(ad.tensor(np.full((1,), 10.0, dtype=np.float32)))
        assert out.data[0] == 1.0
        assert layer.v.data[0] == 0.0  # hard reset to v_reset

    def test_subthreshold_leak(self):
        cfg = NeuronConfig(kind="LIF", tau=2.0)
        layer = SpikingLayer(cfg)
        layer.reset_state()
        layer.step(ad.tensor(np.full((1,), 0.5, dtype=np.float32)))
        # H = 0 + 0.5 * (0.5 - 0) = 0.25, no spike, V carries over
        assert layer.v.data[0] == pytest.approx(0.25)

    def test_nonzero_reset_potential(self):
        cfg = NeuronConfig(kind="LIF", tau=2.0, v_threshold=1.0, v_reset=0.3)
        layer = SpikingLayer(cfg)
        layer.reset_state()
        layer.step(ad.tensor(np.full((1,), 5.0, dtype=np.float32)))
        assert layer.v.data[0] == pytest.approx(0.3)

    def test_shape_change_between_steps_rejected(self):
        layer = SpikingLayer(NeuronConfig())
        layer.reset_state()
        layer.step(ad.tensor(np.zeros((2, 2), dtype=np.float32)))
        with pytest.raises(ad.ShapeError):
            layer.step(ad.tensor(np.zeros((3, 3), dtype=np.float32)))

    def test_nonfinite_input_rejected(self):
        layer = SpikingLayer(NeuronConfig())
        layer.reset_state()
        with pytest.raises(FloatingPointError):
            layer.step(ad.tensor(np.array([np.nan], dtype=np.float32)))


class TestPlifLifEquivalence:
    def test_kappa_identity(self):
        for tau in (1.5, 2.0, 3.0, 7.5):
            a = plif_a_for_tau(tau)
            assert 1.0 / (1.0 + np.exp(-a)) == pytest.approx(1.0 / tau, rel=1e-12)

    def test_spike_trains_agree(self):
        rng = make_rng(2)
        with ad.precision(np.float64):
            for tau in (2.0, 3.0, 5.0):
                x = rng.standard_normal((8, 4, 4))
                lif = SpikingLayer(NeuronConfig(kind="LIF", tau=tau))
                plif = SpikingLayer(NeuronConfig(kind="PLIF", a_init=plif_a_for_tau(tau)))
                lif.reset_state()
                plif.reset_state()
                out_l = lif(ad.tensor(x)).data
                out_p = plif(ad.tensor(x)).data
                # identical dynamics up to the sigmoid's rounding of 1/tau;
                # keep inputs away from exact threshold ties via float64
                assert np.mean(out_l != out_p) < 0.01
                assert plif.effective_tau() == pytest.approx(tau, rel=1e-9)

    def test_default_plif_tau_is_two(self):
        layer = SpikingLayer(NeuronConfig(kind="PLIF", a_init=0.0))
        assert layer.effective_tau() == pytest.approx(2.0)


class TestGradientsThroughTime:
    def test_membrane_carries_gradient_across_steps(self):
        # with the smooth stand-in the whole unrolled sequence is differentiable
        rep = ad.grad_check(
            lambda x: _unrolled_loss(x), [ad.Tensor(
                make_rng(3).standard_normal((4, 3)), requires_grad=True)])
        assert rep.passed, rep

    def test_earlier_steps_receive_gradient(self):
        with ad.precision(np.float64):
            layer = SpikingLayer(NeuronConfig(), smooth=True)
            layer.reset_state()
            x = ad.Tensor(make_rng(4).standard_normal((5, 2)), requires_grad=True)
            out = layer(x)
            ad.backward(ad.reduce_sum(ad.index(out, 4, axis=0)))
            # the loss only reads step 4, yet steps 0..3 shape the membrane
            assert np.any(x.grad[0] != 0.0)


def _unrolled_loss(x):
    layer = SpikingLayer(NeuronConfig(kind="PLIF"), smooth=True)
    layer.reset_state()
    out = layer(x)
    return ad.reduce_sum(ad.mul(out, ad.scale(x, 0.3)))


def _stepwise_reference(x_seq, v, a, cfg, smooth):
    """The per-step tape chain that ``ad.lif_sequence`` fuses, built from
    single-op primitives: index, membrane update, spike, stack."""
    outs = []
    for t in range(x_seq.shape[0]):
        x_t = ad.index(x_seq, t, axis=0)
        drive = ad.sub(x_t, ad.sub(v, ad.tensor(cfg.v_reset)))
        if cfg.kind == "PLIF":
            h = ad.add(v, ad.mul(ad.sigmoid(a), drive))
        else:
            h = ad.add(v, ad.scale(drive, 1.0 / cfg.tau))
        s = ad.spike(h, cfg.v_threshold, cfg.surrogate_alpha, smooth=smooth)
        s_reset = s.detach() if cfg.detach_reset else s
        v = ad.add(ad.mul(h, ad.sub(ad.tensor(1.0), s_reset)), ad.scale(s_reset, cfg.v_reset))
        outs.append(s)
    return ad.stack(outs, axis=0), v


def _fused(x_seq, v, a, cfg, smooth):
    return ad.lif_sequence(
        x_seq, v, a if cfg.kind == "PLIF" else None, tau=cfg.tau,
        v_threshold=cfg.v_threshold, v_reset=cfg.v_reset, alpha=cfg.surrogate_alpha,
        detach_reset=cfg.detach_reset, smooth=smooth)


def _two_calls(run, cfg, smooth, seed, read_spikes=True):
    """Two consecutive sequences through ``run`` with the membrane carried
    across; returns the forward arrays and the gradients of x1, x2, V_0, a."""
    rng = make_rng(seed)
    with ad.precision(np.float64):
        x1 = ad.Tensor(rng.normal(0.8, 1.0, (5, 3, 4)), requires_grad=True)
        x2 = ad.Tensor(rng.normal(0.8, 1.0, (4, 3, 4)), requires_grad=True)
        v0 = ad.Tensor(cfg.v_reset + 0.2 * rng.standard_normal((3, 4)), requires_grad=True)
        a = ad.Tensor(np.array(0.3), requires_grad=True)
        w1, w2, w3 = (ad.tensor(rng.standard_normal(s)) for s in ((5, 3, 4), (4, 3, 4), (3, 4)))
        s1, v1 = run(x1, v0, a, cfg, smooth)
        s2, v2 = run(x2, v1, a, cfg, smooth)
        loss = ad.reduce_sum(ad.mul(v2, w3))
        if read_spikes:
            loss = ad.add(loss, ad.add(ad.reduce_sum(ad.mul(s1, w1)),
                                       ad.reduce_sum(ad.mul(s2, w2))))
        ad.backward(loss)
    grads = {n: t.grad for n, t in (("x1", x1), ("x2", x2), ("v0", v0), ("a", a))}
    return (s1.data, v1.data, s2.data, v2.data), grads


class TestFusedSequenceMatchesStepwise:
    """``ad.lif_sequence`` against the per-step tape chain, float64."""

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("detach_reset", [False, True])
    @pytest.mark.parametrize("v_reset", [0.0, 0.3])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_forward_exact_and_gradients_agree(self, kind, detach_reset, v_reset, smooth):
        cfg = NeuronConfig(kind=kind, tau=2.5, v_reset=v_reset, detach_reset=detach_reset)
        fused, g_fused = _two_calls(_fused, cfg, smooth, seed=11)
        ref, g_ref = _two_calls(_stepwise_reference, cfg, smooth, seed=11)
        for got, want in zip(fused, ref):
            np.testing.assert_array_equal(got, want)
        if not smooth:
            assert 0.0 < fused[0].mean() < 1.0  # spikes and silence both occur
        for name in ("x1", "x2", "v0") + (("a",) if kind == "PLIF" else ()):
            np.testing.assert_allclose(g_fused[name], g_ref[name], rtol=0, atol=1e-10,
                                       err_msg=name)
        if kind == "LIF":
            assert g_fused["a"] is None

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    def test_loss_reading_only_the_membrane(self, kind):
        cfg = NeuronConfig(kind=kind, tau=2.5)
        _, g_fused = _two_calls(_fused, cfg, False, seed=12, read_spikes=False)
        _, g_ref = _two_calls(_stepwise_reference, cfg, False, seed=12, read_spikes=False)
        for name in ("x1", "x2", "v0") + (("a",) if kind == "PLIF" else ()):
            np.testing.assert_allclose(g_fused[name], g_ref[name], rtol=0, atol=1e-10,
                                       err_msg=name)

    def test_layer_carries_membrane_across_forward_calls(self):
        cfg = NeuronConfig(kind="PLIF", a_init=0.3, v_reset=0.3)
        rng = make_rng(13)
        x = rng.normal(0.8, 1.0, (9, 3, 4))
        with ad.precision(np.float64):
            layer = SpikingLayer(cfg)
            layer.reset_state()
            out = np.concatenate([layer(ad.tensor(x[:5])).data, layer(ad.tensor(x[5:])).data])
            a = ad.tensor(np.array(0.3))
            v = ad.tensor(np.full((3, 4), 0.3))
            ref, v_ref = _stepwise_reference(ad.tensor(x), v, a, cfg, smooth=False)
        np.testing.assert_array_equal(out, ref.data)
        np.testing.assert_array_equal(layer.v.data, v_ref.data)

    def test_no_tape_node_without_grad(self):
        x = ad.Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        a = ad.Tensor(np.array(0.0, dtype=np.float32), requires_grad=True)
        with ad.no_grad():
            outs = _fused(x, None, a, NeuronConfig(), smooth=False)
        outs += _fused(ad.tensor(np.ones((3, 2))), None, ad.tensor(np.array(0.0)),
                       NeuronConfig(), smooth=False)
        for t in outs:
            assert not t.requires_grad
            assert t._parents == () and t._backward is None

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("v_reset", [0.0, 0.3])
    @pytest.mark.parametrize("grad", [False, True])
    def test_never_writes_into_its_inputs(self, kind, v_reset, grad):
        """The forward's step buffers and the backward's in-place work stay
        off the caller's input and carried-in membrane."""
        cfg = NeuronConfig(kind=kind, tau=2.5, v_reset=v_reset)
        rng = make_rng(14)
        x = ad.Tensor(rng.normal(0.8, 1.0, (5, 3, 4)), requires_grad=grad)
        v0 = ad.Tensor(v_reset + 0.5 * rng.standard_normal((3, 4)), requires_grad=grad)
        a = ad.Tensor(np.array(0.3), requires_grad=grad)
        x_before, v0_before = x.data.copy(), v0.data.copy()
        s, v = _fused(x, v0, a, cfg, smooth=False)
        if grad:
            ad.backward(ad.add(ad.reduce_sum(ad.mul(s, x)), ad.reduce_sum(v)))
            assert x.grad is not None and v0.grad is not None
        np.testing.assert_array_equal(x.data, x_before)
        np.testing.assert_array_equal(v0.data, v0_before)
        for out in (s.data, v.data):
            assert not np.shares_memory(out, x.data)
            assert not np.shares_memory(out, v0.data)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.lif_sequence(ad.tensor(np.zeros((0, 2))))


class TestInstrumentation:
    def test_firing_rate_accounting(self):
        layer = SpikingLayer(NeuronConfig(kind="LIF", tau=2.0))
        layer.reset_state()
        with Recording(layer) as rec:
            layer(ad.tensor(np.full((4, 10), 5.0, dtype=np.float32)))
        assert rec.spikes[layer].rate() == pytest.approx(1.0)
        assert len(rec.spikes[layer].step_rates) == 4
        with Recording(layer) as fresh:
            assert fresh.spikes[layer].rate() == 0.0

    def test_reset_clears_membrane_and_clock(self):
        layer = SpikingLayer(NeuronConfig())
        layer.reset_state()
        layer(ad.tensor(np.zeros((3, 2), dtype=np.float32)))
        assert layer.v is not None
        layer.reset_state()
        assert layer.v is None


@settings(max_examples=30, deadline=None)
@given(
    tau=st.floats(min_value=1.1, max_value=10.0, allow_nan=False),
    v_th=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_recurrence_property(tau, v_th, seed):
    """Layer output equals the scalar reference for arbitrary LIF settings."""
    cfg = NeuronConfig(kind="LIF", tau=tau, v_threshold=v_th)
    x = make_rng(seed).standard_normal((5, 3))
    with ad.precision(np.float64):
        layer = SpikingLayer(cfg)
        layer.reset_state()
        out = layer(ad.tensor(x)).data
    ref = reference_recurrence(x, 1.0 / tau, v_th, 0.0)
    np.testing.assert_array_equal(out, ref)
