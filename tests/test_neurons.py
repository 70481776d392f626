"""Membrane-dynamics tests against an independent scalar recurrence."""

import contextlib

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
                out = SpikingLayer(cfg)(ad.tensor(x)).data
                ref = reference_recurrence(x, 1.0 / tau, v_th, 0.0)
                np.testing.assert_array_equal(out, ref)

    def test_layer_takes_a_new_shape_each_call(self):
        # no membrane is kept between calls, so one layer serves any [T, *S]
        layer = SpikingLayer(NeuronConfig(kind="LIF", tau=2.0, v_threshold=0.5))
        rng = make_rng(6)
        for shape in ((4, 2, 3), (3, 5), (2, 1, 1, 2)):
            x = rng.standard_normal(shape)
            with ad.precision(np.float64):
                out = layer(ad.tensor(x)).data
            np.testing.assert_array_equal(out, reference_recurrence(x, 0.5, 0.5, 0.0))

    def test_membrane_resets_after_spike(self):
        # step 0 spikes and resets V to 0, so step 1's H is 0.75; a membrane
        # kept at H = 5 would reach 3.25 and spike again
        assert _spike_train(NeuronConfig(kind="LIF", tau=2.0), [10.0, 1.5]) == [1.0, 0.0]

    def test_subthreshold_leak(self):
        cfg = NeuronConfig(kind="LIF", tau=2.0)
        # H = 0.75 carries over and step 1 reaches 0.75 + 0.5 * (1.25 - 0.75) = 1.0
        assert _spike_train(cfg, [1.5, 1.25]) == [0.0, 1.0]
        # a silent step in between leaks V to 0.375, so the same drive stays below
        assert _spike_train(cfg, [1.5, 0.0, 1.25]) == [0.0, 0.0, 0.0]

    def test_nonzero_reset_potential(self):
        cfg = NeuronConfig(kind="LIF", tau=2.0, v_threshold=1.0, v_reset=0.3)
        # rest and reset are both V = 0.3: H = 0.3 + 0.5 * 1.5 = 1.05 spikes,
        # where a reset to 0 would give 0.75
        assert _spike_train(cfg, [1.5]) == [1.0]
        assert _spike_train(cfg, [5.0, 1.5]) == [1.0, 1.0]

    def test_nonfinite_input_rejected(self):
        with pytest.raises(FloatingPointError):
            SpikingLayer(NeuronConfig())(ad.tensor(np.array([[np.nan]], dtype=np.float32)))

    @pytest.mark.parametrize("grad", [False, True])
    def test_layer_keeps_no_state_between_calls(self, grad):
        layer = SpikingLayer(NeuronConfig(kind="PLIF", v_threshold=0.5))
        x = ad.Tensor(make_rng(5).normal(0.5, 1.0, (4, 3, 2)).astype(np.float32),
                      requires_grad=grad)
        before = dict(vars(layer))
        with contextlib.nullcontext() if grad else ad.no_grad():
            first = layer(x)
            second = layer(x)
        assert first.requires_grad == grad
        assert 0.0 < first.data.mean() < 1.0
        assert first.data.tobytes() == second.data.tobytes()
        assert vars(layer) == before


def _spike_train(cfg, drive):
    """One neuron's spikes for the scalar drive sequence, checked against the
    scalar recurrence at every step."""
    x = np.asarray(drive, dtype=np.float64)[:, None]
    with ad.precision(np.float64):
        out = SpikingLayer(cfg)(ad.tensor(x)).data
    ref = reference_recurrence(x, 1.0 / cfg.tau, cfg.v_threshold, cfg.v_reset)
    np.testing.assert_array_equal(out, ref)
    return out[:, 0].tolist()


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
            x = ad.Tensor(make_rng(4).standard_normal((5, 2)), requires_grad=True)
            out = layer(x)
            ad.backward(ad.reduce_sum(ad.index(out, 4, axis=0)))
            # the loss only reads step 4, yet steps 0..3 shape the membrane
            assert np.any(x.grad[0] != 0.0)


def _unrolled_loss(x):
    out = SpikingLayer(NeuronConfig(kind="PLIF"), smooth=True)(x)
    return ad.reduce_sum(ad.mul(out, ad.scale(x, 0.3)))


def _stepwise_reference(x_seq, a, cfg, smooth):
    """The per-step tape chain that ``ad.lif_sequence`` fuses, built from
    single-op primitives from rest: index, membrane update, spike, stack."""
    v = ad.tensor(np.full(x_seq.shape[1:], cfg.v_reset))
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
    return ad.stack(outs, axis=0)


def _fused(x_seq, a, cfg, smooth):
    return ad.lif_sequence(
        x_seq, a if cfg.kind == "PLIF" else None, tau=cfg.tau,
        v_threshold=cfg.v_threshold, v_reset=cfg.v_reset, alpha=cfg.surrogate_alpha,
        detach_reset=cfg.detach_reset, smooth=smooth)


def _from_rest(run, cfg, smooth, seed):
    """One sequence through ``run`` from rest; returns the spikes and the
    gradients of x and a."""
    rng = make_rng(seed)
    with ad.precision(np.float64):
        x = ad.Tensor(rng.normal(0.8, 1.0, (9, 3, 4)), requires_grad=True)
        a = ad.Tensor(np.array(0.3), requires_grad=True)
        w = ad.tensor(rng.standard_normal((9, 3, 4)))
        s = run(x, a, cfg, smooth)
        ad.backward(ad.reduce_sum(ad.mul(s, w)))
    return s.data, {"x": x.grad, "a": a.grad}


def _in_oracle_dtype(fused, ref, smooth):
    """The fused spikes as values of the float oracle's dtype: Heaviside
    spikes are bool, smooth ones in the oracle's own dtype."""
    assert fused.dtype == (ref.dtype if smooth else np.bool_)
    return fused.astype(ref.dtype)


class TestFusedSequenceMatchesStepwise:
    """``ad.lif_sequence`` against the per-step tape chain, float64."""

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("detach_reset", [False, True])
    @pytest.mark.parametrize("v_reset", [0.0, -0.0, 0.3])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_forward_exact_and_gradients_agree(self, kind, detach_reset, v_reset, smooth):
        cfg = NeuronConfig(kind=kind, tau=2.5, v_reset=v_reset, detach_reset=detach_reset)
        fused, g_fused = _from_rest(_fused, cfg, smooth, seed=11)
        ref, g_ref = _from_rest(_stepwise_reference, cfg, smooth, seed=11)
        assert _in_oracle_dtype(fused, ref, smooth).tobytes() == ref.tobytes()
        if not smooth:
            assert 0.0 < fused.mean() < 1.0  # spikes and silence both occur
        for name in ("x",) + (("a",) if kind == "PLIF" else ()):
            np.testing.assert_allclose(g_fused[name], g_ref[name], rtol=0, atol=1e-10,
                                       err_msg=name)
        if kind == "LIF":
            assert g_fused["a"] is None

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("v_reset", [0.0, -0.0])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_signed_zero_inputs_and_zero_membrane_byte_equal(self, kind, v_reset, smooth):
        """Inputs of exactly +-0.0 and steps whose H is exactly 0 (kappa = 0.5
        for both kinds): the fused forward, which skips adding a zero reset
        potential and takes 1 - S from H < v_threshold, gives the bytes of
        the chain that adds it and subtracts S from 1."""
        cfg = NeuronConfig(kind=kind, tau=2.0, v_reset=v_reset)
        columns = [
            [1.0, -0.5, -0.0, -0.0, 0.0, 2.0, -0.0, 1.0, -0.5],  # H = 0.5 - 0.5, spike at 2
            [-1.0, 0.5, -0.0, 2.0, 0.0, -1.0, 0.5, 0.0, -0.0],  # H = -0.5 + 0.5
            [-0.0] * 9,
            [0.0] * 9,
            [3.0, -0.0, 0.0, -0.0, 3.0, 0.0, -0.0, 0.0, 3.0],  # H * 0 after each spike
        ]
        with ad.precision(np.float64):
            x = ad.tensor(np.array(columns).T)
            a = ad.tensor(np.array(0.0))  # sigmoid(0) = 0.5
            fused, ref = (run(x, a, cfg, smooth).data for run in (_fused, _stepwise_reference))
        fused = _in_oracle_dtype(fused, ref, smooth)
        assert np.signbit(x.data).any() and fused.tobytes() == ref.tobytes()
        if not smooth:
            assert fused[:, 4].tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]

    def test_no_tape_node_without_grad(self):
        x = ad.Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        a = ad.Tensor(np.array(0.0, dtype=np.float32), requires_grad=True)
        with ad.no_grad():
            outs = [_fused(x, a, NeuronConfig(), smooth=False)]
        outs.append(_fused(ad.tensor(np.ones((3, 2))), ad.tensor(np.array(0.0)),
                           NeuronConfig(), smooth=False))
        for t in outs:
            assert not t.requires_grad
            assert t._node is None and t._parents == ()

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("v_reset", [0.0, 0.3])
    @pytest.mark.parametrize("grad", [False, True])
    def test_never_writes_into_its_inputs(self, kind, v_reset, grad):
        """The forward's step buffers and the backward's in-place work stay
        off the caller's input and leak parameter."""
        cfg = NeuronConfig(kind=kind, tau=2.5, v_reset=v_reset)
        rng = make_rng(14)
        x = ad.Tensor(rng.normal(0.8, 1.0, (5, 3, 4)), requires_grad=grad)
        a = ad.Tensor(np.array(0.3), requires_grad=grad)
        x_before, a_before = x.data.copy(), a.data.copy()
        s = _fused(x, a, cfg, smooth=False)
        if grad:
            ad.backward(ad.reduce_sum(ad.mul(s, x)))
            assert x.grad is not None
        np.testing.assert_array_equal(x.data, x_before)
        np.testing.assert_array_equal(a.data, a_before)
        assert not np.shares_memory(s.data, x.data)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.lif_sequence(ad.tensor(np.zeros((0, 2))))


class TestNonFiniteMembrane:
    """``lif_sequence`` checks the final membrane: a non-finite input at any
    step leaves it non-finite, so the layer refuses it and makes no node."""

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("v_reset", [0.0, 0.3])
    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("step", [0, 3, 6])
    def test_non_finite_input_at_any_step_raises(self, monkeypatch, kind, smooth, v_reset,
                                                 grad, bad, step):
        cfg = NeuronConfig(kind=kind, tau=2.5, v_reset=v_reset)
        x = make_rng(15).normal(0.8, 1.0, (7, 3, 4)).astype(np.float32)
        x[step, 1, 2] = bad
        x = ad.Tensor(x, requires_grad=grad)
        a = ad.Tensor(np.array(0.3, dtype=np.float32), requires_grad=grad)
        made = []
        monkeypatch.setattr(ad, "_make", lambda *args: made.append(args))
        with contextlib.nullcontext() if grad else ad.no_grad(), \
                np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="membrane"):
            _fused(x, a, cfg, smooth)
        assert made == []

    def test_nan_leak_parameter_raises(self):
        x = ad.tensor(make_rng(16).normal(0.8, 1.0, (4, 3)))
        with pytest.raises(FloatingPointError, match="leak parameter"):
            ad.lif_sequence(x, ad.tensor(np.array(np.nan)))

    def test_membrane_overflow_from_finite_input_raises(self):
        # V = -1.5e38, then the drive 3e38 + 1.5e38 overflows float32
        x = ad.tensor(np.array([[-3e38], [3e38]], dtype=np.float32))
        assert np.isfinite(x.data).all()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="overflow"):
            ad.lif_sequence(x)


class TestInstrumentation:
    def test_firing_rate_accounting(self):
        layer = SpikingLayer(NeuronConfig(kind="LIF", tau=2.0))
        with Recording(layer) as rec:
            layer(ad.tensor(np.full((4, 10), 5.0, dtype=np.float32)))
        assert rec.spikes[layer].rate() == pytest.approx(1.0)
        assert len(rec.spikes[layer].step_rates) == 4
        with Recording(layer) as fresh:
            assert fresh.spikes[layer].rate() == 0.0


@settings(max_examples=30, deadline=None)
@given(
    tau=st.floats(min_value=1.1, max_value=10.0, allow_nan=False),
    v_th=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_recurrence_property(tau, v_th, seed, data):
    """Layer output equals the scalar reference for arbitrary LIF settings,
    reset potentials in [0, v_th) included."""
    v_reset = data.draw(st.floats(min_value=0.0, max_value=v_th, exclude_max=True))
    cfg = NeuronConfig(kind="LIF", tau=tau, v_threshold=v_th, v_reset=v_reset)
    x = make_rng(seed).standard_normal((5, 3))
    with ad.precision(np.float64):
        out = SpikingLayer(cfg)(ad.tensor(x)).data
    ref = reference_recurrence(x, 1.0 / tau, v_th, v_reset)
    np.testing.assert_array_equal(out, ref)
