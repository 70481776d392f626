"""Gradient-integrity checks: analytic backward rules vs central differences.

Spike nonlinearities are replaced by their smooth sigmoid stand-in for these
checks (the exact Heaviside has no meaningful finite difference); everything
else is verified as-is. All checks run in float64.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .layers import BatchNorm
from .model import ModelConfig, VideoSpikeNet
from .neurons import NeuronConfig, SpikingLayer
from .training import cross_entropy


def check_tolerance(tol):
    if not tol >= 0:
        raise ValueError(f"gradient-check tolerance must be >= 0, got {tol}")


def run_gradient_checks(seed=0, tol=1e-4, step=1e-4):
    """Primitive-by-primitive checks plus a composed-model spot check."""
    check_tolerance(tol)
    rng = np.random.Generator(np.random.PCG64(seed))
    reports = {}

    def arr(*shape):
        return ad.tensor(rng.standard_normal(shape))

    reports["matmul"] = ad.grad_check(
        lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [arr(3, 4), arr(4, 2)],
        tol=tol, step=step)
    reports["matmul_batched"] = ad.grad_check(
        lambda a, b: ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
        [arr(2, 3, 4), arr(2, 4, 3)], tol=tol, step=step)
    reports["elementwise"] = ad.grad_check(
        lambda a, b: ad.reduce_mean(ad.mul(ad.add(a, b), ad.sub(a, ad.scale(b, 0.5)))),
        [arr(4, 5), arr(4, 5)], tol=tol, step=step)
    reports["exp_log_sigmoid"] = ad.grad_check(
        lambda a: ad.reduce_sum(ad.log(ad.add(ad.exp(ad.scale(a, 0.3)), ad.sigmoid(a)))),
        [arr(3, 3)], tol=tol, step=step)
    reports["structural"] = ad.grad_check(
        lambda a: ad.reduce_sum(ad.mul(
            ad.permute(ad.reshape(a, (2, 6)), (1, 0)),
            ad.permute(ad.reshape(a, (2, 6)), (1, 0)))),
        [arr(3, 4)], tol=tol, step=step)
    reports["conv2d"] = ad.grad_check(
        lambda x, w: ad.reduce_sum(ad.mul(c := ad.conv(x, w, stride=2, padding=1), c)),
        [arr(2, 4, 5, 5), arr(3, 4, 3, 3)], tol=tol, step=step)
    reports["conv2d_grouped"] = ad.grad_check(
        lambda x, w: ad.reduce_sum(ad.conv(x, w, stride=1, padding=2, groups=4)),
        [arr(1, 4, 4, 4), arr(4, 1, 5, 5)], tol=tol, step=step)
    reports["batch_norm_composite"] = ad.grad_check(
        _bn_composite, [arr(2, 3, 4, 2, 2)], tol=tol, step=step)
    reports["smooth_spike"] = ad.grad_check(
        lambda h: ad.reduce_sum(ad.spike(h, 1.0, 4.0, smooth=True)),
        [arr(4, 4)], tol=tol, step=step)
    reports["neuron_sequence_smooth"] = ad.grad_check(
        _neuron_sequence, [arr(3, 2, 2)], tol=tol, step=step)
    reports["cross_entropy"] = ad.grad_check(
        lambda z: cross_entropy(z, np.array([0, 2, 1])), [arr(3, 4)],
        tol=tol, step=step)
    reports["conv2d_depthwise_strided"] = ad.grad_check(
        lambda x, w, b: ad.reduce_sum(ad.mul(
            c := ad.conv(x, w, stride=2, padding=2, groups=3, bias=b), c)),
        [arr(2, 3, 5, 5), arr(3, 1, 5, 5), arr(3)], tol=tol, step=step)
    reports["composed_model"] = composed_model_check(seed=seed, tol=tol, step=step)
    weights = arr(2, 3, 4, 2, 2).data
    reports["batch_norm_tdbn"] = ad.grad_check(
        lambda x, g, b: ad.reduce_sum(ad.mul(
            ad.batch_norm(x, g, b, (1, 3, 4), 1e-5)[0], ad.tensor(weights))),
        [arr(2, 3, 4, 2, 2), arr(2, 1, 4, 1, 1), arr(2, 1, 4, 1, 1)], tol=tol, step=step)
    return reports


def _bn_composite(x):
    gamma = ad.tensor(np.full((1, 1, 4, 1, 1), 1.5))
    beta = ad.tensor(np.full((1, 1, 4, 1, 1), 0.25))
    out = ad.batch_norm(x, gamma, beta, (0, 1, 3, 4), 1e-5)[0]
    return ad.reduce_sum(ad.mul(out, out))


def _neuron_sequence(x_seq):
    out = SpikingLayer(NeuronConfig(kind="PLIF"), smooth=True)(x_seq)
    return ad.reduce_sum(ad.mul(out, ad.scale(x_seq, 0.5)))


def micro_model_config(norm_mode="tdbn"):
    """Smallest complete network: 2 steps, 16x16 frames, every block type."""
    return ModelConfig(
        stage_depths=(1, 1, 1, 1), channels=(4, 4, 4, 4), time_steps=2,
        in_height=16, in_width=16, num_classes=3, norm_mode=norm_mode,
    )


def make_smooth(model):
    for _, layer in model.spiking_layers():
        layer.smooth = True
    return model


def composed_model_check(seed=0, tol=1e-4, step=1e-4, samples_per_param=2):
    """Spot-check analytic parameter gradients of the full composed network
    (smooth spike stand-ins) against central differences.
    """
    with ad.precision(np.float64):
        model = make_smooth(VideoSpikeNet(micro_model_config(), seed=seed))
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        clip = rng.random((2, 2, 3, 16, 16))
        labels = np.array([0, 2])

        def loss_value():
            return cross_entropy(model(ad.tensor(clip)), labels)

        loss = loss_value()
        if not np.isfinite(loss.item()):
            raise FloatingPointError("composed model produced non-finite loss")
        ad.backward(loss)

        max_rel = 0.0
        errs = []
        for name, p in model.named_parameters():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            a_flat = np.asarray(analytic).reshape(-1)
            picks = rng.choice(flat.size, size=min(samples_per_param, flat.size),
                               replace=False)
            for j in picks:
                orig = flat[j]

                def central(h):
                    with ad.no_grad():
                        flat[j] = orig + h
                        f_plus = loss_value().item()
                        flat[j] = orig - h
                        f_minus = loss_value().item()
                        flat[j] = orig
                    return (f_plus - f_minus) / (2 * h)

                # Richardson extrapolation cancels the O(h^2) truncation term,
                # which dominates here (deeply composed sigmoids -> large curvature)
                numeric = (4 * central(step / 2) - central(step)) / 3
                denom = max(1.0, abs(a_flat[j]), abs(numeric))
                rel = abs(a_flat[j] - numeric) / denom
                errs.append(rel)
                max_rel = max(max_rel, rel)
    return ad.GradCheckReport(max_rel, tol, errs)
