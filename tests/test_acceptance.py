"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single `ACCEPTANCE nn <name>: PASS|FAIL` line (bypassing
pytest capture) and then asserts, so a plain run shows the full scorecard.
The long-running criteria (8-10) share one 30-epoch training run through a
module-scoped fixture.
"""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from spikevid import autodiff as ad
from spikevid import cli
from spikevid import profiler as prof
from spikevid.blocks import GlobalSelfAttention, LocalFeatureExtractor
from spikevid.data import (
    add_gaussian_noise,
    add_salt_pepper,
    gen_moving_patterns,
    shuffle_frames,
)
from spikevid.layers import (
    PLAIN_BN,
    TDBN,
    BatchNorm,
    Conv,
    ConvBN,
    Linear,
    LinearBN,
    fuse_linear_layers,
)
from spikevid.model import ModelConfig, VideoSpikeNet
from spikevid.neurons import NeuronConfig, SpikingLayer, plif_a_for_tau
from spikevid.training import TrainConfig, evaluate, fit, tau_table
from spikevid.verification import run_gradient_checks

from conftest import make_rng


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def spikes(shape, seed, p=0.3):
    return (make_rng(seed).random(shape) < p).astype(np.float32)


# ---------------------------------------------------------------------------
# 1. energy arithmetic


def test_criterion_01_energy_reproduction(report):
    rep = prof.energy_from_totals(0.700e9, 20.760e9)
    em = prof.EnergyModel()
    ann_mj = em.e_mac * 229.163e9 / prof.PJ_PER_MJ
    ratio = 100.0 * rep["energy_mJ"] / ann_mj
    ok = (
        abs(rep["energy_mJ"] - 21.904) <= 0.001
        and abs(ann_mj - 1054.148) <= 0.01
        and abs(ratio - 2.08) <= 0.01
    )
    report(1, "energy-reproduction", ok,
           f"{rep['energy_mJ']:.3f} mJ vs {ann_mj:.3f} mJ, ratio {ratio:.2f}%")


# ---------------------------------------------------------------------------
# 2. gradient integrity


def test_criterion_02_gradient_integrity(report):
    t0 = time.time()
    reports = run_gradient_checks(seed=0, tol=1e-4)
    elapsed = time.time() - t0
    worst = max(r.max_rel_err for r in reports.values())
    peak = ad.surrogate_slope(np.zeros(1), v_threshold=0.0, alpha=4.0)[0]
    ok = (
        all(r.passed for r in reports.values())
        and "composed_model" in reports
        and abs(peak - 4.0 / 4.0) <= 1e-8
        and elapsed < 60.0
    )
    report(2, "gradient-integrity", ok,
           f"{len(reports)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. neuron dynamics oracle


def _scalar_recurrence(x_seq, kappa, v_th, v_reset=0.0):
    """Independent float64 evaluator of the membrane recurrence."""
    out = []
    v = np.full(np.shape(x_seq[0]), float(v_reset))
    for x in np.asarray(x_seq, dtype=np.float64):
        h = v + kappa * (x - (v - v_reset))
        s = (h >= v_th).astype(np.float64)
        v = h * (1 - s) + v_reset * s
        out.append(s)
    return np.stack(out)


def test_criterion_03_neuron_dynamics_oracle(report):
    rng = make_rng(42)
    mismatched = 0
    with ad.precision(np.float64):
        for trial in range(1000):
            tau = float(rng.uniform(1.1, 10.0))
            v_th = float(rng.uniform(0.2, 3.0))
            x = rng.standard_normal((6, 3))
            if trial % 2 == 0:
                cfg = NeuronConfig(kind="LIF", tau=tau, v_threshold=v_th)
            else:
                # the learned-leak neuron at a = -ln(tau - 1) must reproduce
                # the fixed-leak dynamics against the same 1/tau oracle
                cfg = NeuronConfig(kind="PLIF", a_init=plif_a_for_tau(tau),
                                   v_threshold=v_th)
            layer = SpikingLayer(cfg)
            out = layer(ad.tensor(x)).data
            if not np.array_equal(out, _scalar_recurrence(x, 1.0 / tau, v_th)):
                mismatched += 1
            if trial % 2 == 1:
                assert layer.effective_tau() == pytest.approx(tau, rel=1e-9)
    report(3, "neuron-dynamics-oracle", mismatched == 0,
           f"{mismatched}/1000 scenarios mismatched")


# ---------------------------------------------------------------------------
# 4. binarity audit


def test_criterion_04_binarity_audit(report):
    model = VideoSpikeNet(ModelConfig(), seed=0)
    clips = gen_moving_patterns(seed=0, num=8).clips
    violators = prof.audit_binarity(model, clips)
    table = prof.build_cost_table(model, clips)
    mac_billed = [c.name for c in table if c.mac_billed]
    ok = violators == [] and mac_billed == ["patch_embeds.0.convbn.conv"]
    report(4, "binarity-audit", ok,
           f"{len(violators)} violations, MAC-billed: {mac_billed}")


# ---------------------------------------------------------------------------
# 5. time-dependent BN causality


def test_criterion_05_tdbn_causality(report):
    rng = make_rng(3)
    causal = True
    bn = BatchNorm(2, norm_mode=TDBN, time_steps=4, layout="map")
    for _ in range(100):
        t_cut = int(rng.integers(0, 3))
        x = rng.standard_normal((4, 3, 2, 4, 4)).astype(np.float32)
        y = x.copy()
        y[t_cut + 1:] = rng.standard_normal(y[t_cut + 1:].shape).astype(np.float32)
        out_x = bn(ad.tensor(x)).data
        out_y = bn(ad.tensor(y)).data
        if not np.array_equal(out_x[: t_cut + 1], out_y[: t_cut + 1]):
            causal = False
    x = rng.standard_normal((1, 5, 3, 4, 4)).astype(np.float32)
    plain = BatchNorm(3, norm_mode=PLAIN_BN, layout="map")
    tdbn1 = BatchNorm(3, norm_mode=TDBN, time_steps=1, layout="map")
    t1_equal = np.array_equal(plain(ad.tensor(x)).data, tdbn1(ad.tensor(x)).data)
    report(5, "tdbn-causality", causal and t1_equal,
           f"100 pairs causal={causal}, T=1 plain-equivalence={t1_equal}")


# ---------------------------------------------------------------------------
# 6. shape / identity laws


def test_criterion_06_shape_identity_laws(report):
    rng = make_rng(1)
    shapes_ok = True
    for trial in range(50):
        C = int(rng.choice([2, 4, 8]))
        T = int(rng.integers(1, 4))
        B = int(rng.integers(1, 3))
        H = int(rng.choice([4, 6]))
        norm = str(rng.choice(["plain", "tdbn"]))
        cfg = ModelConfig(norm_mode=norm, time_steps=T, mlp_ratio=int(rng.integers(1, 3)))
        cls = LocalFeatureExtractor if trial % 2 == 0 else GlobalSelfAttention
        block = cls(cfg, C, make_rng(100 + trial))
        x = ad.tensor(rng.standard_normal((T, B, C, H, H)).astype(np.float32))
        shapes_ok &= block(x).shape == x.shape

    identity_ok = True
    for cls in (LocalFeatureExtractor, GlobalSelfAttention):
        block = cls(ModelConfig(norm_mode="plain", time_steps=2), 4, make_rng(2))
        for _, p in block.named_parameters():
            p.data = np.zeros_like(p.data)
        x = ad.tensor(make_rng(3).standard_normal((2, 2, 4, 4, 4)).astype(np.float32))
        identity_ok &= np.array_equal(block(x).data, x.data)

    assoc_ok = True
    for _ in range(20):
        q = spikes((2, 2, 9, 4), int(rng.integers(1 << 30)))
        k = spikes((2, 2, 9, 4), int(rng.integers(1 << 30)))
        v = spikes((2, 2, 9, 4), int(rng.integers(1 << 30)))
        kt = np.swapaxes(k, -1, -2)
        assoc_ok &= np.allclose(q @ (kt @ v) * 0.125, (q @ kt) @ v * 0.125, atol=1e-4)

    ok = shapes_ok and identity_ok and assoc_ok
    report(6, "shape-identity-laws", ok,
           f"shapes={shapes_ok}, zero-init identity={identity_ok}, "
           f"association={assoc_ok}")


# ---------------------------------------------------------------------------
# 7. rate-estimate / exact-count equivalence


def test_criterion_07_sop_ac_equivalence(report):
    rng = make_rng(4)
    exact_ok = True
    for trial in range(100):
        B = int(rng.integers(1, 5))
        if trial % 2 == 0:
            f_in, f_out = int(rng.integers(1, 16)), int(rng.integers(1, 16))
            x = spikes((B, f_in), 1000 + trial, p=float(rng.random()))
            flops = B * f_in * f_out
            exact = prof.exact_ac_count_linear(x, f_out)
        else:
            C, O, H = (int(rng.integers(1, 6)) for _ in range(3))
            H += 2
            x = spikes((B, C, H, H), 1000 + trial, p=float(rng.random()))
            flops = B * H * H * O * C
            exact = prof.exact_ac_count_conv(x, kernel=1, stride=1, padding=0,
                                             groups=1, out_channels=O)
        # evaluated in exact rational arithmetic: fr * FLOPs is an identity,
        # not an estimate, for uniform-fanout layers
        estimate = Fraction(int(x.sum()), x.size) * flops
        exact_ok &= estimate == Fraction(int(exact))

    bounds_ok = True
    for trial in range(20):
        N, C = int(rng.integers(2, 12)), int(rng.integers(2, 8))
        q = spikes((1, 2, N, C), 500 + trial, p=float(rng.random()))
        k = spikes((1, 2, N, C), 600 + trial, p=float(rng.random()))
        v = spikes((1, 2, N, C), 700 + trial, p=float(rng.random()))
        exact_kv = prof.exact_ac_count_matmul(k, v)
        bounds_ok &= prof.exact_ac_count_linear(q, C) <= int(q.sum()) * C
        bounds_ok &= exact_kv <= int(k.sum()) * C  # nnz(K)-derived
        bounds_ok &= exact_kv <= 2 * N * C * C     # dense K^T V
    report(7, "sop-ac-equivalence", exact_ok and bounds_ok,
           f"100 exact identities={exact_ok}, attention bounds={bounds_ok}")


# ---------------------------------------------------------------------------
# 8-10 share one full training run (about ten minutes)


@pytest.fixture(scope="module")
def trained():
    train = gen_moving_patterns(seed=0, num=320)
    test = gen_moving_patterns(seed=1, num=128)
    model = VideoSpikeNet(ModelConfig(), seed=0)
    t0 = time.time()
    history = fit(model, train.clips, train.labels, TrainConfig(),
                  test.clips, test.labels)
    wall = time.time() - t0
    return model, history, test, wall


def test_criterion_08_desk_scale_learning(report, trained):
    model, history, test, wall = trained
    best = max(m.top1 for m in history)
    shuffled = shuffle_frames(test, seed=5)
    shuf_acc = evaluate(model, shuffled.clips, shuffled.labels)
    ok = best >= 0.95 and wall < 1800.0 and shuf_acc < 0.30
    report(8, "desk-scale-learning", ok,
           f"best top1 {best:.4f} in {wall:.0f}s, frame-shuffled {shuf_acc:.4f}")


def test_criterion_09_noise_protocol(report, trained, tmp_path):
    model, _, test, _ = trained
    gauss = {}
    for a in (0.0, 0.1, 0.5, 1.0):
        noisy = add_gaussian_noise(test.clips, a, seed=7)
        gauss[a] = evaluate(model, noisy, test.labels)
    sp = {}
    for p in (0.1, 0.2, 0.3):
        noisy = add_salt_pepper(test.clips, p, seed=7)
        sp[p] = evaluate(model, noisy, test.labels)
    # persist the full table in the layout the CLI also emits
    header = ["gaussian_a=%.1f" % a for a in gauss] + \
             ["salt_pepper_P=%.1f" % p for p in sp]
    values = [f"{v:.4f}" for v in list(gauss.values()) + list(sp.values())]
    (tmp_path / "noise_table.csv").write_text(
        ",".join(header) + "\n" + ",".join(values) + "\n")
    ok = gauss[1.0] < gauss[0.0] and sp[0.3] < sp[0.1]
    report(9, "noise-protocol", ok,
           "gauss " + " ".join(f"{a}:{v:.3f}" for a, v in gauss.items())
           + " | s&p " + " ".join(f"{p}:{v:.3f}" for p, v in sp.items()))


def test_criterion_10_ablation_harness(report, trained):
    model, _, _, _ = trained
    taus = list(tau_table(model).values())
    tau_variance = float(np.var(taus))

    switches = {
        "LIF": dict(neuron=NeuronConfig(kind="LIF", tau=2.0)),
        "plain-bn": dict(norm_mode=PLAIN_BN),
        "no-local-pathway": dict(use_local_pathway=False),
        "T=8": dict(time_steps=8),
        "T=16": dict(time_steps=16),
        "T=24": dict(time_steps=24),
    }
    complete = {}
    for name, overrides in switches.items():
        base = dict(stage_depths=(1, 1, 1, 1), channels=(4, 4, 4, 4),
                    time_steps=2, in_height=16, in_width=16, num_classes=3)
        base.update(overrides)
        cfg = ModelConfig(**base)
        data = gen_moving_patterns(seed=0, num=24, T=cfg.time_steps,
                                   H=16, W=16, classes=3)
        net = VideoSpikeNet(cfg, seed=0)
        history = fit(net, data.clips, data.labels,
                      TrainConfig(epochs=2, warmup_epochs=1, batch_size=8))
        complete[name] = (len(history) == 2
                          and all(np.isfinite(m.train_loss) for m in history))
    ok = all(complete.values()) and tau_variance > 0.0
    report(10, "ablation-harness", ok,
           f"runs {complete}, learned-tau variance {tau_variance:.2e}")


# ---------------------------------------------------------------------------
# 11. fusion exactness


def test_criterion_11_fusion_exactness(report):
    rng = make_rng(14)
    cases = [
        (ConvBN(4, 6, 3, rng, padding=1, norm_mode=PLAIN_BN), (2, 3, 4, 6, 6), 40),
        (ConvBN(4, 4, 3, rng, padding=1, norm_mode=TDBN, time_steps=3),
         (3, 2, 4, 5, 5), 30),
        (LinearBN(6, 4, rng, norm_mode=TDBN, time_steps=2), (2, 3, 7, 6), 30),
    ]
    worst = 0.0
    total = 0
    for layer, shape, n_inputs in cases:
        for _ in range(10):  # accumulate nontrivial running statistics
            layer(ad.tensor(rng.standard_normal(shape).astype(np.float32)))
        layer.eval()
        fused = fuse_linear_layers(layer)
        for trial in range(n_inputs):
            x = spikes(shape, 10_000 + total, p=0.3)
            diff = np.abs(fused(ad.tensor(x)).data - layer(ad.tensor(x)).data)
            worst = max(worst, float(diff.max()))
            total += 1
    ok = total == 100 and worst <= 1e-5
    report(11, "fusion-exactness", ok, f"{total} inputs, max abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 12. determinism


def _run_cli(out_root, *argv):
    os.environ["SPIKEVID_OUT_ROOT"] = str(out_root)
    try:
        return cli.main(list(argv))
    finally:
        del os.environ["SPIKEVID_OUT_ROOT"]


def test_criterion_12_determinism(report, tmp_path):
    fast = ["--set", "train.epochs=2", "--set", "train.warmup_epochs=1",
            "--set", "data.num_train=16", "--set", "data.num_test=8"]
    for sub in ("a", "b"):
        code = _run_cli(tmp_path / sub, "train", *fast)
        assert code == cli.EXIT_OK
    recs = []
    for sub in ("a", "b"):
        lines = (tmp_path / sub / "train" / "metrics.jsonl").read_text().splitlines()
        rows = [json.loads(l) for l in lines]
        for r in rows:
            r.pop("wall_time")
        recs.append(rows)
    ckpt_a = (tmp_path / "a" / "train" / "checkpoints" / "final.ckpt").read_bytes()
    ckpt_b = (tmp_path / "b" / "train" / "checkpoints" / "final.ckpt").read_bytes()
    ok = recs[0] == recs[1] and ckpt_a == ckpt_b
    report(12, "determinism", ok,
           f"metrics identical={recs[0] == recs[1]}, "
           f"checkpoints identical={ckpt_a == ckpt_b}")
