"""Operation counting, exact accumulate oracles, and the energy model."""

import numpy as np
import pytest

from spikevid import autodiff as ad
from spikevid import profiler as prof
from spikevid.data import gen_moving_patterns
from spikevid.layers import BatchNorm, Conv, Linear
from spikevid.model import ModelConfig, VideoSpikeNet, time_major

from conftest import make_rng, tiny_config


def spikes(shape, seed, p=0.3):
    return (make_rng(seed).random(shape) < p).astype(np.float32)


class TestEnergyArithmetic:
    def test_headline_reproduction(self):
        report = prof.energy_from_totals(0.700e9, 20.760e9)
        assert report["energy_mJ"] == pytest.approx(21.904, abs=0.001)

    def test_dense_counterpart(self):
        em = prof.EnergyModel()
        assert em.e_mac * 229.163e9 / prof.PJ_PER_MJ == pytest.approx(1054.148, abs=0.01)

    def test_invalid_energy_model(self):
        with pytest.raises(ValueError):
            prof.EnergyModel(e_mac=0.0)

    def test_layer_cost_rate_bounds(self):
        with pytest.raises(ValueError):
            prof.LayerCost(name="x", kind="conv", flops=1.0, fr_in=1.5)

    def test_layer_cost_knows_its_sops_when_built(self):
        cost = prof.LayerCost(name="x", kind="conv", flops=8.0, fr_in=0.25)
        assert cost.sops == 2.0


class TestExactCounters:
    def test_linear_counter_equals_loop(self):
        for trial in range(20):
            x = spikes((4, 7), 100 + trial)
            exact = prof.exact_ac_count_linear(x, out_features=5)
            naive = sum(float(x[b].sum()) * 5 for b in range(4))
            assert exact == naive

    def test_conv_counter_equals_loop(self):
        x = spikes((2, 3, 6, 6), 1)
        exact = prof.exact_ac_count_conv(x, kernel=3, stride=1, padding=1,
                                         groups=1, out_channels=4)
        xp = np.pad(x, [(0, 0), (0, 0), (1, 1), (1, 1)])
        naive = 0.0
        for b in range(2):
            for i in range(6):
                for j in range(6):
                    naive += float(xp[b, :, i:i + 3, j:j + 3].sum()) * 4
        assert exact == naive

    def test_matmul_counter_equals_loop(self):
        a = spikes((5, 4), 2)
        b = spikes((5, 3), 3)
        exact = prof.exact_ac_count_matmul(a, b)
        naive = sum(float(a[k].sum()) * float(b[k].sum()) for k in range(5))
        assert exact == naive

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            prof.exact_ac_count_linear(np.array([[0.5]]), 1)


class TestSopEstimateIdentity:
    """For uniform-fanout layers (linear / 1x1 conv / stride-matched kernels)
    the firing-rate estimate fr * FLOP is not an estimate but an identity.
    """

    def test_linear_estimate_is_exact(self):
        rng = make_rng(4)
        for trial in range(50):
            B = int(rng.integers(1, 6))
            f_in = int(rng.integers(1, 20))
            f_out = int(rng.integers(1, 20))
            x = spikes((B, f_in), 1000 + trial, p=float(rng.random()))
            flops = B * f_in * f_out
            fr = float(x.mean(dtype=np.float64))
            exact = prof.exact_ac_count_linear(x, f_out)
            assert fr * flops == pytest.approx(exact, rel=1e-9)

    def test_pointwise_conv_estimate_is_exact(self):
        rng = make_rng(5)
        for trial in range(50):
            B = int(rng.integers(1, 4))
            C = int(rng.integers(1, 6))
            O = int(rng.integers(1, 6))
            H = int(rng.integers(2, 7))
            x = spikes((B, C, H, H), 2000 + trial, p=float(rng.random()))
            flops = B * H * H * O * C
            fr = float(x.mean(dtype=np.float64))
            exact = prof.exact_ac_count_conv(x, kernel=1, stride=1, padding=0,
                                             groups=1, out_channels=O)
            assert fr * flops == pytest.approx(exact, rel=1e-9)

    def test_overlapping_conv_estimate_is_unbiased_not_exact(self):
        # 3x3 stride-1 kernels see border pixels fewer times; the rate-based
        # estimate uses the average fanout, so it deviates per instance
        x = spikes((1, 1, 8, 8), 6, p=0.5)
        exact = prof.exact_ac_count_conv(x, kernel=3, stride=1, padding=1,
                                         groups=1, out_channels=1)
        estimate = float(x.mean()) * 8 * 8 * 9
        assert abs(exact - estimate) / estimate < 0.2  # close but not identical


@pytest.fixture(scope="module")
def profiled():
    ds = gen_moving_patterns(seed=3, num=8, T=2, H=16, W=16, classes=3)
    model = VideoSpikeNet(tiny_config(), seed=0)
    table = prof.build_cost_table(model, ds.clips, exact=True)
    return model, ds, table


class TestModelProfiling:

    def test_binarity_audit_clean(self, profiled):
        model, ds, _ = profiled
        assert prof.audit_binarity(model, ds.clips) == []

    def test_binarity_audit_detects_violation(self, profiled):
        model, ds, _ = profiled
        # clearing the encoder role makes the frame-fed conv claim binary input
        layer = model.patch_embeds[0].convbn.conv
        layer.is_encoder = False
        try:
            assert "patch_embeds.0.convbn.conv" in prof.audit_binarity(model, ds.clips)
        finally:
            layer.is_encoder = True

    def test_only_first_conv_mac_billed(self, profiled):
        _, _, table = profiled
        billed = [c.name for c in table if c.mac_billed]
        assert billed == ["patch_embeds.0.convbn.conv"]

    def test_flops_match_formula(self, profiled):
        model, ds, table = profiled
        by_name = {c.name: c for c in table}
        pe1 = by_name["patch_embeds.0.convbn.conv"]
        # 3x3 conv, 3->4 channels, 8x8 output, T=2 steps (per clip)
        assert pe1.flops == 2 * 4 * 8 * 8 * 9 * 3

    def test_ssa_costs_present_with_exact_bounds(self, profiled):
        model, ds, table = profiled
        ssa_rows = [c for c in table if c.kind == "ssa_matmul"]
        assert len(ssa_rows) == 4  # two attention blocks, kv + qkv each
        for c in ssa_rows:
            assert c.exact_acs is not None
            assert c.exact_acs <= c.flops + 1e-9  # never exceeds the dense count

    def test_sop_rate_weighting(self, profiled):
        _, _, table = profiled
        for c in table:
            assert c.sops == pytest.approx(c.fr_in * c.flops)
            assert 0.0 <= c.fr_in <= 1.0

    def test_total_energy_aggregates(self, profiled):
        _, _, table = profiled
        report = prof.total_energy(table)
        em = prof.EnergyModel()
        expect_pj = em.e_mac * report["total_flops_mac"] + em.e_ac * report["total_sops"]
        assert report["energy_pJ"] == pytest.approx(expect_pj)
        assert report["ann_energy_mJ"] >= report["energy_mJ"]

    def test_firing_rate_traces(self, profiled):
        model, ds, _ = profiled
        rates, traces = prof.record_firing_rates(model, ds.clips)
        assert set(rates) == {n for n, _ in model.spiking_layers()}
        for name, rate in rates.items():
            assert 0.0 <= rate <= 1.0

    def test_write_profile_outputs(self, profiled, tmp_path):
        _, _, table = profiled
        summary = prof.total_energy(table)
        csv_path, json_path = prof.write_profile(table, summary, tmp_path / "prof")
        import csv as csv_mod
        import json

        with open(csv_path) as fh:
            rows = list(csv_mod.reader(fh))
        assert len(rows) == len(table) + 1
        with open(json_path) as fh:
            loaded = json.load(fh)
        assert loaded["energy_mJ"] == pytest.approx(summary["energy_mJ"])


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["float32", "float64"])
def spiking(request):
    """A default model whose attention spikes, recorded over 16 clips.

    A freshly built model never spikes in eval mode, so its BatchNorm running
    statistics are first set to those of one train-mode batch (momentum 1,
    no tape), as perfbench's ``calibrate`` does.
    """
    ds = gen_moving_patterns(seed=0, num=16)
    with ad.precision(request.param):
        model = VideoSpikeNet(ModelConfig(), seed=0)
        for _, m in model.modules():
            if isinstance(m, BatchNorm):
                m.momentum = 1.0
        model.train()
        with ad.no_grad():
            model(ad.tensor(time_major(ds.clips)))
        rec = prof.record(model, ds.clips, batch_size=16)
    return rec, {c.name: c for c in prof.cost_table(rec, len(ds.clips), exact=True)}


class TestSpikingAttention:
    def test_every_attention_block_spikes(self, spiking):
        rec, _ = spiking
        assert rec.attn
        for block, exact_kv in rec.attn.items():
            assert exact_kv > 0
            for sn in (block.sn_q, block.sn_k, block.sn_v):
                assert rec.spikes[sn].rate() > 0

    def test_rates_are_the_spiking_layers_rates(self, spiking):
        rec, rows = spiking
        for block in rec.attn:
            name = rec.names[block]
            assert rows[f"{name}.kv"].fr_in == rec.spikes[block.sn_k].rate()
            assert rows[f"{name}.qkv"].fr_in == rec.spikes[block.sn_q].rate()

    def test_qkv_sops_equal_the_exact_count(self, spiking):
        # Q (K^T V) has a uniform fanout of C per Q spike, so fr * FLOPs is
        # the exact count; the spike counts are powers of two, so it is exact
        # in floating point too
        rec, rows = spiking
        for block in rec.attn:
            row = rows[f"{rec.names[block]}.qkv"]
            assert row.sops == row.exact_acs


class TestFlopCounting:
    """A layer's row bills its recorded outputs times its MACs per output."""

    def test_conv_layer_flops(self):
        conv = Conv(4, 8, 3, make_rng(7), padding=1)
        with prof.Recording(conv) as rec:
            conv(ad.tensor(spikes((2, 4, 6, 6), 8)))
        assert conv.macs_per_output() == 9 * 4
        (row,) = prof.cost_table(rec, num_clips=2)
        assert row.kind == "conv"
        assert row.flops == (8 * 6 * 6) * (9 * 4)  # per clip

    def test_linear_layer_flops(self):
        lin = Linear(16, 4, make_rng(9))
        with prof.Recording(lin) as rec:
            lin(ad.tensor(spikes((5, 16), 10)))
        assert lin.macs_per_output() == 16
        (row,) = prof.cost_table(rec, num_clips=1)
        assert row.kind == "linear"
        assert row.flops == 5 * 4 * 16


class TestRecording:
    @staticmethod
    def hooked(model):
        return [name for name, m in model.modules() if m._forward_hooks]

    def test_record_leaves_no_hook(self, profiled):
        model, ds, _ = profiled
        rec = prof.record(model, ds.clips, batch_size=3)
        assert self.hooked(model) == []
        assert not rec._kv  # no attention spikes held past their block
        per_batch = [prof.record(model, ds.clips[lo:lo + 3], batch_size=3).attn
                     for lo in range(0, len(ds.clips), 3)]
        assert len(per_batch) == 3
        for block, count in rec.attn.items():  # summed over the three batches
            assert count == sum(attn[block] for attn in per_batch)

    def test_wrong_clip_shape_leaves_no_hook(self, profiled):
        model, ds, _ = profiled
        with pytest.raises(ad.ShapeError):
            prof.record(model, ds.clips[:, :, :, :8], batch_size=4)
        assert self.hooked(model) == []

    def test_forward_raising_partway_leaves_no_hook(self, profiled):
        model, ds, _ = profiled
        ssa = model.stages[2][0].ssa

        def fail(x):
            raise ad.ShapeError("injected")

        # sn_q/sn_k/sn_v have fired and their spikes are held when out_proj raises
        ssa.out_proj.forward = fail
        try:
            with pytest.raises(ad.ShapeError, match="injected"):
                prof.record(model, ds.clips, batch_size=4)
        finally:
            del ssa.out_proj.forward
        assert self.hooked(model) == []

    def test_one_pass_feeds_table_and_rates(self, profiled):
        model, ds, table = profiled
        rec = prof.record(model, ds.clips)
        again = prof.cost_table(rec, len(ds.clips), exact=True)
        assert [vars(c) for c in again] == [vars(c) for c in table]
        assert (rec.firing_rates(), rec.traces()) == prof.record_firing_rates(model, ds.clips)


def per_step_spike_stats(batches):
    """The per-step hook loop: one sum and one mean per time step."""
    stats = prof.SpikeStats()
    for data in batches:
        for s_t in data:
            stats.total += float(s_t.sum())
            stats.count += s_t.size
            stats.step_rates.append(float(s_t.mean()))
    return stats


def elementwise_input_stats(batches):
    """The hook's reference: nonzeros counted, binarity tested per element."""
    stats = prof.InputStats()
    for data in batches:
        stats.nnz += int(np.count_nonzero(data))
        stats.size += data.size
        if stats.binary:
            stats.binary = bool(np.all((data == 0) | (data == 1)))
        stats.out_count += 2 * data.size
    return stats


class TestHooksReadOnce:
    """Each hook reads its tensor once and records what the per-step and
    per-element formulations record, to the bit."""

    @pytest.mark.parametrize("binary, dtype, shape", [
        (True, np.float32, (8, 4, 6, 5, 5)),
        (False, np.float32, (8, 4, 6, 5, 5)),  # smooth (non-binary) spikes
        (False, np.float64, (4, 3, 16, 4, 4)),
        (False, np.float32, (5, 3, 7, 11)),  # 231 elements per step
    ], ids=["binary", "smooth", "float64", "odd-step"])
    def test_spike_stats_match_per_step_loop(self, binary, dtype, shape):
        batches = [(spikes(shape, seed) if binary else make_rng(seed).random(shape)).astype(dtype)
                   for seed in (50, 51)]
        layer = object()
        rec = prof.Recording(None)
        rec.spikes[layer] = prof.SpikeStats()
        for data in batches:
            rec._on_spikes(layer, (), ad.Tensor(data))
        got, ref = rec.spikes[layer], per_step_spike_stats(batches)
        assert got.total == ref.total and got.count == ref.count
        assert got.step_rates == ref.step_rates
        assert all(type(r) is float for r in got.step_rates)

    @pytest.mark.parametrize("batches", [
        [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)],
        [np.array([0.0, 1.0, 0.5], dtype=np.float32)],
        [np.array([-0.0, 1.0, 0.0]), np.array([1.0, -0.0])],
        [np.array([0.0, np.nan, 1.0], dtype=np.float32)],
        [np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.array([1.0, 1.0])],
    ], ids=["binary", "half", "negative-zero", "nan", "non-binary-batch-sticks"])
    def test_input_stats_match_elementwise(self, batches):
        layer = object()
        rec = prof.Recording(None)
        rec.inputs[layer] = prof.InputStats()
        for data in batches:
            rec._on_linear(layer, (ad.Tensor(data),), ad.Tensor(np.zeros(2 * data.size)))
        assert rec.inputs[layer] == elementwise_input_stats(batches)
