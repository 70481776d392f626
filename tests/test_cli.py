"""Configuration plumbing, command behavior, and exit codes."""

import csv
import hashlib
import json
import os
import struct

import numpy as np
import pytest
import yaml

from spikevid import autodiff as ad
from spikevid import cli, container
from spikevid import data as data_mod
from spikevid import model as model_mod
from spikevid.data import gen_moving_patterns, save_dataset
from spikevid.layers import BatchNorm
from spikevid.model import (ModelConfig, VideoSpikeNet, load_checkpoint, save_checkpoint,
                            time_major, variant_config)
from spikevid.training import TrainConfig

from conftest import make_rng, tiny_config


FAST = [
    "--set", "train.epochs=2", "--set", "train.warmup_epochs=1",
    "--set", "data.num_train=16", "--set", "data.num_test=8",
]


def run_cli(tmp_path, *argv):
    os.environ["SPIKEVID_OUT_ROOT"] = str(tmp_path)
    try:
        return cli.main(list(argv))
    finally:
        del os.environ["SPIKEVID_OUT_ROOT"]


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = cli.parse_config()
        assert cfg["model"]["variant"] == "tiny"
        assert cfg["train"]["epochs"] == 30

    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"train": {"epochs": 5}}))
        cfg = cli.parse_config(str(path))
        assert cfg["train"]["epochs"] == 5
        assert cfg["train"]["batch_size"] == 16  # untouched default

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"train": {"epochs": 5}}))
        cfg = cli.parse_config(str(path), overrides=["train.epochs=7"])
        assert cfg["train"]["epochs"] == 7

    def test_unknown_key_named_with_suggestion(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(overrides=["train.epochz=1"])
        msg = str(err.value)
        assert "train.epochz" in msg and "epochs" in msg

    def test_unknown_section_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(overrides=["optimizer.lr=1"])

    def test_type_mismatch_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(overrides=["train.epochs=fast"])
        with pytest.raises(cli.ConfigError):
            cli.parse_config(overrides=["model.variant=3"])

    def test_override_without_equals_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(overrides=["train.epochs"])

    def test_defaults_come_from_the_config_objects(self):
        cfg = cli.parse_config()
        model, train = ModelConfig(), TrainConfig()
        assert cfg["train"] == {key: getattr(train, key) for key in (
            "epochs", "batch_size", "base_lr", "warmup_epochs", "weight_decay", "grad_clip")}
        assert cli._train_config(cfg) == train  # run.seed and TrainConfig.seed are both 0
        m, d = cfg["model"], cfg["data"]
        assert (m["time_steps"], m["norm_mode"]) == (model.time_steps, model.norm_mode)
        assert (m["neuron_kind"], m["surrogate_alpha"]) == (model.neuron.kind,
                                                            model.neuron.surrogate_alpha)
        assert (d["classes"], d["height"], d["width"]) == (model.num_classes, model.in_height,
                                                           model.in_width)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert cli.parse_config(str(path)) == cli.parse_config()

    def test_yaml_typed_overrides(self):
        cfg = cli.parse_config(overrides=[
            "train.base_lr=0.01", "model.use_local_pathway=false",
            "noise.gaussian=[0.0, 0.5]",
        ])
        assert cfg["train"]["base_lr"] == 0.01
        assert cfg["model"]["use_local_pathway"] is False
        assert cfg["noise"]["gaussian"] == [0.0, 0.5]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run_cli(out, "train", *FAST)
    assert code == cli.EXIT_OK
    return out


class TestCommands:

    def test_train_outputs(self, trained):
        run_dir = trained / "train"
        assert (run_dir / "config.resolved").exists()
        assert (run_dir / "checkpoints" / "final.ckpt").exists()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert {"epoch", "train_loss", "top1"} <= set(rec)
        csv_lines = (run_dir / "summary.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + one row per epoch

    def test_train_records_its_environment(self, trained):
        run_dir = trained / "train"
        env = json.loads((run_dir / "environment.json").read_text())
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        threads = env["blas_threads"]
        source = next((v for v in cli.THREAD_VARS if v in os.environ), "cpu_count")
        assert threads["source"] == source
        assert str(threads["value"]) == os.environ.get(source, str(os.cpu_count()))
        assert env["conv_threads"] == (2 if len(os.sched_getaffinity(0)) > 1 else 1)
        # the resolved config, beside it, still loads as a config file
        resolved = yaml.safe_load((run_dir / "config.resolved").read_text())
        assert cli.parse_config(str(run_dir / "config.resolved")) == resolved

    @pytest.mark.parametrize("set_vars, source, value", [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "OPENBLAS_NUM_THREADS", "1"),
        ({"OMP_NUM_THREADS": "2"}, "OMP_NUM_THREADS", "2"),
        ({}, "cpu_count", os.cpu_count()),
    ], ids=["openblas", "omp", "cores"])
    def test_environment_thread_setting(self, monkeypatch, set_vars, source, value):
        for var in cli.THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, v in set_vars.items():
            monkeypatch.setenv(var, v)
        assert cli._environment()["blas_threads"] == {"source": source, "value": value}

    def test_eval_uses_checkpoint(self, trained, tmp_path):
        ckpt = trained / "train" / "checkpoints" / "final.ckpt"
        code = run_cli(tmp_path, "eval", "--set", f"model.checkpoint={ckpt}",
                       *FAST)
        assert code == cli.EXIT_OK
        rec = json.loads((tmp_path / "eval" / "metrics.jsonl").read_text())
        assert 0.0 <= rec["top1"] <= 1.0

    def test_profile_outputs(self, trained, tmp_path):
        ckpt = trained / "train" / "checkpoints" / "final.ckpt"
        code = run_cli(tmp_path, "profile", "--set", f"model.checkpoint={ckpt}",
                       *FAST)
        assert code == cli.EXIT_OK
        prof_dir = tmp_path / "profile" / "profile"
        assert (prof_dir / "layer_costs.csv").exists()
        summary = json.loads((prof_dir / "energy_summary.json").read_text())
        assert summary["energy_mJ"] >= 0
        rates = json.loads((prof_dir / "firing_rates.json").read_text())
        assert set(rates) == {"rates", "traces", "taus"}

    def test_noise_eval_table(self, trained, tmp_path):
        ckpt = trained / "train" / "checkpoints" / "final.ckpt"
        code = run_cli(tmp_path, "noise-eval", "--set", f"model.checkpoint={ckpt}",
                       *FAST)
        assert code == cli.EXIT_OK
        table = (tmp_path / "noise-eval" / "noise_table.csv").read_text().splitlines()
        header, values = table
        assert header.split(",")[0] == "null"
        assert "gaussian_a=1.0" in header and "salt_pepper_P=0.3" in header
        assert len(header.split(",")) == len(values.split(","))

    def test_noise_zero_level_equals_clean(self, trained, tmp_path):
        ckpt = trained / "train" / "checkpoints" / "final.ckpt"
        run_cli(tmp_path, "noise-eval", "--set", f"model.checkpoint={ckpt}", *FAST)
        rows = [json.loads(l) for l in
                (tmp_path / "noise-eval" / "metrics.jsonl").read_text().splitlines()]
        clean = next(r["top1"] for r in rows if r["noise"] == "null")
        a0 = next(r["top1"] for r in rows
                  if r["noise"] == "gaussian" and r["level"] == 0.0)
        assert a0 == clean

    def test_gradcheck_command(self, tmp_path):
        code = run_cli(tmp_path, "gradcheck")
        assert code == cli.EXIT_OK
        recs = [json.loads(l) for l in
                (tmp_path / "gradcheck" / "metrics.jsonl").read_text().splitlines()]
        assert all(r["passed"] for r in recs)
        assert any(r["check"] == "composed_model" for r in recs)

    def test_profile_runs_one_pass(self, tmp_path, monkeypatch):
        calls = []
        forward = VideoSpikeNet.forward

        def counted(self, clip):
            calls.append(clip.shape[1])
            return forward(self, clip)

        monkeypatch.setattr(VideoSpikeNet, "forward", counted)
        code = run_cli(tmp_path, "profile", "--set", "data.num_test=10",
                       "--set", "train.batch_size=4")
        assert code == cli.EXIT_OK
        assert calls == [4, 4, 2]  # ceil(10 / 4) batches, each seen once

    def test_profile_of_a_spiking_model(self, tmp_path):
        # BatchNorm statistics from one train-mode batch at momentum 1: a model
        # that spikes without training
        clips = gen_moving_patterns(seed=2, num=16).clips
        model = VideoSpikeNet(ModelConfig(), seed=0)
        for _, m in model.modules():
            if isinstance(m, BatchNorm):
                m.momentum = 1.0
        model.train()
        with ad.no_grad():
            model(ad.tensor(time_major(clips)))
        ckpt = tmp_path / "calibrated.ckpt"
        save_checkpoint(model, ckpt)
        code = run_cli(tmp_path, "profile", "--set", f"model.checkpoint={ckpt}",
                       "--set", "data.num_test=16")
        assert code == cli.EXIT_OK
        prof_dir = tmp_path / "profile" / "profile"
        summary = json.loads((prof_dir / "energy_summary.json").read_text())
        assert summary["total_sops"] > 0
        rates = json.loads((prof_dir / "firing_rates.json").read_text())["rates"]
        assert max(rates.values()) > 0
        with open(prof_dir / "layer_costs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        qkv = [r for r in rows if r["layer"].endswith(".qkv")]
        assert qkv and all(r["exact_acs"] != "" for r in qkv)
        # each row's energy_pJ is rounded to 0.1 pJ
        total = sum(float(r["energy_pJ"]) for r in rows)
        assert abs(total - summary["energy_pJ"]) <= 0.05 * len(rows)

    @pytest.mark.parametrize("command", ["eval", "profile", "noise-eval"])
    def test_eval_commands_generate_only_the_test_split(self, tmp_path, monkeypatch, command):
        generate = data_mod.gen_moving_patterns
        nums = []

        def recorded(seed, **kw):
            nums.append(kw["num"])
            if kw["num"] != 8:  # never generate the (huge) training split
                pytest.fail(f"generated {kw['num']} clips")
            return generate(seed, **kw)

        monkeypatch.setattr(data_mod, "gen_moving_patterns", recorded)
        code = run_cli(tmp_path, command, "--set", "data.num_train=1000000000",
                       "--set", "data.num_test=8")
        assert code == cli.EXIT_OK
        assert nums == [8]

    def test_dataset_file_input(self, tmp_path):
        ds = gen_moving_patterns(seed=4, num=16)
        path = tmp_path / "clips.bin"
        save_dataset(ds, path)
        code = run_cli(tmp_path, "eval", "--set", f"data.path={path}")
        assert code == cli.EXIT_OK

    def test_two_clip_file_gives_each_split_a_clip(self, tmp_path):
        path = tmp_path / "two.bin"
        save_dataset(gen_moving_patterns(seed=4, num=2), path)
        assert run_cli(tmp_path, "eval", "--set", f"data.path={path}") == cli.EXIT_OK
        with open(tmp_path / "eval" / "metrics.jsonl") as fh:
            assert json.loads(fh.readline())["num_clips"] == 1


class TestExitCodes:
    def test_config_error(self, tmp_path):
        assert run_cli(tmp_path, "train", "--set", "nope=1") == cli.EXIT_CONFIG

    def test_config_file_missing(self, tmp_path):
        assert run_cli(tmp_path, "train", "--config", "/does/not/exist.yaml") == cli.EXIT_CONFIG

    def test_data_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        assert run_cli(tmp_path, "eval", "--set", f"data.path={bad}") == cli.EXIT_DATA

    def test_clip_file_too_small_to_split_is_data_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "one.bin"
        save_dataset(gen_moving_patterns(seed=0, num=1), path)
        monkeypatch.setattr(cli, "VideoSpikeNet", lambda *a, **k: pytest.fail("model built"))
        assert run_cli(tmp_path, "eval", "--set", f"data.path={path}") == cli.EXIT_DATA
        assert "1 clips" in capsys.readouterr().err

    @pytest.fixture
    def no_forward(self, monkeypatch):
        monkeypatch.setattr(VideoSpikeNet, "forward",
                            lambda self, clip: pytest.fail("a forward ran"))

    @pytest.mark.parametrize("overrides, keys", [
        ([], ["data.classes"]),  # 8 classes against the checkpoint's 4
        (["data.classes=4", "data.height=24", "data.width=24"], ["data.height", "data.width"]),
        (["data.classes=4", "model.time_steps=4"], ["model.time_steps"]),
    ], ids=["classes", "frame-size", "time-steps"])
    @pytest.mark.parametrize("command", ["eval", "profile", "noise-eval"])
    def test_generated_data_the_checkpoint_cannot_take_is_config_error(
            self, tmp_path, no_forward, capsys, command, overrides, keys):
        ckpt = tmp_path / "four.ckpt"
        save_checkpoint(VideoSpikeNet(ModelConfig(num_classes=4), seed=0), ckpt)
        sets = [a for o in overrides for a in ("--set", o)]
        code = run_cli(tmp_path, command, "--set", f"model.checkpoint={ckpt}",
                       "--set", "data.num_test=8", *sets)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: generated data does not fit the checkpoint")
        assert [k for k in ("model.time_steps", "data.height", "data.width", "data.classes")
                if k in err] == keys

    @pytest.mark.parametrize("existing", [False, True], ids=["new-run-dir", "existing-run-dir"])
    def test_config_error_in_the_command_removes_only_a_run_dir_it_made(
            self, tmp_path, no_forward, existing):
        ckpt = tmp_path / "four.ckpt"
        save_checkpoint(VideoSpikeNet(ModelConfig(num_classes=4), seed=0), ckpt)
        kept = tmp_path / "eval" / "metrics.jsonl"
        if existing:
            kept.parent.mkdir()
            kept.write_text("an earlier run\n")
        code = run_cli(tmp_path, "eval", "--set", f"model.checkpoint={ckpt}",
                       "--set", "data.num_test=8")
        assert code == cli.EXIT_CONFIG
        assert (tmp_path / "eval").is_dir() == existing
        if existing:
            assert kept.read_text() == "an earlier run\n"

    @pytest.mark.parametrize("command", ["eval", "profile", "noise-eval"])
    def test_refused_run_leaves_an_existing_run_dir_unchanged(
            self, tmp_path, no_forward, command):
        ckpt = tmp_path / "four.ckpt"
        save_checkpoint(VideoSpikeNet(ModelConfig(num_classes=4), seed=0), ckpt)
        run_dir = tmp_path / command
        run_dir.mkdir()
        earlier = {"config.resolved": b"an earlier run's config\n",
                   "metrics.jsonl": b"an earlier run's metrics\n"}
        for name, content in earlier.items():
            (run_dir / name).write_bytes(content)
        code = run_cli(tmp_path, command, "--set", f"model.checkpoint={ckpt}",
                       "--set", "data.num_test=8")  # 8 classes against the checkpoint's 4
        assert code == cli.EXIT_CONFIG
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == earlier

    def test_generated_subset_of_checkpoint_classes_is_accepted(self, tmp_path):
        ckpt = tmp_path / "eight.ckpt"
        save_checkpoint(VideoSpikeNet(ModelConfig(), seed=0), ckpt)
        assert run_cli(tmp_path, "eval", "--set", f"model.checkpoint={ckpt}",
                       "--set", "data.num_test=8", "--set", "data.classes=4") == cli.EXIT_OK

    @pytest.mark.parametrize("command, case", [
        ("train", "labels"), ("eval", "labels"), ("train", "frames"), ("eval", "frames"),
        ("eval", "checkpoint-labels"),
    ])
    def test_clip_file_the_model_cannot_take_is_data_error(
            self, tmp_path, no_forward, capsys, command, case):
        path = tmp_path / "clips.bin"
        sets = ["--set", f"data.path={path}", "--set", "data.classes=4", *FAST]
        if case == "frames":
            save_dataset(gen_moving_patterns(seed=0, num=8, classes=4, H=24, W=24), path)
            expect = "clips of shape [8, 3, 24, 24], the model takes [8, 3, 32, 32]"
        else:
            save_dataset(gen_moving_patterns(seed=0, num=8, classes=8), path)
            expect = "labels in [0, 7], the model has 4 classes"
        if case == "checkpoint-labels":
            ckpt = tmp_path / "four.ckpt"
            save_checkpoint(VideoSpikeNet(ModelConfig(num_classes=4), seed=0), ckpt)
            sets[3] = "data.classes=8"  # the checkpoint's 4 classes bound the labels
            sets += ["--set", f"model.checkpoint={ckpt}"]
        assert run_cli(tmp_path, command, *sets) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and expect in err

    @pytest.mark.parametrize("damage", ["magic", "checksum", "truncate"])
    def test_corrupt_checkpoint_is_data_error(self, tmp_path, damage, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(VideoSpikeNet(tiny_config(), seed=0), ckpt)
        blob = bytearray(ckpt.read_bytes())
        if damage == "magic":
            blob[:8] = b"WRONGMAG"
        elif damage == "checksum":
            blob[len(blob) // 2] ^= 0x01
        else:
            blob = blob[: len(blob) // 2]
        ckpt.write_bytes(bytes(blob))
        code = run_cli(tmp_path, "eval", "--set", f"model.checkpoint={ckpt}", *FAST)
        assert code == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [{"channels": [16, 0, 48, 64]}, {"pe_padding": -1}],
                             ids=lambda d: next(iter(d)))
    def test_checkpoint_config_out_of_range_is_data_error(self, tmp_path, capsys, change):
        """A checkpoint whose frame, CRC and config digest are valid but whose
        config holds an out-of-range extent is refused while it is read."""
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(VideoSpikeNet(ModelConfig(), seed=0), ckpt)
        body = ckpt.read_bytes()[len(model_mod._MAGIC) + 4:-4]  # after the version, before the CRC
        (cfg_len,) = struct.unpack("<I", body[:4])
        cfg = json.loads(body[4:4 + cfg_len])
        cfg.update(change)
        cfg_json = json.dumps(cfg, sort_keys=True).encode()
        digest = hashlib.sha256(cfg_json).hexdigest().encode()  # ModelConfig.digest's
        rest = body[4 + cfg_len + len(digest):]
        container.write(ckpt, model_mod._MAGIC, model_mod._VERSION,
                        struct.pack("<I", len(cfg_json)) + cfg_json + digest + rest)
        code = run_cli(tmp_path, "eval", "--set", f"model.checkpoint={ckpt}", *FAST)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and next(iter(change)) in err

    def test_out_of_memory_is_config_error(self, tmp_path, monkeypatch, capsys):
        def oversized(cfg, out_dir):  # no real allocation is attempted
            raise MemoryError("Unable to allocate 11.2 TiB for an array")

        monkeypatch.setitem(cli.COMMANDS, "noise-eval", oversized)
        assert run_cli(tmp_path, "noise-eval") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory (Unable to allocate 11.2 TiB")
        for key in ("data.height", "data.width", "data.num_train", "data.num_test",
                    "model.time_steps"):
            assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "noise-eval").exists()  # the run directory it made is gone

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numeric_error(self, tmp_path):
        # a diverging learning rate drives the loss to non-finite values
        code = run_cli(tmp_path, "train", *FAST, "--set", "train.base_lr=1.0e+9",
                       "--set", "train.grad_clip=1.0e+9")
        assert code == cli.EXIT_NUMERIC


    @pytest.mark.parametrize("override", [
        "model.variant=huge",
        "model.norm_mode=layer",
        "model.neuron_kind=IZH",
        "train.warmup_epochs=2",  # FAST runs 2 epochs
        "data.classes=0",
        "data.classes=17",  # the generator has 16 motion classes
        "train.batch_size=0",
        "train.grad_clip=-1",
        "train.warmup_epochs=-1",
        "train.weight_decay=-1.0",
    ])
    def test_invalid_model_or_train_value_is_config_error(self, tmp_path, override):
        code = run_cli(tmp_path, "train", *FAST, "--set", override)
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "train").exists()  # rejected before any work

    @pytest.mark.parametrize("command, overrides", [
        ("noise-eval", ['noise.gaussian=["a"]']),
        ("eval", ["data.height=4", "data.width=4"]),  # the 6-pixel pattern does not fit
        ("eval", ["model.time_steps=1"]),  # motion needs 2 frames
        ("eval", ["data.num_test=0"]),
        ("train", ["data.num_train=0"]),
        ("eval", ["data.num_train=-1"]),
        ("noise-eval", ["noise.gaussian=[-1]"]),
        ("noise-eval", ["noise.salt_pepper=[2]"]),
        ("gradcheck", ["gradcheck.tolerance=-1"]),
    ], ids=["gaussian-not-a-number", "frame-too-small", "one-frame", "no-test-clips",
            "no-train-clips", "negative-train-clips", "gaussian-negative",
            "salt-pepper-above-one", "tolerance-negative"])
    def test_value_its_consumer_rejects_is_config_error(self, tmp_path, command, overrides):
        sets = [a for o in overrides for a in ("--set", o)]
        assert run_cli(tmp_path, command, *FAST, *sets) == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []  # rejected before any work

    @pytest.mark.parametrize("command, override", [
        ("train", "data.num_train=0"),
        ("eval", "data.num_test=0"),
        ("eval", "data.num_train=0"),
    ])
    def test_empty_split_error_names_its_key(self, tmp_path, command, override, capsys):
        assert run_cli(tmp_path, command, *FAST, "--set", override) == cli.EXIT_CONFIG
        assert override.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "train.epochs=.inf",
        "train.base_lr=.nan",
        "train.base_lr=.inf",
        "train.grad_clip=.nan",
        "noise.gaussian=[.inf]",
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, override, capsys):
        assert run_cli(tmp_path, "train", *FAST, "--set", override) == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []  # rejected before any work
        assert override.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2**32, -1])
    def test_seed_outside_checkpoint_range_is_config_error(self, tmp_path, seed):
        code = run_cli(tmp_path, "train", *FAST, "--set", f"run.seed={seed}")
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("command, override", [
        ("train", "data.seed=-1"),
        ("noise-eval", "noise.seed=-1"),
    ])
    def test_negative_data_or_noise_seed_is_config_error(
            self, tmp_path, monkeypatch, no_forward, capsys, command, override):
        monkeypatch.setattr(data_mod, "gen_moving_patterns",
                            lambda *a, **k: pytest.fail("data generated"))
        assert run_cli(tmp_path, command, *FAST, "--set", override) == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []  # rejected before any work
        assert override.split("=")[0] in capsys.readouterr().err

    def test_largest_checkpoint_seed_accepted(self):
        assert cli.parse_config(overrides=[f"run.seed={2**32 - 1}"])["run"]["seed"] == 2**32 - 1

    def test_checkpoint_set_for_train_is_config_error(self, tmp_path):
        code = run_cli(tmp_path, "train", *FAST, "--set", "model.checkpoint=final.ckpt")
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "train").exists()

    def test_local_pathway_the_variant_cannot_take_is_config_error(self, tmp_path):
        code = run_cli(tmp_path, "train", *FAST, "--set", "model.variant=3stg",
                       "--set", "model.use_local_pathway=true")
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "train").exists()

    def test_local_pathway_must_be_boolean(self, tmp_path):
        code = run_cli(tmp_path, "train", *FAST, "--set", "model.use_local_pathway=3")
        assert code == cli.EXIT_CONFIG

    def test_local_pathway_null_means_the_variant_default(self):
        cfg = cli.parse_config(overrides=["model.use_local_pathway=null"])
        assert cfg["model"]["use_local_pathway"] is None

    @pytest.mark.parametrize("override", [
        "run.run_id=5",
        "model.checkpoint=7",
        "data.path=3",
        "train.batch_size=null",  # only keys that default to null take null
        "model.time_steps=null",
    ])
    def test_wrong_type_for_a_key_is_config_error(self, tmp_path, override, capsys):
        code = run_cli(tmp_path, "eval", "--set", override)
        assert code == cli.EXIT_CONFIG
        assert "expected a" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # rejected before any work


class TestVariants:
    """Every variant is built for the data's frame size and class count."""

    ONE_EPOCH = ["--set", "train.epochs=1", "--set", "train.warmup_epochs=0",
                 "--set", "data.num_train=8", "--set", "data.num_test=4"]

    def trained_config(self, tmp_path, *overrides):
        sets = [a for o in overrides for a in ("--set", o)]
        assert run_cli(tmp_path, "train", *self.ONE_EPOCH, *sets) == cli.EXIT_OK
        return load_checkpoint(tmp_path / "train" / "checkpoints" / "final.ckpt").cfg

    def test_base_on_small_frames(self, tmp_path):
        cfg = self.trained_config(
            tmp_path, "model.variant=base", "data.classes=5", "data.height=16",
            "data.width=16", "model.use_local_pathway=false")
        assert cfg.stage_depths == variant_config("base").stage_depths
        assert (cfg.in_height, cfg.in_width, cfg.num_classes) == (16, 16, 5)
        assert cfg.use_local_pathway is False

    def test_base_keeps_its_local_pathway_by_default(self):
        cfg = cli._model_config(cli.parse_config(overrides=["model.variant=base"]))
        assert cfg.use_local_pathway is True
        assert (cfg.in_height, cfg.in_width, cfg.num_classes) == (32, 32, 8)

    def test_3stg(self, tmp_path):
        cfg = self.trained_config(tmp_path, "model.variant=3stg")
        assert cfg.stage_depths == variant_config("3stg").stage_depths
        assert (cfg.in_height, cfg.in_width, cfg.num_classes) == (32, 32, 8)
        assert cfg.use_local_pathway is False


class TestDeterminism:
    def test_same_seed_reproduces_metrics(self, tmp_path):
        run_cli(tmp_path / "a", "train", *FAST)
        run_cli(tmp_path / "b", "train", *FAST)
        rec_a = [json.loads(l) for l in
                 (tmp_path / "a" / "train" / "metrics.jsonl").read_text().splitlines()]
        rec_b = [json.loads(l) for l in
                 (tmp_path / "b" / "train" / "metrics.jsonl").read_text().splitlines()]
        for a, b in zip(rec_a, rec_b):
            a.pop("wall_time")
            b.pop("wall_time")
            assert a == b
