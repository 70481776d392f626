"""Command-line front end: train, eval, profile, noise-eval, gradcheck.

Configuration is a nested YAML file; flag overrides use dotted paths
(``--set model.time_steps=16``) and win over file values. Unknown keys are
rejected with the nearest valid key. All outputs land under
``<out_root>/<run_id>/``.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure. Generated
data that a loaded checkpoint's model cannot take is a config error; a clip
file that the model cannot take is a data error. Both are found before any
forward pass.
"""

from __future__ import annotations

import argparse
import copy
import csv
import difflib
import json
import math
import os
import shutil
import sys
from dataclasses import asdict

import numpy as np
import yaml

from . import autodiff as ad
from . import data as data_mod
from . import profiler as prof
from .model import (CheckpointError, ModelConfig, VideoSpikeNet, load_checkpoint,
                    save_checkpoint, variant_config)
from .neurons import NeuronConfig
from .training import TrainConfig, check_num_clips, evaluate, fit, tau_table
from .verification import check_tolerance, run_gradient_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
# the keys that size the arrays a command allocates, named when it runs out of memory
SIZE_KEYS = ("data.height", "data.width", "data.num_train", "data.num_test", "model.time_steps")
# the variables that set OpenBLAS's thread count, in the order it reads them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# a key that a config object also holds takes its default from that object
_MODEL, _TRAIN = ModelConfig(), TrainConfig()

DEFAULTS = {
    "run": {
        "run_id": None,  # defaults to the command name
        "out_root": "out",
        "seed": 0,
    },
    "model": {
        "variant": "tiny",
        "time_steps": _MODEL.time_steps,
        "norm_mode": _MODEL.norm_mode,
        "neuron_kind": _MODEL.neuron.kind,
        "use_local_pathway": None,  # None: the variant's default
        "surrogate_alpha": _MODEL.neuron.surrogate_alpha,
        "checkpoint": None,
    },
    "train": {key: getattr(_TRAIN, key) for key in (
        "epochs", "batch_size", "base_lr", "warmup_epochs", "weight_decay", "grad_clip")},
    "data": {
        "path": None,  # load a saved container instead of generating
        "classes": _MODEL.num_classes,
        "num_train": 320,
        "num_test": 128,
        "height": _MODEL.in_height,
        "width": _MODEL.in_width,
        "seed": 1,
    },
    "noise": {
        "gaussian": [0.0, 0.1, 0.5, 1.0],
        "salt_pepper": [0.1, 0.2, 0.3],
        "seed": 7,
    },
    "gradcheck": {
        "tolerance": 1e-4,
    },
}


class ConfigError(ValueError):
    pass


def _merge_checked(base, incoming, path=""):
    out = copy.deepcopy(base)
    for key, value in incoming.items():
        full = f"{path}.{key}" if path else key
        if key not in base:
            hint = difflib.get_close_matches(key, base.keys(), n=1)
            suffix = f"; did you mean {path + '.' if path else ''}{hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown config key {full!r}{suffix}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{full}: expected a mapping, got {type(value).__name__}")
            out[key] = _merge_checked(base[key], value, full)
        else:
            out[key] = _coerce(full, base[key], value)
    return out


# the keys that may be null (unset, their default), each with a value of the
# type a set value must have; every other key rejects null
_UNSET_KEY_TYPES = {
    "run.run_id": "",
    "model.use_local_pathway": False,
    "model.checkpoint": "",
    "data.path": "",
}


def _coerce(full, default, value):
    if default is None:
        if value is None:
            return value
        default = _UNSET_KEY_TYPES[full]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{full}: expected a boolean, got {value!r}")
        return value
    if isinstance(default, (int, float)) and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{full}: expected a finite number, got {value!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
            raise ConfigError(f"{full}: expected an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{full}: expected a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{full}: expected a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{full}: expected a list, got {value!r}")
        return [_coerce(f"{full}[{i}]", default[0], v) for i, v in enumerate(value)]
    return value


def parse_config(config_path=None, overrides=()):
    """Resolve defaults + file + dotted overrides into a validated tree."""
    resolved = copy.deepcopy(DEFAULTS)
    if config_path:
        with open(config_path) as fh:
            file_cfg = yaml.safe_load(fh) or {}
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a mapping")
        resolved = _merge_checked(resolved, file_cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        dotted, raw = item.split("=", 1)
        nested = yaml.safe_load(raw)
        for key in reversed(dotted.split(".")):
            nested = {key: nested}
        resolved = _merge_checked(resolved, nested)
    seed = resolved["run"]["seed"]
    if not 0 <= seed < 2**32:
        # checkpoints store the seed as an unsigned 32-bit integer
        raise ConfigError(f"run.seed must be an integer in [0, 2**32), got {seed!r}")
    for key in ("data", "noise"):
        if resolved[key]["seed"] < 0:  # PCG64 takes no negative seed
            raise ConfigError(f"{key}.seed must be a non-negative integer, "
                              f"got {resolved[key]['seed']!r}")
    return resolved


def _model_config(cfg) -> ModelConfig:
    """The variant's layout, built for the data's frame size and class count."""
    m, d = cfg["model"], cfg["data"]
    overrides = dict(
        time_steps=m["time_steps"],
        norm_mode=m["norm_mode"],
        neuron=NeuronConfig(kind=m["neuron_kind"], surrogate_alpha=m["surrogate_alpha"]),
        in_height=d["height"],
        in_width=d["width"],
        num_classes=d["classes"],
    )
    if m["use_local_pathway"] is not None:
        overrides["use_local_pathway"] = m["use_local_pathway"]
    return variant_config(m["variant"], **overrides)


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(**cfg["train"], seed=cfg["run"]["seed"])


def _check_file_fits(ds, mcfg: ModelConfig, path):
    """A clip file's frames and labels must be what the model takes."""
    frames = (mcfg.time_steps, mcfg.in_channels, mcfg.in_height, mcfg.in_width)
    if ds.clips.shape[1:] != frames:
        raise data_mod.DatasetError(f"{path}: clips of shape {list(ds.clips.shape[1:])}, "
                                    f"the model takes {list(frames)}")
    if not 0 <= ds.labels.min() <= ds.labels.max() < mcfg.num_classes:
        raise data_mod.DatasetError(f"{path}: labels in [{ds.labels.min()}, {ds.labels.max()}], "
                                    f"the model has {mcfg.num_classes} classes")


def _check_generated_fits(cfg, mcfg: ModelConfig):
    """Generated clips must be what a loaded checkpoint's model takes."""
    m, d = cfg["model"], cfg["data"]
    wrong = [f"{key}={value} (checkpoint: {want})" for key, value, want in (
        ("model.time_steps", m["time_steps"], mcfg.time_steps),
        ("data.height", d["height"], mcfg.in_height),
        ("data.width", d["width"], mcfg.in_width),
    ) if value != want]
    if d["classes"] > mcfg.num_classes:
        wrong.append(f"data.classes={d['classes']} (checkpoint: {mcfg.num_classes} classes)")
    if wrong:
        raise ConfigError(f"generated data does not fit the checkpoint: {', '.join(wrong)}")


def _load_datasets(cfg, mcfg: ModelConfig, with_train):
    """The (train, test) splits for a model of config ``mcfg``; train is None
    unless ``with_train``, and is then not generated."""
    d = cfg["data"]
    if d["path"]:
        ds = data_mod.load_dataset(d["path"])
        if len(ds) < 2:
            raise data_mod.DatasetError(f"{d['path']} holds {len(ds)} clips; a train "
                                        "and a test split need at least 2")
        _check_file_fits(ds, mcfg, d["path"])
        split = len(ds) - max(1, len(ds) // 4)
        train = data_mod.ClipDataset(ds.clips[:split], ds.labels[:split], ds.seed, ds.class_defs)
        test = data_mod.ClipDataset(ds.clips[split:], ds.labels[split:], ds.seed, ds.class_defs)
        return (train if with_train else None), test
    T = cfg["model"]["time_steps"]
    train = data_mod.gen_moving_patterns(d["seed"], classes=d["classes"], num=d["num_train"],
                                         T=T, H=d["height"], W=d["width"]) if with_train else None
    test = data_mod.gen_moving_patterns(d["seed"] + 1, classes=d["classes"], num=d["num_test"],
                                        T=T, H=d["height"], W=d["width"])
    return train, test


def _out_dir(cfg, command):
    root = os.environ.get("SPIKEVID_OUT_ROOT", cfg["run"]["out_root"])
    return os.path.join(root, cfg["run"]["run_id"] or command)


def _environment():
    """The numpy version, its BLAS library and the BLAS thread setting (the
    first of ``THREAD_VARS`` that is set, else the core count): a run's bits
    depend on them as on its config. Also the threads that a large conv,
    batch-norm pass or LIF backward runs on (``conv_threads``, named when
    convs were the worker's only users), which its bits do not depend on but
    its speed does."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # a numpy that records no BLAS
        blas = {}
    var = next((v for v in THREAD_VARS if v in os.environ), None)
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {"source": var or "cpu_count",
                             "value": os.environ[var] if var else os.cpu_count()},
            "conv_threads": ad.conv_threads()}


def _echo_config(cfg, out_dir):
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    with open(os.path.join(out_dir, "environment.json"), "w") as fh:
        json.dump(_environment(), fh, indent=2, sort_keys=True)


def emit_metrics(records, out_dir, csv_fields=("epoch", "train_loss", "top1")):
    """JSON-lines stream plus a CSV summary with deterministic field order."""
    jsonl = os.path.join(out_dir, "metrics.jsonl")
    with open(jsonl, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    summary = os.path.join(out_dir, "summary.csv")
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_fields)
        for rec in records:
            if all(f in rec for f in csv_fields):
                writer.writerow([rec[f] for f in csv_fields])
    return jsonl, summary


def _eval_setup(cfg):
    """The model (the checkpoint's, else a fresh one) and the test split of
    eval, profile and noise-eval, checked to fit each other before any
    forward pass or any output is written."""
    checkpoint = cfg["model"]["checkpoint"]
    model = load_checkpoint(checkpoint) if checkpoint else None
    mcfg = _model_config(cfg) if model is None else model.cfg
    if model is not None and not cfg["data"]["path"]:
        _check_generated_fits(cfg, mcfg)
    _, test_ds = _load_datasets(cfg, mcfg, with_train=False)
    if model is None:
        model = VideoSpikeNet(mcfg, seed=cfg["run"]["seed"])
    return model, test_ds


# ---------------------------------------------------------------------------
# commands


def cmd_train(cfg, out_dir):
    mcfg = _model_config(cfg)
    train_ds, test_ds = _load_datasets(cfg, mcfg, with_train=True)
    model = VideoSpikeNet(mcfg, seed=cfg["run"]["seed"])
    _echo_config(cfg, out_dir)
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)

    def on_epoch(metrics):
        print(f"epoch {metrics.epoch:3d}  loss {metrics.train_loss:.4f}  "
              f"top1 {metrics.top1:.4f}  lr {metrics.lr:.2e}", flush=True)

    history = fit(model, train_ds.clips, train_ds.labels, _train_config(cfg),
                  test_clips=test_ds.clips, test_labels=test_ds.labels, callback=on_epoch)
    save_checkpoint(model, os.path.join(ckpt_dir, "final.ckpt"))
    emit_metrics([asdict(m) for m in history], out_dir)
    return EXIT_OK


def cmd_eval(cfg, out_dir):
    model, test_ds = _eval_setup(cfg)
    _echo_config(cfg, out_dir)
    top1 = evaluate(model, test_ds.clips, test_ds.labels, cfg["train"]["batch_size"])
    print(f"top1 {top1:.4f}")
    emit_metrics([{"top1": top1, "num_clips": len(test_ds)}], out_dir,
                 csv_fields=("top1", "num_clips"))
    return EXIT_OK


def cmd_profile(cfg, out_dir):
    model, test_ds = _eval_setup(cfg)
    _echo_config(cfg, out_dir)
    profile_dir = os.path.join(out_dir, "profile")
    rec = prof.record(model, test_ds.clips, batch_size=cfg["train"]["batch_size"])
    table = prof.cost_table(rec, len(test_ds.clips), exact=True)
    summary = prof.total_energy(table)
    rates, traces = rec.firing_rates(), rec.traces()
    taus = tau_table(model)
    prof.write_profile(table, summary, profile_dir)
    with open(os.path.join(profile_dir, "firing_rates.json"), "w") as fh:
        json.dump({"rates": rates, "traces": traces, "taus": taus}, fh,
                  indent=2, sort_keys=True)
    print(f"energy {summary['energy_mJ']:.6f} mJ "
          f"(dense counterpart {summary['ann_energy_mJ']:.6f} mJ)")
    emit_metrics([summary], out_dir, csv_fields=("energy_mJ", "ann_energy_mJ"))
    return EXIT_OK


# each noise key's corruption, in noise_table.csv column order
_CORRUPTIONS = (
    ("gaussian", data_mod.add_gaussian_noise),
    ("salt_pepper", data_mod.add_salt_pepper),
)


def cmd_noise_eval(cfg, out_dir):
    model, test_ds = _eval_setup(cfg)
    _echo_config(cfg, out_dir)
    batch = cfg["train"]["batch_size"]
    noise_seed = cfg["noise"]["seed"]
    rows = []
    clean = evaluate(model, test_ds.clips, test_ds.labels, batch)
    rows.append({"noise": "null", "level": None, "top1": clean})
    for name, corrupt in _CORRUPTIONS:
        for level in cfg["noise"][name]:
            top1 = clean if level == 0 else evaluate(
                model, corrupt(test_ds.clips, level, noise_seed), test_ds.labels, batch)
            rows.append({"noise": name, "level": float(level), "top1": top1})
    emit_metrics(rows, out_dir, csv_fields=("noise", "level", "top1"))
    # wide table: one row of accuracies under the noise-condition header
    with open(os.path.join(out_dir, "noise_table.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["null"] + [f"gaussian_a={r['level']}" for r in rows if r["noise"] == "gaussian"]
        header += [f"salt_pepper_P={r['level']}" for r in rows if r["noise"] == "salt_pepper"]
        values = [rows[0]["top1"]] + [r["top1"] for r in rows[1:]]
        writer.writerow(header)
        writer.writerow([f"{v:.4f}" for v in values])
    for r in rows:
        print(f"{r['noise']:>12} {str(r['level']):>5}: top1 {r['top1']:.4f}")
    return EXIT_OK


def cmd_gradcheck(cfg, out_dir):
    _echo_config(cfg, out_dir)
    tol = cfg["gradcheck"]["tolerance"]
    reports = run_gradient_checks(seed=cfg["run"]["seed"], tol=tol)
    records = []
    worst = 0.0
    for name, rep in reports.items():
        records.append({"check": name, "max_rel_err": rep.max_rel_err, "passed": rep.passed})
        worst = max(worst, rep.max_rel_err)
        print(f"{name:<40} max_rel_err {rep.max_rel_err:.3e}  "
              f"{'ok' if rep.passed else 'FAIL'}")
    emit_metrics(records, out_dir, csv_fields=("check", "max_rel_err", "passed"))
    if any(not rep.passed for rep in reports.values()):
        return EXIT_NUMERIC
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "profile": cmd_profile,
    "noise-eval": cmd_noise_eval,
    "gradcheck": cmd_gradcheck,
}


def run(command, config_path=None, overrides=()):
    try:
        cfg = parse_config(config_path, overrides)
        # build the config objects and run each consumer's own bounds now: a
        # bad value is a config error, found before any data is generated or
        # any epoch runs
        _model_config(cfg)
        _train_config(cfg)
        d = cfg["data"]
        data_mod.class_definitions(d["classes"])
        data_mod.check_frames(cfg["model"]["time_steps"], d["height"], d["width"])
        check_num_clips(d["num_train"], "data.num_train")
        check_num_clips(d["num_test"], "data.num_test")
        for a in cfg["noise"]["gaussian"]:
            data_mod.check_gaussian_level(a)
        for p in cfg["noise"]["salt_pepper"]:
            data_mod.check_salt_pepper_level(p)
        check_tolerance(cfg["gradcheck"]["tolerance"])
        if command == "train" and cfg["model"]["checkpoint"]:
            raise ConfigError("model.checkpoint is not read by train, which always "
                              "starts from scratch; unset it or use eval/profile/noise-eval")
    except (ValueError, FileNotFoundError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = _out_dir(cfg, command)
    created = not os.path.exists(out_dir)
    try:
        # each command writes config.resolved once it has read and checked its
        # inputs, so a run refused there leaves an earlier run's files as they were
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[command](cfg, out_dir)
    except ConfigError as exc:
        message = f"config error: {exc}"
    except (data_mod.DatasetError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ArithmeticError, ad.ShapeError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        message = f"config error: out of memory ({exc}); lower one of {', '.join(SIZE_KEYS)}"
    # a refused config leaves no output behind, as the checks above do; a
    # directory that was there before this call is left as it is
    if created:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(message, file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spikevid",
        description="Spiking video transformer: training, profiling, and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override a config value")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.overrides)


if __name__ == "__main__":
    sys.exit(main())
