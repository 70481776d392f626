"""``tools/identity.py compare``: the byte-identity check between two dumps."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

BASE = {
    "train/step0/loss": np.array(0.75, dtype=np.float32),
    "train/step0/param/w": np.arange(6, dtype=np.float32).reshape(2, 3),
    "fit/evaluate_top1": np.array(0.5),
}


def _dump(path, arrays):
    np.savez(path, **arrays)
    return str(path)


def test_identical_dumps_return_zero(tmp_path, capsys):
    a = _dump(tmp_path / "a.npz", BASE)
    b = _dump(tmp_path / "b.npz", BASE)
    assert identity.compare(a, b) == 0
    assert capsys.readouterr().out.splitlines() == ["3 arrays compared, 0 differ"]


def _flip_byte(arr):
    raw = bytearray(arr.tobytes())
    raw[0] ^= 0x01
    return np.frombuffer(bytes(raw), dtype=arr.dtype).reshape(arr.shape)


@pytest.mark.parametrize("change, reason", [
    (lambda d: d.update({"train/step0/param/w": _flip_byte(d["train/step0/param/w"])}),
     "train/step0/param/w: bytes differ"),
    (lambda d: d.update({"train/step0/loss": d["train/step0/loss"].astype(np.float64)}),
     "train/step0/loss: dtype float32 vs float64"),
    (lambda d: d.update({"train/step0/param/w": d["train/step0/param/w"].reshape(3, 2)}),
     "train/step0/param/w: shape (2, 3) vs (3, 2)"),
    (lambda d: d.update({"fit/extra": np.zeros(1)}),
     "fit/extra: only in {b}"),
    (lambda d: d.pop("fit/evaluate_top1"),
     "fit/evaluate_top1: only in {a}"),
], ids=["flipped-byte", "dtype", "reshaped", "only-in-b", "only-in-a"])
def test_each_difference_is_printed_and_fails(tmp_path, capsys, change, reason):
    other = dict(BASE)
    change(other)
    a = _dump(tmp_path / "a.npz", BASE)
    b = _dump(tmp_path / "b.npz", other)
    assert identity.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == reason.format(a=a, b=b)
    assert out[-1].endswith(", 1 differ")
