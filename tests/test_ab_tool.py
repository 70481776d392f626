"""``tools/ab.py``: in-process A/B timing of a perfbench workload."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TUNABLES = "glibc.malloc.trim_threshold=1048576"


def test_one_tree_on_both_sides_runs_and_checks_every_operation():
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "infer-b1", "--ops", "2", "--seed", "3"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "infer-b1, seed 3, 2 operations per tree, alternating"
    # the tool ran itself again with glibc malloc's thresholds pinned
    assert lines[1] == ("GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:"
                        "glibc.malloc.trim_threshold=67108864")
    for label, line in zip("AB", lines[2:4]):
        # infer-b1 runs no backward
        assert re.fullmatch(rf"{label} {re.escape(str(ROOT))}: median op \d+\.\d\d ms, "
                            r"\d+ minor page faults, traced at backward entry n/a, "
                            r"traced peak \d+\.\d MB", line)
    assert re.fullmatch(r"B/A op time: median ratio \d+\.\d{3}, B faster in [012]/2 pairs",
                        lines[4])
    assert len(lines) == 5  # no check failed


FAKE_WORKLOADS = '''
import os
import time
from types import SimpleNamespace

import spikevid


def _backward(kept):
    return bytearray(spikevid.ALLOC)  # traced, and freed on return


ad = SimpleNamespace(backward=_backward)


def make(name, out_dir):
    def op(state, i):
        with open(os.environ["AB_LOG"], "a") as fh:
            fh.write(f"{spikevid.LABEL}{i} ")
        buffer = bytearray(spikevid.ALLOC)  # traced, held through the backward
        ad.backward(buffer)
        time.sleep(spikevid.DELAY)
        return i

    def check(state, i, out):
        if spikevid.LABEL == "b" and i == 1:
            raise AssertionError("wrong output")

    return SimpleNamespace(setup=lambda seed: None, op=op, check=check)
'''


def fake_tree(root, label, delay, alloc):
    (root / "src" / "spikevid").mkdir(parents=True)
    (root / "src" / "spikevid" / "__init__.py").write_text(
        f"LABEL = {label!r}\nDELAY = {delay}\nALLOC = {alloc}\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    return str(root)


def test_alternates_binds_each_tree_and_reports_failed_checks(tmp_path):
    log = tmp_path / "ops.log"
    a = fake_tree(tmp_path / "a", "a", 0.02, 3_000_000)
    b = fake_tree(tmp_path / "b", "b", 0.0, 1_000_000)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), a, b,
         "--workload", "infer-b1", "--ops", "3", "--seed", "0"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, AB_LOG=str(log), GLIBC_TUNABLES=TUNABLES))
    assert proc.returncode == 1, proc.stderr
    # the alternation, then one traced operation per tree
    assert log.read_text().split() == ["a0", "b0", "b1", "a1", "a2", "b2", "a3", "b3"]
    lines = proc.stdout.splitlines()
    assert lines[1] == f"GLIBC_TUNABLES={TUNABLES}"  # a setting already made is kept
    figures = [re.search(r"traced at backward entry (\d+\.\d) MB, traced peak (\d+\.\d) MB$",
                         line) for line in lines[2:4]]
    at_backward, peaks = ([float(m[k]) for m in figures] for k in (1, 2))
    # what the operation held at entry to its backward, and that plus the backward's own
    assert 3.0 <= at_backward[0] < 3.5 and 1.0 <= at_backward[1] < 1.5
    assert 6.0 <= peaks[0] < 6.5 and 2.0 <= peaks[1] < 2.5
    assert lines[4].endswith("B faster in 3/3 pairs")
    assert lines[5:] == ["check failed: B op 1: AssertionError: wrong output"]
