"""Write reference.json: the probe outputs of every workload at this commit.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the model's outputs; the
benchmark compares every run's probe against the stored values.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main():
    threads = run.pin_threads()
    run.import_package()
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR)
    try:
        reference = {name: workloads.make(name, work_dir).probe() for name in run.WORKLOADS}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = run.environment(0, threads)
    reference["source"] = {k: env[k] for k in ("git_commit", "src_sha256", "numpy", "openblas")}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(reference, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
