"""Record the default-seed operation values that run.py checks against.

Every unit of every workload runs once at the default seed; the values
(SHA-256 of each trace payload, fit lines, certificate violations) are
written to perfbench/digests.json.  Re-record only for a change that is
meant to alter outputs, and say so where the change is described.
Usage, from the repository root: python3 perfbench/record_digests.py
"""

import json
import pathlib
import shutil
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import configs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    recorded = {"seed": configs.DEFAULT_SEED, "workloads": {}}
    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            table = recorded["workloads"][workload] = {}
            for unit in workloads.units(workload, configs.DEFAULT_SEED,
                                        workdir):
                ops = unit.run(run.PARALLEL.get(workload, 1)).ops
                failed = [op for op, value in ops if value is None]
                if failed:
                    raise SystemExit(f"{workload}/{unit.label}: {failed} failed")
                table[unit.label] = ops
                print(f"{workload}/{unit.label}: {len(ops)} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
