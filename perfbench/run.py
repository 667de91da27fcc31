"""banditlab benchmark: four simulation workloads, end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload bandit_sim --seed 0 --seconds 30 --trace 0

With --trace 0 it prints setup_s, wall_s and peak_rss_mb; with --trace 1 it
prints the per-layer metrics of a serial traced run.  The last stdout line
is the result object; the line before it is a report with the machine and
load record, the checks that ran, failed_frac and (bandit_sim) trace_mb.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("bandit_sim", "full_info_sim", "large_space", "hard_instances")
PARALLEL = {"bandit_sim": 2}  # pool size of the workloads that use one
MIN_PASSES = 3
SETUP_PROBES = 5

TIMED_SPANS = (
    "spaces.covering_oracle", "spaces.rank_covering_oracle",
    "spaces.ordering_oracle", "spaces.depth_oracle", "spaces.cover_oracle",
    "spaces.build_ball_tree",
    "instances.instance_from_descriptor", "instances.monte_carlo_mean",
    "instances.bandit_reward", "instances.mean", "instances.mean_vector",
    "instances.sample_eval",
    "harness.run_match", "harness.run_replicates", "harness.round_sampler",
    "harness.aggregate_traces", "harness.fit_exponent",
    "harness.export_json", "harness.import_json",
    "verify.lipschitz_certify", "cli.main",
)
COUNTED = ("instances.active_terms", "instances.chain")


# ---------------------------------------------------------------------------
# record of the machine and of the checks


def machine_record():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy as np
    return {"nproc": os.cpu_count(),
            "cpu_model": model or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


class Ledger:
    """Counts operations and failures.  Each operation's value must equal
    the recorded one (default seed) or the unit's first execution."""

    def __init__(self, workload, seed):
        path = BENCH / "digests.json"
        recorded = json.loads(path.read_text())
        self.recorded = ({} if recorded["seed"] != seed
                         else recorded["workloads"].get(workload, {}))
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.unrecorded = set()

    def add(self, label, outcome):
        ref = self.reference.get(label)
        if ref is None:
            if label in self.recorded:
                ref = dict(self.recorded[label])
            else:
                ref = dict(outcome.ops)
                self.unrecorded.add(label)
            self.reference[label] = ref
        for op, value in outcome.ops:
            self.attempted += 1
            if value is None or ref.get(op) != value:
                self.failed += 1
                self.failures.append(f"{label}/{op}")

    def checks(self):
        common = ("trace shapes and reward/mean ranges, bit-exact export/"
                  "import round-trip, certification passes, every repeat "
                  "and every traced pass equal to the first execution")
        if not self.unrecorded:
            return ("SHA-256 of every trace payload, fit lines and "
                    "certificates equal the recorded ones; " + common)
        return (f"weaker: no recorded digests for units "
                f"{sorted(self.unrecorded)} at this seed; " + common)


# ---------------------------------------------------------------------------
# timed passes


def run_pass(units, parallelism, ledger):
    """One execution of every unit: (timed seconds per unit, export bytes)."""
    seconds = {}
    nbytes = 0
    for unit in units:
        outcome = unit.run(parallelism)
        ledger.add(unit.label, outcome)
        seconds[unit.label] = outcome.seconds
        nbytes += outcome.export_bytes
    return seconds, nbytes


def keep_going(start, last, done, seconds, minimum):
    return done < minimum or time.perf_counter() - start + last <= seconds


def median_sum(passes):
    """Sum over units of each unit's median time: the timed section's
    median, steadier than the median of a few whole passes."""
    labels = passes[0].keys()
    return sum(statistics.median(p[label] for p in passes) for label in labels)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload, seed):
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def end_to_end(workload, seed, seconds, units, ledger, report):
    passes = []
    nbytes = []
    start = time.perf_counter()
    last = 0.0
    parallelism = PARALLEL.get(workload, 1)
    while keep_going(start, last, len(passes), seconds, MIN_PASSES):
        t0 = time.perf_counter()
        times, exported = run_pass(units, parallelism, ledger)
        passes.append(times)
        nbytes.append(exported)
        last = time.perf_counter() - t0
    rss = peak_rss_mb()
    setup = setup_seconds(workload, seed)
    report["passes"] = len(passes)
    report["unit_seconds"] = {label: [p[label] for p in passes]
                              for label in passes[0]}
    if workload == "bandit_sim":
        report["trace_mb"] = statistics.median(nbytes) / 1e6
    return {"setup_s": (setup, "s"),
            "wall_s": (median_sum(passes), "s"),
            "peak_rss_mb": (rss, "MB")}


# ---------------------------------------------------------------------------
# traced run


def traced(workload, seconds, units, ledger, report):
    from tracer import Tracer

    tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    last = 0.0
    parallel = PARALLEL.get(workload)
    while keep_going(start, last, len(rounds), seconds, 1):
        t0 = time.perf_counter()
        entry = {}
        if parallel:
            entry["pool_s"] = sum(run_pass(units, parallel, ledger)[0].values())
        entry["serial_s"] = sum(run_pass(units, 1, ledger)[0].values())
        tracer.reset()
        tracer.install(workload)
        try:
            times, entry["bytes"] = run_pass(units, 1, ledger)
        finally:
            tracer.uninstall()
        entry["traced_s"] = sum(times.values())
        entry["summary"] = tracer.summary()
        rounds.append(entry)
        last = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}.spans.npz")
    report["rounds"] = len(rounds)
    report["absent_symbols"] = tracer.absent
    counts = [layer_counts(r["summary"]) for r in rounds]
    report["counts_repeat"] = all(c == counts[0] for c in counts)
    return layer_metrics(rounds, len(tracer.absent))


def layer_counts(summary):
    spans = summary["spans"]
    return ({n: spans.get(n, {}).get("calls", 0) for n in TIMED_SPANS},
            summary["counts"], summary["covering_calls"],
            summary["covering_distinct"])


def _median(rounds, fn):
    return statistics.median(fn(r) for r in rounds)


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rounds, absent):
    """Every per-layer metric: counts from the first traced pass, times as
    medians over traced passes.  A layer the workload never reaches reads 0."""
    first = rounds[0]["summary"]
    metrics = {}

    def span(summary, name, key):
        return summary["spans"].get(name, {}).get(key, 0)

    for name in TIMED_SPANS:
        metrics[f"{name}.calls"] = (span(first, name, "calls"), "count")
        metrics[f"{name}.self_s"] = (
            _median(rounds, lambda r: span(r["summary"], name, "self_s")), "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (first["counts"].get(name, 0), "count")
    calls = first["covering_calls"]
    metrics["spaces.covering_oracle.distinct_frac"] = (
        first["covering_distinct"] / calls if calls else 0.0, "ratio")
    total_rounds = 0
    for layer in ("bandits", "experts"):
        total_rounds += len(first["steps"][layer])
        metrics[f"{layer}.step.self_s"] = (
            _median(rounds, lambda r: float(r["summary"]["steps"][layer].sum())),
            "s")
        for q in (50, 99):
            metrics[f"{layer}.step.us_per_round_p{q}"] = (
                _median(rounds, lambda r: 1e6 * _percentile(
                    r["summary"]["steps"][layer], q)), "us")
    metrics["harness.run_match.us_per_round"] = (
        1e6 * metrics["harness.run_match.self_s"][0] / total_rounds
        if total_rounds else 0.0, "us")
    metrics["harness.export_json.bytes"] = (rounds[0]["bytes"], "bytes")
    metrics["harness.run_replicates.speedup"] = (
        _median(rounds, lambda r: r["serial_s"] / r["pool_s"])
        if "pool_s" in rounds[0] else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (
        _median(rounds, lambda r: r["traced_s"]) /
        _median(rounds, lambda r: r["serial_s"]) - 1.0, "ratio")
    metrics["trace.unattributed_frac"] = (
        _median(rounds, lambda r: 1.0 - r["summary"]["top_level_s"]
                / r["traced_s"]), "ratio")
    metrics["trace.absent_symbols"] = (absent, "count")
    return metrics


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "banditlab" / "__init__.py").is_file():
        print(f"error: no banditlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine_record(),
              "loadavg_1m_before": os.getloadavg()[0]}
    ledger = Ledger(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        units = workloads.units(args.workload, args.seed, workdir)
        if args.trace:
            metrics = traced(args.workload, args.seconds, units, ledger,
                             report)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds,
                                 units, ledger, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["loadavg_1m_after"] = os.getloadavg()[0]
    report["checks"] = ledger.checks()
    report["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    report["failures"] = ledger.failures[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
