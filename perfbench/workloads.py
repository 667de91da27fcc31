"""The benchmark's workloads as lists of timed units, with output checks.

Every unit calls the package only through its public entry points and
returns the seconds spent in those calls (checks are not timed) plus one
value per operation.  An operation is a match, an export/import round-trip,
a fit or a certification; its value is None when it raised or its output
failed a check, and otherwise a digest that the runner compares with the
recorded one (default seed) or with the unit's first execution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from banditlab import cli, harness, instances, verify

import configs


@dataclass
class Outcome:
    seconds: float
    ops: list = field(default_factory=list)  # [(label, value or None)]
    export_bytes: int = 0


@dataclass
class Unit:
    label: str
    run: object  # run(parallelism) -> Outcome


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def trace_ok(trace, horizon):
    """Shape and range checks that hold for any seed."""
    rewards, means = np.asarray(trace.rewards), np.asarray(trace.means)
    return bool(trace.horizon == horizon and len(rewards) == horizon
                and len(means) == horizon
                and np.all(np.isfinite(rewards)) and np.all(np.isfinite(means))
                and np.all((rewards >= 0.0) & (rewards <= 1.0))
                and np.all(means <= trace.mu_star + 1e-9))


def _report_failure(label):
    print(f"operation failed in unit {label}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# bandit_sim: `banditlab simulate` then `banditlab fit`, in process


def _simulate_and_fit(label, config_path, out_path, horizon, replicates,
                      parallelism):
    failed = ([(f"match{i}", None) for i in range(replicates)]
              + [("roundtrip", None), ("fit", None)])
    t0 = time.perf_counter()
    try:
        code = _cli(["simulate", str(config_path), "--replicates",
                     str(replicates), "--parallelism", str(parallelism),
                     "--out", str(out_path)])[0]
        t1 = time.perf_counter()
        fit_code, fit_text = (
            _cli(["fit", "--input", str(out_path)]) if code == 0 else (1, ""))
        t2 = time.perf_counter()
    except Exception:  # noqa: BLE001 - counted as failed operations
        _report_failure(label)
        return Outcome(time.perf_counter() - t0, failed)
    if code != 0:
        print(f"simulate exited {code} in unit {label}", file=sys.stderr)
        return Outcome(t1 - t0, failed)
    seconds = t2 - t0
    nbytes = out_path.stat().st_size
    with open(out_path) as fh:
        raw = json.load(fh).get("traces", [])
    traces = [harness.RegretTrace.from_payload(d) for d in raw]
    ops = [(f"match{i}",
            digest(raw[i]) if i < len(raw) and trace_ok(traces[i], horizon)
            else None)
           for i in range(replicates)]
    exact = len(raw) == replicates and all(
        tr.to_payload() == d for tr, d in zip(traces, raw))
    ops.append(("roundtrip", "bit-exact" if exact else None))
    ops.append(("fit", fit_text.strip() if fit_code == 0 else None))
    return Outcome(seconds, ops, nbytes)


def _bandit_sim(seed, workdir):
    units = []
    for label, config in configs.WORKLOADS["bandit_sim"]["configs"].items():
        seeds = configs.replicate_seeds("bandit_sim", seed, label)
        config_path = workdir / f"{label}.config.json"
        config_path.write_text(json.dumps(configs.seeded_config(config,
                                                                seeds)))
        units.append(Unit(label, partial(
            _simulate_and_fit, label, config_path,
            workdir / f"{label}.traces.json", config["horizon"],
            len(seeds))))
    return units


# ---------------------------------------------------------------------------
# serial replicate sets: full_info_sim, large_space, hard_instances


def _match_ops(traces, seeds, horizon):
    return [(f"match{s}", digest(tr.to_payload())
             if trace_ok(tr, horizon) else None)
            for s, tr in zip(seeds, traces)]


def _replicate_set(label, config, seeds):
    """(seconds, ops) of one serial run_replicates call."""
    t0 = time.perf_counter()
    try:
        cfg = harness.ExperimentConfig.from_dict(
            configs.seeded_config(config, seeds))
        traces, _aggregate = harness.run_replicates(cfg, seeds,
                                                    parallelism=1)
    except Exception:  # noqa: BLE001 - counted as failed operations
        _report_failure(label)
        return time.perf_counter() - t0, [(f"match{s}", None) for s in seeds]
    seconds = time.perf_counter() - t0
    return seconds, _match_ops(traces, seeds, config["horizon"])


def _serial(label, config, seeds, _parallelism):
    return Outcome(*_replicate_set(label, config, seeds))


def _serial_units(workload, seed):
    return [Unit(label, partial(_serial, label, config,
                                configs.replicate_seeds(workload, seed, label)))
            for label, config in configs.WORKLOADS[workload]["configs"].items()]


def _certify(kind, descriptor, seed):
    """(seconds, op) of building an instance from its descriptor and
    certifying it."""
    spec = configs.WORKLOADS["hard_instances"]["certify"]
    rng = np.random.default_rng([seed, 2])
    t0 = time.perf_counter()
    try:
        instance = instances.instance_from_descriptor(descriptor)
        cert = verify.lipschitz_certify(instance, spec["pairs"],
                                        spec["rounds"], rng)
    except Exception:  # noqa: BLE001 - counted as a failed operation
        _report_failure(kind)
        return time.perf_counter() - t0, ("certify", None)
    seconds = time.perf_counter() - t0
    value = (f"{cert.max_mean_violation.hex()} "
             f"{cert.max_sample_violation.hex()}" if cert.passed else None)
    return seconds, ("certify", value)


def _hard_instance(kind, seed, _parallelism):
    outcome = Outcome(0.0)
    for label, config in configs.WORKLOADS["hard_instances"]["configs"].items():
        if label.startswith(kind + "/"):
            seconds, ops = _replicate_set(
                label, config,
                configs.replicate_seeds("hard_instances", seed, label))
            outcome.seconds += seconds
            outcome.ops += [(f"{label}/{op}", value) for op, value in ops]
    seconds, op = _certify(kind, configs.HARD_INSTANCES[kind], seed)
    outcome.seconds += seconds
    outcome.ops.append(op)
    return outcome


def _hard_instances(seed, _workdir):
    return [Unit(kind, partial(_hard_instance, kind, seed))
            for kind in configs.HARD_INSTANCES]


def units(workload, seed, workdir):
    """The workload's units, in the order one pass runs them."""
    if workload == "bandit_sim":
        return _bandit_sim(seed, workdir)
    if workload == "hard_instances":
        return _hard_instances(seed, workdir)
    return _serial_units(workload, seed)
