"""Command-line interface.

Subcommands: simulate (run a config file), dimension (estimate a space's
dimension), forge (emit a hard-instance descriptor with certificates),
verify (named verification suites), fit (exponent fit on exported traces).
Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, instances, spaces, verify
from .errors import BanditLabError, ValidationError, count


def _cmd_simulate(args):
    config = harness.ExperimentConfig.from_dict(harness.load_json(args.config))
    seeds = [config.seed + i
             for i in range(count(args.replicates, "'--replicates'"))]
    traces, agg = harness.run_replicates(config, seeds, args.parallelism)
    if args.out:
        if args.out.endswith(".csv"):
            harness.export_csv(traces, args.out)
        else:
            harness.export_json(traces, args.out)
    for t, m in zip(agg.checkpoints, agg.mean):
        print(f"t={t:>8d}  mean_regret={m:.4f}")
    return 0


def _floats(text, option):
    """The comma-separated numbers of an option's value."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"{option} needs comma-separated numbers, not {text!r}") from None


def _cmd_dimension(args):
    space = spaces.space_from_descriptor(harness.load_json(args.space))
    if args.grid:
        grid = _floats(args.grid, "--grid")
    else:
        grid = [2.0 ** -j for j in range(4, 13)]
    est = spaces.estimate_dimension(space, args.mode, grid)
    for row in est.table:
        print(f"delta={row['delta']:.6g}  N={row['count']}  "
              f"stat={row['statistic']:.4f}")
    print(f"estimate={est.estimate:.4f}")
    return 0


_FORGE_KINDS = ("lineage", "noncompact", "maxminlcd", "logt")


def _forge_instance(kind, seed):
    """The hard instance of a forge kind, read from its descriptor."""
    interval = {"kind": "interval"}
    return instances.instance_from_descriptor({
        "lineage": {"kind": "lineage", "space": interval, "tree_depth": 4,
                    "gamma": 0.3, "depth_cap": 4, "seed": seed},
        "noncompact": {"kind": "noncompact",
                       "centers": [0.1, 0.3, 0.5, 0.7, 0.9], "r": 0.05,
                       "seed": seed, "sizes": [2, 3]},
        "maxminlcd": {"kind": "maxminlcd", "space": interval, "b": 0.5,
                      "depth_cap": 3, "seed": seed},
        "logt": {"kind": "logt", "space": interval,
                 "seq": [0.5 + 3.0 ** -k for k in range(1, 6)], "i": 1,
                 "x_star": 0.5},
    }[kind])


def _cmd_forge(args):
    inst = _forge_instance(args.kind, args.seed)
    rng = np.random.default_rng(args.seed)
    cert = verify.lipschitz_certify(inst, pairs=2000, rounds=5, rng=rng)
    payload = {
        "instance": inst.descriptor(),
        "mu_star": inst.mu_star,
        "certificate": {
            "passed": cert.passed,
            "pairs": cert.pairs,
            "rounds": cert.rounds,
            "max_mean_violation": cert.max_mean_violation,
            "max_sample_violation": cert.max_sample_violation,
        },
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if cert.passed else 2


def _verify_kl():
    report = verify.kl_bounds_report()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        shape = tuple(int(rng.integers(2, 5))
                      for _ in range(int(rng.integers(1, 4))))
        p = rng.random(shape) + 0.05
        q = rng.random(shape) + 0.05
        _lhs, _rhs, residual = verify.kl_chain_check(
            p / p.sum(), q / q.sum())
        worst = max(worst, residual)
    print(f"bound grid: {len(report.cases)} cases, "
          f"{len(report.violations)} violations")
    print(f"chain rule: worst residual {worst:.3e}")
    return report.passed and worst <= 1e-12


def _verify_ensemble():
    space = spaces.IntervalSpace()
    tree = spaces.build_ball_tree(space, 2)
    spec, *_ = verify.make_sibling_ensemble(space, tree, 0.2)
    report = verify.ensemble_check(spec)
    kl_ok = max(report.kl) <= report.kl_bound
    # atom ratios reach 1/(1 - delta) exactly, so the likelihood-ratio
    # property is certified at the slightly larger delta/(1 - delta)
    dprime = spec.delta / (1.0 - spec.delta)
    lo = min(r[0] for r in report.ratio_extremes)
    hi = max(r[1] for r in report.ratio_extremes)
    ratio_ok = lo >= 1 - dprime - 1e-12 and hi <= 1 + dprime + 1e-12
    print(f"payoff gap {min(report.gap):.6f} >= eps {spec.eps:.6f}: "
          f"{report.gap_pass}")
    print(f"KL {max(report.kl):.6f} <= delta^2 {report.kl_bound:.6f}: {kl_ok}")
    print(f"ratios in [{lo:.4f}, {hi:.4f}] within delta'={dprime:.4f}: "
          f"{ratio_ok}")
    return report.gap_pass and kl_ok and ratio_ok


def _verify_lipschitz():
    rng = np.random.default_rng(1)
    ok = True
    for kind in _FORGE_KINDS:
        inst = _forge_instance(kind, 0)
        cert = verify.lipschitz_certify(inst, pairs=2000, rounds=5, rng=rng)
        print(f"{kind}: passed={cert.passed} "
              f"mean_violation={cert.max_mean_violation:.2e}")
        ok = ok and cert.passed
    return ok


def _verify_balltree():
    ok = True
    # depth-6 trees need spaces finer than the default interval resolution
    for space in (spaces.IntervalSpace(resolution=2.0 ** -40),
                  spaces.TreeSpace(eps=0.5, depth=24)):
        tree = spaces.build_ball_tree(space, 6)
        p_slack, s_slack = spaces.ball_tree_violations(tree, space)
        good = p_slack > 0 and s_slack > 0
        print(f"{space.kind}: parent_slack={p_slack:.3e} "
              f"sibling_slack={s_slack:.3e} valid={good}")
        ok = ok and good
    return ok


_SUITES = {
    "kl": _verify_kl,
    "ensemble": _verify_ensemble,
    "lipschitz": _verify_lipschitz,
    "balltree": _verify_balltree,
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        print(f"-- suite {name} --")
        ok = _SUITES[name]() and ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def _cmd_fit(args):
    window = _floats(args.window, "--window")
    if len(window) != 2:
        raise ValidationError(
            f"--window needs two numbers lo,hi, not {args.window!r}")
    traces = harness.import_json(args.input)
    if not traces:
        raise ValidationError("no traces in input")
    agg = harness.aggregate_traces(traces)
    fit = harness.fit_exponent(agg, window)
    print(f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
          f"residual={fit.residual:.4f} degenerate={fit.degenerate}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="banditlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment config file")
    p.add_argument("config")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dimension", help="dimension estimate for a space")
    p.add_argument("--space", required=True)
    p.add_argument("--mode", choices=["cov", "lcd"], default="cov")
    p.add_argument("--grid")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("forge", help="emit a hard instance with certificates")
    p.add_argument("--kind", choices=_FORGE_KINDS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_forge)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(_SUITES) + ["all"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fit", help="exponent fit on exported traces")
    p.add_argument("--input", required=True)
    p.add_argument("--window", default="64,65536")
    p.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BanditLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
