"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion."""

import json
import math
import os
import pathlib

import numpy as np
import pytest

import banditlab.harness as hn
import banditlab.instances as inst
import banditlab.spaces as sps
import banditlab.verify as vf

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _interval():
    return sps.IntervalSpace()


def _forged():
    space = _interval()
    tree = sps.build_ball_tree(space, 4)
    return {
        "lineage": inst.LineageInstance(space, tree, depth_cap=4, seed=0),
        "noncompact": inst.NoncompactInstance(
            [0.1, 0.3, 0.5, 0.7, 0.9], 0.05, seed=0, sizes=[2, 3]),
        "maxminlcd": inst.MaxMinLCDInstance(_interval(), b=0.5,
                                            depth_cap=3, seed=0),
        "logt": inst.LogTEnsembleInstance(
            _interval(), [0.5 + 3.0 ** -k for k in range(1, 6)], 1,
            x_star=0.5),
    }


# ---------------------------------------------------------------------------


def test_criterion_1_kl_identities():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        dims = int(rng.integers(1, 4))
        marginals = [vf._random_simplex(rng, int(rng.integers(2, 5)))
                     for _ in range(dims)]
        joint = marginals[0]
        for m in marginals[1:]:
            joint = np.multiply.outer(joint, m)
        q = joint * np.exp(rng.normal(0, 0.1, joint.shape))
        _lhs, _rhs, residual = vf.kl_chain_check(joint, q / q.sum())
        worst = max(worst, residual)
    shift = [(y, f * y) for y in np.linspace(0.05, 0.95, 32)
             for f in np.linspace(0.05, 0.95, 32)]
    report = vf.kl_bounds_report(cases={"shift": shift})
    ok = worst <= 1e-12 and report.passed and len(report.cases) >= 1000
    _report(1, "kl identities", ok,
            f"residual {worst:.2e}, {len(report.cases)} grid cells, "
            f"{len(report.violations)} violations")


def test_criterion_2_lipschitz_certification():
    rng = np.random.default_rng(1)
    certs = {name: vf.lipschitz_certify(i, 10000, 10, rng)
             for name, i in _forged().items()}
    ok = all(c.passed for c in certs.values())

    class Corrupted(inst.PayoffInstance):
        uniformly_lipschitz = False

        def mean(self, x):
            return 0.2 + 0.6 * (x > 0.5)

        @property
        def mu_star(self):
            return 0.8

    control = vf.lipschitz_certify(Corrupted(_interval()), 10000, 0, rng)
    ok = ok and not control.passed
    worst = max(c.max_mean_violation for c in certs.values())
    _report(2, "lipschitz certification", ok,
            f"worst violation {worst:.1e}, control fails={not control.passed}")


def test_criterion_3_mean_consistency():
    rng = np.random.default_rng(2)
    worst = 0.0
    ok = True
    for name, instance in _forged().items():
        for _ in range(20):
            x = vf.random_point(instance.space, rng)
            est, se = inst.monte_carlo_mean(instance, x, 100000, rng)
            pull = abs(est - instance.mean(x)) / max(se, 1e-12)
            worst = max(worst, pull)
            ok = ok and abs(est - instance.mean(x)) <= max(3 * se, 1e-12)
    _report(3, "mean consistency", ok, f"worst deviation {worst:.2f} SE")


def test_criterion_4_ball_tree_validity():
    ok = True
    slacks = []
    for space in (sps.IntervalSpace(resolution=2.0 ** -40),
                  sps.TreeSpace(eps=0.5, depth=32)):
        tree = sps.build_ball_tree(space, 8)
        ok = ok and tree.node_count() == 2 ** 9 - 1
        p_slack, s_slack = sps.ball_tree_violations(tree, space)
        slacks.append((p_slack, s_slack))
        ok = ok and p_slack > 0 and s_slack > 0
    _report(4, "ball tree validity", ok,
            f"511 nodes each, min slack {min(min(s) for s in slacks):.1e}")


# ---------------------------------------------------------------------------


_ENSEMBLE_SPACE = {
    "kind": "interval", "resolution": 2.0 ** -20,
    "scan_resolution": 2.0 ** -10, "well_order": "coordinate",
    "depth_chain": [{"kind": "all"}], "depth_dimension": 1.0,
}


def _sibling_instance_descriptor(rule):
    return {"kind": "lineage", "space": _ENSEMBLE_SPACE, "tree_depth": 1,
            "depth_cap": 1, "biases": [0.2], "lineage": rule, "seed": 0}


def test_criterion_5_ensemble_lower_bound():
    space = sps.space_from_descriptor(_ENSEMBLE_SPACE)
    tree = sps.build_ball_tree(space, 1)
    r_star = min(ch.radius for ch in tree.root.children)
    eps = r_star * 0.2 / 4.0
    t = vf.lb_time_threshold(eps, 0.2, 2)
    assert t == 44
    target = eps * t / 2.0
    algorithms = [
        ("double_feedback_expert", {"name": "double_feedback_expert"}),
        ("naive_experts", {"name": "naive_experts", "b": 1.0}),
        ("maxminlcd_experts", {"name": "maxminlcd_experts", "b": 1.0}),
    ]
    ok = True
    details = []
    for label, alg in algorithms:
        worse = -math.inf
        for rule in ("leftmost", "rightmost"):
            config = hn.ExperimentConfig(
                space=_ENSEMBLE_SPACE,
                instance=_sibling_instance_descriptor(rule),
                algorithm=alg, horizon=t)
            traces, _ = hn.run_replicates(config, range(200), parallelism=4)
            finals = np.array([tr.cum_regret[-1] for tr in traces])
            se = finals.std(ddof=1) / math.sqrt(len(finals))
            worse = max(worse, finals.mean() - 2 * se)
        ok = ok and worse >= target
        details.append(f"{label} {worse:.4f}")
    _report(5, "ensemble lower bound", ok,
            f"target {target:.4f}; worse-instance regret " + ", ".join(details))


def _final_phase_optimal_fraction(trace):
    phases = [p for p in trace.info["phases"] if p["start"] < trace.horizon]
    start = phases[-1]["start"]
    window = trace.means[start:trace.horizon]
    return float(np.mean(window >= trace.mu_star - 1e-12))


def test_criterion_6_tractable_space_identification():
    space_d = sps.ConvergentSpace(100).descriptor()
    instance_d = {"kind": "peak", "space": space_d, "peak": 0.0,
                  "slope": 0.5, "c": 0.9, "noise": "bernoulli"}
    ok = True
    details = []
    for label, alg in (
            ("well_ordered_bandit",
             {"name": "well_ordered_bandit", "f": "log_power:1"}),
            ("double_feedback_expert", {"name": "double_feedback_expert"})):
        config = hn.ExperimentConfig(space=space_d, instance=instance_d,
                                     algorithm=alg, horizon=2 ** 15)
        traces, _ = hn.run_replicates(config, range(30), parallelism=4)
        hits = sum(_final_phase_optimal_fraction(tr) >= 0.9 for tr in traces)
        ok = ok and hits >= 24
        details.append(f"{label} {hits}/30")
    _report(6, "tractable space identification", ok, ", ".join(details))


def test_criterion_7_boundary_algorithm_shape():
    space_d = _interval().descriptor()
    instance_d = {"kind": "peak", "space": space_d, "peak": 0.8,
                  "slope": 1.0, "c": 0.9, "noise": "bernoulli"}
    config = hn.ExperimentConfig(
        space=space_d, instance=instance_d,
        algorithm={"name": "phased_ucb1"}, horizon=2 ** 16)
    traces, _ = hn.run_replicates(config, range(20), parallelism=4)
    pseudo = [tr.cum_pseudo_regret() for tr in traces]
    boundaries = [(p["eps"], p["s_k"]) for p in traces[0].info["phases"]
                  if "s_k" in p and p["s_k"] <= 2 ** 16]
    ok = bool(boundaries)
    worst_frac = 1.0
    for eps_k, s_k in boundaries:
        vals = np.array([r[s_k - 1] for r in pseudo])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        bound = 5.0 * eps_k * s_k + 2.0 * se
        frac = float(np.mean(vals <= bound))
        worst_frac = min(worst_frac, frac)
        ok = ok and frac >= 0.8
    first = float(np.mean([r[0] for r in pseudo]))
    final = float(np.mean([r[-1] for r in pseudo])) / 2 ** 16
    ok = ok and final < 0.5 * first
    _report(7, "phased boundary shape", ok,
            f"{len(boundaries)} boundaries, worst seed fraction "
            f"{worst_frac:.2f}; final R/t {final:.3f} vs half-start "
            f"{0.5 * first:.3f}")


def test_criterion_8_naive_experts_exponent():
    space_d = _interval().descriptor()
    instance_d = {"kind": "peak", "space": space_d, "peak": 0.8,
                  "slope": 1.0, "c": 0.9, "noise": "bernoulli"}
    config = hn.ExperimentConfig(
        space=space_d, instance=instance_d,
        algorithm={"name": "naive_experts", "b": 0.1},
        horizon=2 ** 16, mode="full")
    traces, _ = hn.run_replicates(config, range(20), parallelism=4)
    hits = 0
    slopes = []
    for tr in traces:
        pseudo = tr.cum_pseudo_regret()
        ts = np.array([2.0 ** j for j in range(13, 17)])
        rs = np.array([pseudo[int(t) - 1] for t in ts])
        fit = hn.fit_exponent((ts, rs), (2 ** 13, 2 ** 16))
        slopes.append(fit.slope)
        hits += (not fit.degenerate) and fit.slope <= 0.8
    ok = hits >= 16
    _report(8, "naive experts exponent", ok,
            f"{hits}/20 seeds with slope <= 0.8, median "
            f"{float(np.median(slopes)):.2f}")


def test_criterion_9_dimension_estimators():
    grid = [2.0 ** -j for j in range(4, 13)]
    interval = sps.estimate_dimension(_interval(), "cov", grid).estimate
    finite = sps.estimate_dimension(
        sps.FiniteSpace([0.0, 0.25, 0.5, 1.0]), "cov", grid).estimate
    ok = 0.9 <= interval <= 1.1 and finite == 0.0
    lcd = {}
    for b, depth in ((1.0, 6), (0.5, 12)):
        space = sps.TreeSpace(eps=0.5, b=b, depth=depth, branch_cap=10 ** 40)
        est = sps.estimate_dimension(
            space, "lcd", [2.0 ** -j for j in range(1, depth + 1)]).estimate
        lcd[b] = est
        ok = ok and abs(est - b) / b <= 0.15
    _report(9, "dimension estimators", ok,
            f"interval {interval:.3f}, finite {finite:.1f}, "
            f"lcd b=1: {lcd[1.0]:.3f}, b=0.5: {lcd[0.5]:.3f}")


# ---------------------------------------------------------------------------


def _sign_mixtures(space_d):
    return {
        "lineage": {"kind": "lineage", "space": space_d, "tree_depth": 4,
                    "gamma": 0.3, "depth_cap": 4, "seed": 0,
                    "lineage": "seeded"},
        "noncompact": {"kind": "noncompact", "space": space_d,
                       "centers": [0.1, 0.3, 0.5, 0.7, 0.9], "r": 0.05,
                       "sizes": [2, 3], "t_schedule": None, "seed": 0,
                       "guarantee_breaking": True},
        "maxminlcd": {"kind": "maxminlcd", "space": space_d, "b": 0.5,
                      "depth_cap": 3, "seed": 0, "n_list": [3, 3, 3],
                      "guarantee_breaking": True},
    }


def _golden_configs():
    plain = _interval().descriptor()
    ordered = sps.IntervalSpace(well_order="coordinate").descriptor()
    decomposed = sps.IntervalSpace(
        well_order="coordinate",
        depth_chain=[{"kind": "all"},
                     {"kind": "points", "points": [0.8]}]).descriptor()
    convergent = sps.ConvergentSpace(100).descriptor()
    finite = sps.FiniteSpace([0.0, 1.0]).descriptor()
    union = sps.ConvergentUnionSpace([(0.0, 1, 40), (2.0, 1, 40)]).descriptor()

    def peak(space_d):
        return {"kind": "peak", "space": space_d, "peak": 0.8,
                "slope": 1.0, "c": 0.9, "noise": "bernoulli"}

    convergent_peak = {"kind": "peak", "space": convergent, "peak": 0.0,
                       "slope": 0.5, "c": 0.9, "noise": "bernoulli"}
    arms = {"kind": "arms", "space": finite, "means": [0.3, 0.7],
            "noise": "bernoulli"}
    union_peak = {"kind": "peak", "space": union, "peak": 0.0,
                  "slope": 0.25, "c": 0.9, "noise": "bernoulli"}
    three = sps.FiniteSpace([0.0, 0.5, 1.0]).descriptor()
    tied = {"kind": "arms", "space": three, "means": [0.5] * 3,
            "noise": "none"}
    tree = sps.TreeSpace(eps=0.5, depth=6).descriptor()
    tree_peak = {"kind": "peak", "space": tree, "peak": [1, 0, 1, 1, 0, 0],
                 "slope": 0.5, "c": 0.9, "noise": "bernoulli"}
    return {
        "ucb1": (finite, arms, {"name": "ucb1", "arms": [0.0, 1.0]}, 512),
        "well_ordered_bandit": (convergent, convergent_peak,
                                {"name": "well_ordered_bandit"}, 512),
        "cb_bandit": (convergent, convergent_peak,
                      {"name": "cb_bandit"}, 512),
        "phased_ucb1": (plain, peak(plain), {"name": "phased_ucb1"}, 512),
        "completion_adapter": (
            ordered, peak(ordered),
            {"name": "completion_adapter",
             "inner": {"name": "well_ordered_bandit"},
             "rounding": "dyadic:20"}, 256),
        # an adapter whose inner UCB1 phases play through its pulls
        "completion_adapter_phased_ucb1": (
            plain, peak(plain),
            {"name": "completion_adapter", "inner": {"name": "phased_ucb1"},
             "rounding": "dyadic:20"}, 512),
        # leaf paths: the points are tuples
        "phased_ucb1_tree": (tree, tree_peak, {"name": "phased_ucb1"}, 512),
        "double_feedback_expert": (convergent, convergent_peak,
                                   {"name": "double_feedback_expert"}, 256),
        "naive_experts": (plain, peak(plain),
                          {"name": "naive_experts", "b": 1.0}, 256),
        "maxminlcd_experts": (decomposed, peak(decomposed),
                              {"name": "maxminlcd_experts", "b": 1.0}, 256),
        # greedy farthest-point covering on an explicit union space
        "phased_ucb1_union": (union, union_peak,
                              {"name": "phased_ucb1"}, 512),
        "naive_experts_union": (union, union_peak,
                                {"name": "naive_experts", "b": 1.0}, 256),
        # noise-free pulls: UCB1's tied constant arms and the experts block
        "ucb1_noise_free": (three, tied, {"name": "ucb1",
                                          "arms": [0.0, 0.5, 1.0]}, 512),
        "naive_experts_noise_free": (three, tied, {"name": "naive_experts",
                                                   "b": 1.0}, 256),
        # sign-mixture sampling: bandit_reward and the experts sampler
        **{f"{alg['name']}_{kind}": (plain, desc, alg, 256)
           for kind, desc in _sign_mixtures(plain).items()
           for alg in ({"name": "phased_ucb1"},
                       {"name": "naive_experts", "b": 1.0})},
    }


def test_criterion_10_golden_traces():
    """A missing golden fails; BANDITLAB_RECORD_GOLDEN=1 records it from
    the code under test instead."""
    record = os.environ.get("BANDITLAB_RECORD_GOLDEN") == "1"
    GOLDEN_DIR.mkdir(exist_ok=True)
    ok = True
    created = []
    missing = []
    for name, (space_d, inst_d, alg_d, horizon) in _golden_configs().items():
        config = hn.ExperimentConfig(space=space_d, instance=inst_d,
                                     algorithm=alg_d, horizon=horizon)
        seq, _ = hn.run_replicates(config, [0, 1], parallelism=1)
        par, _ = hn.run_replicates(config, [0, 1], parallelism=2)
        payload = [tr.to_payload() for tr in seq]
        ok = ok and payload == [tr.to_payload() for tr in par]
        path = GOLDEN_DIR / f"{name}.json"
        if path.exists():
            ok = ok and payload == json.loads(path.read_text())
        elif record:
            path.write_text(json.dumps(payload, indent=1))
            created.append(name)
        else:
            ok = False
            missing.append(name)
    detail = f"{len(_golden_configs())} algorithms bit-exact"
    if created:
        detail += f"; recorded {len(created)} new golden files"
    if missing:
        detail += f"; missing golden files: {', '.join(missing)}"
    _report(10, "golden trace determinism", ok, detail)
