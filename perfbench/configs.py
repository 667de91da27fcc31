"""Workload inputs as plain descriptors.

This module imports nothing from banditlab, so the set-up probe can load
the inputs first and then time `import banditlab` in a fresh interpreter.
Each config is the dict form of `harness.ExperimentConfig`; its `seed` is
filled in at run time from the workload seed.
"""

INTERVAL = {"kind": "interval", "resolution": 2.0 ** -20,
            "scan_resolution": 2.0 ** -10}
DECOMPOSED = dict(INTERVAL, well_order="coordinate",
                  depth_chain=[{"kind": "all"},
                               {"kind": "points", "points": [0.8]}],
                  depth_dimension=1.0)
FINE_INTERVAL = dict(INTERVAL, resolution=2.0 ** -40)
CONVERGENT = {"kind": "convergent", "n_max": 100}
TWO_ARMS = {"kind": "finite", "coords": [0.0, 1.0]}
# 4 branches x 400 points plus their limits: 1,604 points
UNION = {"kind": "convergent_union",
         "branches": [[0.0, 1, 400], [2.0, 1, 400], [4.0, 1, 400],
                      [6.0, 1, 400]]}


def _peak(space, peak=0.8, slope=1.0):
    return {"kind": "peak", "space": space, "peak": peak, "slope": slope,
            "c": 0.9, "noise": "bernoulli"}


def _config(instance, algorithm, horizon, mode=None):
    return {"space": instance["space"], "instance": instance,
            "algorithm": algorithm, "horizon": horizon, "mode": mode,
            "record_actions": False}


_CONVERGENT_PEAK = _peak(CONVERGENT, peak=0.0, slope=0.5)
_UNION_PEAK = _peak(UNION, peak=0.0, slope=0.1)

HARD_INSTANCES = {
    "lineage": {"kind": "lineage", "space": FINE_INTERVAL, "tree_depth": 6,
                "gamma": 0.3, "depth_cap": 6, "seed": 0,
                "lineage": "seeded"},
    "noncompact": {"kind": "noncompact", "space": INTERVAL,
                   "centers": [0.1, 0.3, 0.5, 0.7, 0.9], "r": 0.05,
                   "sizes": [2, 3], "t_schedule": None, "seed": 0,
                   "guarantee_breaking": True},
    "maxminlcd": {"kind": "maxminlcd", "space": INTERVAL, "b": 0.5,
                  "depth_cap": 3, "seed": 0, "n_list": [3, 3, 3],
                  "guarantee_breaking": True},
}

# Each workload: its configs by label and the replicates of each.  A unit of
# timed work is one label: one replicate set (bandit_sim: one simulate+fit
# command pair; hard_instances: both matches plus the certification).  Where
# a config's work depends on the seed, more replicates keep the work of one
# run close to that of another.
WORKLOADS = {
    "bandit_sim": {
        "replicates": 2,
        "configs": {
            # acceptance criterion 7
            "phased_ucb1": _config(_peak(INTERVAL), {"name": "phased_ucb1"},
                                   2 ** 16),
            # acceptance criterion 6, bandit half
            "well_ordered_bandit": _config(
                _CONVERGENT_PEAK,
                {"name": "well_ordered_bandit", "f": "log_power:1"}, 2 ** 15),
            "ucb1": _config({"kind": "arms", "space": TWO_ARMS,
                             "means": [0.3, 0.7], "noise": "bernoulli"},
                            {"name": "ucb1", "arms": [0.0, 1.0]}, 2 ** 16),
        },
    },
    "full_info_sim": {
        # maxminlcd's active-set work varies about 1.7x between seeds
        "replicates": {"naive_experts": 1, "double_feedback_expert": 1,
                       "maxminlcd_experts": 4},
        "configs": {
            # acceptance criterion 8
            "naive_experts": _config(_peak(INTERVAL),
                                     {"name": "naive_experts", "b": 0.1},
                                     2 ** 16, mode="full"),
            # acceptance criterion 6, experts half
            "double_feedback_expert": _config(
                _CONVERGENT_PEAK, {"name": "double_feedback_expert"}, 2 ** 15),
            "maxminlcd_experts": _config(
                _peak(DECOMPOSED), {"name": "maxminlcd_experts", "b": 1.0},
                4096),
        },
    },
    "large_space": {
        "replicates": 1,
        "configs": {
            "naive_experts": _config(_UNION_PEAK,
                                     {"name": "naive_experts", "b": 1.0},
                                     2 ** 11),
            "phased_ucb1": _config(_UNION_PEAK, {"name": "phased_ucb1"},
                                   2 ** 13),
        },
    },
    "hard_instances": {
        "replicates": 2,
        "configs": {
            f"{kind}/{alg['name']}": _config(desc, alg, 2 ** 14)
            for kind, desc in HARD_INSTANCES.items()
            for alg in ({"name": "phased_ucb1"},
                        {"name": "naive_experts", "b": 1.0})
        },
        # lipschitz_certify(instance, pairs, rounds, rng) per instance
        "certify": {"pairs": 10000, "rounds": 10},
    },
}

DEFAULT_SEED = 0


def replicate_seeds(workload, seed, label):
    """Replicate seeds of one config: the workload seed offsets them, so the
    default seed 0 gives the seeds 0, 1, ... that the acceptance tests use."""
    count = WORKLOADS[workload]["replicates"]
    if isinstance(count, dict):
        count = count[label]
    base = 1000 * seed
    return list(range(base, base + count))


def seeded_config(config, seeds):
    return dict(config, seed=seeds[0])
