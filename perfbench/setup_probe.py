"""Set-up time of one workload in this fresh interpreter.

Times `import banditlab` plus materialising each distinct config of the
workload up to its session's first chosen action, and prints the seconds.
Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import configs  # noqa: E402 - plain data, imports no banditlab


def main(workload, seed):
    distinct = {json.dumps(c, sort_keys=True): (label, c)
                for label, c in configs.WORKLOADS[workload]["configs"].items()}
    t0 = time.perf_counter()
    import numpy as np
    from banditlab import harness, instances

    for label, config in distinct.values():
        cfg = harness.ExperimentConfig.from_dict(configs.seeded_config(
            config, configs.replicate_seeds(workload, seed, label)))
        instance = instances.instance_from_descriptor(cfg.instance)
        session = harness.build_algorithm(
            cfg.algorithm, instance.space, np.random.default_rng([cfg.seed, 1]))
        session.choose()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
