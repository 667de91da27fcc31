"""The benchmark's own tests.

Run from the repository root with `python3 perfbench/selftest.py` (or
`python3 -m pytest perfbench/selftest.py`).  The last tests start the
benchmark itself, about two minutes in all.
"""

import itertools
import json
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: float(next(it))


def test_self_time_of_nested_spans():
    # root [0,10] holds a [1,4] (holding b [2,3]) and c [5,9]
    t = tr.Tracer(clock=_fake_clock(range(11)))
    with t.span("root"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            t.clock(), t.clock(), t.clock()
    spans = t.summary()["spans"]
    assert {n: s["self_s"] for n, s in spans.items()} == {
        "root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert t.summary()["top_level_s"] == 10.0


def test_self_times_sum_to_top_level():
    start = np.array([0.0, 1.0, 2.0, 6.0, 7.0])
    end = np.array([10.0, 5.0, 3.0, 9.0, 8.0])
    parent = np.array([-1, 0, 1, 0, 3])
    own = tr.self_times(start, end, parent)
    assert own.tolist() == [3.0, 3.0, 1.0, 2.0, 1.0]
    assert own.sum() == 10.0


def test_step_rounds_group_choose_and_observe():
    t = tr.Tracer(clock=_fake_clock(itertools.count()))
    for _ in range(3):
        with t.span("bandits.choose"):
            pass
        with t.span("bandits.observe"):
            with t.span("spaces.covering_oracle"):  # excluded child
                pass
    steps = t.summary()["steps"]
    # choose spans last 1 tick, observe spans 3 ticks minus a 1-tick child
    assert steps["bandits"].tolist() == [3.0, 3.0, 3.0]
    assert len(steps["experts"]) == 0


def test_absent_symbols_generators_and_uninstall():
    import banditlab.instances as inst
    import banditlab.spaces as sps

    original = sps.covering_oracle
    saved = tr.SYMBOLS
    tr.SYMBOLS = saved + (("spaces.gone", "spaces.no_such_oracle"),
                          ("harness.gone", "harness._NoSuchSampler.rewards"))
    t = tr.Tracer()
    try:
        t.install("selftest")
        assert {"spaces.no_such_oracle",
                "harness._NoSuchSampler.rewards"} <= set(t.absent)
        assert sps.covering_oracle is not original
        space = sps.IntervalSpace()
        tree = sps.build_ball_tree(space, 2)
        instance = inst.LineageInstance(space, tree, depth_cap=2, seed=0)
        list(instance.active_terms(0.5))
    finally:
        t.uninstall()
        tr.SYMBOLS = saved
    assert sps.covering_oracle is original
    summary = t.summary()
    assert summary["counts"]["instances.active_terms"] == 1
    assert summary["counts"]["instances.chain"] == 1
    assert "instances.active_terms" not in {
        n for n, s in summary["spans"].items() if s["calls"]}


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_two_traced_runs_give_identical_counts():
    declared = {m["name"] for m in _benchmark_json()["per_layer"]}
    for workload in run.WORKLOADS:
        results = [_result(_bench("--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", "1"))
                   for _ in range(2)]
        for result in results:
            assert result["correct"], (workload, result)
            assert set(result["metrics"]) == declared
        exact = [n for n in declared
                 if n.endswith((".calls", ".distinct_frac", ".bytes"))]
        first, second = ([r["metrics"][n]["value"] for n in exact]
                         for r in results)
        assert first == second, workload


def test_end_to_end_metrics_match_benchmark_json():
    result = _result(_bench("--workload", "large_space", "--seed", "3",
                            "--seconds", "1", "--trace", "0"))
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "bandit_sim", "--seed", "0",
                      "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
