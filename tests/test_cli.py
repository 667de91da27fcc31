import contextlib
import copy
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import banditlab.cli as cli
import banditlab.spaces as sps
from test_acceptance import _golden_configs


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_kl_suite(capsys):
    assert cli.main(["verify", "kl"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out and "PASS" in out


@pytest.mark.parametrize("suite, line", [
    ("ensemble", "payoff gap"),
    ("lipschitz", "maxminlcd: passed=True"),
    ("balltree", "tree: parent_slack="),
])
def test_verify_suite_passes(capsys, suite, line):
    assert cli.main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert line in out and out.splitlines()[-1] == "PASS"


def test_simulate_missing_config_exits_1(capsys):
    assert cli.main(["simulate", "/tmp/definitely-missing.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_and_fit(tmp_path, capsys):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": {"name": "ucb1", "arms": [0.0, 1.0]},
        "horizon": 256, "seed": 0})
    out_path = str(tmp_path / "traces.json")
    assert cli.main(["simulate", config, "--replicates", "2",
                     "--out", out_path]) == 0
    assert "mean_regret" in capsys.readouterr().out
    assert cli.main(["fit", "--input", out_path, "--window", "4,256"]) == 0
    assert "slope=" in capsys.readouterr().out


def test_simulate_csv_export(tmp_path):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": {"name": "ucb1", "arms": [0.0, 1.0]},
        "horizon": 32, "seed": 0})
    out_path = tmp_path / "traces.csv"
    assert cli.main(["simulate", config, "--out", str(out_path)]) == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "t,cum_regret,replicate,algorithm,instance,seed"


def test_dimension_command(tmp_path, capsys):
    space_path = _write(tmp_path, "space.json",
                        sps.IntervalSpace().descriptor())
    assert cli.main(["dimension", "--space", space_path,
                     "--grid", "0.0625,0.03125,0.015625"]) == 0
    out = capsys.readouterr().out
    assert "estimate=1.0000" in out


@pytest.mark.parametrize("grid", [
    "x", "0.1,,0.01", "0.1;0.01", "nan,0.1,0.01", "inf,0.1,0.01"])
def test_dimension_bad_grid_exits_1(tmp_path, capsys, grid):
    space_path = _write(tmp_path, "space.json",
                        sps.IntervalSpace().descriptor())
    assert cli.main(["dimension", "--space", space_path,
                     f"--grid={grid}"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["a,b", "4,x", "64", "1,2,3", ""])
def test_fit_bad_window_exits_1(tmp_path, capsys, window):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": {"name": "ucb1", "arms": [0.0, 1.0]},
        "horizon": 16, "seed": 0})
    out_path = str(tmp_path / "traces.json")
    assert cli.main(["simulate", config, "--out", out_path]) == 0
    capsys.readouterr()
    assert cli.main(["fit", "--input", out_path,
                     f"--window={window}"]) == 1
    assert "--window" in capsys.readouterr().err


def test_forge_writes_certified_instance(tmp_path, capsys):
    out_path = tmp_path / "forged.json"
    assert cli.main(["forge", "--kind", "logt", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["instance"]["kind"] == "logt"
    assert payload["certificate"]["passed"]


def test_bad_arguments_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["verify", "nope"]) == 1
    capsys.readouterr()


def test_simulate_config_missing_horizon_exits_1(tmp_path, capsys):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": {"name": "ucb1", "arms": [0.0, 1.0]}, "seed": 0})
    assert cli.main(["simulate", config]) == 1
    assert "'horizon'" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm, field", [
    ({"name": "ucb1"}, "arms"),
    ({"name": "naive_experts"}, "b"),
    ({"name": "maxminlcd_experts"}, "b"),
    ({"name": "completion_adapter"}, "inner"),
])
def test_simulate_algorithm_missing_field_exits_1(tmp_path, capsys,
                                                  algorithm, field):
    space = sps.FiniteSpace([0.0, 1.0], depth_chain=[{"kind": "all"}])
    space = space.descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": algorithm, "horizon": 8, "seed": 0})
    assert cli.main(["simulate", config]) == 1
    assert f"{field!r}" in capsys.readouterr().err


def test_fit_mixed_horizons_exits_1(tmp_path, capsys):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    paths = []
    for horizon in (16, 32):
        config = _write(tmp_path, f"cfg{horizon}.json", {
            "space": space,
            "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
            "algorithm": {"name": "ucb1", "arms": [0.0, 1.0]},
            "horizon": horizon, "seed": 0})
        out = tmp_path / f"traces{horizon}.json"
        assert cli.main(["simulate", config, "--out", str(out)]) == 0
        paths.append(out)
    merged = {"traces": [json.loads(p.read_text())["traces"][0]
                         for p in paths]}
    mixed = _write(tmp_path, "mixed.json", merged)
    capsys.readouterr()
    assert cli.main(["fit", "--input", mixed, "--window", "2,16"]) == 1
    assert "mixed horizons" in capsys.readouterr().err


_UCB1 = {"name": "ucb1", "arms": [0.0, 1.0]}


@pytest.mark.parametrize("instance, field", [
    ({"kind": "arms", "space": {"kind": "finite", "coords": [0.0, 1.0]}},
     "means"),
    ({"kind": "arms", "space": {"kind": "finite"}, "means": [0.3, 0.7]},
     "coords"),
    ({"kind": "peak", "peak": 0.5, "slope": 0.5}, "space"),
    ({"kind": "peak", "peak": 0.5, "slope": 0.5,
      "space": {"kind": "interval",
                "depth_chain": [{"kind": "all"}, {"kind": "points"}]}},
     "points"),
], ids=["arms-means", "finite-coords", "peak-space", "depth-points"])
def test_simulate_instance_missing_field_exits_1(tmp_path, capsys,
                                                 instance, field):
    space = instance.get("space", sps.IntervalSpace().descriptor())
    config = _write(tmp_path, "cfg.json", {
        "space": space, "instance": instance, "algorithm": _UCB1,
        "horizon": 8, "seed": 0})
    assert cli.main(["simulate", config]) == 1
    assert f"{field!r}" in capsys.readouterr().err


def test_simulate_config_space_must_match_instance(tmp_path, capsys):
    finite = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": sps.IntervalSpace().descriptor(),
        "instance": {"kind": "arms", "space": finite, "means": [0.3, 0.7]},
        "algorithm": _UCB1, "horizon": 8, "seed": 0})
    assert cli.main(["simulate", config]) == 1
    assert "'space'" in capsys.readouterr().err


_TRACE_FIELDS = ("algorithm", "instance", "seed", "horizon", "mu_star",
                 "rewards", "means")


@pytest.mark.parametrize("field", _TRACE_FIELDS)
def test_fit_trace_missing_field_exits_1(tmp_path, capsys, field):
    trace = {"algorithm": "ucb1", "instance": "arms", "seed": 0,
             "horizon": 4, "mu_star": (0.7).hex(),
             "rewards": [(1.0).hex()] * 4, "means": [(0.7).hex()] * 4}
    del trace[field]
    path = _write(tmp_path, "traces.json", {"traces": [trace]})
    assert cli.main(["fit", "--input", path, "--window", "1,4"]) == 1
    assert f"{field!r}" in capsys.readouterr().err


def test_fit_trace_with_only_algorithm_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "traces.json", {"traces": [{"algorithm": "ucb1"}]})
    assert cli.main(["fit", "--input", path]) == 1
    assert "trace needs the field" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ({}, "'traces'"),
    ({"traces": [{"algorithm": "ucb1", "instance": "arms", "seed": 0,
                  "horizon": 1, "mu_star": "0x1p-1", "rewards": ["one"],
                  "means": ["0x1p-1"]}]}, "bad hex float"),
    ({"traces": [{"algorithm": "ucb1", "instance": "arms", "seed": 0,
                  "horizon": 16, "mu_star": "0x1p-1", "rewards": ["0x1p-1"],
                  "means": ["0x1p-1"]}]}, "'horizon' values"),
], ids=["no-traces", "bad-hex", "short-trace"])
def test_fit_malformed_trace_file_exits_1(tmp_path, capsys, payload, message):
    path = _write(tmp_path, "traces.json", payload)
    assert cli.main(["fit", "--input", path]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("not json", "not valid JSON"),
    ("[1,2]", "JSON object"),
    ('{"traces": {"a": 1}}', "'traces'"),
    ('{"traces": [1]}', "JSON object"),
], ids=["not-json", "top-level-list", "traces-dict", "trace-number"])
def test_fit_trace_file_of_wrong_shape_exits_1(tmp_path, capsys, text,
                                               message):
    path = tmp_path / "traces.json"
    path.write_text(text)
    assert cli.main(["fit", "--input", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("rewards", "0110"),
    ("rewards", {"0x1p+0": 1, "0x0p+0": 2, "0x1p-1": 3, "0x1p-2": 4}),
    ("means", "0x1.6666666666666p-1" * 4),
    ("seed", "0"), ("seed", 1.0), ("seed", True), ("seed", None),
], ids=["rewards-hex-digits", "rewards-object", "means-string",
        "seed-string", "seed-float", "seed-bool", "seed-null"])
def test_fit_trace_of_wrong_field_type_exits_1(tmp_path, capsys, field,
                                               value):
    # each value has 4 elements, as many as the horizon counts
    trace = {"algorithm": "ucb1", "instance": "arms", "seed": 0,
             "horizon": 4, "mu_star": (0.7).hex(),
             "rewards": [(1.0).hex()] * 4, "means": [(0.7).hex()] * 4}
    trace[field] = value
    path = _write(tmp_path, "traces.json", {"traces": [trace]})
    assert cli.main(["fit", "--input", path, "--window", "1,4"]) == 1
    assert f"trace field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [0, True])
def test_fit_trace_horizon_below_one_or_bool_exits_1(tmp_path, capsys,
                                                     horizon):
    # as many rewards and means as the horizon counts
    path = _write(tmp_path, "traces.json", {"traces": [{
        "algorithm": "ucb1", "instance": "arms", "seed": 0,
        "horizon": horizon, "mu_star": (0.7).hex(),
        "rewards": [(1.0).hex()] * horizon,
        "means": [(0.7).hex()] * horizon}]})
    assert cli.main(["fit", "--input", path]) == 1
    assert "'horizon'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("horizon", "10"), ("horizon", 1.5), ("horizon", None),
    ("horizon", True), ("seed", "abc"), ("seed", 1.0), ("seed", False),
    ("seed", -1),
])
def test_simulate_config_horizon_and_seed_must_be_ints(tmp_path, capsys,
                                                       field, value):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = {"space": space,
              "instance": {"kind": "arms", "space": space,
                           "means": [0.3, 0.7]},
              "algorithm": _UCB1, "horizon": 8, "seed": 0}
    config[field] = value
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert f"{field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("arms", [[0.0, 5.0], [0.5], 1.0])
def test_simulate_ucb1_arm_outside_space_exits_1(tmp_path, capsys, arms):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": {"name": "ucb1", "arms": arms}, "horizon": 8,
        "seed": 0})
    assert cli.main(["simulate", config]) == 1
    assert "'arms'" in capsys.readouterr().err


def test_simulate_config_unknown_field_exits_1(tmp_path, capsys):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": _UCB1, "horizon": 8, "sead": 3})
    assert cli.main(["simulate", config]) == 1
    assert "'sead'" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm, field", [
    ({"name": "ucb1", "arms": [0.0, 1.0], "arm": 5}, "arm"),
    ({"name": "phased_ucb1", "b": 1.0}, "b"),
    ({"name": "completion_adapter",
      "inner": {"name": "phased_ucb1", "roundng": "identity"}}, "roundng"),
])
def test_simulate_algorithm_unknown_field_exits_1(tmp_path, capsys,
                                                  algorithm, field):
    space = sps.FiniteSpace([0.0, 1.0]).descriptor()
    config = _write(tmp_path, "cfg.json", {
        "space": space,
        "instance": {"kind": "arms", "space": space, "means": [0.3, 0.7]},
        "algorithm": algorithm, "horizon": 8, "seed": 0})
    assert cli.main(["simulate", config]) == 1
    assert f"{field!r}" in capsys.readouterr().err


_FINITE = {"kind": "finite", "coords": [0.0, 1.0]}
_ARMS = {"kind": "arms", "space": _FINITE, "means": [0.3, 0.7]}
_LEVELS = [{"kind": "all"}, {"kind": "points", "points": [1.0], "colour": 1}]


@pytest.mark.parametrize("config, message", [
    ({"space": dict(_FINITE, colour=1), "instance": _ARMS}, "'colour'"),
    ({"space": _FINITE, "instance": dict(_ARMS, colour=1)}, "'colour'"),
    ({"space": dict(_FINITE, depth_chain=_LEVELS),
      "instance": dict(_ARMS, space=dict(_FINITE, depth_chain=_LEVELS))},
     "'colour'"),
    ({"space": _FINITE, "instance": _ARMS, "algorithm": "ucb1"},
     "JSON object"),
    ({"space": _FINITE, "instance": "arms"}, "JSON object"),
    ({"space": "finite", "instance": _ARMS}, "JSON object"),
    ({"space": _FINITE, "instance": _ARMS,
      "algorithm": {"name": "completion_adapter", "inner": "ucb1"}},
     "JSON object"),
    ([1], "JSON object"),
    ({"space": _FINITE, "instance": _ARMS,
      "algorithm": {"name": "naive_experts", "b": "x"}}, "'naive_experts'"),
    ({"space": _FINITE, "instance": _ARMS,
      "algorithm": {"name": "naive_experts", "b": 10 ** 400}},
     "'naive_experts'"),
    ({"space": _FINITE, "instance": _ARMS,
      "algorithm": {"name": "completion_adapter", "inner": _UCB1,
                    "rounding": 7}}, "'rounding'"),
    ({"space": _FINITE, "instance": _ARMS,
      "algorithm": {"name": "completion_adapter", "inner": _UCB1,
                    "rounding": "dyadic:x"}}, "'rounding'"),
    # a field whose default is a bool takes only a bool
    ({"space": _FINITE, "instance": _ARMS, "record_actions": 1},
     "'record_actions'"),
    ({"space": _FINITE, "instance": _ARMS, "record_actions": "yes"},
     "'record_actions'"),
], ids=["space-field", "instance-field", "depth-level-field",
        "algorithm-string", "instance-string", "space-string",
        "inner-string", "config-list", "experts-b-string", "experts-b-huge",
        "rounding-number", "rounding-level-string", "record_actions-int",
        "record_actions-string"])
def test_simulate_malformed_descriptor_exits_1(tmp_path, capsys, config,
                                               message):
    if isinstance(config, dict):
        config = dict({"algorithm": _UCB1, "horizon": 8, "seed": 0}, **config)
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert message in capsys.readouterr().err


_INTERVAL = {"kind": "interval"}


@pytest.mark.parametrize("config, message", [
    ({"space": _FINITE, "instance": dict(_ARMS, noise="gauss")}, "'gauss'"),
    ({"space": _INTERVAL, "instance": {"kind": "peak", "space": _INTERVAL,
                                       "peak": 0.5, "slope": 1.0,
                                       "c": 0.6, "noise": "None"}},
     "'None'"),
    ({"space": _INTERVAL, "instance": {"kind": "constant",
                                       "space": _INTERVAL, "noise": 0}},
     "noise"),
    ({"space": _INTERVAL, "instance": {"kind": "logt", "space": _INTERVAL,
                                       "seq": [0.9, 0.6], "x_star": 0.5,
                                       "i": 1, "noise": "gauss"}},
     "'gauss'"),
    ({"space": dict(_INTERVAL, resolution="x"),
      "instance": {"kind": "constant", "space": dict(_INTERVAL,
                                                     resolution="x")}},
     "interval space"),
    ({"space": dict(_FINITE, coords=5),
      "instance": dict(_ARMS, space=dict(_FINITE, coords=5))},
     "finite space"),
    ({"space": dict(_FINITE, coords=[0.0, math.inf]),
      "instance": dict(_ARMS, space=dict(_FINITE, coords=[0.0, math.inf]))},
     "finite space"),
], ids=["arms-noise", "peak-noise", "constant-noise", "logt-noise",
        "interval-resolution", "finite-coords", "finite-coords-inf"])
def test_simulate_bad_descriptor_value_exits_1(tmp_path, capsys, config,
                                               message):
    config = dict({"algorithm": {"name": "phased_ucb1"}, "horizon": 8,
                   "seed": 0}, **config)
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert message in capsys.readouterr().err


_DECOMPOSED = sps.IntervalSpace(
    well_order="coordinate",
    depth_chain=[{"kind": "all"},
                 {"kind": "points", "points": [0.8]}]).descriptor()


@pytest.mark.parametrize("name", ["naive_experts", "maxminlcd_experts"])
@pytest.mark.parametrize("b", [math.nan, math.inf, True])
def test_simulate_experts_b_must_be_a_finite_number(tmp_path, capsys, name,
                                                   b):
    instance = {"kind": "peak", "space": _DECOMPOSED, "peak": 0.8,
                "slope": 1.0, "c": 0.9}
    config = {"space": _DECOMPOSED, "instance": instance,
              "algorithm": {"name": name, "b": b}, "horizon": 8, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    # a bool fails at the descriptor schema, which names the field
    assert ("'b'" if b is True else "finite number") in (
        capsys.readouterr().err)


_PEAK = {"kind": "peak", "space": _INTERVAL, "peak": 0.5, "slope": 1.0,
         "c": 0.9}


@pytest.mark.parametrize("inner", [{"name": "naive_experts", "b": 1.0},
                                   {"name": "double_feedback_expert"}])
def test_simulate_adapter_inner_must_run_in_bandit_mode(tmp_path, capsys,
                                                        inner):
    config = {"space": _INTERVAL, "instance": _PEAK,
              "algorithm": {"name": "completion_adapter", "inner": inner},
              "horizon": 8, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert "'inner'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["well_ordered_bandit", "cb_bandit"])
@pytest.mark.parametrize("f", ["log_power:nan", "log_power:inf"])
def test_simulate_exponent_preset_argument_must_be_finite(tmp_path, capsys,
                                                          name, f):
    config = {"space": _INTERVAL, "instance": _PEAK,
              "algorithm": {"name": name, "f": f}, "horizon": 64, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["well_ordered_bandit", "cb_bandit"])
def test_simulate_exponent_preset_overflow_exits_1(tmp_path, capsys, name):
    # log(4) ** 1e300 overflows in the first phase
    config = {"space": _INTERVAL, "instance": _PEAK,
              "algorithm": {"name": name, "f": "log_power:1e300"},
              "horizon": 64, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert "overflows" in capsys.readouterr().err


def test_simulate_ucb1_list_arms_are_tree_leaves(tmp_path, capsys):
    tree = sps.TreeSpace(eps=0.5, depth=2).descriptor()
    config = {"space": tree,
              "instance": {"kind": "constant", "space": tree, "c": 0.5},
              "algorithm": {"name": "ucb1", "arms": [[0, 0], [1, 1]]},
              "horizon": 16, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 0
    assert "mean_regret" in capsys.readouterr().out


@pytest.mark.parametrize("algorithm", [
    {"name": "phased_ucb1"}, {"name": "maxminlcd_experts", "b": 1.0}],
    ids=["phased_ucb1", "maxminlcd_experts"])
@pytest.mark.parametrize("field, value", [
    ("scan_resolution", 0), ("scan_resolution", -0.5),
    ("scan_resolution", math.nan), ("scan_resolution", 2.0),
    # a scan grid of 10^12 steps, over the size budget of 2^20
    ("scan_resolution", 1e-12),
    ("resolution", 0), ("resolution", -1.0), ("resolution", math.inf),
    # JSON true is not the number 1
    ("scan_resolution", True), ("resolution", True)])
def test_simulate_interval_resolution_out_of_range_exits_1(tmp_path, capsys,
                                                           algorithm, field,
                                                           value):
    space = dict(_DECOMPOSED, **{field: value})
    instance = {"kind": "peak", "space": space, "peak": 0.8, "slope": 1.0,
                "c": 0.9}
    config = {"space": space, "instance": instance, "algorithm": algorithm,
              "horizon": 64, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert f"{field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [2.5, 0, True, "2"])
def test_simulate_tree_depth_must_be_a_positive_int(tmp_path, capsys, depth):
    tree = {"kind": "tree", "eps": 0.5, "depth": depth}
    config = {"space": tree,
              "instance": {"kind": "constant", "space": tree, "c": 0.5},
              "algorithm": {"name": "phased_ucb1"}, "horizon": 16, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert "'depth'" in capsys.readouterr().err


@pytest.mark.parametrize("space, field", [
    ({"kind": "tree", "eps": 0.5, "depth": 2, "branching": [2.5, 3.7]},
     "'branching'"),
    ({"kind": "tree", "eps": 0.5, "depth": 2, "branching": [2, 1]},
     "'branching'"),
    ({"kind": "convergent", "n_max": 2.5}, "'n_max'"),
    ({"kind": "convergent", "n_max": True}, "'n_max'"),
    ({"kind": "nested_convergent", "m_max": 2.5}, "'m_max'"),
    ({"kind": "nested_convergent", "m_max": 0}, "'m_max'"),
    ({"kind": "nested_convergent", "n_max": -3}, "'n_max'"),
    ({"kind": "convergent_union", "branches": [[0.0, 1, 2.5]]}, "'branches'"),
    # point counts over the size budget of 2^20, refused before any list
    ({"kind": "convergent", "n_max": 2 ** 20}, "budget"),
    ({"kind": "nested_convergent", "m_max": 1024, "n_max": 1024}, "budget"),
    ({"kind": "convergent_union", "branches": [[0.0, 1, 2 ** 19],
                                               [2.0, -1, 2 ** 19]]},
     "budget"),
])
def test_simulate_space_counts_must_be_ints_within_budget(tmp_path, capsys,
                                                          space, field):
    config = {"space": space,
              "instance": {"kind": "constant", "space": space, "c": 0.5},
              "algorithm": {"name": "phased_ucb1"}, "horizon": 16, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert field in capsys.readouterr().err


def test_simulate_exponent_preset_over_the_size_budget_exits_1(tmp_path,
                                                               capsys):
    # phase 2 asks for a covering of k = 118,069,115,374 interval points
    config = {"space": _INTERVAL, "instance": _PEAK,
              "algorithm": {"name": "well_ordered_bandit",
                            "f": "log_power:50"},
              "horizon": 64, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_simulate_replicate_error_exit_code_ignores_parallelism(
        tmp_path, capsys, parallelism):
    config = {"space": _FINITE, "instance": _ARMS,
              "algorithm": {"name": "ucb1", "arms": [0.0, 1.0]},
              "mode": "full", "horizon": 16, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config),
                     "--replicates", "2", "--parallelism", parallelism]) == 1
    assert "'full'" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--parallelism", "0"), ("--parallelism", "-3"), ("--replicates", "0"),
    ("--replicates", "-1")])
def test_simulate_count_option_below_one_exits_1(tmp_path, capsys, option,
                                                 value):
    config = {"space": _FINITE, "instance": _ARMS, "algorithm": _UCB1,
              "horizon": 8, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config),
                     option, value]) == 1
    err = capsys.readouterr().err
    assert option.lstrip("-") in err and f"not {value}" in err


# SHA-256 of `banditlab forge --kind K --seed S` stdout, recorded before
# certification drew its rounds through the rounds axis of table_round
_FORGE_DIGESTS = {
    ("lineage", 0): "73b9087c2af1dc8cd625188f4a44ed2efeb713bb35dcbb293cf727bd8a2ab897",
    ("lineage", 3): "26a5ee0b0e2ea4ab523639d56f0c66a809249b3b930a35f31f79479a6966190e",
    ("noncompact", 0): "4f8f138f1a308c01f11710d2d187c4c75d4d7784e9dfb42becd3035a90d91af8",
    ("noncompact", 3): "e3df3e4089a0a74266c884a2d7ee58c96cb6047d67b84451aefb2363ce953af9",
    ("maxminlcd", 0): "574a2da8056ff45304c0e78567c82bee322fc37eeef41a977fa7f37914de2376",
    ("maxminlcd", 3): "affb826a9ae1add52ce30a8b9cb74d7c3cd8d961de3f4e3479dc5914de114a6e",
    ("logt", 0): "4949d5771757ec03b88a5cb0407b3bb106d5488f93582df504aa456ab3ec1be7",
    ("logt", 3): "4949d5771757ec03b88a5cb0407b3bb106d5488f93582df504aa456ab3ec1be7",
}


@pytest.mark.parametrize("kind, seed", sorted(_FORGE_DIGESTS))
def test_forge_output_pinned(capsys, kind, seed):
    assert cli.main(["forge", "--kind", kind, "--seed", str(seed)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _FORGE_DIGESTS[kind, seed]


_LINEAGE = {"kind": "lineage", "space": _INTERVAL, "tree_depth": 3,
            "gamma": 0.3, "seed": 0}
_NONCOMPACT = {"kind": "noncompact", "space": _INTERVAL,
               "centers": [0.1, 0.3, 0.5, 0.7, 0.9], "r": 0.05,
               "sizes": [2, 3], "seed": 0}


def _depth_peak(level):
    """A peak on the decomposed interval whose chain ends with `level`."""
    return {"kind": "peak", "space": dict(_DECOMPOSED, depth_chain=[
        {"kind": "all"}, level]), "peak": 0.8, "slope": 1.0, "c": 0.9}


@pytest.mark.parametrize("instance, field", [
    # the points and the ball tree are decoded before the instance is built
    (dict(_NONCOMPACT, centers=0.5), "'centers'"),
    (dict(_NONCOMPACT, centers=True), "'centers'"),
    (dict(_LINEAGE, tree_depth="3"), "'tree_depth'"),
    (dict(_LINEAGE, tree_depth=[3]), "'tree_depth'"),
    (dict(_LINEAGE, tree_depth=3.5), "'tree_depth'"),
    (dict(_LINEAGE, depth_cap=True), "'depth_cap'"),
    # a fractional depth was truncated
    ({"kind": "maxminlcd", "space": _INTERVAL, "depth_cap": 2.5},
     "'depth_cap'"),
    # depth-level points were read only when a round asked for a depth
    ({"kind": "peak", "space": dict(_DECOMPOSED, depth_chain=[
        {"kind": "all"}, {"kind": "points", "points": "x"}]),
      "peak": 0.8, "slope": 1.0, "c": 0.9}, "'points'"),
    ({"kind": "peak", "space": dict(_DECOMPOSED, depth_chain=[
        {"kind": "all"}, {"kind": "interval", "bounds": [0.5]}]),
      "peak": 0.8, "slope": 1.0, "c": 0.9}, "'bounds'"),
    # depth-level points and bounds outside the space, or bounds reversed
    (_depth_peak({"kind": "points", "points": [5.0]}), "'points'"),
    (_depth_peak({"kind": "points", "points": [math.inf]}), "'points'"),
    (_depth_peak({"kind": "points", "points": [math.nan]}), "'points'"),
    (_depth_peak({"kind": "points", "points": [-1.0]}), "'points'"),
    (_depth_peak({"kind": "interval", "bounds": [0.5, 2.0]}), "'bounds'"),
    (_depth_peak({"kind": "interval", "bounds": [-math.inf, 0.5]}),
     "'bounds'"),
    (_depth_peak({"kind": "interval", "bounds": [0.9, 0.1]}), "'bounds'"),
    # JSON true is not the number 1
    (dict(_PEAK, slope=True), "'slope'"),
])
def test_simulate_instance_field_of_wrong_form_exits_1(tmp_path, capsys,
                                                       instance, field):
    algorithm = ({"name": "maxminlcd_experts", "b": 1.0}
                 if "depth_chain" in instance["space"]
                 else {"name": "phased_ucb1"})
    config = {"space": instance["space"], "instance": instance,
              "algorithm": algorithm, "horizon": 16, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("c", [1, 0, True])
@pytest.mark.parametrize("algorithm", [
    {"name": "ucb1", "arms": [0.0, 1.0]},
    {"name": "well_ordered_bandit"},
    {"name": "phased_ucb1"},
    {"name": "completion_adapter", "inner": {"name": "ucb1",
                                             "arms": [0.0, 1.0]}},
])
def test_simulate_noise_free_integer_mean(tmp_path, capsys, algorithm, c):
    """Without noise a pull is the mean as the instance returns it; an int
    mean is played as its float. JSON true is not the number 1: the
    descriptor schema refuses it and names the field."""
    space = sps.ConvergentSpace(100).descriptor()
    config = {"space": space,
              "instance": {"kind": "constant", "space": space, "c": c,
                           "noise": "none"},
              "algorithm": algorithm, "horizon": 64, "seed": 0}
    path = _write(tmp_path, "cfg.json", config)
    if c is True:
        assert cli.main(["simulate", path]) == 1
        assert "'c'" in capsys.readouterr().err
    else:
        assert cli.main(["simulate", path]) == 0
        assert "mean_regret=0.0000" in capsys.readouterr().out


@pytest.mark.parametrize("levels, code", [(1023, 0), (1024, 1), (2000, 1)])
def test_simulate_dyadic_levels_past_float_range(tmp_path, capsys, levels,
                                                 code):
    """2^1024 overflows a float: a grid that fine is refused when the
    adapter is built, not in round 1024."""
    config = {"space": _INTERVAL, "instance": _PEAK,
              "algorithm": {"name": "completion_adapter",
                            "inner": {"name": "phased_ucb1"},
                            "rounding": f"dyadic:{levels}"},
              "horizon": 1100, "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]) == code
    assert ("'rounding'" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize("horizon, options", [
    (2 ** 62, []),
    (2 ** 62, ["--replicates", "2", "--parallelism", "2"]),
    # past the address space: numpy raises MemoryError before allocating
    (2 ** 57, []),
], ids=["2^62", "2^62-pool", "2^57"])
def test_simulate_horizon_too_large_to_allocate_exits_1(tmp_path, capsys,
                                                        horizon, options):
    config = {"space": _INTERVAL, "instance": _PEAK,
              "algorithm": {"name": "phased_ucb1"}, "horizon": horizon,
              "seed": 0}
    assert cli.main(["simulate", _write(tmp_path, "cfg.json", config)]
                    + options) == 1
    assert "'horizon'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one-field mutations of the golden configs


def _field_paths(value, prefix=()):
    """The key or index path of every field of a config, nested ones and
    list items included."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield prefix + (key,)
        yield from _field_paths(item, prefix + (key,))


_MUTATIONS = {
    "wrong type": lambda v: 1 if isinstance(v, str) else "x",
    "zero": lambda v: 0,
    "negative": lambda v: (-v if isinstance(v, (int, float))
                           and not isinstance(v, bool) and v else -1),
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "huge": lambda v: 1e300,
    "bool": lambda v: True,
    "list": lambda v: [v],
}


def _mutated(config, path, mutation):
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "dropped":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _MUTATIONS[mutation](parent[path[-1]])
    return config


def test_simulate_survives_one_field_mutations(tmp_path):
    """Each example mutates one field of every golden config, at a horizon
    of 16: `simulate` exits 0, 1 or 2 and raises nothing."""
    configs = [{"space": space_d, "instance": inst_d, "algorithm": alg_d,
                "horizon": 16, "seed": 0}
               for space_d, inst_d, alg_d, _horizon
               in _golden_configs().values()]
    path = tmp_path / "cfg.json"

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def check(data):
        for config in configs:
            field = data.draw(st.sampled_from(list(_field_paths(config))))
            mutation = data.draw(st.sampled_from(
                ["dropped", *_MUTATIONS]))
            # NaN and inf are written as the JSON extensions json.load reads
            path.write_text(json.dumps(_mutated(config, field, mutation)))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["simulate", str(path)])
            assert code in (0, 1, 2), (field, mutation, code)

    check()
