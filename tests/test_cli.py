import json

import pytest

import banditlab.cli as cli
import banditlab.spaces as sps


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_kl_suite(capsys):
    assert cli.main(["verify", "kl"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out and "PASS" in out


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
