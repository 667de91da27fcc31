import concurrent.futures
import gc
import math
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import banditlab.bandits as bd
import banditlab.harness as hn
import banditlab.instances as inst
import banditlab.spaces as sps
from banditlab.errors import ValidationError


def _arms_config(horizon=256, seed=0, **kw):
    space = sps.FiniteSpace([0.0, 1.0])
    return hn.ExperimentConfig(
        space=space.descriptor(),
        instance={"kind": "arms", "space": space.descriptor(),
                  "means": [0.3, 0.7], "noise": "bernoulli"},
        algorithm={"name": "ucb1", "arms": [0.0, 1.0]},
        horizon=horizon, seed=seed, **kw)


def _constant_config(horizon=64, algorithm=None):
    space = sps.IntervalSpace(well_order="coordinate")
    return hn.ExperimentConfig(
        space=space.descriptor(),
        instance={"kind": "constant", "space": space.descriptor(),
                  "c": 0.5, "noise": "none"},
        algorithm=algorithm or {"name": "well_ordered_bandit"},
        horizon=horizon)


# ---------------------------------------------------------------------------
# single matches


def test_constant_instance_zero_regret():
    trace = hn.run_match(_constant_config())
    assert np.allclose(trace.cum_regret, 0.0)
    assert np.allclose(trace.cum_pseudo_regret(), 0.0)


def test_horizon_one_regret_is_first_gap():
    config = _arms_config(horizon=1)
    trace = hn.run_match(config)
    # ucb1 plays arm 0 first; realized regret uses the drawn reward
    assert trace.mu_star == pytest.approx(0.7)
    assert trace.means[0] == pytest.approx(0.3)
    assert trace.cum_regret[0] == pytest.approx(0.7 - trace.rewards[0])


def test_regret_is_computed_when_first_read():
    """A trace carries no regret until it is read, so a pickled one, as a
    pool worker returns it, holds only its rewards and means; the copy
    reads the same bits."""
    trace = hn.run_match(_arms_config(horizon=64))
    assert "cum_regret" not in trace.__dict__
    copy = pickle.loads(pickle.dumps(trace))
    assert "cum_regret" not in copy.__dict__
    regret = trace.mu_star * np.arange(1, 65) - np.cumsum(trace.rewards)
    assert trace.cum_regret.tobytes() == regret.tobytes()
    assert "cum_regret" in trace.__dict__
    assert copy.cum_regret.tobytes() == regret.tobytes()


def test_pseudo_regret_matches_under_zero_noise():
    space = sps.IntervalSpace(well_order="coordinate")
    config = hn.ExperimentConfig(
        space=space.descriptor(),
        instance={"kind": "peak", "space": space.descriptor(), "peak": 0.8,
                  "slope": 1.0, "c": 0.9, "noise": "none"},
        algorithm={"name": "well_ordered_bandit"}, horizon=300)
    trace = hn.run_match(config)
    assert np.allclose(trace.cum_regret, trace.cum_pseudo_regret())


def test_record_actions():
    config = _arms_config(horizon=32, record_actions=True)
    trace = hn.run_match(config)
    assert len(trace.actions) == 32
    assert set(trace.actions) <= {0.0, 1.0}
    assert hn.run_match(_arms_config(horizon=32)).actions is None


def _checked_actions(monkeypatch, config, cls=bd.Session):
    """The actions run_match(config) chose, after checking that choose()
    ran once per action and observe() once per completed one, and that
    every round records the action's bet, or the bet an action with `play`
    recorded for it, and, bit for bit, its mean.  The steps are logged on
    `cls`, the class of the session run_match steps."""
    log = []  # each action choose() returns; None for each observe()
    choose, observe = cls.choose, cls.observe

    def logged_choose(self):
        log.append(choose(self))
        return log[-1]

    def logged_observe(self, feedback):
        log.append(None)
        observe(self, feedback)

    with monkeypatch.context() as m:
        m.setattr(cls, "choose", logged_choose)
        m.setattr(cls, "observe", logged_observe)
        trace = hn.run_match(config)
    chosen = log[0::2]
    assert None not in chosen and all(e is None for e in log[1::2])
    ends = np.cumsum([a.rounds for a in chosen])
    assert (ends[:-1] < trace.horizon).all() and ends[-1] >= trace.horizon
    # the last action is observed only when it ends at the horizon
    assert len(log) == 2 * len(chosen) - (ends[-1] > trace.horizon)
    bets = []
    for a in chosen:
        n = min(a.rounds, trace.horizon - len(bets))
        bets += (trace.actions[len(bets):len(bets) + n] if a.play
                 else [a.bet] * n)
    assert trace.actions == bets
    instance = inst.instance_from_descriptor(config.instance)
    means = np.array([instance.mean(x) for x in trace.actions])
    assert trace.means.tobytes() == means.tobytes()
    return chosen


def test_run_loop_contract_one_round_actions(monkeypatch):
    # the completion adapter plays each inner action, a block of the inner
    # session's sweep or commit or an inner UCB1 phase, as one action that
    # pulls the match's rounds one at a time, as its rounding depends on
    # the round
    pulled = []
    block = hn._Pulls.block

    def logged_block(self, x, t, n, start):
        pulled.append(n)
        return block(self, x, t, n, start)

    monkeypatch.setattr(hn._Pulls, "block", logged_block)
    config = _arms_config(horizon=300, record_actions=True)
    config.algorithm = {"name": "completion_adapter", "rounding": "identity",
                        "inner": {"name": "well_ordered_bandit"}}
    chosen = _checked_actions(monkeypatch, config, bd.CompletionAdapterSession)
    assert all(a.play is not None for a in chosen)
    assert max(a.rounds for a in chosen) > 1
    assert pulled == [1] * 300
    pulled.clear()
    config.algorithm["inner"] = _arms_config().algorithm
    chosen = _checked_actions(monkeypatch, config, bd.CompletionAdapterSession)
    assert len(chosen) == 1 and chosen[0].play is not None
    assert pulled == [1] * 300


@pytest.mark.parametrize("seed", [0, 1])
def test_ucb1_plays_its_rounds_in_few_actions(monkeypatch, seed):
    # the benchmark's ucb1 config: UCB1 without end is one phase, which
    # repeats the better arm over long stretches that its proofs turn into
    # blocks, so it plays few blocks and single rounds
    blocks = []
    block = hn._Pulls.block

    def logged_block(self, x, t, n, start):
        blocks.append(n)
        return block(self, x, t, n, start)

    monkeypatch.setattr(hn._Pulls, "block", logged_block)
    config = _arms_config(horizon=2 ** 16, seed=seed, record_actions=True)
    chosen = _checked_actions(monkeypatch, config)
    assert len(chosen) == 1 and chosen[0].play is not None
    assert chosen[0].rounds == math.inf
    assert len(blocks) + config.horizon - sum(blocks) <= 5000


def test_run_loop_contract_blocks(monkeypatch):
    space = sps.IntervalSpace(well_order="coordinate").descriptor()

    def config(horizon):
        return hn.ExperimentConfig(
            space=space,
            instance={"kind": "peak", "space": space, "peak": 0.8,
                      "slope": 1.0, "c": 0.9, "noise": "bernoulli"},
            algorithm={"name": "well_ordered_bandit"}, horizon=horizon,
            seed=2, record_actions=True)

    # cut a block of several rounds inside, then end a run with it
    start = 0
    for a in _checked_actions(monkeypatch, config(600)):
        if a.rounds > 2:
            break
        start += a.rounds
    assert a.rounds > 2 and start + a.rounds <= 600
    for horizon in (start + 1, start + a.rounds):
        _checked_actions(monkeypatch, config(horizon))


def test_mean_runs_once_per_distinct_bet(monkeypatch):
    bets = []
    mean = inst._SignMixture.mean

    def counted(self, x):
        bets.append(x)
        return mean(self, x)

    monkeypatch.setattr(inst._SignMixture, "mean", counted)
    space = {"kind": "interval", "resolution": 2.0 ** -40}
    trace = hn.run_match(hn.ExperimentConfig(
        space=space,
        instance={"kind": "lineage", "space": space, "tree_depth": 4},
        algorithm={"name": "phased_ucb1"}, horizon=2 ** 10,
        record_actions=True))
    assert len(set(trace.actions)) < 2 ** 9
    assert sorted(bets) == sorted(set(trace.actions))


def test_mode_mismatch_rejected():
    config = _arms_config(horizon=8, mode="full")
    with pytest.raises(ValidationError):
        hn.run_match(config)


def test_config_space_must_match_instance_space():
    config = _arms_config(horizon=8)
    config.space = sps.FiniteSpace([0.0, 0.5]).descriptor()
    with pytest.raises(ValidationError, match="'space'"):
        hn.run_match(config)
    # the same space written with other number types is the same space
    config.space = {"kind": "finite", "coords": [0, 1]}
    assert hn.run_match(config).horizon == 8


def test_unknown_algorithm_rejected():
    config = _arms_config(horizon=8)
    config.algorithm = {"name": "nope"}
    with pytest.raises(ValidationError):
        hn.run_match(config)


def test_expert_mode_trace():
    space = sps.IntervalSpace()
    config = hn.ExperimentConfig(
        space=space.descriptor(),
        instance={"kind": "peak", "space": space.descriptor(), "peak": 0.8,
                  "slope": 1.0, "c": 0.9, "noise": "none"},
        algorithm={"name": "naive_experts", "b": 1.0},
        horizon=128, mode="full")
    trace = hn.run_match(config)
    assert trace.horizon == 128
    assert trace.info["phases"]
    # zero noise: bet rewards equal bet means round by round
    assert np.allclose(trace.rewards, trace.means)


_PEAK = {"kind": "peak", "peak": 0.0, "slope": 0.25, "c": 0.9,
         "noise": "bernoulli"}


@pytest.mark.parametrize("space, instance_d, algorithm", [
    (sps.ConvergentUnionSpace([(0.0, 1, 40), (2.0, 1, 40)]), _PEAK,
     {"name": "phased_ucb1"}),
    (sps.IntervalSpace(well_order="coordinate"), _PEAK,
     {"name": "completion_adapter", "inner": {"name": "well_ordered_bandit"}}),
    (sps.IntervalSpace(well_order="coordinate"), _PEAK,
     {"name": "completion_adapter", "inner": {"name": "phased_ucb1"}}),
    (sps.IntervalSpace(), {"kind": "lineage", "tree_depth": 4},
     {"name": "phased_ucb1"}),
    (sps.IntervalSpace(), _PEAK, {"name": "naive_experts", "b": 1.0}),
], ids=["session", "completion_adapter", "completion_adapter_phase",
        "sign_mixture", "experts"])
def test_finished_match_frees_session_and_space(monkeypatch, space,
                                                instance_d, algorithm):
    """A finished match leaves no reference cycle, so the session, the space
    and its oracle caches, and the noise stream go at once, not at the next
    cycle collection."""
    refs = []
    materialize = hn._materialize

    def spy(config, seed):
        instance, session, rng = materialize(config, seed)
        refs.extend([weakref.ref(session), weakref.ref(instance.space)])
        return instance, session, rng

    class Uniforms(hn._Uniforms):
        def __init__(self, rng):
            super().__init__(rng)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(hn, "_materialize", spy)
    monkeypatch.setattr(hn, "_Uniforms", Uniforms)
    config = hn.ExperimentConfig(
        space=space.descriptor(),
        instance={**instance_d, "space": space.descriptor()},
        algorithm=algorithm, horizon=300)
    gc.collect()
    gc.disable()
    try:
        hn.run_match(config)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive == [False, False, False]


# ---------------------------------------------------------------------------
# the noise stream


@pytest.mark.parametrize("chunk", [8, hn._UNIFORM_CHUNK])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_uniforms_read_one_stream(chunk, data):
    """Any interleaving of take(n), with n below, at and above the chunk,
    runs of next() and a final rewind() reads what one rng.random call
    reads, and leaves the generator in the state that call leaves."""
    sizes = st.integers(0, 3 * chunk) | st.sampled_from(
        [chunk - 1, chunk, chunk + 1])
    reads = data.draw(st.lists(st.tuples(st.sampled_from(["take", "next"]),
                                         sizes), max_size=12))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    got = []
    with mock.patch.object(hn, "_UNIFORM_CHUNK", chunk):
        uniforms = hn._Uniforms(rng)
        for kind, n in reads:
            if kind == "take":
                u = uniforms.take(n)
                assert u.dtype == np.float64 and u.shape == (n,)
                got.extend(u.tolist())
            else:
                values = [uniforms.next() for _ in range(n)]
                assert all(v.__class__ is float for v in values)
                got.extend(values)
        uniforms.rewind()
    ref = np.random.default_rng(seed)
    assert np.array(got, dtype=float).tobytes() == ref.random(len(got)).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# checkpoints and aggregation


def test_checkpoints_capped_at_horizon():
    trace = hn.run_match(_arms_config(horizon=10))
    assert trace.checkpoints() == [1, 2, 4, 8]
    ts, rs = trace.checkpoint_series()
    assert list(ts) == [1.0, 2.0, 4.0, 8.0]
    assert rs[-1] == trace.cum_regret[7]


def test_replicates_parallelism_invariant():
    config = _arms_config(horizon=256)
    seq, agg_seq = hn.run_replicates(config, range(4), parallelism=1)
    par, agg_par = hn.run_replicates(config, range(4), parallelism=4)
    for a, b in zip(seq, par):
        assert a.seed == b.seed
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.cum_regret, b.cum_regret)
    assert np.array_equal(agg_seq.mean, agg_par.mean)


def test_replicate_pool_starts_no_more_workers_than_it_can_use(monkeypatch):
    """The pool is sized by seeds and CPUs, not by parallelism alone; a fake
    pool that maps in process records the size, so no worker starts."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(hn.os, "cpu_count", lambda: 4)
    config = _arms_config(horizon=16)
    serial, _ = hn.run_replicates(config, range(8), parallelism=1)
    pooled, _ = hn.run_replicates(config, range(8), parallelism=1000)
    hn.run_replicates(config, range(2), parallelism=1000)
    hn.run_replicates(config, range(8), parallelism=3)
    assert sizes == [4, 2, 3]
    assert [t.rewards.tolist() for t in pooled] == [
        t.rewards.tolist() for t in serial]
    # an unknown CPU count counts as one CPU: serial, no pool
    monkeypatch.setattr(hn.os, "cpu_count", lambda: None)
    hn.run_replicates(config, range(2), parallelism=1000)
    assert sizes == [4, 2, 3]


@pytest.mark.parametrize("parallelism", [0, -3, 1.5, True])
def test_replicates_require_parallelism_count(parallelism):
    with pytest.raises(ValidationError, match="'parallelism'"):
        hn.run_replicates(_arms_config(horizon=8), [1], parallelism)


def test_replicates_require_distinct_seeds():
    with pytest.raises(ValidationError):
        hn.run_replicates(_arms_config(horizon=8), [1, 1])


def test_aggregate_envelope():
    traces, agg = hn.run_replicates(_arms_config(horizon=256), range(6))
    assert len(agg.checkpoints) == int(math.log2(256)) + 1
    assert agg.n == 6
    assert np.all(agg.lo <= agg.mean) and np.all(agg.mean <= agg.hi)
    assert np.all(agg.lo <= agg.q10) and np.all(agg.q90 <= agg.hi)
    with pytest.raises(ValidationError):
        hn.aggregate_traces([])


def test_aggregate_rejects_mixed_horizons():
    short = hn.run_match(_arms_config(horizon=16))
    long = hn.run_match(_arms_config(horizon=32))
    for traces in ([long, short], [short, long]):
        with pytest.raises(ValidationError, match="mixed horizons"):
            hn.aggregate_traces(traces)


@pytest.mark.parametrize("field", ["space", "instance", "algorithm",
                                   "horizon"])
def test_config_missing_field_names_it(field):
    d = _arms_config().to_dict()
    del d[field]
    with pytest.raises(ValidationError, match=repr(field)):
        hn.ExperimentConfig.from_dict(d)


# ---------------------------------------------------------------------------
# exponent fitting


def test_fit_exponent_exact_power_laws():
    ts = np.array([2.0 ** j for j in range(11)])
    fit = hn.fit_exponent((ts, 3.0 * ts ** 0.5), (1, 2 ** 10))
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert not fit.degenerate
    linear = hn.fit_exponent((ts, 0.25 * ts), (1, 2 ** 10))
    assert linear.slope == pytest.approx(1.0, abs=1e-9)


def test_fit_exponent_window_and_noise():
    rng = np.random.default_rng(0)
    ts = np.array([2.0 ** j for j in range(17)])
    rs = ts ** 0.7 * np.exp(rng.normal(0, 0.05, len(ts)))
    fit = hn.fit_exponent((ts, rs), (64, 65536))
    assert 0.65 <= fit.slope <= 0.75
    assert fit.window == (64, 65536)


def test_fit_exponent_degenerate_cases():
    ts = np.array([1.0, 2.0, 4.0, 8.0])
    # too few checkpoints inside the window
    assert hn.fit_exponent((ts, ts), (4, 8)).degenerate
    # nonpositive regret cannot be log-fitted
    assert hn.fit_exponent((ts, np.array([1.0, -1.0, 1.0, 1.0])),
                           (1, 8)).degenerate
    trace = hn.run_match(_constant_config())
    assert hn.fit_exponent(trace, (1, 64)).degenerate


# ---------------------------------------------------------------------------
# export and import


def test_export_csv_layout(tmp_path):
    traces, _ = hn.run_replicates(_arms_config(horizon=16), [0, 1])
    path = tmp_path / "out.csv"
    hn.export_csv(traces, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,cum_regret,replicate,algorithm,instance,seed"
    assert len(lines) == 1 + 2 * 5  # checkpoints 1..16 per replicate
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "ucb1" and first[4] == "arms"


def test_json_round_trip_bit_exact(tmp_path):
    traces, _ = hn.run_replicates(_arms_config(horizon=64), [0, 1, 2])
    path = tmp_path / "traces.json"
    hn.export_json(traces, path, extra={"note": "round trip"})
    back = hn.import_json(path)
    assert len(back) == 3
    for a, b in zip(traces, back):
        assert a.seed == b.seed and a.algorithm == b.algorithm
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.cum_regret, b.cum_regret)


def test_config_round_trip():
    config = _arms_config(horizon=16, mode="bandit")
    clone = hn.ExperimentConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()
    with pytest.raises(ValidationError):
        hn.ExperimentConfig(None, {}, {}, 0)
