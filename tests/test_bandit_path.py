"""The bandit path from match to exported file, against the code it replaced.

- UCB1: the index in Python floats against the numpy index with argmax.
- Pulls: the chunked Bernoulli sampler of `run_match` against one
  `bandit_reward` per pull, in rewards, means and the noise stream's state.
- Export: hex strings by distinct value against one `float.hex` per element,
  and the JSON round trip.

The references are the pre-change code, kept here.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import banditlab.bandits as bn
import banditlab.harness as hn
import banditlab.spaces as sps

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


# ---------------------------------------------------------------------------
# UCB1 index


def ref_ucb1(arms, rounds):
    """The numpy index: elementwise float64, first maximum by argmax."""
    counts = np.zeros(len(arms))
    sums = np.zeros(len(arms))
    played = 0
    while rounds is None or played < rounds:
        if played < len(arms):
            j = played
        else:
            index = sums / counts + np.sqrt(2.0 * math.log(played) / counts)
            j = int(np.argmax(index))
        reward = yield arms[j]
        counts[j] += 1
        sums[j] += reward
        played += 1


def _arm_sequence(gen, reward_of):
    """Every arm the generator plays; reward_of(t, arm) answers round t."""
    seq = [next(gen)]
    try:
        while True:
            seq.append(gen.send(reward_of(len(seq) - 1, seq[-1])))
    except StopIteration:
        return seq


_REWARD = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.fractions(0, 1, max_denominator=12).map(float),
    st.floats(0, 1))


@st.composite
def _ucb1_case(draw):
    m = draw(st.integers(1, 40))
    rounds = draw(st.integers(1, 6 * m + 40))
    if draw(st.booleans()):
        # a fixed reward per arm: arms with equal rewards tie on every index
        table = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | _REWARD,
                              min_size=m, max_size=m))
        return m, rounds, lambda t, arm: table[arm]
    seq = draw(st.lists(_REWARD, min_size=rounds, max_size=rounds))
    return m, rounds, lambda t, arm: seq[t]


@_SETTINGS
@given(_ucb1_case())
def test_ucb1_matches_numpy_index(case):
    m, rounds, reward_of = case
    arms = list(range(m))
    expected = _arm_sequence(ref_ucb1(arms, rounds), reward_of)
    assert _arm_sequence(bn._ucb1(arms, rounds), reward_of) == expected
    assert len(expected) == rounds


def test_ucb1_all_ties_play_lowest_arm():
    arms = list(range(5))
    seq = _arm_sequence(bn._ucb1(arms, 40), lambda t, arm: 0.5)
    assert seq == _arm_sequence(ref_ucb1(arms, 40), lambda t, arm: 0.5)
    assert seq[:10] == arms + arms


# ---------------------------------------------------------------------------
# chunked Bernoulli pulls


def ref_bandit_match(config):
    """The loop before chunked draws: bandit_reward per pull, then the mean."""
    instance, session, inst_rng = hn._materialize(config, config.seed)
    rewards, means = [], []
    try:
        for _ in range(config.horizon):
            x = session.choose()
            reward = instance.bandit_reward(x, inst_rng)
            session.observe(reward)
            rewards.append(reward)
            means.append(instance.mean(x))
    finally:
        session.close()
    return np.array(rewards), np.array(means), inst_rng.bit_generator.state


def _run_with_state(monkeypatch, config):
    rngs = []
    materialize = hn._materialize

    def spy(config, seed):
        out = materialize(config, seed)
        rngs.append(out[2])
        return out

    monkeypatch.setattr(hn, "_materialize", spy)
    trace = hn.run_match(config)
    monkeypatch.setattr(hn, "_materialize", materialize)
    return trace, rngs[0].bit_generator.state


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same_pulls(monkeypatch, config):
    rewards, means, state = ref_bandit_match(config)
    trace, trace_state = _run_with_state(monkeypatch, config)
    assert np.array_equal(_bits(trace.rewards), _bits(rewards))
    assert np.array_equal(_bits(trace.means), _bits(means))
    assert trace_state == state


_FINITE = sps.FiniteSpace([0.0, 1.0]).descriptor()
_INTERVAL = sps.IntervalSpace().descriptor()
_ORDERED = sps.IntervalSpace(well_order="coordinate").descriptor()


def _arms(noise):
    return {"kind": "arms", "space": _FINITE, "means": [0.3, 0.7],
            "noise": noise}


def _peak(space_d, noise="bernoulli"):
    return {"kind": "peak", "space": space_d, "peak": 0.8, "slope": 1.0,
            "c": 0.9, "noise": noise}


_PULL_CONFIGS = {
    "ucb1-bernoulli": (_arms("bernoulli"), {"name": "ucb1",
                                            "arms": [0.0, 1.0]}),
    "ucb1-none": (_arms("none"), {"name": "ucb1", "arms": [0.0, 1.0]}),
    "phased_ucb1-bernoulli": (_peak(_INTERVAL), {"name": "phased_ucb1"}),
    "phased_ucb1-none": (_peak(_INTERVAL, "none"), {"name": "phased_ucb1"}),
    "completion_adapter": (_peak(_ORDERED), {
        "name": "completion_adapter", "inner": {"name": "well_ordered_bandit"},
        "rounding": "dyadic:20"}),
    "lineage": ({"kind": "lineage", "space": _INTERVAL, "tree_depth": 3,
                 "gamma": 0.3, "seed": 0}, {"name": "phased_ucb1"}),
}

_SMALL_CHUNK = 8


def _config(name, horizon, seed=3):
    instance, algorithm = _PULL_CONFIGS[name]
    return hn.ExperimentConfig(instance["space"], instance, algorithm,
                               horizon, seed=seed)


@pytest.mark.parametrize("name", sorted(_PULL_CONFIGS))
@pytest.mark.parametrize("horizon", [1] + [
    k * _SMALL_CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1)])
def test_chunked_pulls_match_per_pull(monkeypatch, name, horizon):
    monkeypatch.setattr(hn, "_CHUNK_CELLS", _SMALL_CHUNK)
    _assert_same_pulls(monkeypatch, _config(name, horizon))


@pytest.mark.parametrize("horizon", [hn._CHUNK_CELLS, hn._CHUNK_CELLS + 1])
def test_chunked_pulls_match_per_pull_at_chunk_bound(monkeypatch, horizon):
    _assert_same_pulls(monkeypatch, _config("ucb1-bernoulli", horizon))


# ---------------------------------------------------------------------------
# trace export and import


def ref_hex(a):
    return [float(v).hex() for v in a]


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.225073858507201e-308, 1.0, 0.5]
# float64 bit patterns as int64: NaNs with every payload and sign, and
# subnormals of either sign
_ANY_BITS = st.integers(-2 ** 63, 2 ** 63 - 1)
_NAN_BITS = st.integers(0x7FF0000000000001, 2 ** 63 - 1) | st.integers(
    -2 ** 52 + 1, -1)
_SUBNORMAL_BITS = st.integers(1, 2 ** 52 - 1) | st.integers(
    -2 ** 63 + 1, -2 ** 63 + 2 ** 52 - 1)


def _from_bits(bits):
    return np.array(bits, dtype=np.int64).view(float)


_ARRAYS = st.one_of(
    # heavy repeats
    st.lists(st.sampled_from(_SPECIAL), max_size=300).map(np.array),
    # mixed special values, NaN payloads, subnormals and arbitrary bits
    st.lists(st.one_of(_ANY_BITS, _NAN_BITS, _SUBNORMAL_BITS,
                       st.sampled_from(_SPECIAL).map(
                           lambda v: int(np.float64(v).view(np.int64)))),
             max_size=80).map(_from_bits),
    # all distinct bit patterns
    st.lists(_ANY_BITS, unique=True, max_size=80).map(_from_bits),
    st.lists(st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True), max_size=80).map(np.array),
)


@st.composite
def _reward_and_mean_arrays(draw):
    rewards, means = draw(_ARRAYS), draw(_ARRAYS)
    if not len(means):
        means = np.full(len(rewards), -0.0)
    return rewards, np.resize(means, len(rewards))


def _trace(rewards, means, mu_star):
    return hn.RegretTrace("ucb1", "arms", 7, len(rewards), mu_star, rewards,
                          means, hn._regret_from(mu_star, rewards))


def _same_after_hex(a, b):
    """Bits equal, except that a NaN only stays a NaN: hex drops payloads."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(_bits(a)[~nan], _bits(b)[~nan]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_trace_export_round_trips(tmp_path):
    path = tmp_path / "traces.json"

    @_SETTINGS
    @given(_reward_and_mean_arrays(), st.sampled_from(_SPECIAL),
           st.dictionaries(st.sampled_from(["note", "config", "version"]),
                           st.text(max_size=5) | st.integers()))
    def check(arrays, mu_star, extra):
        trace = _trace(*arrays, mu_star)
        payload = trace.to_payload()
        assert payload["rewards"] == ref_hex(trace.rewards)
        assert payload["means"] == ref_hex(trace.means)
        assert payload["mu_star"] == float(mu_star).hex()

        hn.export_json([trace, trace], path, extra=extra)
        back = hn.import_json(path)
        assert len(back) == 2
        for tr in back:
            assert tr.to_payload() == payload
            assert (tr.algorithm, tr.instance, tr.seed, tr.horizon) == (
                "ucb1", "arms", 7, len(trace.rewards))
            assert _same_after_hex(trace.rewards, tr.rewards)
            assert _same_after_hex(trace.means, tr.means)
            assert _same_after_hex(np.array([mu_star]),
                                   np.array([tr.mu_star]))
        loaded = json.loads(path.read_text())
        assert {k: loaded[k] for k in extra} == extra

    check()


def test_trace_export_is_compact(tmp_path):
    trace = _trace(np.array([1.0, 0.0, 1.0]), np.array([0.7, 0.3, 0.7]), 0.7)
    path = tmp_path / "traces.json"
    hn.export_json([trace], path)
    text = path.read_text()
    assert "\n" not in text
    assert json.loads(text) == {"traces": [trace.to_payload()]}
