"""The bandit path from match to exported file, against the code it replaced.

- UCB1: the index in Python floats against the numpy index with argmax,
  with its proven blocks expanded round by round.
- Pulls: the chunked Bernoulli and sign-mixture samplers of `run_match`,
  numpy Bernoulli blocks included, against one `bandit_reward` per pull,
  in rewards, means and the noise stream's state.
- Blocks: phased exploration with one action per sweep point and commit
  tail against the session that played one round per action, at horizons
  that cut a sweep point, a sweep or a phase.
- Export: hex strings by distinct value against one `float.hex` per element,
  and the JSON round trip.

The references are the pre-change code, kept here.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import banditlab.bandits as bn
import banditlab.harness as hn
import banditlab.instances as inst
import banditlab.spaces as sps
from banditlab.errors import ValidationError
from blocks import drive

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
        reward = yield bn.Action(arms[j])
        counts[j] += 1
        sums[j] += reward
        played += 1


def _play(gen, reward_of, horizon=math.inf):
    """(the arm of every round, {round: (sums, counts) bits}) of up to
    `horizon` rounds of a UCB1 generator.  reward_of(t, arm) answers round
    t, and a block is sent its rewards added in round order onto its start;
    a block the horizon cuts is not sent.  The state is read from the
    suspended generator after each action it was sent."""
    seq, states = [], {}
    action = next(gen)
    try:
        while len(seq) < horizon:
            n = min(action.rounds, horizon - len(seq))
            total = action.start
            for _ in range(n):
                total += reward_of(len(seq), action.bet)
                seq.append(action.bet)
            if n < action.rounds:
                break
            action = gen.send(total)
            state = gen.gi_frame.f_locals
            states[len(seq)] = (_bits(state["sums"]).tobytes(),
                                _bits(state["counts"]).tobytes())
    except StopIteration:
        pass
    return seq, states


def _arm_sequence(gen, reward_of):
    """Every arm the generator plays, a block expanded to its rounds."""
    return _play(gen, reward_of)[0]


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


def _assert_blocks_match_reference(m, rounds, horizon, reward_of):
    """The block UCB1 plays ref_ucb1's arm in every round and, after every
    action, holds the sums and counts bits ref_ucb1 holds after as many
    rounds; returns the block UCB1's (arms, states)."""
    arms = list(range(m))
    seq, states = _play(bn._ucb1(arms, rounds), reward_of, horizon)
    ref_seq, ref_states = _play(ref_ucb1(arms, rounds), reward_of, horizon)
    assert seq == ref_seq
    assert len(seq) == min(horizon, rounds or math.inf)
    assert states.items() <= ref_states.items()
    return seq, states


@st.composite
def _block_case(draw):
    """Few arms over up to 3,000 rounds, so that arms repeat and blocks
    form: constant rewards (equal ones tie), rewards that switch per arm at
    one round (an arm that stops paying meets its blocks' worst case), or
    per-round rewards in [0, 1] from a seeded stream, 0/1 or fractional,
    scaled per arm."""
    m = draw(st.integers(1, 4))
    rounds = draw(st.none() | st.integers(1, 3000))
    horizon = draw(st.integers(1, 3000))
    scale = draw(st.lists(_REWARD, min_size=m, max_size=m))
    kind = draw(st.sampled_from(["constant", "switch", "bernoulli",
                                 "fraction"]))
    if kind == "constant":
        return m, rounds, horizon, lambda t, arm: scale[arm]
    if kind == "switch":
        after = draw(st.lists(_REWARD, min_size=m, max_size=m))
        switch = draw(st.integers(0, horizon))
        return m, rounds, horizon, lambda t, arm: (
            scale[arm] if t < switch else after[arm])
    u = np.random.default_rng(draw(st.integers(0, 2 ** 32))).random(horizon)
    if kind == "bernoulli":
        return m, rounds, horizon, lambda t, arm: float(u[t] < scale[arm])
    return m, rounds, horizon, lambda t, arm: float(u[t]) * scale[arm]


@_SETTINGS
@given(_block_case())
def test_ucb1_blocks_match_per_round_index(case):
    _assert_blocks_match_reference(*case)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("switch", [100, 500])
def test_ucb1_blocks_when_the_leader_stops_paying(m, switch):
    """Arm 0 pays 1 until `switch`, then nothing, and no other arm pays: its
    blocks after the switch get the zero rewards their proofs assume, so
    only the other arms' bonus growth over a block separates a proof from a
    wrong block."""
    ends = _assert_blocks_match_reference(
        m, None, 3000, lambda t, arm: float(arm == 0 and t < switch))[1]
    assert any(b - a > 2 for a, b in itertools.pairwise(sorted(ends))
               if a > switch)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ucb1_blocks_at_phase_cap_and_horizon_cut(m):
    """Blocks end at a phase cap, and a horizon inside a block cuts it
    unobserved; with two or more arms all tied, no arm wins twice in a row,
    so every round is its own action."""
    means = [0.2, 0.8, 0.5][:m]

    def reward_of(t, arm):
        return means[arm]

    ends = sorted(_assert_blocks_match_reference(m, None, 3000, reward_of)[1])
    # a round where a block of more than 2 rounds starts
    cut = next(a for a, b in itertools.pairwise(ends) if b - a > 2) + 1
    for rounds, horizon in ((cut, 3000), (None, cut), (cut + 1, cut)):
        _assert_blocks_match_reference(m, rounds, horizon, reward_of)
    if m > 1:
        ties, ties_states = _assert_blocks_match_reference(
            m, None, 300, lambda t, arm: 0.5)
        assert len(ties_states) == len(ties)


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

    def pull(t, action):
        reward = instance.bandit_reward(action.bet, inst_rng)
        rewards.append(reward)
        means.append(instance.mean(action.bet))
        return reward

    try:
        drive(session, config.horizon, pull)
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
_CENTERS = sps.FiniteSpace([0.1, 0.3, 0.5, 0.7, 0.9]).descriptor()


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
    # arms at every center: the favored 0.3 and 0.7 read no uniform
    "noncompact": ({"kind": "noncompact", "space": _CENTERS,
                    "centers": _CENTERS["coords"], "r": 0.05,
                    "sizes": [2, 3], "seed": 0},
                   {"name": "ucb1", "arms": _CENTERS["coords"]}),
    "maxminlcd": ({"kind": "maxminlcd", "space": _INTERVAL, "b": 0.5,
                   "depth_cap": 3, "seed": 0}, {"name": "phased_ucb1"}),
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
    monkeypatch.setattr(hn, "_SIGN_CHUNK", _SMALL_CHUNK)
    _assert_same_pulls(monkeypatch, _config(name, horizon))


@pytest.mark.parametrize("horizon", [hn._CHUNK_CELLS, hn._CHUNK_CELLS + 1])
def test_chunked_pulls_match_per_pull_at_chunk_bound(monkeypatch, horizon):
    _assert_same_pulls(monkeypatch, _config("ucb1-bernoulli", horizon))


def test_sign_pulls_straddle_chunk_bound(monkeypatch):
    """At the real chunk size, a depth-6 lineage pull whose signs come from
    two chunks of `_SIGN_CHUNK` uniforms."""
    space = sps.IntervalSpace(resolution=2.0 ** -40).descriptor()
    instance_d = {"kind": "lineage", "space": space, "tree_depth": 6,
                  "gamma": 0.3, "seed": 0}
    config = hn.ExperimentConfig(space, instance_d, {"name": "phased_ucb1"},
                                 200, seed=3, record_actions=True)
    _assert_same_pulls(monkeypatch, config)
    instance = inst.instance_from_descriptor(instance_d)
    trace = hn.run_match(config)
    read = list(itertools.accumulate(
        (sum(bias < 1.0 for _key, _value, bias in instance.active_terms(x))
         for x in trace.actions), initial=0))
    assert read[-1] > hn._SIGN_CHUNK
    assert any(before < hn._SIGN_CHUNK < after
               for before, after in itertools.pairwise(read))


# ---------------------------------------------------------------------------
# phased exploration in blocks


class PerRoundExplSession(bn.Session):
    """PhasedExplSession before block actions: one round per action, the
    sweep stepped through a queue that holds every point n times."""

    def __init__(self, space, f_exponent_fn, sweep_cls):
        super().__init__()
        self.space = space
        self.alpha = bn._resolve_alpha(f_exponent_fn)
        self.sweep_cls = sweep_cls

    def _run(self):
        commit = self.space.canonical_least()
        rounds = 0
        for i in itertools.count(1):
            T = 2 ** (2 ** i)
            k, n, r = bn._phase_params(T, self.alpha)
            sweep = self.sweep_cls(self.space, k, n, r)
            queue = [x for x in sweep.points for _ in range(n)]
            phase = {"phase": i, "length": T, "start": rounds,
                     "k": k, "n": n, "r": r, "explore_cost": len(queue),
                     "commit": commit, "completed": False}
            self.info["phases"].append(phase)
            for s in range(T):
                if s < len(queue):
                    reward = yield bn.Action(queue[s])
                    sweep.sums[queue[s]] += reward
                    if s + 1 == len(queue):
                        commit = sweep.result()
                        phase["commit"] = commit
                        phase["completed"] = True
                else:
                    yield bn.Action(commit)
            rounds += T


def _per_round_session(algorithm, space, rng):
    if algorithm["name"] == "completion_adapter":
        inner = _per_round_session(algorithm["inner"], space, rng)
        return bn.CompletionAdapterSession(inner, rng, "dyadic:20")
    sweep = bn.ExplPrimeRun if algorithm["name"] == "cb_bandit" else bn.ExplRun
    return PerRoundExplSession(space, algorithm.get("f", "log_power:1"),
                               sweep)


def ref_per_round_match(config):
    """Rewards, means, phase records and the states of the noise and the
    algorithm streams of a match with the per-round session."""
    instance = inst.instance_from_descriptor(config.instance)
    inst_rng = np.random.default_rng([config.seed, 0])
    alg_rng = np.random.default_rng([config.seed, 1])
    session = _per_round_session(config.algorithm, instance.space, alg_rng)
    rewards, means = [], []

    def pull(t, action):
        reward = instance.bandit_reward(action.bet, inst_rng)
        rewards.append(reward)
        means.append(instance.mean(action.bet))
        return reward

    drive(session, config.horizon, pull)
    session.close()
    return (np.array(rewards), np.array(means), session.info,
            inst_rng.bit_generator.state, alg_rng.bit_generator.state)


_CONVERGENT_PEAK = {"kind": "peak", "space": sps.ConvergentSpace(100)
                    .descriptor(), "peak": 0.0, "slope": 0.5, "c": 0.9,
                    "noise": "bernoulli"}

# (instance, algorithm, index of the phase whose sweep and end are cut)
_CUT_CONFIGS = {
    "well_ordered_bandit": (_CONVERGENT_PEAK,
                            {"name": "well_ordered_bandit"}, 2),
    "cb_bandit": (_CONVERGENT_PEAK, {"name": "cb_bandit"}, 2),
    "completion_adapter": (_peak(_ORDERED), {
        "name": "completion_adapter",
        "inner": {"name": "well_ordered_bandit"},
        "rounding": "dyadic:20"}, 2),
    # sweeps of 7 points x 19 pulls in a phase of 16 rounds: the phase end
    # cuts the sweep, and the earlier commit carries over
    "well_ordered_bandit-sweep_past_phase": (
        _CONVERGENT_PEAK, {"name": "well_ordered_bandit",
                           "f": "log_power:4"}, 1),
}


@pytest.mark.parametrize("name", list(_CUT_CONFIGS))
def test_horizon_cuts_match_per_round_session(monkeypatch, name):
    """Cut inside a sweep point, at the end of the sweep, at the end of the
    phase and one round past it: the block session gives the per-round
    session's trace, phase records and stream states."""
    instance_d, algorithm, index = _CUT_CONFIGS[name]

    def config(horizon):
        return hn.ExperimentConfig(instance_d["space"], instance_d,
                                   algorithm, horizon, seed=3)

    phase = ref_per_round_match(config(2 ** 9))[2]["phases"][index]
    start, end = phase["start"], phase["start"] + phase["length"]
    sweep_end = start + min(phase["explore_cost"], phase["length"])
    cuts = [start + phase["n"] // 2, sweep_end, end, end + 1]
    assert start < cuts[0] < sweep_end
    if name.endswith("sweep_past_phase"):
        assert phase["explore_cost"] > phase["length"]
    else:
        assert sweep_end < end

    alg_rngs = []
    build = hn.build_algorithm

    def spy(descriptor, space, rng):
        alg_rngs.append(rng)
        return build(descriptor, space, rng)

    monkeypatch.setattr(hn, "build_algorithm", spy)
    for horizon in cuts:
        rewards, means, info, inst_state, alg_state = ref_per_round_match(
            config(horizon))
        trace, trace_state = _run_with_state(monkeypatch, config(horizon))
        assert np.array_equal(_bits(trace.rewards), _bits(rewards))
        assert np.array_equal(_bits(trace.means), _bits(means))
        assert trace.info == info
        assert trace_state == inst_state
        assert alg_rngs[-1].bit_generator.state == alg_state


class _FixedBlocks(bn.Session):
    """Plays (point, rounds) or (point, rounds, start) blocks in a cycle and
    records the feedback."""

    def __init__(self, blocks):
        super().__init__()
        self.blocks = blocks
        self.feedback = []

    def _run(self):
        while True:
            for x, n, *start in self.blocks:
                self.feedback.append((yield bn.Action(
                    x, rounds=n, start=start[0] if start else 0.0)))


@pytest.mark.parametrize("name", ["lineage", "phased_ucb1-bernoulli",
                                  "phased_ucb1-none"])
def test_bandit_block_feedback_is_round_order_sum(monkeypatch, name):
    """A bandit block is sent its rewards added one by one from 0.0; the
    sign-mixture rewards are not 0/1, so another order would round
    differently."""
    blocks = [(0.1, 7), (0.55, 1), (0.9, 13), (0.3, 5)]
    session = _FixedBlocks(blocks)
    monkeypatch.setattr(hn, "build_algorithm", lambda *args: session)
    trace = hn.run_match(_config(name, 60))
    starts = itertools.accumulate([n for _x, n in blocks] * 3, initial=0)
    for feedback, (start, stop) in zip(session.feedback,
                                       itertools.pairwise(starts)):
        total = 0.0
        for reward in trace.rewards[start:stop].tolist():
            total += reward
        assert feedback.hex() == total.hex()
    # 60 rounds: two full cycles of 26 and two blocks of the third
    assert len(session.feedback) == 2 * len(blocks) + 2


@pytest.mark.parametrize("name", ["lineage", "phased_ucb1-bernoulli",
                                  "phased_ucb1-none"])
def test_bandit_block_feedback_adds_onto_start(monkeypatch, name):
    """A one-round action, a short block and blocks long enough for numpy
    are each sent their rewards added one by one onto their start.  From
    2^53 on, a reward of 1 added alone rounds away, but not within a sum."""
    blocks = [(0.1, 1, 2.5), (0.55, 7, 0.1),
              (0.9, hn._NUMPY_BLOCK + 9, 2.0 ** 53),
              (0.3, hn._NUMPY_BLOCK, 0.7)]
    session = _FixedBlocks(blocks)
    monkeypatch.setattr(hn, "build_algorithm", lambda *args: session)
    trace = hn.run_match(_config(name, sum(n for _x, n, _s in blocks)))
    starts = itertools.accumulate([n for _x, n, _s in blocks], initial=0)
    assert len(session.feedback) == len(blocks)
    for feedback, (_x, _n, total), (start, stop) in zip(
            session.feedback, blocks, itertools.pairwise(starts)):
        for reward in trace.rewards[start:stop].tolist():
            total += reward
        assert feedback.hex() == total.hex()


@pytest.mark.parametrize("chunk", [_SMALL_CHUNK, hn._CHUNK_CELLS])
def test_numpy_blocks_match_per_pull(monkeypatch, chunk):
    """Bernoulli blocks, most long enough for numpy, one longer than a
    chunk of uniforms and others across a chunk bound, against one
    bandit_reward per pull: the same rewards, means and noise stream state.
    Horizons cut the last block, end with it, and start the cycle again."""
    monkeypatch.setattr(hn, "_CHUNK_CELLS", chunk)
    n = max(chunk, hn._NUMPY_BLOCK)
    blocks = [(0.0, 5), (1.0, n + 40, 4.0), (0.0, hn._NUMPY_BLOCK),
              (1.0, 1), (1.0, n - 3)]
    monkeypatch.setattr(hn, "build_algorithm",
                        lambda *args: _FixedBlocks(blocks))
    total = sum(block[1] for block in blocks)
    for horizon in (total - 7, total, total + 10):
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
        assert path.read_text() == json.dumps(
            {"traces": [payload, payload], **extra})
        if not len(trace.rewards):
            # a trace of horizon 0 exports, but it no longer imports
            with pytest.raises(ValidationError, match="'horizon'"):
                hn.import_json(path)
            return
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
