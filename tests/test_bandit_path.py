"""The bandit path from match to exported file, against the code it replaced.

- UCB1: the phase loop's index in Python floats against the numpy index
  with argmax, played round by round, with the loop's proven blocks and
  the sums they start from; and matches of the UCB1 sessions against the
  per-round sessions that yielded one action per round.
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

import hashlib
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
from blocks import Pulls, drive

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


class RecordedPulls(Pulls):
    """`Pulls` over reward_of(t, arm), the reward of round t counted from
    the phase's first round, that also record each block's first round,
    length and start in `blocks`."""

    def __init__(self, reward_of, first=0):
        super().__init__(lambda t, action: reward_of(t - first, action.bet),
                         [])
        self.first = first
        self.blocks = []

    def block(self, x, t, n, start):
        self.blocks.append((t - self.first, n, start))
        return super().block(x, t, n, start)


def _play(m, rounds, reward_of, first=0):
    """(the arm of every round, the blocks) of a UCB1 phase over arms
    0..m-1 that starts at round `first` of a match and plays `rounds`
    rounds; every round's reward is written, by the loop or the block."""
    pulls = RecordedPulls(reward_of, first)
    assert bn._ucb1(list(range(m)), pulls, first, rounds) is None
    assert pulls.rewards == {first + t: reward_of(t, arm)
                             for t, arm in enumerate(pulls.bets)}
    return pulls.bets, pulls.blocks


def _ref_play(m, rounds, reward_of):
    """ref_ucb1's arm in every round, and the round-order sum of the played
    arm's rewards before each round."""
    gen = ref_ucb1(list(range(m)), rounds)
    seq, sums_before = [], []
    sums = [0.0] * m
    action = next(gen)
    while True:
        j = action.bet
        sums_before.append(sums[j])
        reward = reward_of(len(seq), j)
        sums[j] += reward
        seq.append(j)
        if len(seq) == rounds:
            return seq, sums_before
        action = gen.send(reward)


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
    expected = _ref_play(m, rounds, reward_of)[0]
    assert _play(m, rounds, reward_of)[0] == expected
    assert len(expected) == rounds


def _assert_blocks_match_reference(m, rounds, reward_of, first=0):
    """The phase loop plays ref_ucb1's arm in every round, and each block
    it proves starts from the bits of the sum ref_ucb1 holds for the arm
    at that round; returns the loop's (arms, blocks)."""
    seq, blocks = _play(m, rounds, reward_of, first)
    ref_seq, ref_sums = _ref_play(m, rounds, reward_of)
    assert seq == ref_seq
    for t, n, start in blocks:
        assert n >= bn._MIN_BLOCK
        assert set(seq[t:t + n]) == {seq[t]}
        assert start.hex() == ref_sums[t].hex()
    return seq, blocks


@st.composite
def _block_case(draw):
    """Few arms over up to 3,000 rounds, so that arms repeat and blocks
    form: constant rewards (equal ones tie), rewards that switch per arm at
    one round (an arm that stops paying meets its blocks' worst case), or
    per-round rewards in [0, 1] from a seeded stream, 0/1 or fractional,
    scaled per arm.  The phase starts at a drawn round of the match."""
    m = draw(st.integers(1, 4))
    rounds = draw(st.integers(1, 3000))
    first = draw(st.integers(0, 5000))
    scale = draw(st.lists(_REWARD, min_size=m, max_size=m))
    kind = draw(st.sampled_from(["constant", "switch", "bernoulli",
                                 "fraction"]))
    if kind == "constant":
        return m, rounds, lambda t, arm: scale[arm], first
    if kind == "switch":
        after = draw(st.lists(_REWARD, min_size=m, max_size=m))
        switch = draw(st.integers(0, rounds))
        return m, rounds, lambda t, arm: (
            scale[arm] if t < switch else after[arm]), first
    u = np.random.default_rng(draw(st.integers(0, 2 ** 32))).random(rounds)
    if kind == "bernoulli":
        return m, rounds, lambda t, arm: float(u[t] < scale[arm]), first
    return m, rounds, lambda t, arm: float(u[t]) * scale[arm], first


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
    blocks = _assert_blocks_match_reference(
        m, 3000, lambda t, arm: float(arm == 0 and t < switch))[1]
    assert any(n > 2 for t, n, _start in blocks if t > switch)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ucb1_blocks_at_phase_cap_and_horizon_cut(m):
    """A phase that ends inside a block the longer phase proves, at its
    cap or at the horizon, which the match passes as the rounds to play,
    cuts the block at its end; with two or more arms all tied, no arm wins
    twice in a row, so no block forms."""
    means = [0.2, 0.8, 0.5][:m]

    def reward_of(t, arm):
        return means[arm]

    blocks = _assert_blocks_match_reference(m, 3000, reward_of)[1]
    t, n, _start = next(b for b in blocks if b[1] > 2)
    for rounds in (t + 1, t + 2, t + n - 1, t + n, t + n + 1):
        _assert_blocks_match_reference(m, rounds, reward_of)
    if m > 1:
        assert _assert_blocks_match_reference(
            m, 300, lambda t, arm: 0.5)[1] == []


def test_ucb1_all_ties_play_lowest_arm():
    seq = _play(5, 40, lambda t, arm: 0.5)[0]
    assert seq == _ref_play(5, 40, lambda t, arm: 0.5)[0]
    assert seq[:10] == list(range(5)) * 2


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


def _match_with_states(monkeypatch, config):
    """(trace, noise stream state, algorithm stream state) of run_match."""
    rngs = []
    materialize = hn._materialize

    def spy(config, seed):
        out = materialize(config, seed)
        rngs.append(out[2])
        return out

    build = hn.build_algorithm

    def build_spy(descriptor, space, rng):
        rngs.append(rng)
        return build(descriptor, space, rng)

    with monkeypatch.context() as m:
        m.setattr(hn, "_materialize", spy)
        m.setattr(hn, "build_algorithm", build_spy)
        trace = hn.run_match(config)
    return (trace, rngs[-1].bit_generator.state,
            rngs[0].bit_generator.state)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same_pulls(monkeypatch, config):
    rewards, means, state = ref_bandit_match(config)
    trace, trace_state, _alg_state = _match_with_states(monkeypatch, config)
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
    monkeypatch.setattr(hn, "_UNIFORM_CHUNK", _SMALL_CHUNK)
    _assert_same_pulls(monkeypatch, _config(name, horizon))


@pytest.mark.parametrize("horizon", [hn._UNIFORM_CHUNK, hn._UNIFORM_CHUNK + 1,
                                     2 ** 16, 2 ** 16 + 1])
def test_chunked_pulls_match_per_pull_at_chunk_bound(monkeypatch, horizon):
    _assert_same_pulls(monkeypatch, _config("ucb1-bernoulli", horizon))


def test_sign_pulls_straddle_chunk_bound(monkeypatch):
    """At the real chunk size, a depth-6 lineage pull whose signs come from
    two chunks of `_UNIFORM_CHUNK` uniforms."""
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
    assert read[-1] > hn._UNIFORM_CHUNK
    assert any(before < hn._UNIFORM_CHUNK < after
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

    for horizon in cuts:
        rewards, means, info, inst_state, alg_state = ref_per_round_match(
            config(horizon))
        trace, trace_state, trace_alg_state = _match_with_states(
            monkeypatch, config(horizon))
        assert np.array_equal(_bits(trace.rewards), _bits(rewards))
        assert np.array_equal(_bits(trace.means), _bits(means))
        assert trace.info == info
        assert trace_state == inst_state
        assert trace_alg_state == alg_state


def _adapter(inner, rounding):
    return {"name": "completion_adapter", "inner": {"name": inner},
            "rounding": rounding}


# (space, algorithm, horizon, SHA-256 of the payload, the bets and the phase
# records); the horizon cuts the last phase, and the first case the second
# point of its sweep
_ADAPTER_CUTS = {
    "well_ordered_bandit-sweep_point_cut": (
        _ORDERED, _adapter("well_ordered_bandit", "dyadic:20"), 325,
        "a67abf38681055c409d2dc6a77591cfeaebb8e815b12fd53777b57dc92bd1b62"),
    "well_ordered_bandit-commit_cut": (
        _ORDERED, _adapter("well_ordered_bandit", "dyadic:20"), 1000,
        "fbcdfbb76caaa98de694a83d36370fe6cfb26960fe44d76a90899e5395b4a46a"),
    "phased_ucb1-phase_cut": (
        _INTERVAL, _adapter("phased_ucb1", "dyadic:20"), 1000,
        "5db893f3ea6c9ad083722adb85f6b7cda03d85b8392597c72d814fd71872d3d5"),
    "phased_ucb1-next_phase_cut": (
        _INTERVAL, _adapter("phased_ucb1", "dyadic:3"), 3100,
        "db55c581252a5c90a40d0830d7aa9d98cc20578a30585f42bfa8762af5bff4b9"),
}


@pytest.mark.parametrize("name", list(_ADAPTER_CUTS))
def test_completion_adapter_cut_is_pinned(name):
    """Adapter matches whose horizon cuts an inner block or phase, pinned
    with their bets and phase records by the digest the per-round adapter
    recorded."""
    space, algorithm, horizon, digest = _ADAPTER_CUTS[name]
    trace = hn.run_match(hn.ExperimentConfig(
        space, _peak(space), algorithm, horizon, seed=3, record_actions=True))
    last = trace.info["phases"][-1]
    assert last["start"] < horizon < last["start"] + last["length"]
    if name.endswith("sweep_point_cut"):
        assert last["start"] + last["n"] < horizon < (
            last["start"] + 2 * last["n"])
    text = json.dumps({"payload": trace.to_payload(), "actions": trace.actions,
                       "phases": trace.info["phases"]}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _FixedBlocks(bn.Session):
    """Plays (point, rounds) or (point, rounds, start) blocks in a cycle and
    records the feedback.  A block with a start is an action that plays
    the block through the match's pulls from that start, as a UCB1 phase
    plays its blocks."""

    def __init__(self, blocks):
        super().__init__()
        self.blocks = blocks
        self.feedback = []

    def _run(self):
        while True:
            for x, n, *start in self.blocks:
                action = bn.Action(x, rounds=n)
                if start:
                    def play(pulls, t, n, x=x, start=start[0]):
                        return pulls.block(x, t, n, start)

                    action = bn.Action(None, rounds=n, play=play)
                self.feedback.append((yield action))


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
    """A one-round block, a short block and blocks long enough for numpy,
    each played by the pulls from its start, return their rewards added
    one by one onto it.  From 2^53 on, a reward of 1 added alone rounds
    away, but not within a sum."""
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


@pytest.mark.parametrize("chunk", [_SMALL_CHUNK, hn._UNIFORM_CHUNK, 2 ** 16])
def test_numpy_blocks_match_per_pull(monkeypatch, chunk):
    """Bernoulli blocks, most long enough for numpy, one longer than a
    chunk of uniforms, one that fits in what the reads one by one left of
    a chunk and others past it, against one bandit_reward per pull: the
    same rewards, means and noise stream state.  Horizons cut the last
    block, end with it, and start the cycle again."""
    monkeypatch.setattr(hn, "_UNIFORM_CHUNK", chunk)
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
                          means)


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


# ---------------------------------------------------------------------------
# UCB1 phases against the per-round rule


class PerRoundUCB1(bn.Session):
    """UCB1Session before phase actions: `ref_ucb1`, one round per action."""

    name = "ucb1"

    def __init__(self, space, arms):
        super().__init__()
        self.arms = [tuple(x) if isinstance(x, list) else x for x in arms]

    def _run(self):
        return ref_ucb1(self.arms, None)


class PerRoundPhasedUCB1(bn.Session):
    """PhasedUCB1Session before phase actions: the same schedule and phase
    records, each phase `ref_ucb1` over its net, one round per action."""

    name = "phased_ucb1"

    def __init__(self, space):
        super().__init__()
        self.space = space

    def _run(self):
        lengths, rounds, k = [], 0, 1
        saturated = False
        while True:
            eps = 2.0 ** -k
            if not saturated:
                net, _delta, saturated = sps.net_for_radius(self.space, eps)
                next_net = sps.net_for_radius(self.space, eps / 2.0)[0]
            else:
                next_net = net
            tstar_k = bn._tstar(len(net), eps)
            t_k = math.ceil(max(tstar_k, bn._tstar(len(next_net), eps / 2.0),
                                2.0 * sum(lengths)))
            phase = {"phase": k, "eps": eps, "net_size": len(net),
                     "length": t_k, "start": rounds, "tstar": tstar_k,
                     "saturated": saturated}
            self.info["phases"].append(phase)
            yield from ref_ucb1(net, t_k)
            rounds += t_k
            lengths.append(t_k)
            phase["s_k"] = rounds
            k += 1


_PEAK_ARMS = [0.25, 0.5, 0.75]
_THREE = sps.FiniteSpace([0.0, 0.5, 1.0]).descriptor()
_TIED_UCB1 = {"name": "ucb1", "arms": _THREE["coords"]}


def _tied(mean):
    """Three noise-free arms, all with the constant pull `mean`."""
    return {"kind": "arms", "space": _THREE, "means": [mean] * 3,
            "noise": "none"}


# 512 rounds of three arms: each count reaches 171, and 172 has 8 bits, so
# a constant whose odd part has 45 bits is the largest the closed form
# takes (45 + 8 = 53), and one of 46 bits is played by the loop
_AT_BOUND = (2 ** 44 + 1) / 2 ** 45
_PAST_BOUND = (2 ** 45 + 1) / 2 ** 46

# name: (instance, algorithm, horizon).  Horizons at seed 3: ucb1-bernoulli
# plays blocks of 48 rounds from round 4554, and 4570 cuts one; phased UCB1
# plays blocks of 48, 96 and 32 rounds from rounds 46, 94 and 190 of its
# first phase (rounds 0..221), and its second phase is rounds 222..3061.
_PHASE_CONFIGS = {
    "ucb1-bernoulli": (_arms("bernoulli"), {"name": "ucb1",
                                            "arms": [0.0, 1.0]}, 6000),
    "ucb1-bernoulli-block_cut": (_arms("bernoulli"), {
        "name": "ucb1", "arms": [0.0, 1.0]}, 4570),
    "ucb1-none": (_arms("none"), {"name": "ucb1", "arms": [0.0, 1.0]}, 3000),
    "phased_ucb1-bernoulli-phase_end": (_peak(_INTERVAL),
                                        {"name": "phased_ucb1"}, 3062),
    "phased_ucb1-bernoulli-block_cut": (_peak(_INTERVAL),
                                        {"name": "phased_ucb1"}, 200),
    "phased_ucb1-none-phase_cut": (_peak(_INTERVAL, "none"),
                                   {"name": "phased_ucb1"}, 3063),
    # arms at every center: the favored 0.3 and 0.7 are constant
    "noncompact": (_PULL_CONFIGS["noncompact"][0],
                   _PULL_CONFIGS["noncompact"][1], 3000),
    "lineage-phase_cut": (_PULL_CONFIGS["lineage"][0],
                          {"name": "phased_ucb1"}, 4000),
    "maxminlcd-phase_end": (_PULL_CONFIGS["maxminlcd"][0],
                            {"name": "phased_ucb1"}, 3062),
    # every pull of phases 2 (2 arms) and 3 (4 arms) is 0.5, and the
    # horizon cuts phase 3 in its 51st cycle
    "maxminlcd-tied_cycle_cut": (_PULL_CONFIGS["maxminlcd"][0],
                                 {"name": "phased_ucb1"}, 3062 + 4 * 50 + 3),
    "ucb1-tied": (_tied(0.5), _TIED_UCB1, 512),
    # multiples of 0.9 are not all exact: the loop plays the phase
    "ucb1-tied_inexact": (_tied(0.9), _TIED_UCB1, 512),
    "ucb1-tied_at_bound": (_tied(_AT_BOUND), _TIED_UCB1, 512),
    "ucb1-tied_past_bound": (_tied(_PAST_BOUND), _TIED_UCB1, 512),
    # 0.0 and -0.0 are equal but not the same pull
    "ucb1-signed_zeros": ({**_tied(0.0), "means": [0.0, -0.0, 0.0]},
                          _TIED_UCB1, 512),
    "completion_adapter-ucb1": (_peak(_INTERVAL), {
        "name": "completion_adapter", "rounding": "dyadic:2",
        "inner": {"name": "ucb1", "arms": _PEAK_ARMS}}, 2000),
    "completion_adapter-phased_ucb1": (_peak(_INTERVAL), {
        "name": "completion_adapter", "rounding": "dyadic:20",
        "inner": {"name": "phased_ucb1"}}, 1000),
}

# SHA-256 of each config's trace payload, recorded with the per-round loop
_PHASE_DIGESTS = {
    "ucb1-bernoulli":
        "c34307bbdf36cb1e96400fc0521a874ef1656a262eb6b755876b3350f9a5abe3",
    "ucb1-bernoulli-block_cut":
        "a6fdc6c2d0eeae22ca32d6947326de7d8ea631328a5d92d804695935a35c7312",
    "ucb1-none":
        "e4ff7043765e397e36ae3b95e48f4a410aa8eb82b2a8ab8758758fa07de07a37",
    "phased_ucb1-bernoulli-phase_end":
        "f9615a9a9a49b2ed56a72ec22e2c1dd4461df27c622b9e03c4fd5b548d9146e5",
    "phased_ucb1-bernoulli-block_cut":
        "f3d25d6c63a8381bbec5daab50306a247247b39358d53e465b45f3507fc497fe",
    "phased_ucb1-none-phase_cut":
        "6b0bbbf86d2e914cec06219031fe5b955d8611baa5c4bac9a2b7d4f89a62a92b",
    "noncompact":
        "4980b19cdd7d46c014ccaa13b7ad8420df009e86b5d71d875356c860b0a7dd81",
    "lineage-phase_cut":
        "6ebb1742e1000c3ce689c3e745a9ba0958be58e2a11e76762310edfc1e275563",
    "maxminlcd-phase_end":
        "93a8b4b31b6bf6524475079eb9c4eb8f07da58b365a802fbf5abb6124f31d80c",
    "maxminlcd-tied_cycle_cut":
        "c052375a1813ad8960ed7214be0ef7ac692129f3767e8b5b3e02738e25410b67",
    "ucb1-tied":
        "04ab5977161b76e899ef6644628425e0461b6473ecb66bb5df7481c3003397bc",
    "ucb1-tied_inexact":
        "430b53368e7d481fa1d254652a2ba91bfdd9ce024b64771af4e5bc7a3af0c98e",
    "ucb1-tied_at_bound":
        "50e5faf4e7d4cadf0dc89f870176889257e5f81692c563ac0036a206212fc408",
    "ucb1-tied_past_bound":
        "c8f74e7cd85c68a43795913c60610e0cd84bd812457820c69c59fe86f6da8b81",
    "ucb1-signed_zeros":
        "aa1a41ac04b3840d3e7e9c9d21e87ce976286295d7860d6e1c2e174b8ca8594d",
    "completion_adapter-ucb1":
        "545d44c60610d2ddf09366784f031d0bb9cf6ff2862bb611e6033fbce42a97a3",
    "completion_adapter-phased_ucb1":
        "d6ddb59b734beca044feddaf6dcab9d4fe966d8f3a614c37145789cf6c439373",
}


def _payload_digest(trace):
    text = json.dumps(trace.to_payload(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(_PHASE_CONFIGS))
def test_ucb1_phases_match_per_round_rule(monkeypatch, name):
    """The sessions' UCB1 phases against the per-round sessions with the
    numpy index, run by the same match loop: the same rewards, means, bets,
    phase records and noise and algorithm stream states, and the payload
    the per-round loop recorded."""
    instance_d, algorithm, horizon = _PHASE_CONFIGS[name]
    config = hn.ExperimentConfig(instance_d["space"], instance_d, algorithm,
                                 horizon, seed=3, record_actions=True)
    trace, inst_state, alg_state = _match_with_states(monkeypatch, config)
    with monkeypatch.context() as m:
        m.setitem(hn._ALGORITHMS, "ucb1", PerRoundUCB1)
        m.setitem(hn._ALGORITHMS, "phased_ucb1", PerRoundPhasedUCB1)
        ref, ref_inst_state, ref_alg_state = _match_with_states(
            monkeypatch, config)
    assert np.array_equal(_bits(trace.rewards), _bits(ref.rewards))
    assert np.array_equal(_bits(trace.means), _bits(ref.means))
    assert trace.actions == ref.actions
    assert trace.info == ref.info
    assert inst_state == ref_inst_state
    assert alg_state == ref_alg_state
    assert _payload_digest(trace) == _PHASE_DIGESTS[name]


@pytest.mark.parametrize("name, cycles", [
    ("maxminlcd-tied_cycle_cut", [(222, 2840), (3062, 203)]),
    ("ucb1-tied", [(0, 512)]),
    ("ucb1-tied_at_bound", [(0, 512)]),
    ("ucb1-tied_past_bound", []),
    ("ucb1-tied_inexact", []),
    ("ucb1-signed_zeros", []),
])
def test_tied_phases_play_in_closed_form(monkeypatch, name, cycles):
    """The phases `_Pulls.cycle` writes, as (first round, rounds): the
    tied phases 2 and 3 of maxminlcd and the constants whose sums are
    proven exact, not 0.9, the 46-bit constant or mixed signed zeros."""
    seen = []
    cycle = hn._Pulls.cycle

    def spy(self, xs, t, n):
        seen.append((t, n))
        return cycle(self, xs, t, n)

    monkeypatch.setattr(hn._Pulls, "cycle", spy)
    instance_d, algorithm, horizon = _PHASE_CONFIGS[name]
    hn.run_match(hn.ExperimentConfig(instance_d["space"], instance_d,
                                     algorithm, horizon, seed=3))
    assert seen == cycles


def _bonus_order_holds(c, p, n):
    """Whether, in round p of a tied phase, an arm of count n beats one of
    count n + 1 in floats, as `_ucb1` computes the index."""
    log_term = 2.0 * math.log(p)
    return c + math.sqrt(log_term / n) > c + math.sqrt(log_term / (n + 1.0))


@_SETTINGS
@given(st.sampled_from([0.0, 0.25, 0.5, 1.0, _AT_BOUND]),
       st.integers(2, 64), st.integers(1, 2 ** 40))
def test_round_robin_guard_implies_bonus_order(c, m, cycles):
    """Where `_round_robin` holds, counts n and n + 1 stay apart in the
    phase's first compared round, its last one, and at its smallest log
    term with its largest count, which the guard bounds."""
    rounds = m * cycles
    if not bn._round_robin((c,) * m, rounds):
        return
    for p in (m + 1, rounds - 1):
        if m <= p < rounds:
            assert _bonus_order_holds(c, p, float(p // m))
    assert _bonus_order_holds(c, m, float(cycles))


def test_round_robin_guard_bounds_count():
    """The count order is checked, not assumed: two arms of 0.5 pass at
    2^30 rounds each and fail at 2^34, where every sum is still exact."""
    assert bn._round_robin((0.5, 0.5), 2 * 2 ** 30)
    assert not bn._round_robin((0.5, 0.5), 2 * 2 ** 34)
    assert bn._round_robin((0.5,), 10)
    assert not bn._round_robin((0.5, lambda t: 0.5), 10)
