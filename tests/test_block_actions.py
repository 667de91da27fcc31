"""Block actions: the block sampler against the per-round sampler it
replaced, and matches cut by the horizon inside, at and past a block end.

The reference is the per-round `_RoundSampler.rewards`: one coherent round
per call, its query feedback added into Python floats round by round.  The
block sampler must give the same bits and leave the noise stream in the same
state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import banditlab.harness as hn
import banditlab.instances as inst
import banditlab.spaces as sps

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)


class PerRoundSampler:
    """The sampler before block actions: one round per call, with the
    per-point structure cached while the query tuple and bet stay."""

    def __init__(self, instance, rng):
        self.instance = instance
        self.rng = rng
        self._queries = None
        self._bet = None
        self._cache = None

    def _prepare(self, queries, bet):
        points = list(queries) + [bet]
        if self.instance.uniformly_lipschitz:
            keys = {}
            rows = []
            biases = []
            for p in points:
                row = []
                for key, value, bias in self.instance.active_terms(p):
                    if key not in keys:
                        keys[key] = len(keys)
                        biases.append(bias)
                    row.append((keys[key], value))
                rows.append(row)
            matrix = np.zeros((len(points), len(keys)))
            for i, row in enumerate(rows):
                for j, value in row:
                    matrix[i, j] = value
            self._cache = ("signs", matrix,
                           (1.0 + np.array(biases)) / 2.0 if keys else None)
        else:
            mu = self.instance.mean_vector(points)
            self._cache = ("mean", mu, None)

    def round(self, queries, bet):
        if queries is not self._queries or bet != self._bet:
            self._prepare(queries, bet)
            self._queries, self._bet = queries, bet
        tag, a, b = self._cache
        if tag == "signs":
            if b is None:
                values = np.full(a.shape[0], 0.5)
            else:
                signs = np.where(self.rng.random(len(b)) < b, 1.0, -1.0)
                values = 0.5 + a @ signs
        elif self.instance.noise == "none":
            values = a
        else:
            values = (self.rng.random(len(a)) < a).astype(float)
        return values[:-1], float(values[-1])


def ref_block(instance, rng, queries, bet, rounds):
    sampler = PerRoundSampler(instance, rng)
    sums = [0.0] * len(queries)
    bet_rewards = []
    for _ in range(rounds):
        feedback, reward = sampler.round(queries, bet)
        for j, v in enumerate(feedback):
            sums[j] += v
        bet_rewards.append(reward)
    return np.array(sums), np.array(bet_rewards)


# ---------------------------------------------------------------------------
# instances, one per sampling path


def _interval():
    return sps.IntervalSpace()


_GRID = st.integers(0, 1024).map(lambda i: i / 1024)
# noncompact wedges are (c - 0.05, c + 0.05) around 0.1, 0.3, ..., 0.9
_GAPS = st.sampled_from([0.0, 0.02, 0.2, 0.22, 0.4, 0.6, 0.61, 0.8, 1.0])

# ten wedges, two of them favored: ten keys, eight of them fair coins
_WIDE_CENTERS = [0.05 + 0.1 * i for i in range(10)]

_INSTANCES = {
    "bernoulli": (inst.PeakInstance(_interval(), 0.8, 1.0, c=0.9), _GRID),
    # means with many mantissa bits: sums of them round at every addition
    "none": (inst.PeakInstance(_interval(), 0.3, 0.7, c=0.85, noise="none"),
             _GRID),
    "signs_lineage": (inst.LineageInstance(
        _interval(), sps.build_ball_tree(_interval(), 4), depth_cap=4,
        seed=0), _GRID),
    "signs_maxminlcd": (inst.MaxMinLCDInstance(
        _interval(), b=0.5, depth_cap=3, seed=0), _GRID),
    "signs_noncompact": (inst.NoncompactInstance(
        [0.1, 0.3, 0.5, 0.7, 0.9], 0.05, seed=0, sizes=[2, 3]), _GRID),
    "signs_wide": (inst.NoncompactInstance(
        _WIDE_CENTERS, 0.04, seed=0, sizes=[2, 8]),
        st.sampled_from(_WIDE_CENTERS)),
    "signs_without_keys": (inst.NoncompactInstance(
        [0.1, 0.3, 0.5, 0.7, 0.9], 0.05, seed=0, sizes=[2, 3]), _GAPS),
}


def _check_block(kind, data, m_range, rounds_for):
    instance, points = _INSTANCES[kind]
    queries = tuple(data.draw(st.lists(points, min_size=m_range[0],
                                       max_size=m_range[1])))
    bet = data.draw(points)
    ref_sampler = PerRoundSampler(instance, None)
    ref_sampler._prepare(queries, bet)
    tag, a, b = ref_sampler._cache
    if kind == "signs_without_keys":
        assert tag == "signs" and b is None
    elif kind.startswith("signs"):
        assert tag == "signs"
    chunk = max(1, hn._CHUNK_CELLS // max(a.shape))
    rounds = rounds_for(data, chunk)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    sums, bet_rewards = hn._RoundSampler(instance, rng).rewards(
        queries, bet, rounds)
    ref_sums, ref_bets = ref_block(instance, ref_rng, queries, bet, rounds)
    assert sums.dtype == np.float64 and bet_rewards.dtype == np.float64
    assert sums.tobytes() == ref_sums.tobytes()
    assert bet_rewards.tobytes() == ref_bets.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", list(_INSTANCES))
@_SETTINGS
@given(data=st.data())
def test_block_equals_rounds_short(kind, data):
    _check_block(kind, data, (0, 8),
                 lambda data, _chunk: data.draw(st.integers(1, 60)))


@pytest.mark.parametrize("kind", list(_INSTANCES))
@_SETTINGS
@given(data=st.data())
def test_block_equals_rounds_across_chunks(kind, data):
    def rounds_for(data, chunk):
        blocks = data.draw(st.integers(1, 3))
        return blocks * chunk + data.draw(st.integers(-1, 1))

    _check_block(kind, data, (100, 200), rounds_for)


def test_consecutive_blocks_continue_the_stream():
    """Two blocks of the same points equal one run of their rounds.  The
    points are centers of depth-4 balls, so every column carries four terms
    and its rounds differ."""
    instance, _ = _INSTANCES["signs_lineage"]
    centers = {node.path: node.center
               for node, depth in instance.tree.nodes() if depth == 4}
    queries = (centers["0001"], centers["0110"], centers["1011"])
    bet = centers["1100"]
    assert all(len(list(instance.active_terms(x))) == 4
               for x in queries + (bet,))
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    sampler = hn._RoundSampler(instance, rng)
    first, bets_1 = sampler.rewards(queries, bet, 5)
    second, bets_2 = sampler.rewards(queries, bet, 9)
    ref_first, ref_bets_1 = ref_block(instance, ref_rng, queries, bet, 5)
    ref_second, ref_bets_2 = ref_block(instance, ref_rng, queries, bet, 9)
    assert first.tobytes() == ref_first.tobytes()
    assert second.tobytes() == ref_second.tobytes()
    assert np.concatenate((bets_1, bets_2)).tobytes() == np.concatenate(
        (ref_bets_1, ref_bets_2)).tobytes()


def test_wide_sign_rows_repeat_across_chunks():
    """Ten keys pack into two bytes per round, and with eight fair coins the
    rounds repeat rows within a chunk and across the chunk bound."""
    instance, _ = _INSTANCES["signs_wide"]
    queries, bet = tuple(_WIDE_CENTERS), _WIDE_CENTERS[3]
    tag, a, b = hn._RoundSampler(instance, None)._prepare(
        list(queries) + [bet])
    assert tag == "signs" and len(b) == 10
    assert np.count_nonzero(b < 1.0) == 8
    chunk = hn._CHUNK_CELLS // max(a.shape)
    rounds = 2 * chunk + 3
    # the draws of the chunks, one after the other
    rows = np.packbits(np.random.default_rng(11).random((rounds, len(b))) < b,
                       axis=1)
    assert rows.shape[1] == 2
    first = {row.tobytes() for row in rows[:chunk]}
    second = {row.tobytes() for row in rows[chunk:2 * chunk]}
    assert len(first) < chunk and first & second
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    sums, bet_rewards = hn._RoundSampler(instance, rng).rewards(
        queries, bet, rounds)
    ref_sums, ref_bets = ref_block(instance, ref_rng, queries, bet, rounds)
    assert sums.tobytes() == ref_sums.tobytes()
    assert bet_rewards.tobytes() == ref_bets.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# horizon cuts


def _peak(space_d, peak, slope):
    return {"kind": "peak", "space": space_d, "peak": peak, "slope": slope,
            "c": 0.9, "noise": "bernoulli"}


def _cut_configs():
    plain = _interval().descriptor()
    convergent = sps.ConvergentSpace(100).descriptor()
    decomposed = sps.IntervalSpace(
        well_order="coordinate",
        depth_chain=[{"kind": "all"},
                     {"kind": "points", "points": [0.8]}]).descriptor()
    return {
        "naive_experts": (_peak(plain, 0.8, 1.0),
                          {"name": "naive_experts", "b": 1.0}),
        "double_feedback_expert": (_peak(convergent, 0.0, 0.5),
                                   {"name": "double_feedback_expert"}),
        "maxminlcd_experts": (_peak(decomposed, 0.8, 1.0),
                              {"name": "maxminlcd_experts", "b": 1.0}),
    }


@pytest.mark.parametrize("name", list(_cut_configs()))
def test_horizon_cuts_give_prefixes(name):
    """Phases of length 2^i start at 2^i - 2: a horizon of 20 cuts phase 4
    (rounds 14..29) mid-block, 30 ends it, 31 enters phase 5."""
    instance_d, algorithm = _cut_configs()[name]

    def run(horizon):
        return hn.run_match(hn.ExperimentConfig(
            space=instance_d["space"], instance=instance_d,
            algorithm=algorithm, horizon=horizon, seed=3,
            record_actions=True))

    longest = run(31)
    for horizon in (20, 30, 31):
        trace = run(horizon)
        assert trace.rewards.tobytes() == longest.rewards[:horizon].tobytes()
        assert trace.means.tobytes() == longest.means[:horizon].tobytes()
        assert trace.actions == longest.actions[:horizon]
        starts = [p["start"] for p in trace.info["phases"]]
        assert starts == [2 ** i - 2 for i in range(1, len(starts) + 1)]
        if horizon == 30:
            # the block that ends at the horizon is observed, which opens
            # the next phase as the per-round loop did
            assert trace.info["phases"][-1]["start"] == horizon
        else:
            assert starts[-1] == (14 if horizon == 20 else 30)
