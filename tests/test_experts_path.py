"""The experts path against the code it replaced.

- Sampler: `_RoundSampler.rewards` against the round-order accumulate it
  used for every block, in the sums, the bet rewards and the noise stream's
  state.  Bernoulli column sums are now integer counts added in any order;
  noise-free blocks keep the accumulate.
- Active set: `spaces.cover_witnesses`, one scan with a growing mask,
  against the old `cover_oracle` asked again after each witness, in the
  witnesses and the truncation flag; `cover_oracle` is now the first
  witness of that scan.

The references are the pre-change code, kept here.
"""

import itertools

import numpy as np
import pytest

import banditlab.harness as hn
import banditlab.instances as inst
import banditlab.spaces as sps

# ---------------------------------------------------------------------------
# Bernoulli column sums


def ref_rewards(sampler, queries, bet, rounds):
    """Every block's query feedback added in round order by an accumulate."""
    tag, a, b = sampler._prepare(list(queries) + [bet])
    chunk = max(1, hn._CHUNK_CELLS // max(a.shape))
    sums = np.zeros(len(queries))
    bet_rewards = np.empty(rounds)
    for start in range(0, rounds, chunk):
        values = sampler._block(tag, a, b, min(chunk, rounds - start))
        bet_rewards[start:start + len(values)] = values[:, -1]
        block = values[:, :-1]
        block[0] += sums
        sums = np.add.accumulate(block, axis=0, out=block)[-1].copy()
    return sums, bet_rewards


def _interval():
    return sps.IntervalSpace(resolution=2.0 ** -20, scan_resolution=2.0 ** -10)


def _instances():
    interval = _interval()
    finite = sps.FiniteSpace([0.0, 0.25, 0.5, 1.0])
    return {
        "peak": (inst.PeakInstance(interval, 0.3, 0.5, c=0.9), interval),
        "arms": (inst.ArmsInstance(finite, [0.0, 0.4, 0.7, 1.0]), finite),
        "peak_noise_free": (
            inst.PeakInstance(interval, 0.3, 0.5, c=0.9, noise="none"),
            interval),
    }


def _points(space, m, rng):
    if isinstance(space, sps.FiniteSpace):
        return [space.coords[i]
                for i in rng.integers(len(space.coords), size=m)]
    return [float(v) for v in rng.random(m)]


def _check_rewards(kind, m, rounds, seed, calls=1):
    instance, space = _instances()[kind]
    points = _points(space, m + 1, np.random.default_rng(1000 + seed))
    queries, bet = tuple(points[:m]), points[m]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sampler = hn._RoundSampler(instance, rng)
    ref_sampler = hn._RoundSampler(instance, ref_rng)
    for _ in range(calls):
        sums, bet_rewards = sampler.rewards(queries, bet, rounds)
        ref_sums, ref_bets = ref_rewards(ref_sampler, queries, bet, rounds)
        assert sums.dtype == np.float64 and sums.shape == (m,)
        assert sums.tobytes() == ref_sums.tobytes()
        assert bet_rewards.tobytes() == ref_bets.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["peak", "arms", "peak_noise_free"])
@pytest.mark.parametrize("m", [0, 1, 7, 300])
@pytest.mark.parametrize("rounds", [1, 5, 97])
@pytest.mark.parametrize("seed", [0, 3])
def test_block_sums_match_round_order_accumulate(kind, m, rounds, seed):
    _check_rewards(kind, m, rounds, seed)


@pytest.mark.parametrize("kind", ["peak", "arms", "peak_noise_free"])
@pytest.mark.parametrize("m", [0, 1, 7, 300])
def test_block_sums_across_small_chunks(monkeypatch, kind, m):
    # 64 cells: 8 rounds a chunk at m = 7, one round a chunk at m = 300
    monkeypatch.setattr(hn, "_CHUNK_CELLS", 64)
    _check_rewards(kind, m, 61, seed=5, calls=3)


def test_bernoulli_sums_are_counts_over_long_blocks():
    """Sums over more rounds than one chunk holds are exact counts."""
    _check_rewards("peak", 3, 2 ** 16 + 3, seed=2)
    instance, _ = _instances()["arms"]
    sums, _ = hn._RoundSampler(instance, np.random.default_rng(0)).rewards(
        (0.0, 1.0), 0.5, 2 ** 16 + 3)
    assert sums.tolist() == [0.0, 2.0 ** 16 + 3]


# ---------------------------------------------------------------------------
# one-scan active set


def ref_cover_oracle(space, anchor, balls):
    """cover_oracle as it was: the least scan point outside all the balls."""
    ds = space.depth_structure
    lam = 0 if anchor is None else ds.depth_of(space, anchor)
    points, coords = sps._scan_array(space, ds.levels[lam])
    outside = np.flatnonzero(~sps._ball_union(coords, balls, open_balls=True))
    if len(outside):
        return sps.CoverResult(False, points[outside[0]])
    return sps.CoverResult(True)


def ref_active_set(space, anchor, exclusion, delta, quota):
    """MaxMinLCD's active set by one cover_oracle call per witness."""
    active = []
    flagged = False
    balls = list(exclusion)
    while True:
        res = ref_cover_oracle(space, anchor, balls)
        if res.covered:
            break
        if len(active) >= quota:
            flagged = True
            break
        active.append(res.witness)
        balls.append(sps.Ball(res.witness, delta))
    return tuple(active), flagged


def _decomposed():
    return sps.IntervalSpace(
        resolution=2.0 ** -20, scan_resolution=2.0 ** -10,
        well_order="coordinate", depth_dimension=1.0,
        depth_chain=[{"kind": "all"}, {"kind": "points", "points": [0.8]}])


_cover_witnesses = sps.cover_witnesses


def active_set(space, anchor, exclusion, delta, quota):
    """The active set as MaxMinLCD takes it from `cover_witnesses`."""
    witnesses = _cover_witnesses(space, anchor, exclusion, delta)
    active = tuple(itertools.islice(witnesses, quota))
    return active, next(witnesses, None) is not None


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_active_sets_of_maxminlcd_matches(monkeypatch, seed):
    """Every phase's active set in a match, against the loop."""
    space_d = _decomposed().descriptor()
    config = hn.ExperimentConfig.from_dict({
        "space": space_d,
        "instance": {"kind": "peak", "space": space_d, "peak": 0.8,
                     "slope": 1.0, "c": 0.9, "noise": "bernoulli"},
        "algorithm": {"name": "maxminlcd_experts", "b": 1.0},
        "horizon": 4096, "seed": seed})
    exclusions = []

    def recorded(space, anchor, exclusion, delta):
        exclusions.append(list(exclusion))
        return _cover_witnesses(space, anchor, exclusion, delta)

    monkeypatch.setattr(sps, "cover_witnesses", recorded)
    trace = hn.run_match(config)
    space = sps.space_from_descriptor(space_d)
    phases = [p for p in trace.info["phases"] if "active_out" in p]
    assert len(phases) == len(exclusions) >= 10
    assert not exclusions[0] and exclusions[-1]
    for phase, exclusion in zip(phases, exclusions):
        assert len(exclusion) == phase["excluded"]
        ref = ref_active_set(space, phase["depth_estimate"], exclusion,
                             phase["delta"], phase["quota"])
        assert (tuple(phase["active_out"]), phase["active_truncated"]) == ref


@pytest.mark.parametrize("anchor", [None, 0.8])
@pytest.mark.parametrize("exclusion", [
    [], [sps.Ball(0.5, 0.2)], [sps.Ball(0.1, 0.05), sps.Ball(0.9, 0.3)]])
@pytest.mark.parametrize("delta, quota", [
    (0.1, 4096), (0.1, 3), (0.1, 0), (0.03, 7), (1.5, 1), (1e-13, 4)])
def test_active_set_matches_per_witness_loop(anchor, exclusion, delta, quota):
    space = _decomposed()
    assert active_set(space, anchor, exclusion, delta, quota) == \
        ref_active_set(space, anchor, exclusion, delta, quota)


def test_active_set_truncates_at_quota():
    space = _decomposed()
    active, truncated = active_set(space, None, [], 0.1, 3)
    assert len(active) == 3 and truncated
    # a ball no wider than the tolerance does not cover its own witness
    assert active_set(space, None, [], 1e-13, 2) == ((0.0, 0.0), True)
    assert ref_active_set(space, None, [], 1e-13, 2) == ((0.0, 0.0), True)
