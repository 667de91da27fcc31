import math

import numpy as np
import pytest

import banditlab.bandits as bd
import banditlab.instances as inst
import banditlab.spaces as sps
from banditlab.errors import ValidationError
from blocks import drive


def _convergent_peak(noise="none"):
    space = sps.ConvergentSpace(100)
    return space, inst.PeakInstance(space, 0.0, 0.5, c=0.9, noise=noise)


# ---------------------------------------------------------------------------
# exploration sweeps


def _sweep(run, pull, rounds=None):
    """Drive run.run() to its result, the sweep cut at `rounds` (None: the
    whole sweep): each point's action is sent the sum of pull(x) over its
    rounds.  Returns the result and the rounds pulled."""
    if rounds is None:
        rounds = len(run.points) * run.n
    sweep = run.run(lambda x, m: bd.Action(x, rounds=m), rounds)
    action = next(sweep)
    pulls = 0
    try:
        while True:
            total = 0.0
            for _ in range(action.rounds):
                total += pull(action.bet)
            pulls += action.rounds
            action = sweep.send(total)
    except StopIteration as done:
        return done.value, pulls


def test_expl_budget_accounting():
    space, instance = _convergent_peak()
    run = bd.ExplRun(space, 11, 5, 0.04)
    assert len(run.points) * run.n == 11 * 5
    _result, pulls = _sweep(run, instance.mean)
    assert pulls == 55


def test_expl_sweep_cut_takes_no_result():
    space, instance = _convergent_peak()
    # 23 rounds reach five points of 5 rounds, the fifth cut to 3
    result, pulls = _sweep(bd.ExplRun(space, 11, 5, 0.04), instance.mean, 23)
    assert result is None and pulls == 23


def test_expl_zero_noise_finds_optimum():
    space, instance = _convergent_peak()
    winner, _pulls = _sweep(bd.ExplRun(space, 11, 5, 0.001), instance.mean)
    assert winner == 0.0


def test_expl_loser_rule_keeps_optimal_point():
    space, instance = _convergent_peak()
    run = bd.ExplRun(space, 11, 1, 0.001)
    _sweep(run, instance.mean)
    avg = run.averages()
    best = max(avg.values())
    threshold = 2 * run.r + run.delta
    assert best - avg[0.0] <= threshold  # optimal point survives
    assert run.result() == 0.0


def test_expl_no_losers_at_large_radius():
    space, instance = _convergent_peak()
    # r >= 1 makes every covering point a non-loser; the well-order decides
    winner, _pulls = _sweep(bd.ExplRun(space, 11, 1, 2.0), instance.mean)
    assert winner == 0.0


def test_expl_prime_prefers_higher_rank():
    space, instance = _convergent_peak()
    winner, _pulls = _sweep(bd.ExplPrimeRun(space, 11, 5, 0.001),
                            instance.mean)
    assert winner == 0.0


def test_expl_prime_covers_every_rank():
    space = sps.NestedConvergentSpace(5, 5)
    run = bd.ExplPrimeRun(space, 4, 1, 0.5)
    ranks = set(run.rank_of.values())
    assert ranks == {0, 1, 2}


def test_expl_parameter_validation():
    space, _ = _convergent_peak()
    with pytest.raises(ValidationError):
        bd.ExplRun(space, 0, 1, 0.1)
    with pytest.raises(ValidationError):
        bd.ExplRun(space, 1, 1, 0.0)


# ---------------------------------------------------------------------------
# phase schedules


def test_phase_lengths_doubly_exponential():
    space, instance = _convergent_peak()
    session = bd.PhasedExplSession(space)
    rng = np.random.default_rng(0)
    drive(session, 4 + 16 + 256 + 10,
          lambda t, a: instance.bandit_reward(a.bet, rng))
    lengths = [p["length"] for p in session.info["phases"]]
    assert lengths == [2 ** 2, 2 ** 4, 2 ** 8, 2 ** 16]


def test_well_ordered_bandit_zero_noise_commits_to_peak():
    space, instance = _convergent_peak()
    session = bd.PhasedExplSession(space)
    drive(session, 2 ** 10, lambda t, a: instance.mean(a.bet))
    completed = [p for p in session.info["phases"] if p["completed"]]
    assert completed and all(p["commit"] == 0.0 for p in completed[1:])


def test_f_preset_registry():
    space, _ = _convergent_peak()
    bd.PhasedExplSession(space, "log_power:2")
    bd.PhasedExplSession(space, "loglog")
    bd.PhasedExplSession(space, lambda t: math.log(t))
    with pytest.raises(ValidationError):
        bd.PhasedExplSession(space, "nope")


def test_cb_bandit_on_convergent():
    space, instance = _convergent_peak()
    session = bd.CBBanditSession(space)
    drive(session, 300, lambda t, a: instance.mean(a.bet))
    completed = [p for p in session.info["phases"] if p["completed"]]
    assert completed and completed[-1]["commit"] == 0.0


# ---------------------------------------------------------------------------
# UCB1


def test_ucb1_single_arm():
    bets, _queries = drive(bd.UCB1Session(sps.FiniteSpace([0.5]), [0.5]), 20,
                           lambda t, a: 1.0)
    assert bets == [0.5] * 20


def test_ucb1_zero_noise_separation():
    means = [0.2, 0.8]
    picks, _queries = drive(bd.UCB1Session(sps.FiniteSpace([0, 1]), [0, 1]),
                            4096,
                            lambda t, a: means[a.bet])
    # deterministic index trace: arm 0 is pulled only logarithmically often
    n0 = picks.count(0)
    assert n0 <= math.ceil(2 * math.log(4096) / 0.6 ** 2) + 2
    assert picks[-1] == 1


def test_ucb1_replay_deterministic():
    def run():
        rng = np.random.default_rng(5)
        return drive(bd.UCB1Session(sps.FiniteSpace([0, 1]), [0, 1]), 500,
                     lambda t, a: float(rng.random() < (0.5, 0.6)[a.bet]))[0]

    assert run() == run()


def test_observe_before_choose_rejected():
    s = bd.UCB1Session(sps.FiniteSpace([0]), [0])
    with pytest.raises(ValidationError):
        s.observe(1.0)


# ---------------------------------------------------------------------------
# phased UCB1


def test_phased_ucb1_schedule_matches_closed_form():
    space = sps.IntervalSpace()
    session = bd.PhasedUCB1Session(space)
    instance = inst.PeakInstance(space, 0.8, 1.0, c=0.9, noise="none")
    drive(session, 2 ** 12, lambda t, a: instance.mean(a.bet))
    # interval net at radius 2^-k has 2^(k-1) points
    def tstar(k):
        n = 2 ** (k - 1)
        return 2.0 * n * 4.0 ** k * math.log(n * 4.0 ** k)

    lengths = []
    for p in session.info["phases"]:
        k = p["phase"]
        assert p["net_size"] == 2 ** (k - 1)
        assert p["eps"] == 2.0 ** -k
        expected = math.ceil(max(tstar(k), tstar(k + 1), 2 * sum(lengths)))
        assert p["length"] == expected
        lengths.append(expected)


def test_phased_ucb1_saturates_on_finite_space():
    space = sps.FiniteSpace([0.0, 0.5, 1.0])
    session = bd.PhasedUCB1Session(space)
    means = {0.0: 0.2, 0.5: 0.9, 1.0: 0.4}
    drive(session, 3000, lambda t, a: means[a.bet])
    phases = session.info["phases"]
    assert any(p["saturated"] for p in phases)
    sat = [p for p in phases if p["saturated"]]
    assert all(p["net_size"] == 3 for p in sat)


# ---------------------------------------------------------------------------
# completion adapter


def test_dyadic_rounding_contract():
    rounding = bd.dyadic_rounding(20)
    rng = np.random.default_rng(3)
    for t in range(1, 21):
        for x in rng.random(20):
            assert abs(rounding(float(x), t) - x) <= 2.0 ** -t
    # beyond the resolution the grid stalls
    assert rounding(0.3, 25) == rounding(0.3, 20)


def test_completion_adapter_identity_on_binary_rewards():
    space = sps.FiniteSpace([0.0, 1.0])
    means = {0.0: 0.0, 1.0: 1.0}

    def run(session):
        out, _queries = drive(session, 200, lambda t, a: means[a.bet])
        return out

    plain = run(bd.UCB1Session(space, [0.0, 1.0]))
    adapted = run(bd.CompletionAdapterSession(
        bd.UCB1Session(space, [0.0, 1.0]), space, np.random.default_rng(0),
        "identity"))
    assert plain == adapted


def test_completion_adapter_mean_preserving():
    class Recorder(bd.Session):
        def __init__(self):
            super().__init__()
            self.feedback = []

        def _run(self):
            while True:
                v = yield bd.Action(0.0)
                self.feedback.append(v)

    rec = Recorder()
    adapter = bd.CompletionAdapterSession(
        rec, sps.FiniteSpace([0.0]), np.random.default_rng(1), "identity")
    drive(adapter, 20000, lambda t, a: 0.73)
    vals = np.array(rec.feedback)
    assert len(vals) == 20000
    assert set(np.unique(vals)) <= {0.0, 1.0}
    assert abs(vals.mean() - 0.73) <= 3 * 0.45 / math.sqrt(len(vals))


def test_completion_adapter_rounds_actions():
    space = sps.IntervalSpace(well_order="coordinate")
    inner = bd.PhasedExplSession(space)
    adapter = bd.CompletionAdapterSession(
        inner, space, np.random.default_rng(0), "dyadic:20")
    rng = np.random.default_rng(2)
    rounded = []  # (adapter round, played point, inner session's point)

    def feedback(t, action):
        rounded.append((t + 1, action.bet, inner.choose().bet))
        return float(rng.random() < 0.5)

    drive(adapter, 49, feedback)
    assert [t for t, _x, _y in rounded] == list(range(1, 50))
    for t, x, y in rounded:
        assert abs(x - y) <= 2.0 ** -t
