import math

import numpy as np
import pytest

import banditlab.experts as ex
import banditlab.instances as inst
import banditlab.spaces as sps
from banditlab.errors import UnsupportedCapabilityError, ValidationError
from blocks import drive


def _drive(session, instance, rounds, corrupt=None):
    """Zero-noise stepping: each round's feedback is the query means, which
    corrupt(t, values) may replace."""
    block = {}

    def feedback(t, action):
        if block.get("action") is not action:
            block.update(action=action, values=instance.mean_vector(
                list(action.queries)))
        values = block["values"]
        return values if corrupt is None else corrupt(t, values.copy())

    return drive(session, rounds, feedback)


def _phase_slices(phases, total):
    out = []
    for p in phases:
        stop = min(p["start"] + p["length"], total)
        if p["start"] < total:
            out.append((p, slice(p["start"], stop)))
    return out


# ---------------------------------------------------------------------------
# double feedback


def _convergent_peak():
    space = sps.ConvergentSpace(100)
    return space, inst.PeakInstance(space, 0.0, 0.5, c=0.9, noise="none")


def test_double_feedback_phase_structure():
    space, instance = _convergent_peak()
    session = ex.DoubleFeedbackExpert(space)
    rounds = 2 + 4 + 8 + 16 + 32
    bets, _log = _drive(session, instance, rounds)
    phases = session.info["phases"]
    assert [p["length"] for p in phases][:5] == [2, 4, 8, 16, 32]
    for p, sl in _phase_slices(phases, rounds):
        t = p["length"]
        assert p["k"] == p["n"] == math.floor(math.sqrt(t))
        assert p["r"] == pytest.approx(4.0 * math.sqrt(t ** 0.25 / p["n"]))
        assert p["explore_cost"] <= t
        # the bet is frozen for the whole phase
        assert len(set(bets[sl])) == 1
        assert bets[sl][0] == p["bet"]


def test_double_feedback_zero_noise_converges():
    space, instance = _convergent_peak()
    session = ex.DoubleFeedbackExpert(space)
    bets, _log = _drive(session, instance, 2 ** 7 - 2)
    phases = session.info["phases"]
    completed = [p for p in phases if p["completed"]]
    assert completed
    assert bets[-1] == 0.0
    assert phases[-1]["bet"] == 0.0


def test_double_feedback_bets_ignore_current_peeks():
    space, instance = _convergent_peak()
    a = ex.DoubleFeedbackExpert(space)
    b = ex.DoubleFeedbackExpert(space)
    # phase 4 occupies rounds 14..29; corrupt only B's peeks there
    bets_a, _log = _drive(a, instance, 30)
    bets_b, _log = _drive(
        b, instance, 30,
        corrupt=lambda t, peek: 1.0 - peek if 14 <= t < 30 else peek)
    assert bets_a == bets_b


def test_double_feedback_needs_well_order():
    space = sps.IntervalSpace()
    session = ex.DoubleFeedbackExpert(space)
    instance = inst.ConstantInstance(space, 0.5, noise="none")
    # the ordering oracle is consulted when the first sweep completes
    with pytest.raises(UnsupportedCapabilityError):
        _drive(session, instance, 10)


# ---------------------------------------------------------------------------
# fixed-net full feedback


def test_naive_delta_schedule_and_coverage():
    space = sps.IntervalSpace()
    instance = inst.PeakInstance(space, 0.8, 1.0, c=0.9, noise="none")
    session = ex.NaiveExperts(space, 1.0)
    rounds = 2 + 4 + 8 + 16 + 32 + 64
    _bets, query_log = _drive(session, instance, rounds)
    scan = space.scan_points()
    for p, sl in _phase_slices(session.info["phases"], rounds):
        assert p["delta"] == pytest.approx(p["length"] ** (-1.0 / 3.0))
        assert p["delta_achieved"] <= p["delta"] + 1e-12
        queries = query_log[sl.start]
        assert len(queries) == p["net_size"]
        assert all(q is queries for q in query_log[sl])
        worst = max(min(abs(x - q) for q in queries) for x in scan)
        assert worst <= p["delta_achieved"] + 1e-12


def test_naive_uniform_delta():
    space = sps.IntervalSpace()
    session = ex.NaiveExperts(space, 2.0, uniform=True)
    assert session._phase_delta(64) == pytest.approx(1.0 / 8.0)
    assert ex.NaiveExperts(space, 2.0)._phase_delta(64) == pytest.approx(
        64.0 ** -0.25)


def test_naive_parameter_validation():
    space = sps.IntervalSpace()
    with pytest.raises(ValidationError):
        ex.NaiveExperts(space, -1.0)
    with pytest.raises(ValidationError):
        ex.NaiveExperts(space, 1.0, uniform=True)


def test_naive_bet_is_previous_best_guess():
    space = sps.IntervalSpace()
    instance = inst.PeakInstance(space, 0.8, 1.0, c=0.9, noise="none")
    session = ex.NaiveExperts(space, 1.0)
    rounds = 2 ** 9 - 2
    bets, _ = _drive(session, instance, rounds)
    phases = session.info["phases"]
    for prev, cur in zip(phases, phases[1:]):
        assert cur["bet"] == prev["best_guess"]
    final = phases[-1]
    assert instance.mean(final["bet"]) >= 0.9 - 2 * final["delta_achieved"]
    assert bets[-1] == final["bet"]


def test_naive_constant_instance_never_regrets():
    space = sps.IntervalSpace()
    instance = inst.ConstantInstance(space, 0.5, noise="none")
    session = ex.NaiveExperts(space, 1.0)
    bets, _ = _drive(session, instance, 100)
    assert all(instance.mean(b) == 0.5 for b in bets)


# ---------------------------------------------------------------------------
# depth-guided full feedback


def _decomposed(points=(0.8,)):
    return sps.IntervalSpace(
        well_order="coordinate",
        depth_chain=[{"kind": "all"},
                     {"kind": "points", "points": list(points)}])


def test_maxminlcd_parameter_validation():
    with pytest.raises(ValidationError):
        ex.MaxMinLCDExperts(_decomposed(), 0.0)
    with pytest.raises(ValidationError):
        ex.MaxMinLCDExperts(_decomposed(), 1.0, uniform=True)
    with pytest.raises(ValidationError):
        ex.MaxMinLCDExperts(sps.IntervalSpace(), 1.0)


def test_maxminlcd_net_selection():
    session = ex.MaxMinLCDExperts(_decomposed(), 1.0)
    j, net, achieved, flagged = session._select_net(256)
    # the interval net at radius 2^-j has 2^(j-1) midpoints
    assert achieved <= 2.0 ** -j + 1e-12
    assert len(net) <= 2.0 ** math.sqrt(256)
    # refinement stops at the scan resolution, flagged
    j_big, net_big, _achieved, flag_big = session._select_net(2 ** 16)
    assert j_big == 10 and len(net_big) == 512 and flag_big


def _doubling_search(space, radius):
    """The covering of the smallest doubling budget from k = 1 whose delta
    is <= radius, as (points, delta, saturated)."""
    k = 1
    while True:
        delta, points = sps.covering_oracle(space, k)
        if delta <= radius + 1e-12:
            return points, delta, delta <= 0.0
        if len(points) < k or 2 * k > 2 ** 20:
            return points, delta, True
        k *= 2


@pytest.mark.parametrize("space", [
    _decomposed(),
    sps.FiniteSpace([i / 300 for i in range(300)],
                    depth_chain=[{"kind": "all"}]),
], ids=["interval", "finite"])
def test_maxminlcd_net_selection_keeps_budget(monkeypatch, space):
    """Over a run of phases, every net the session selects from is the one a
    fresh doubling search finds at its scale, and the nets are kept with the
    space: a second pass over the phases makes no covering call."""
    session = ex.MaxMinLCDExperts(space, 1.0)
    picks = [session._select_net(2 ** i) for i in range(1, 17)]
    kept = {key[1]: net for key, net in space._oracle_cache.items()
            if isinstance(key, tuple) and key[0] == "net"}
    assert sorted(kept, reverse=True) == [2.0 ** -j for j in range(len(kept))]
    assert len(kept) > max(j for j, *_ in picks)
    for radius, net in kept.items():
        assert net == _doubling_search(space, radius)
    calls = []
    covering = sps.covering_oracle

    def counted(space, k):
        calls.append(k)
        return covering(space, k)

    monkeypatch.setattr(sps, "covering_oracle", counted)
    assert [session._select_net(2 ** i) for i in range(1, 17)] == picks
    assert calls == []


def test_maxminlcd_phase_bookkeeping():
    space = _decomposed()
    instance = inst.PeakInstance(space, 0.8, 1.0, c=0.9, noise="none")
    session = ex.MaxMinLCDExperts(space, 2.0)
    rounds = 2 ** 9 - 2
    _bets, _log = _drive(session, instance, rounds)
    for p, _sl in _phase_slices(session.info["phases"], rounds):
        t = p["length"]
        assert p["delta"] == pytest.approx(t ** -0.25)
        assert p["r"] == 2.0 ** -p["j"]
        expected_q = 2.0 ** p["delta"] ** -2.0
        assert p["Q_T"] == pytest.approx(expected_q)
        assert p["quota"] == min(int(expected_q), 4096)
        assert p["quota_capped"] == (expected_q > 4096)
        if "r_T" in p:
            assert p["r_T"] == pytest.approx(
                math.sqrt(8.0 * math.log(t * p["net_size"]) / t))
    # at T = 2^16 the budget formula gives 2^256, far beyond the cap
    assert session._phase_delta(2 ** 16) == pytest.approx(1.0 / 16.0)
    assert 2.0 ** session._phase_delta(2 ** 16) ** -2.0 == 2.0 ** 256


def test_maxminlcd_infinite_budget_is_capped():
    space = _decomposed()
    instance = inst.ConstantInstance(space, 0.5, noise="none")
    session = ex.MaxMinLCDExperts(space, 2.0, uniform=True)
    rounds = 2 ** 12 - 2
    _drive(session, instance, rounds)
    last = session.info["phases"][10]
    assert last["length"] == 2 ** 11
    # delta^-2 = T >= 1023 overflows the float exponent
    assert last["Q_T"] == math.inf
    assert last["quota"] == 4096 and last["quota_capped"]
    assert last["net_flagged"]


def test_maxminlcd_depth_estimate_locks_on():
    space = _decomposed()
    instance = inst.PeakInstance(space, 0.8, 1.0, c=0.9, noise="none")
    session = ex.MaxMinLCDExperts(space, 1.0)
    rounds = 2 ** 9 - 2
    bets, _log = _drive(session, instance, rounds)
    phases = session.info["phases"]
    # once nets resolve the peak, the depth oracle returns the depth-1 point
    late = [p for p in phases[3:] if "depth_estimate" in p]
    assert late and all(p["depth_estimate"] == 0.8 for p in late)
    assert all(0.8 in p["active_out"] for p in late)
    assert bets[-1] == 0.8


def test_maxminlcd_bets_frozen_within_phase():
    space = _decomposed()
    instance = inst.PeakInstance(space, 0.8, 1.0, c=0.9, noise="none")
    session = ex.MaxMinLCDExperts(space, 1.0)
    rounds = 2 ** 8 - 2
    bets, _log = _drive(session, instance, rounds)
    for p, sl in _phase_slices(session.info["phases"], rounds):
        assert len(set(bets[sl])) == 1
        assert bets[sl][0] == p["bet"]


def test_maxminlcd_trivial_decomposition_sublinear():
    space = sps.IntervalSpace(depth_chain=[{"kind": "all"}])
    instance = inst.PeakInstance(space, 0.8, 1.0, c=0.9, noise="none")
    session = ex.MaxMinLCDExperts(space, 1.0)
    horizon = 2 ** 12 - 2
    bets, _log = _drive(session, instance, horizon)
    regret = np.cumsum([0.9 - instance.mean(b) for b in bets])
    ts = [2 ** j for j in range(5, 12)]
    slope = np.polyfit(np.log(ts), np.log([regret[t - 1] for t in ts]), 1)[0]
    assert slope < 0.9
