"""Full-feedback and double-feedback algorithms.

Sessions follow the same choose()/observe() step API as the bandit sessions,
but actions carry side channels: a double-feedback action has a free peek,
a full-feedback action has a finite query list.  Collected reward always
comes from the bet alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import spaces as sp
from .bandits import ExplRun, Session, _net_for_radius
from .errors import ValidationError

_ACTIVE_SET_CAP = 4096


@dataclass(frozen=True)
class ExpertAction:
    bet: object
    peek: object = None
    queries: tuple = ()


class DoubleFeedbackExpert(Session):
    """Phases of length 2^i; peeks run an exploration sweep with
    k = n = floor(sqrt(T)) and r = 4 sqrt(T^{1/4}/n); bets replay the
    previous phase's sweep output, so bets never depend on current peeks."""

    mode = "double"

    def __init__(self, space):
        super().__init__()
        self.space = space

    def _run(self):
        bet = self.space.canonical_least()
        i = 1
        rounds = 0
        while True:
            T = 2 ** i
            k = max(1, math.floor(math.sqrt(T)))
            n = k
            r = 4.0 * math.sqrt(T ** 0.25 / n)
            sweep = ExplRun(self.space, k, n, r)
            phase = {"phase": i, "length": T, "start": rounds,
                     "k": k, "n": n, "r": r, "bet": bet,
                     "explore_cost": len(sweep.queue), "completed": False}
            self.info["phases"].append(phase)
            next_bet = bet
            for _ in range(T):
                if not sweep.finished:
                    peek = sweep.next_point()
                    _bet_reward, peek_reward = yield ExpertAction(bet, peek=peek)
                    sweep.record(peek_reward)
                    if sweep.finished:
                        next_bet = sweep.result()
                        phase["completed"] = True
                else:
                    yield ExpertAction(bet, peek=next_bet)
                rounds += 1
            bet = next_bet
            i += 1


def double_feedback_expert(space):
    return DoubleFeedbackExpert(space)


def _hitting_set(space, delta):
    """delta-hitting set via the covering oracle with a doubling budget;
    coarsens (and flags) when the space cannot be covered that finely."""
    points, achieved, saturated = _net_for_radius(space, delta)
    return tuple(points), achieved, saturated


class NaiveExperts(Session):
    """Phases of length 2^i; each phase queries a fixed delta-hitting set
    with delta = T^{-1/(b+2)} (uniform variant: T^{-1/b}) and bets the
    previous phase's best sample average."""

    mode = "full"

    def __init__(self, space, b, uniform=False):
        super().__init__()
        if b < 0:
            raise ValidationError("b must be nonnegative")
        if uniform and b < 2:
            raise ValidationError("uniform variant requires b >= 2")
        self.space = space
        self.b = float(b)
        self.uniform = uniform

    def _phase_delta(self, T):
        if self.uniform:
            return float(T) ** (-1.0 / self.b)
        return float(T) ** (-1.0 / (self.b + 2.0))

    def _run(self):
        bet = self.space.canonical_least()
        i = 1
        rounds = 0
        while True:
            T = 2 ** i
            delta = self._phase_delta(T)
            queries, achieved, coarsened = _hitting_set(self.space, delta)
            phase = {"phase": i, "length": T, "start": rounds,
                     "delta": delta, "delta_achieved": achieved,
                     "coarsened": coarsened, "net_size": len(queries),
                     "bet": bet}
            self.info["phases"].append(phase)
            sums = [0.0] * len(queries)
            for _ in range(T):
                rewards = yield ExpertAction(bet, queries=queries)
                for j, v in enumerate(rewards):
                    sums[j] += v
                rounds += 1
            bet = _argmax_canonical(self.space, queries, sums)
            phase["best_guess"] = bet
            i += 1


def _argmax_canonical(space, points, sums):
    best = max(sums)
    winners = [p for p, s in zip(points, sums) if s >= best - 1e-12]
    return min(winners, key=space.canonical_key)


def naive_experts(space, b, uniform=False):
    return NaiveExperts(space, b, uniform=uniform)


class MaxMinLCDExperts(Session):
    """Phased full-feedback algorithm for spaces with a finite depth chain.

    Each phase selects the finest net of at most 2^sqrt(T) points, reads off
    sample averages, estimates the depth of the optimum through the depth
    oracle, excludes clearly suboptimal balls, and builds a small active set
    covering the surviving part of the estimated-depth level.  Bets come from
    the previous phase's best guess over its active set."""

    mode = "full"

    def __init__(self, space, b, uniform=False, active_cap=_ACTIVE_SET_CAP):
        super().__init__()
        if b <= 0:
            raise ValidationError("b must be positive")
        if uniform and b < 2:
            raise ValidationError("uniform variant requires b >= 2")
        if space.depth_structure is None:
            raise ValidationError("space needs a depth structure")
        self.space = space
        self.b = float(b)
        self.uniform = uniform
        self.active_cap = int(active_cap)

    def _phase_delta(self, T):
        if self.uniform:
            return float(T) ** (-1.0 / self.b)
        return float(T) ** (-1.0 / (self.b + 2.0))

    def _select_net(self, T):
        limit = 2.0 ** math.sqrt(T)
        floor = getattr(self.space, "scan_resolution", 0.0)
        chosen = None
        j = 0
        while True:
            if 0 < 2.0 ** -j < floor:
                # representation resolution reached before the size limit
                j, points, achieved, _ = chosen
                return j, points, achieved, True
            points, achieved, saturated = _net_for_radius(self.space, 2.0 ** -j)
            if len(points) > limit:
                if chosen is None:
                    return 0, points, achieved, True
                return chosen
            chosen = (j, points, achieved, False)
            if saturated:
                return j, points, achieved, True
            j += 1

    def _active_set(self, anchor, exclusion, delta, quota):
        active = []
        flagged = False
        balls = list(exclusion)
        while True:
            res = sp.cover_oracle(self.space, anchor, balls)
            if res.covered:
                break
            if len(active) >= quota:
                flagged = True
                break
            active.append(res.witness)
            balls.append(sp.Ball(res.witness, delta))
        return tuple(active), flagged

    def _run(self):
        bet = self.space.canonical_least()
        prev_active = ()
        i = 1
        rounds = 0
        while True:
            T = 2 ** i
            j, net, _achieved, net_flag = self._select_net(T)
            net = tuple(net)
            r = 2.0 ** -j
            delta = self._phase_delta(T)
            q_exponent = delta ** -self.b
            q_t = 2.0 ** q_exponent if q_exponent < 1023 else math.inf
            quota = self.active_cap if q_t > self.active_cap else int(q_t)
            net_set = set(net)
            queries = net + tuple(x for x in prev_active if x not in net_set)
            phase = {"phase": i, "length": T, "start": rounds, "j": j,
                     "r": r, "delta": delta, "Q_T": q_t, "quota": quota,
                     "quota_capped": q_t > self.active_cap,
                     "net_size": len(net), "net_flagged": net_flag,
                     "bet": bet, "active_in": list(prev_active)}
            self.info["phases"].append(phase)
            sums = {x: 0.0 for x in queries}
            for _ in range(T):
                rewards = yield ExpertAction(bet, queries=queries)
                for x, v in zip(queries, rewards):
                    sums[x] += v
                rounds += 1
            mu = {x: sums[x] / T for x in queries}
            mu_star = max(mu[x] for x in net)
            gap = {x: mu_star - mu[x] for x in net}
            r_t = math.sqrt(8.0 * math.log(T * len(net)) / T)
            candidate = [sp.Ball(x, r) for x in net if gap[x] < r]
            y_star = sp.depth_oracle(self.space, candidate)
            exclusion = [sp.Ball(x, r) for x in net
                         if gap[x] > 2.0 * (r_t + r)]
            active, active_flag = self._active_set(
                y_star, exclusion, delta, quota)
            pool = prev_active if prev_active else net
            bet = _argmax_canonical(
                self.space, pool, [sums[x] for x in pool])
            phase.update({"r_T": r_t, "depth_estimate": y_star,
                          "excluded": len(exclusion),
                          "active_out": list(active),
                          "active_truncated": active_flag,
                          "best_guess": bet})
            prev_active = active
            i += 1


def maxminlcd_experts(space, b, uniform=False, active_cap=_ACTIVE_SET_CAP):
    return MaxMinLCDExperts(space, b, uniform=uniform, active_cap=active_cap)
