"""Full-feedback and double-feedback algorithms.

Sessions follow the same choose()/observe() step API as the bandit sessions
and yield the same `bandits.Action`: a block of rounds with one bet and a
finite query list, one peek in double feedback, a whole net in full
feedback.  The algorithms are non-adaptive within a phase or sweep point,
so one action covers it.  Collected reward always comes from the bet alone.
"""

from __future__ import annotations

import itertools
import math

from . import spaces as sp
from .bandits import Action, ExplRun, Session
from .errors import ValidationError

_ACTIVE_SET_CAP = 4096


class DoubleFeedbackExpert(Session):
    """Phases of length 2^i; peeks run an exploration sweep with
    k = n = floor(sqrt(T)) and r = 4 sqrt(T^{1/4}/n); bets replay the
    previous phase's sweep output, so bets never depend on current peeks.
    Each sweep point is one action; so is the rest of the phase.  A space
    without a well-order is refused here, before any round."""

    name = "double_feedback_expert"
    mode = "double"

    def __init__(self, space):
        super().__init__()
        ExplRun.require(space)
        self.space = space

    def _run(self):
        bet = self.space.canonical_least()
        rounds = 0
        for i in itertools.count(1):
            T = 2 ** i
            k = max(1, math.floor(math.sqrt(T)))
            n = k
            r = 4.0 * math.sqrt(T ** 0.25 / n)
            sweep = ExplRun(self.space, k, n, r)
            cost = len(sweep.points) * n
            phase = {"phase": i, "length": T, "start": rounds,
                     "k": k, "n": n, "r": r, "bet": bet,
                     "explore_cost": cost, "completed": False}
            self.info["phases"].append(phase)
            next_bet = yield from sweep.run(
                lambda x, m: Action(bet, queries=(x,), rounds=m), T,
                lambda sums: float(sums[0]))
            phase["completed"] = True
            if cost < T:
                yield Action(bet, queries=(next_bet,), rounds=T - cost)
            rounds += T
            bet = next_bet


class _FullFeedback(Session):
    """Phases of length T = 2^i, each one action, at the scale
    delta = T^{-1/(b+2)} (uniform variant: T^{-1/b}, needs b >= 2)."""

    mode = "full"

    def __init__(self, space, b, uniform):
        super().__init__()
        if not math.isfinite(b):
            raise ValidationError(f"b must be a finite number, not {b!r}")
        if uniform and b < 2:
            raise ValidationError("uniform variant requires b >= 2")
        self.space = space
        self.b = float(b)
        self.uniform = uniform

    def _phase_delta(self, T):
        if self.uniform:
            return float(T) ** (-1.0 / self.b)
        return float(T) ** (-1.0 / (self.b + 2.0))


class NaiveExperts(_FullFeedback):
    """Each phase queries a fixed delta-hitting set and bets the previous
    phase's best sample average.  The hitting set comes from the covering
    oracle with a doubling budget; it coarsens (and is flagged) where the
    space cannot be covered that finely."""

    name = "naive_experts"

    def __init__(self, space, b, uniform=False):
        if b < 0:
            raise ValidationError("b must be nonnegative")
        super().__init__(space, b, uniform)

    def _run(self):
        bet = self.space.canonical_least()
        rounds = 0
        for i in itertools.count(1):
            T = 2 ** i
            delta = self._phase_delta(T)
            queries, achieved, coarsened = sp.net_for_radius(self.space, delta)
            queries = tuple(queries)
            phase = {"phase": i, "length": T, "start": rounds,
                     "delta": delta, "delta_achieved": achieved,
                     "coarsened": coarsened, "net_size": len(queries),
                     "bet": bet}
            self.info["phases"].append(phase)
            sums = yield Action(bet, queries=queries, rounds=T)
            rounds += T
            bet = _argmax_canonical(self.space, queries, sums.tolist())
            phase["best_guess"] = bet


def _argmax_canonical(space, points, sums):
    best = max(sums)
    winners = [p for p, s in zip(points, sums) if s >= best - 1e-12]
    return min(winners, key=space.canonical_key)


class MaxMinLCDExperts(_FullFeedback):
    """Phased full-feedback algorithm for spaces with a finite depth chain.

    Each phase selects the finest net of at most 2^sqrt(T) points, reads off
    sample averages, estimates the depth of the optimum through the depth
    oracle, excludes clearly suboptimal balls, and builds a small active set
    covering the surviving part of the estimated-depth level.  Bets come from
    the previous phase's best guess over its active set.  The active set is
    one scan of that level: each witness is the first scan point outside the
    excluded balls and the earlier witnesses' delta-balls."""

    name = "maxminlcd_experts"

    def __init__(self, space, b, uniform=False):
        if b <= 0:
            raise ValidationError("b must be positive")
        super().__init__(space, b, uniform)
        if space.depth_structure is None:
            raise ValidationError("space needs a depth structure")

    def _select_net(self, T):
        limit = 2.0 ** math.sqrt(T)
        floor = getattr(self.space, "scan_resolution", 0.0)
        chosen = None
        for j in itertools.count():
            if 0 < 2.0 ** -j < floor:
                # representation resolution reached before the size limit
                j, points, achieved, _ = chosen
                return j, points, achieved, True
            points, achieved, saturated = sp.net_for_radius(
                self.space, 2.0 ** -j)
            if len(points) > limit:
                if chosen is None:
                    return 0, points, achieved, True
                return chosen
            chosen = (j, points, achieved, False)
            if saturated:
                return j, points, achieved, True

    def _run(self):
        bet = self.space.canonical_least()
        prev_active = ()
        rounds = 0
        for i in itertools.count(1):
            T = 2 ** i
            j, net, _achieved, net_flag = self._select_net(T)
            net = tuple(net)
            r = 2.0 ** -j
            delta = self._phase_delta(T)
            q_exponent = delta ** -self.b
            q_t = 2.0 ** q_exponent if q_exponent < 1023 else math.inf
            quota = _ACTIVE_SET_CAP if q_t > _ACTIVE_SET_CAP else int(q_t)
            net_set = set(net)
            queries = net + tuple(x for x in prev_active if x not in net_set)
            phase = {"phase": i, "length": T, "start": rounds, "j": j,
                     "r": r, "delta": delta, "Q_T": q_t, "quota": quota,
                     "quota_capped": q_t > _ACTIVE_SET_CAP,
                     "net_size": len(net), "net_flagged": net_flag,
                     "bet": bet, "active_in": list(prev_active)}
            self.info["phases"].append(phase)
            # queries are distinct, so every sum belongs to one point
            feedback = yield Action(bet, queries=queries, rounds=T)
            sums = dict(zip(queries, feedback.tolist()))
            rounds += T
            mu = {x: sums[x] / T for x in queries}
            mu_star = max(mu[x] for x in net)
            gap = {x: mu_star - mu[x] for x in net}
            r_t = math.sqrt(8.0 * math.log(T * len(net)) / T)
            candidate = [sp.Ball(x, r) for x in net if gap[x] < r]
            y_star = sp.depth_oracle(self.space, candidate)
            exclusion = [sp.Ball(x, r) for x in net
                         if gap[x] > 2.0 * (r_t + r)]
            witnesses = sp.cover_witnesses(self.space, y_star, exclusion, delta)
            active = tuple(itertools.islice(witnesses, quota))
            active_flag = next(witnesses, None) is not None
            pool = prev_active if prev_active else net
            bet = _argmax_canonical(
                self.space, pool, [sums[x] for x in pool])
            phase.update({"r_T": r_t, "depth_estimate": y_star,
                          "excluded": len(exclusion),
                          "active_out": list(active),
                          "active_truncated": active_flag,
                          "best_guess": bet})
            prev_active = active
