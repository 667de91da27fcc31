"""Bandit-feedback algorithms.

All algorithms are exposed as sessions with a uniform step API:
choose() returns the next action, observe(feedback) consumes the result.
Sessions are deterministic given their RNG and replayable.
"""

from __future__ import annotations

import math

from . import spaces as sp
from .errors import ValidationError

_POINT_BALL_RADIUS = 1e-15  # stands in for a closed ball of radius zero


class Session:
    """Generator-backed stepping state.  Subclasses implement _run() as an
    infinite generator that yields actions and receives feedback.  An
    experts action may stand for a block of rounds, so `t` counts observe()
    calls, not rounds."""

    mode = "bandit"

    def __init__(self):
        self._gen = None
        self._action = None
        self.t = 0
        self.info = {"phases": []}

    def _run(self):
        raise NotImplementedError

    def choose(self):
        if self._gen is None:
            self._gen = self._run()
            self._action = next(self._gen)
        return self._action

    def observe(self, feedback):
        if self._gen is None:
            raise ValidationError("observe() before choose()")
        self.t += 1
        self._action = self._gen.send(feedback)

    def close(self):
        """End the generator; its frame refers back to the session, so a
        finished session would otherwise wait for the cycle collector."""
        if self._gen is not None:
            self._gen.close()
            self._gen = None


# ---------------------------------------------------------------------------
# uniform exploration with the loser rule


class ExplRun:
    """Bookkeeping for one exploration sweep: pull every point of a covering
    set n times, drop losers, ask the ordering oracle about the rest."""

    def __init__(self, space, k, n, r):
        if k < 1 or n < 1 or r <= 0:
            raise ValidationError("need k, n >= 1 and r > 0")
        self.space = space
        self.n = n
        self.r = r
        self.points = self._cover(k)
        self.sums = {x: 0.0 for x in self.points}
        self.queue = [x for x in self.points for _ in range(n)]
        self.pos = 0

    def _cover(self, k):
        self.delta, points = sp.covering_oracle(self.space, k)
        return points

    @property
    def finished(self):
        return self.pos >= len(self.queue)

    def next_point(self):
        return self.queue[self.pos]

    def record(self, reward, count=1):
        """Add the summed reward of the next `count` pulls, all of the
        current point; the sums start at 0.0, so a block sum is exact."""
        self.sums[self.queue[self.pos]] += reward
        self.pos += count

    def averages(self):
        return {x: self.sums[x] / self.n for x in self.points}

    def result(self):
        avg = self.averages()
        best = max(avg.values())
        threshold = 2.0 * self.r + self.delta
        non_losers = [x for x in self.points if best - avg[x] <= threshold]
        radius = self.delta if self.delta > 0 else _POINT_BALL_RADIUS
        balls = [sp.Ball(x, radius) for x in non_losers]
        return sp.ordering_oracle(self.space, balls)


class ExplPrimeRun(ExplRun):
    """Rank-stratified exploration: covers every Cantor-Bendixson rank class,
    pulls each point n times, and picks the largest-rank undominated point."""

    def _cover(self, k):
        self.rank_of = {}
        for rank in range(sp.cb_rank(self.space) + 1):
            _delta, pts = sp.rank_covering_oracle(self.space, rank, k)
            for x in pts:
                self.rank_of[x] = rank
        return sorted(self.rank_of, key=self.space.canonical_key)

    def result(self):
        avg = {x: self.sums[x] / self.n for x in self.points}
        best = max(avg.values())
        undominated = [x for x in self.points if best - avg[x] <= 2.0 * self.r]
        if not undominated:
            return min(self.points, key=self.space.canonical_key)
        top_rank = max(self.rank_of[x] for x in undominated)
        winners = [x for x in undominated if self.rank_of[x] == top_rank]
        return min(winners, key=self.space.canonical_key)


def expl(space, k, n, r, pull, sweep_cls=ExplRun):
    """Functional front-end: runs the sweep to completion via the callback."""
    run = sweep_cls(space, k, n, r)
    while not run.finished:
        x = run.next_point()
        run.record(pull(x))
    return run.result()


# ---------------------------------------------------------------------------
# doubly exponential phases around an exploration sweep


_ALPHA_PRESETS = {
    # f(t) = alpha(t) log t; both presets are omega(log t) and monotone
    "log_power": lambda t, c=1.0: math.log(t) ** c,
    "loglog": lambda t, c=1.0: math.log(max(math.e, math.log(max(t, 2)))),
}


def _resolve_alpha(f_exponent_fn):
    if callable(f_exponent_fn):
        return f_exponent_fn
    if isinstance(f_exponent_fn, str):
        name, _, arg = f_exponent_fn.partition(":")
        if name in _ALPHA_PRESETS:
            c = float(arg) if arg else 1.0
            preset = _ALPHA_PRESETS[name]
            return lambda t: preset(t, c)
    raise ValidationError(f"unknown exponent preset {f_exponent_fn!r}")


def _phase_params(T, alpha):
    log_t = math.log(T)
    g = alpha(T) * log_t
    k = max(1, math.floor(math.sqrt(g / log_t)))
    n = max(1, math.floor(k * log_t))
    r = 4.0 * math.sqrt(log_t / n)
    return k, n, r


class PhasedExplSession(Session):
    """Phases of length 2^(2^i); each phase explores with a fresh sweep and
    then plays the sweep's output.  If the phase ends before exploration
    completes, the previous commit point carries over.  The sweep ExplRun
    gives the well-ordered bandit; ExplPrimeRun gives the CB-rank bandit."""

    def __init__(self, space, f_exponent_fn="log_power:1", sweep_cls=ExplRun):
        super().__init__()
        self.space = space
        self.alpha = _resolve_alpha(f_exponent_fn)
        self.sweep_cls = sweep_cls

    def _run(self):
        commit = self.space.canonical_least()
        i = 1
        rounds = 0
        while True:
            T = 2 ** (2 ** i)
            k, n, r = _phase_params(T, self.alpha)
            sweep = self.sweep_cls(self.space, k, n, r)
            phase = {"phase": i, "length": T, "start": rounds,
                     "k": k, "n": n, "r": r,
                     "explore_cost": len(sweep.queue),
                     "commit": commit, "completed": False}
            self.info["phases"].append(phase)
            for _ in range(T):
                if not sweep.finished:
                    reward = yield sweep.next_point()
                    sweep.record(reward)
                    if sweep.finished:
                        commit = sweep.result()
                        phase["commit"] = commit
                        phase["completed"] = True
                else:
                    yield commit
                rounds += 1
            i += 1


# ---------------------------------------------------------------------------
# UCB1 and the phased boundary algorithm


def _ucb1(arms, rounds):
    """UCB1 over arms for `rounds` rounds (None: without end).  Index rule:
    mean + sqrt(2 ln t / n_j); each arm played once first; ties break to the
    lowest arm id.  Python floats beat numpy on the few arms of a net."""
    m = len(arms)
    counts = [0.0] * m
    sums = [0.0] * m
    played = 0
    while rounds is None or played < rounds:
        if played < m:
            j = played
        else:
            c = 2.0 * math.log(played)
            j, best = 0, -math.inf
            for i in range(m):
                index = sums[i] / counts[i] + math.sqrt(c / counts[i])
                if index > best:
                    j, best = i, index
        reward = yield arms[j]
        counts[j] += 1
        sums[j] += reward
        played += 1


class UCB1Session(Session):
    """UCB1 over a fixed arm list, without end."""

    def __init__(self, arms):
        super().__init__()
        if len(arms) < 1:
            raise ValidationError("need at least one arm")
        self.arms = list(arms)

    def _run(self):
        yield from _ucb1(self.arms, None)


def _net_for_radius(space, radius, k=1, max_budget=2 ** 20):
    """Smallest doubling budget from k whose covering has delta <= radius;
    returns (points, delta, saturated_flag, budget).  A budget that failed at
    some radius also fails at any smaller one, so a search over shrinking
    radii may restart from the budget the previous search stopped at."""
    while True:
        delta, points = sp.covering_oracle(space, k)
        if delta <= radius + 1e-12:
            # delta 0 means the net is the whole space and cannot refine
            return points, delta, delta <= 0.0, k
        if len(points) < k or 2 * k > max_budget:
            # covering stopped growing: the space cannot be covered finer
            return points, delta, True, k
        k *= 2


def _tstar(n_balls, eps):
    return 2.0 * n_balls / eps ** 2 * math.log(n_balls / eps ** 2)


class PhasedUCB1Session(Session):
    """Per-phase covering at radius 2^-k with a fresh UCB1 over the net
    centers; phase lengths follow t_k = max(t*_k, t*_{k+1}, 2 sum of earlier
    lengths) with t*_k = 2 N_k/eps_k^2 log(N_k/eps_k^2), so every phase is
    long enough for its own net and the next one."""

    def __init__(self, space):
        super().__init__()
        self.space = space

    def _run(self):
        lengths = []
        rounds = 0
        k = 1
        saturated = False
        net = None
        while True:
            eps = 2.0 ** -k
            if not saturated:
                net, _delta, saturated, _k = _net_for_radius(self.space, eps)
                next_net, *_ = _net_for_radius(self.space, eps / 2.0)
            else:
                next_net = net
            tstar_k = _tstar(len(net), eps)
            tstar_next = _tstar(len(next_net), eps / 2.0)
            t_k = math.ceil(max(tstar_k, tstar_next, 2.0 * sum(lengths)))
            phase = {"phase": k, "eps": eps, "net_size": len(net),
                     "length": t_k, "start": rounds, "tstar": tstar_k,
                     "saturated": saturated}
            self.info["phases"].append(phase)
            yield from _ucb1(net, t_k)
            rounds += t_k
            lengths.append(t_k)
            phase["s_k"] = rounds
            k += 1


# ---------------------------------------------------------------------------
# completion adapter


def dyadic_rounding(levels=20):
    """Round to the 2^-min(t, levels) grid; within 2^-t of the input for
    t <= levels, then stalls at the finest representable grid."""

    def rounding(x, t):
        m = min(t, levels)
        scale = 2 ** m
        return round(x * scale) / scale

    return rounding


def identity_rounding(x, t):
    return x


class CompletionAdapterSession(Session):
    """Plays a nearby representable point in place of the inner session's
    choice and feeds the inner session a 0/1 re-randomization of the
    observed reward, preserving its expectation."""

    def __init__(self, inner, dense_rounding, rng):
        super().__init__()
        self.inner = inner
        self.rounding = dense_rounding
        self.rng = rng
        self.info = inner.info

    def choose(self):
        y = self.inner.choose()
        return self.rounding(y, self.t + 1)

    def observe(self, reward):
        bit = 1.0 if self.rng.random() < reward else 0.0
        self.inner.observe(bit)
        self.t += 1

    def close(self):
        self.inner.close()
