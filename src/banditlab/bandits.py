"""Bandit-feedback algorithms.

All algorithms are exposed as sessions with a uniform step API:
choose() returns the next Action, observe(feedback) consumes the result.
An action may stand for a block of rounds in which the algorithm does not
adapt: a sweep point pulled n times, or a commit tail.  A UCB1 phase is
one action that plays its own rounds: its `play` picks each round's arm
and pulls it through the match's pulls.  Sessions are deterministic given
their RNG and replayable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import spaces as sp
from .errors import StructuralError, ValidationError

_POINT_BALL_RADIUS = 1e-15  # stands in for a closed ball of radius zero


@dataclass(frozen=True, slots=True)
class Action:
    """Bet `bet` and query every point of `queries` for `rounds` rounds in a
    row.  The session is then sent the feedback of those rounds, added in
    round order from 0.0: in bandit mode the bet's rewards, in experts mode
    the column sums of the query feedback as a float64 array.

    A bandit action with `play` plays its own rounds: the match calls
    play(pulls, t, n) for its rounds t..t+n-1, n at most `rounds` (which
    is math.inf for a phase without end), and sends the session what it
    returns.  In `pulls`, arm(x) is (pull, mean) of point x: pull is x's
    reward as a Python float (never an int or a numpy scalar) when it is
    constant, else the function of the round that returns it, and a pull
    is told apart by `pull.__class__ is float`.  Whoever pulls writes each
    round's reward, mean and bet into `rewards`, `means` and `bets` (None:
    not recorded); block(x, t, n, start) plays and records x in rounds
    t..t+n-1 and returns their rewards added in round order onto start.
    cycle(xs, t, n), asked only of points whose pulls are all constant,
    plays and records xs[i mod m] in round t + i of rounds t..t+n-1."""

    bet: object
    queries: tuple = ()
    rounds: int = 1
    play: object = None


class Session:
    """Generator-backed stepping state.  Subclasses implement _run() to
    return an infinite generator that yields Actions and receives feedback.
    An action may stand for a block of rounds."""

    mode = "bandit"

    def __init__(self):
        self._gen = None
        self._action = None
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

    def _cover(self, k):
        self.delta, points = sp.covering_oracle(self.space, k)
        return points

    def run(self, act, value=float):
        """The sweep as a generator: for every covering point x in order it
        yields act(x), an action of n rounds, and sets sums[x] to
        value(feedback), the round-order sum of x's n rewards; it returns
        result()."""
        for x in self.points:
            self.sums[x] = value((yield act(x)))
        return self.result()

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
        avg = self.averages()
        best = max(avg.values())
        undominated = [x for x in self.points if best - avg[x] <= 2.0 * self.r]
        if not undominated:
            return min(self.points, key=self.space.canonical_key)
        top_rank = max(self.rank_of[x] for x in undominated)
        winners = [x for x in undominated if self.rank_of[x] == top_rank]
        return min(winners, key=self.space.canonical_key)


# ---------------------------------------------------------------------------
# doubly exponential phases around an exploration sweep


_ALPHA_PRESETS = {
    # f(t) = alpha(t) log t; both presets are omega(log t) and monotone
    "log_power": lambda t, c=1.0: math.log(t) ** c,
    "loglog": lambda t, c=1.0: math.log(max(math.e, math.log(max(t, 2)))),
}


def _resolve_alpha(f):
    if callable(f):
        return f
    if isinstance(f, str):
        name, _, arg = f.partition(":")
        if name in _ALPHA_PRESETS:
            c = float(arg) if arg else 1.0
            if not math.isfinite(c):
                raise ValidationError(
                    f"exponent preset {f!r} needs a finite c")
            preset = _ALPHA_PRESETS[name]
            return lambda t: preset(t, c)
    raise ValidationError(f"unknown exponent preset {f!r}")


def _phase_params(T, alpha):
    log_t = math.log(T)
    try:
        g = alpha(T) * log_t
        k = max(1, math.floor(math.sqrt(g / log_t)))
    except OverflowError:
        raise ValidationError(
            f"exponent function overflows at phase length {T}") from None
    n = max(1, math.floor(k * log_t))
    r = 4.0 * math.sqrt(log_t / n)
    return k, n, r


class PhasedExplSession(Session):
    """Phases of length 2^(2^i); each phase explores with a fresh sweep and
    then plays the sweep's output.  If the phase ends before exploration
    completes, the previous commit point carries over.  The sweep ExplRun
    gives the well-ordered bandit; `CBBanditSession` sweeps with
    ExplPrimeRun.  Each sweep point is one action; so is the commit tail.
    `f` is an exponent preset name or a function of t."""

    name = "well_ordered_bandit"
    sweep_cls = ExplRun

    def __init__(self, space, f="log_power:1"):
        super().__init__()
        self.space = space
        self.alpha = _resolve_alpha(f)

    def _run(self):
        commit = self.space.canonical_least()
        rounds = 0
        for i in itertools.count(1):
            T = 2 ** (2 ** i)
            k, n, r = _phase_params(T, self.alpha)
            sweep = self.sweep_cls(self.space, k, n, r)
            cost = len(sweep.points) * n
            phase = {"phase": i, "length": T, "start": rounds,
                     "k": k, "n": n, "r": r, "explore_cost": cost,
                     "commit": commit, "completed": False}
            self.info["phases"].append(phase)
            if cost <= T:
                commit = yield from sweep.run(lambda x: Action(x, rounds=n))
                phase["commit"] = commit
                phase["completed"] = True
                if cost < T:
                    yield Action(commit, rounds=T - cost)
            else:
                # the phase ends mid-sweep: the last point it reaches gets
                # the rounds that are left, and no result is taken
                for x, start in zip(sweep.points, range(0, T, n)):
                    yield Action(x, rounds=min(n, T - start))
            rounds += T


class CBBanditSession(PhasedExplSession):
    name = "cb_bandit"
    sweep_cls = ExplPrimeRun


# ---------------------------------------------------------------------------
# UCB1 and the phased boundary algorithm


_MIN_BLOCK = 3  # a shorter block saves less than its proof costs


def _round_robin(pull, rounds):
    """Whether UCB1 over m arms with the pulls `pull` plays arm p mod m in
    each of its rounds p < rounds, as the index rule round by round would.
    Proven once, for every round, when every pull is one float c, bit for
    bit (0.0 and -0.0 differ), and K = ceil(rounds / m) bounds every count:

    (a) c = a / 2^e in lowest terms with bit_length(a) + bit_length(K + 1)
        <= 53, so every sum k c is exact and every average is exactly c;
    (b) an arm of count n then beats one of count n + 1 in round p: their
        indices c + sqrt(L / n) and c + sqrt(L / (n + 1)), L = 2 ln p,
        differ by g = sqrt(L) / (sqrt n sqrt(n + 1) (sqrt n + sqrt(n + 1)))
        in reals, and the float `/`, `sqrt` and `+` move them apart by less
        than 2^-50 (|c| + sqrt(L / n)).  g less that margin only shrinks
        as n grows or L falls, and `math.log` of an int is monotone, so it
        is checked, with twice the margin, at n = K and the L of the first
        compared round p = m (a single arm compares nothing).

    Ties then go to the lowest id, so each cycle plays the arms in order."""
    c = pull[0]
    if (any(p.__class__ is not float for p in pull)
            or len({p.hex() for p in pull}) > 1):
        return False
    m = len(pull)
    most = -(-rounds // m)
    root = math.sqrt(2.0 * math.log(max(m, 2)))
    low, high = math.sqrt(most), math.sqrt(most + 1)
    gap = root / (low * high * (low + high))
    # (b) first: it is false for an infinite or NaN c
    return (gap > 2.0 ** -49 * (abs(c) + root / low)
            and (c.as_integer_ratio()[0].bit_length()
                 + (most + 1).bit_length() <= 53))


def _ucb1(arms, pulls, t, rounds):
    """UCB1 over arms in rounds t..t+rounds-1 of a match, played through
    `pulls` (see `Action`).  Index rule: mean + sqrt(2 ln p / n_j), p the
    rounds the phase has played; each arm played once first; ties break to
    the lowest arm id.  Python floats beat numpy on the few arms of a net.
    Each arm's pull is resolved once: a round at a constant arm calls
    nothing, any other calls the arm's pull, and the loop writes the
    round's reward, mean and bet itself.

    When every arm pays one constant that `_round_robin` proves round
    robin for the whole phase, as on the plateau of a lower-bound
    instance, `pulls.cycle` writes the phase at once and no round runs.

    When the arm j of the last round wins again after p rounds, the next n
    rounds are one block if j provably wins each of them whatever its
    rewards: j's lowest index over them, with no reward added, must beat
    every other arm's highest, its bonus at p + n - 1.  Rewards in [0, 1]
    never lower a float sum, and `/`, `sqrt` and `math.log` of an int are
    monotone, so the proof holds bit for bit.  `pulls.block` plays the
    block and adds its rewards onto sums[j] as the rounds one by one would
    add them.  n starts at twice the last block and halves until the proof
    holds; after failed proofs the next 1, 3, 7, ... (at most 63) repeat
    wins try none.  Returns None."""
    m = len(arms)
    pull, mus = zip(*map(pulls.arm, arms))
    if _round_robin(pull, rounds):
        pulls.cycle(arms, t, rounds)
        return
    reward_out, mean_out, bets = pulls.rewards, pulls.means, pulls.bets
    counts = [0.0] * m
    sums = [0.0] * m
    averages = [0.0] * m  # sums[i] / counts[i], kept up to date
    log, sqrt = math.log, math.sqrt
    ids, no_index = range(m), -math.inf
    played, s = 0, t  # rounds played; the match round
    last, k = -1, _MIN_BLOCK  # the last round's arm; the next block tried
    skip = wait = 0
    while played < rounds:
        if played < m:
            j = played
        else:
            c = 2.0 * log(played)
            j, best = 0, no_index
            for i in ids:
                index = averages[i] + sqrt(c / counts[i])
                if index > best:
                    j, best = i, index
            if j == last:
                if skip:
                    skip -= 1
                else:
                    n = min(k, rounds - played)
                    c_end = 2.0 * log(played + n - 1)
                    low = sums[j] / (counts[j] + (n - 1))
                    low += sqrt(c / (counts[j] + (n - 1)))
                    for i in ids:
                        while i != j and n >= _MIN_BLOCK and not (
                                low > averages[i] + sqrt(c_end / counts[i])):
                            n //= 2
                            low = sums[j] / (counts[j] + (n - 1))
                            low += sqrt(c / (counts[j] + (n - 1)))
                    if n >= _MIN_BLOCK:
                        k, wait = 2 * n, 0
                        sums[j] = pulls.block(arms[j], s, n, sums[j])
                        counts[j] += n
                        averages[j] = sums[j] / counts[j]
                        played += n
                        s += n
                        continue
                    k = _MIN_BLOCK
                    skip = wait = min(2 * wait + 1, 63)
        reward = pull[j]
        if reward.__class__ is not float:
            reward = reward(s)
        reward_out[s] = reward
        mean_out[s] = mus[j]
        if bets is not None:
            bets.append(arms[j])
        counts[j] += 1.0
        sums[j] += reward
        averages[j] = sums[j] / counts[j]
        played += 1
        s += 1
        last = j


class UCB1Session(Session):
    """UCB1 over a fixed list of the space's points, without end: one
    phase action.  Arms given as lists are tree-space leaves (tuples)."""

    name = "ucb1"

    def __init__(self, space, arms):
        super().__init__()
        try:
            self.arms = [tuple(x) if isinstance(x, list) else x for x in arms]
            for x in self.arms:
                space.validate_point(x)
        except (StructuralError, TypeError) as exc:
            raise ValidationError(f"field 'arms': {exc}") from None
        if not self.arms:
            raise ValidationError("field 'arms' needs at least one arm")

    def _run(self):
        yield Action(None, rounds=math.inf,
                     play=functools.partial(_ucb1, self.arms))


def _tstar(n_balls, eps):
    return 2.0 * n_balls / eps ** 2 * math.log(n_balls / eps ** 2)


class PhasedUCB1Session(Session):
    """Per-phase covering at radius 2^-k with a fresh UCB1 over the net
    centers, one action per phase; phase lengths follow t_k = max(t*_k,
    t*_{k+1}, 2 sum of earlier lengths) with t*_k = 2 N_k/eps_k^2
    log(N_k/eps_k^2), so every phase is long enough for its own net and
    the next one."""

    name = "phased_ucb1"

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
                net, _delta, saturated = sp.net_for_radius(self.space, eps)
                next_net, *_ = sp.net_for_radius(self.space, eps / 2.0)
            else:
                next_net = net
            tstar_k = _tstar(len(net), eps)
            tstar_next = _tstar(len(next_net), eps / 2.0)
            t_k = math.ceil(max(tstar_k, tstar_next, 2.0 * sum(lengths)))
            phase = {"phase": k, "eps": eps, "net_size": len(net),
                     "length": t_k, "start": rounds, "tstar": tstar_k,
                     "saturated": saturated}
            self.info["phases"].append(phase)
            yield Action(None, rounds=t_k, play=functools.partial(_ucb1, net))
            rounds += t_k
            lengths.append(t_k)
            phase["s_k"] = rounds
            k += 1


# ---------------------------------------------------------------------------
# completion adapter


def dyadic_rounding(levels):
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
    observed reward, preserving its expectation.  Every inner action, a
    block of one point or a phase that plays itself, is one adapter action
    that `_Rerandomized` plays, and the inner session is sent its bits
    added in round order.  `rounding` is "identity", "dyadic" (20 levels)
    or "dyadic:<levels>", at most 1023 levels: x * 2^1024 overflows a
    float."""

    name = "completion_adapter"

    def __init__(self, inner, rng, rounding="dyadic"):
        super().__init__()
        if inner.mode != "bandit":
            raise ValidationError(
                f"'inner' must run in bandit mode, not {inner.mode!r}")
        kind, _, levels = str(rounding).partition(":")
        levels = levels or "20"
        if rounding == "identity":
            self.rounding = identity_rounding
        elif kind == "dyadic" and levels.isdecimal() and int(levels) <= 1023:
            self.rounding = dyadic_rounding(int(levels))
        else:
            raise ValidationError(f"unknown 'rounding' {rounding!r} (dyadic "
                                  "levels go up to 1023)")
        self.inner = inner
        self.rng = rng
        self.info = inner.info

    def _run(self):
        while True:
            action = self.inner.choose()
            bits = yield Action(None, rounds=action.rounds, play=_Rerandomized(
                action, self.rounding, self.rng))
            self.inner.observe(bits)

    def close(self):
        super().close()
        self.inner.close()


class _Dropped:
    """A sequence that drops what is written to it."""

    def __setitem__(self, index, value):
        pass


class _Rerandomized:
    """The `play` of an adapter action, and the pulls of its inner action:
    play(pulls, t, n) plays rounds t..t+n-1 of a block of the inner bet,
    or of an inner phase through these pulls.  Round t of the match is the
    adapter's round t + 1, as the adapter plays every round from the first:
    arm x plays the rounded point through the match's pulls, which record
    the round, and returns a 0/1 bit with the reward's expectation.  What
    an inner phase records itself is dropped."""

    rewards = means = _Dropped()
    bets = None

    def __init__(self, action, rounding, rng):
        self.action, self.rounding, self.rng = action, rounding, rng

    def __call__(self, pulls, t, n):
        self.pulls = pulls
        if self.action.play is None:
            return self.block(self.action.bet, t, n, 0.0)
        return self.action.play(self, t, n)

    def arm(self, x):
        return (lambda t: self.block(x, t, 1, 0.0)), 0.0

    def block(self, x, t, n, start):
        for s in range(t, t + n):
            reward = self.pulls.block(self.rounding(x, s + 1), s, 1, 0.0)
            start += 1.0 if self.rng.random() < reward else 0.0
        return start
