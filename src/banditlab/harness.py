"""Experiment orchestration: matches, replicates, exponent fits, exports.

A run is fully determined by (config, seed): instance noise comes from the
stream [seed, 0] and algorithm randomness from [seed, 1], so the same seed
exposes identical noise to every algorithm.  Every session yields Actions,
blocks of rounds, and one loop plays each, in every mode, through
`bandits.play` and the match's `_Pulls`.  Every draw of a match reads the
next uniforms of one `_Uniforms` over the noise stream, and the match's
end rewinds it to where draws one by one leave it.  `_Pulls` resolves
each point's pull once per match: a Bernoulli pull reads one uniform, a
block of 32 rounds or more compares its rounds' uniforms with the mean in
numpy, a sign-mixture pull reads one per drawn sign, and a pull that
draws nothing is a constant.  A UCB1 phase is one action that plays its
own rounds through the pulls, or writes them at once when all its arms
pay one constant that UCB1 provably plays round robin.  `_RoundSampler`
samples an experts block in numpy, one matrix-vector product per
distinct sign row.  Bernoulli query sums are integer counts, exact in any
order, so each chunk adds its column totals; sign-mixture and noise-free
sums keep the round-order accumulate.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import json
import math
import operator
import os
from array import array
from dataclasses import dataclass, field

import numpy as np
# loaded here, before a replicate pool forks, not in every worker
from numpy.random import default_rng

from . import bandits, experts, instances, spaces as sp
from .errors import ValidationError, build, count, known, required


# ---------------------------------------------------------------------------
# traces


@dataclass
class RegretTrace:
    algorithm: str
    instance: str
    seed: int
    horizon: int
    mu_star: float
    rewards: np.ndarray
    means: np.ndarray
    actions: list | None = None
    info: dict = field(default_factory=dict)

    @functools.cached_property
    def cum_regret(self):
        """Realized regret after each round, computed when first read, so a
        trace a pool worker sends back carries only its rewards and means."""
        return self.mu_star * np.arange(1, self.horizon + 1) - np.cumsum(
            self.rewards)

    def checkpoints(self):
        """Round indices 2^0, 2^1, ..., capped at the horizon."""
        return [2 ** j for j in range(int(math.log2(self.horizon)) + 1)]

    def checkpoint_series(self):
        ts = np.array(self.checkpoints(), dtype=float)
        rs = np.array([self.cum_regret[t - 1] for t in self.checkpoints()])
        return ts, rs

    def cum_pseudo_regret(self):
        """Regret against expected (not realized) rewards of the choices."""
        t = np.arange(1, self.horizon + 1)
        return self.mu_star * t - np.cumsum(self.means)

    def to_payload(self):
        return {
            "algorithm": self.algorithm,
            "instance": self.instance,
            "seed": self.seed,
            "horizon": self.horizon,
            "mu_star": float(self.mu_star).hex(),
            "rewards": _hex_list(self.rewards),
            "means": _hex_list(self.means),
        }

    @staticmethod
    def from_payload(d):
        algorithm, instance, seed, horizon, mu_star, rewards, means = (
            required(d, key, "trace") for key in (
                "algorithm", "instance", "seed", "horizon", "mu_star",
                "rewards", "means"))
        for key, value in (("rewards", rewards), ("means", means)):
            if not isinstance(value, list):
                raise ValidationError(
                    f"trace field {key!r} must be a list, not {value!r:.40}")
        seed = count(seed, "trace field 'seed'", 0)
        horizon = count(horizon, "trace field 'horizon'")
        try:
            mu_star = float.fromhex(mu_star)
            # each distinct hex string is decoded once
            rewards, means = (
                np.fromiter(map({h: float.fromhex(h) for h in set(v)}
                                .__getitem__, v), float, len(v))
                for v in (rewards, means))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad hex float in trace: {exc}") from None
        if not len(rewards) == len(means) == horizon:
            raise ValidationError(
                "trace 'rewards' and 'means' must hold 'horizon' values")
        return RegretTrace(algorithm, instance, seed, horizon, mu_star,
                           rewards, means)


def _hex_list(a):
    """[float(v).hex() for v in a], hexing each distinct bit pattern once."""
    bits, inverse = np.unique(np.asarray(a, dtype=float).view(np.int64),
                              return_inverse=True)
    hexes = np.array([float(v).hex() for v in bits.view(float)], dtype=object)
    return hexes[inverse].tolist()


# ---------------------------------------------------------------------------
# algorithm registry


_ALGORITHMS = {cls.name: cls for cls in (
    bandits.UCB1Session, bandits.PhasedExplSession, bandits.CBBanditSession,
    bandits.PhasedUCB1Session, bandits.CompletionAdapterSession,
    experts.DoubleFeedbackExpert, experts.NaiveExperts,
    experts.MaxMinLCDExperts)}


def build_algorithm(descriptor, space, rng):
    """The session an algorithm descriptor describes: its constructor's
    signature is the schema.  `space` and `rng` come from the match, to the
    constructors that take them, so a descriptor may set neither; `inner`
    is itself an algorithm descriptor."""
    name = required(descriptor, "name", "algorithm")
    if not isinstance(name, str) or name not in _ALGORITHMS:
        raise ValidationError(f"unknown algorithm {name!r}")
    cls = _ALGORITHMS[name]
    where = f"algorithm {name!r}"
    fields = {k: v for k, v in descriptor.items() if k != "name"}
    params = inspect.signature(cls).parameters
    match = {"space": space, "rng": rng}
    known(fields, params.keys() - match.keys(), where)
    fields.update((k, v) for k, v in match.items() if k in params)
    if "inner" in fields:
        fields["inner"] = build_algorithm(fields["inner"], space, rng)
    return build(cls, fields, where)


# ---------------------------------------------------------------------------
# feedback sampling: the noise stream, experts blocks and bandit pulls

_UNIFORM_CHUNK = 1024  # uniforms drawn at once for the reads one by one


class _Uniforms:
    """The noise stream of one match, read in order by all its draws:
    next() returns the next uniform as a Python float, take(n) the next n
    as an array, and rewind() steps the generator back over those drawn
    for next() but not read.  PCG64 uniforms run on across calls and
    shapes: rng.random(n) is the stream of n single draws."""

    def __init__(self, rng):
        self.rng = rng
        self._current = [iter(()), np.empty(0)]  # a chunk's unread; its array
        # a C-level call per uniform: chain reads each chunk's list iterator
        self.next = itertools.chain.from_iterable(
            self._chunks(rng, self._current)).__next__

    @staticmethod
    def _chunks(rng, current):
        """Iterators over `_UNIFORM_CHUNK` new uniforms, each kept with its
        array as `current`; holding no `_Uniforms`, it makes no cycle."""
        while True:
            u = rng.random(_UNIFORM_CHUNK)
            current[:] = iter(u.tolist()), u
            yield current[0]

    def take(self, n):
        unread, u = self._current
        left = operator.length_hint(unread)
        if n > left:
            self.rewind()
            return self.rng.random(n)
        next(itertools.islice(unread, n, n), None)  # read them off it too
        return u[len(u) - left:len(u) - left + n]

    def rewind(self):
        unread = self._current[0]
        left = operator.length_hint(unread)
        if left:
            # PCG64 advances modulo 2^128
            self.rng.bit_generator.advance(-left % (1 << 128))
            next(itertools.islice(unread, left, left), None)


_CHUNK_CELLS = 2 ** 16  # bounds one draw's memory, whatever the block length


class _RoundSampler:
    """Vectorized feedback for a query tuple plus a bet over a block of
    coherent rounds: every round samples all points from one draw of the
    match's `_Uniforms`."""

    def __init__(self, instance, uniforms):
        self.instance = instance
        self.uniforms = uniforms

    def _prepare(self, points):
        """("signs", term matrix, sign probabilities or None) for sign
        mixtures, otherwise ("mean", mean vector, None)."""
        if not self.instance.uniformly_lipschitz:
            return "mean", self.instance.mean_vector(points), None
        bias, index, value = self.instance.term_table(points)
        matrix = np.zeros((len(points), len(bias) + 1))
        np.put_along_axis(matrix, index, value, axis=1)
        # the gemv reads a C-contiguous matrix without the padding's column
        return ("signs", matrix[:, :-1].copy(),
                (1.0 + bias) / 2.0 if len(bias) else None)

    def _block(self, tag, a, b, c):
        """Feedback of c rounds, one row per round, in a new array."""
        if tag == "signs":
            if b is None:
                return np.full((c, a.shape[0]), 0.5)
            drawn = self.uniforms.take(c * len(b)).reshape(c, -1) < b
            # rounds with equal signs share one matrix-vector product, the
            # one each round would run, so every round keeps its bits
            packed = np.packbits(drawn, axis=1)
            order = np.lexsort(packed.T)
            first = np.ones(c, dtype=bool)
            np.any(packed[order[1:]] != packed[order[:-1]], axis=1,
                   out=first[1:])
            group = np.empty(c, dtype=np.intp)
            group[order] = np.cumsum(first) - 1
            signs = np.where(drawn[order[first]], 1.0, -1.0)
            return np.array([0.5 + a @ s for s in signs])[group]
        if self.instance.noise == "none":
            return np.tile(a, (c, 1))
        # c rounds of m uniforms are the next c * m; the 0/1 outcomes
        # overwrite the draw in place
        u = self.uniforms.take(c * len(a)).reshape(c, -1)
        return np.less(u, a, out=u, casting="unsafe")

    def rewards(self, queries, bet, rounds):
        """(column sums of the query feedback, bet-reward array) over
        `rounds` rounds.  Bernoulli sums are integer counts, exact in any
        order; sign and noise-free sums are added in round order."""
        tag, a, b = self._prepare(list(queries) + [bet])
        counts = tag == "mean" and self.instance.noise != "none"
        chunk = max(1, _CHUNK_CELLS // max(a.shape))
        sums = np.zeros(len(queries))
        bet_rewards = np.empty(rounds)
        for start in range(0, rounds, chunk):
            values = self._block(tag, a, b, min(chunk, rounds - start))
            bet_rewards[start:start + len(values)] = values[:, -1]
            block = values[:, :-1]
            if counts:
                # 0/1 outcomes: every partial sum is an integer below 2^53
                sums += block.sum(axis=0)
            else:
                # with the running sums in the first row (x + y == y + x),
                # the row-by-row accumulate adds each column in round order
                block[0] += sums
                sums = np.add.accumulate(block, axis=0, out=block)[-1].copy()
        return sums, bet_rewards


_NUMPY_BLOCK = 32  # a bandit block this long costs less in numpy than pulled


class _Pulls:
    """The pulls of one match, the `pulls` of `bandits.Action`: the rewards
    of `bandit_reward(x, rng)` drawn from the match's `_Uniforms`, written
    with the means into the match's arrays through memoryviews, which
    store a Python float without a numpy scalar.  arm(x) resolves x's
    (pull, mean) once per match, reading no uniform, the mean as a Python
    float: the pull is x's reward in every round as a float when x draws
    nothing (noise "none", or a sign row without a drawn sign), else the
    function of round t that returns it.  block() plays one arm's rounds,
    a Bernoulli block of `_NUMPY_BLOCK` rounds or more in numpy; cycle()
    writes a round robin of constant pulls as array repeats; experts()
    samples an experts block with the match's `_RoundSampler`."""

    def __init__(self, instance, uniforms, rewards, means, bets):
        self.rewards, self.means = memoryview(rewards), memoryview(means)
        self.bets = bets
        self._mean = instance.mean
        self._arms = {}
        self._sampler = _RoundSampler(instance, uniforms)
        uniform = uniforms.next
        self._uniforms = None  # the stream of Bernoulli numpy blocks
        if instance.uniformly_lipschitz:
            self._pull_of = _sign_pulls(instance, uniform)
        elif instance.noise == "none":
            self._pull_of = lambda _x, mu: mu
        else:
            self._uniforms = uniforms
            self._pull_of = (
                lambda _x, mu: lambda _t: 1.0 if uniform() < mu else 0.0)

    def arm(self, x):
        entry = self._arms.get(x)
        if entry is None:
            # an int or a numpy scalar would not read as a constant pull
            mu = float(self._mean(x))
            pull = self._pull_of(x, mu)
            entry = self._arms[x] = (
                pull if callable(pull) else float(pull), mu)
        return entry

    def block(self, x, t, n, start):
        pull, mu = self.arm(x)
        if self.bets is not None:
            self.bets.extend([x] * n)
        if n >= _NUMPY_BLOCK and self._uniforms is not None:
            rewards = self.rewards.obj[t:t + n]  # the memoryview's array
            np.less(self._uniforms.take(n), mu, out=rewards, casting="unsafe")
            self.means.obj[t:t + n] = mu
            sums = np.concatenate(([start], rewards))
            return float(np.add.accumulate(sums, out=sums)[-1])
        reward_out, mean_out = self.rewards, self.means
        for s in range(t, t + n):
            reward_out[s] = reward = (
                pull if pull.__class__ is float else pull(s))
            mean_out[s] = mu
            start += reward
        return start

    def cycle(self, xs, t, n):
        pull, mus = zip(*map(self.arm, xs))
        laps = -(-n // len(xs))
        self.rewards[t:t + n] = (array("d", pull) * laps)[:n]
        self.means[t:t + n] = (array("d", mus) * laps)[:n]
        if self.bets is not None:
            self.bets.extend((list(xs) * laps)[:n])

    def experts(self, bet, queries, t, n):
        sums, self.rewards.obj[t:t + n] = self._sampler.rewards(
            queries, bet, n)
        self.means.obj[t:t + n] = self.arm(bet)[1]
        if self.bets is not None:
            self.bets.extend([bet] * n)
        return sums


def _sign_pulls(instance, uniform):
    """pull_of(x, mu) of a sign mixture: x's pull adds its (value, p) row
    to 1/2 in walk order, p the chance of a +1 sign, or None for a sign
    that is always +1.  Each p draws its sign with the next uniform(); a
    row without p reads none and is a constant."""

    def pull_of(x, _mu):
        row = tuple((value, (1.0 + bias) / 2.0 if bias < 1.0 else None)
                    for _key, value, bias in instance.active_terms(x))

        def pull(_t):
            total = 0.5
            for value, p in row:
                if p is not None and not uniform() < p:
                    value = -value
                total += value
            return total

        return pull if any(p is not None for _value, p in row) else pull(0)

    return pull_of


# ---------------------------------------------------------------------------
# match running


@dataclass
class ExperimentConfig:
    space: dict
    instance: dict
    algorithm: dict
    horizon: int
    seed: int = 0
    mode: str | None = None
    record_actions: bool = False

    def __post_init__(self):
        count(self.horizon, "config field 'horizon'")
        count(self.seed, "config field 'seed'", 0)

    @staticmethod
    def from_dict(d):
        return build(ExperimentConfig, d, "config")


def _materialize(config, seed):
    instance = instances.instance_from_descriptor(config.instance)
    space = instance.space
    if sp.space_from_descriptor(config.space).descriptor() != space.descriptor():
        raise ValidationError(
            "config field 'space' differs from the instance's 'space'")
    inst_rng = default_rng([seed, 0])
    alg_rng = default_rng([seed, 1])
    session = build_algorithm(config.algorithm, space, alg_rng)
    if config.mode is not None and config.mode != session.mode:
        raise ValidationError(
            f"config mode {config.mode!r} but algorithm runs {session.mode!r}")
    return instance, session, inst_rng


def run_match(config, seed=None):
    seed = count(config.seed if seed is None else seed, "match 'seed'", 0)
    instance, session, inst_rng = _materialize(config, seed)
    horizon = config.horizon
    try:
        rewards, means = np.empty(horizon), np.empty(horizon)
    except (ValueError, MemoryError):
        raise ValidationError(
            f"config field 'horizon' is too large to allocate: {horizon}"
        ) from None
    actions = [] if config.record_actions else None
    uniforms = _Uniforms(inst_rng)
    pulls = _Pulls(instance, uniforms, rewards, means, actions)
    try:
        t = 0
        while t < horizon:
            action = session.choose()
            n = min(action.rounds, horizon - t)
            feedback = bandits.play(action, pulls, t, n)
            t += n
            # a block cut by the horizon is not observed; one that ends at
            # it is, which records the session's next phase in info
            if n == action.rounds:
                session.observe(feedback)
        uniforms.rewind()
    finally:
        session.close()
    return RegretTrace(
        algorithm=config.algorithm.get("name", "unknown"),
        instance=config.instance.get("kind", "unknown"),
        seed=seed, horizon=horizon, mu_star=instance.mu_star,
        rewards=rewards, means=means, actions=actions, info=dict(session.info))


# ---------------------------------------------------------------------------
# replicates


@dataclass
class Aggregate:
    checkpoints: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    q10: np.ndarray
    q90: np.ndarray
    n: int

    def checkpoint_series(self):
        return self.checkpoints.astype(float), self.mean


def aggregate_traces(traces):
    if not traces:
        raise ValidationError("no traces to aggregate")
    horizons = sorted({tr.horizon for tr in traces})
    if len(horizons) > 1:
        raise ValidationError(f"traces have mixed horizons {horizons}")
    cps = traces[0].checkpoints()
    rows = np.array([[tr.cum_regret[t - 1] for t in cps] for tr in traces])
    return Aggregate(
        checkpoints=np.array(cps), mean=rows.mean(axis=0),
        lo=rows.min(axis=0), hi=rows.max(axis=0),
        q10=np.quantile(rows, 0.1, axis=0),
        q90=np.quantile(rows, 0.9, axis=0), n=len(traces))


def run_replicates(config, seeds, parallelism=1):
    """One trace per seed plus checkpoint aggregates; results, and the
    error of the first failing seed, are the same for any parallelism
    degree.  The pool starts no more workers than seeds or CPUs."""
    # checked before any pool starts; None would read as the config's seed
    seeds = [count(s, "replicate 'seed'", 0) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValidationError("replicate seeds must be distinct")
    workers = min(count(parallelism, "'parallelism'"), len(seeds),
                  os.cpu_count() or 1)
    if workers <= 1:
        traces = [run_match(config, s) for s in seeds]
    else:
        # multiprocessing loads only when a pool starts
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_match, [config] * len(seeds), seeds))
    return traces, aggregate_traces(traces)


# ---------------------------------------------------------------------------
# exponent fitting


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    window: tuple
    residual: float
    degenerate: bool = False


def fit_exponent(source, window):
    """Least-squares slope of log regret against log t over the checkpoints
    inside [window[0], window[1]]."""
    if isinstance(source, tuple):
        ts, rs = np.asarray(source[0], float), np.asarray(source[1], float)
    else:
        ts, rs = source.checkpoint_series()
    lo, hi = window
    mask = (ts >= lo) & (ts <= hi)
    ts, rs = ts[mask], rs[mask]
    if len(ts) < 3 or np.any(rs <= 0):
        return ExponentFit(0.0, 0.0, (lo, hi), math.inf, degenerate=True)
    x, y = np.log(ts), np.log(rs)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ExponentFit(float(slope), float(intercept), (lo, hi), residual)


# ---------------------------------------------------------------------------
# export


_CSV_COLUMNS = ["t", "cum_regret", "replicate", "algorithm", "instance", "seed"]


def export_csv(traces, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rep, tr in enumerate(traces):
            for t in tr.checkpoints():
                writer.writerow([t, float(tr.cum_regret[t - 1]), rep,
                                 tr.algorithm, tr.instance, tr.seed])


def export_json(traces, path, extra=None):
    """Write json.dumps({"traces": [payload, ...], **extra}) piece by piece;
    a hex list is joined as it stands, as a hex float needs no escaping."""
    with open(path, "w") as fh:
        fh.write('{"traces": [')
        for i, tr in enumerate(traces):
            sep = ", {" if i else "{"
            for key, value in tr.to_payload().items():
                fh.write(f'{sep}"{key}": ')
                sep = ", "
                fh.write(('["' + '", "'.join(value) + '"]' if value else "[]")
                         if key in ("rewards", "means") else json.dumps(value))
            fh.write("}")
        # the rest of the object: ', "key": value, ...}', or just '}'
        fh.write("]" + (", " if extra else "") + json.dumps(extra or {})[1:])


def load_json(path):
    """The JSON value in the file at path; a file that cannot be read or
    parsed is a ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def import_json(path):
    traces = required(load_json(path), "traces", "trace file")
    if not isinstance(traces, list):
        raise ValidationError("trace file field 'traces' must be a list")
    return [RegretTrace.from_payload(d) for d in traces]
