"""Experiment orchestration: matches, replicates, exponent fits, exports.

A run is fully determined by (config, seed): instance noise comes from the
stream [seed, 0] and algorithm randomness from [seed, 1], so the same seed
exposes identical noise to every algorithm.  Bandit sessions step round by
round, Bernoulli pulls drawn in chunks and sign-mixture pulls one by one; an
experts action is a block of rounds, sampled in numpy with the bits and
noise stream of the rounds it stands for.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bandits, experts, instances, spaces as sp
from .errors import BanditLabError, ValidationError, required


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
    cum_regret: np.ndarray
    actions: list | None = None
    info: dict = field(default_factory=dict)

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
        try:
            mu_star = float.fromhex(mu_star)
            rewards, means = (np.fromiter(map(float.fromhex, v), float, len(v))
                              for v in (rewards, means))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad hex float in trace: {exc}") from None
        if not len(rewards) == len(means) == horizon:
            raise ValidationError(
                "trace 'rewards' and 'means' must hold 'horizon' values")
        return RegretTrace(algorithm, instance, seed, horizon, mu_star,
                           rewards, means, _regret_from(mu_star, rewards))


def _hex_list(a):
    """[float(v).hex() for v in a], hexing each distinct bit pattern once."""
    bits, inverse = np.unique(np.asarray(a, dtype=float).view(np.int64),
                              return_inverse=True)
    hexes = np.array([float(v).hex() for v in bits.view(float)], dtype=object)
    return hexes[inverse].tolist()


def _regret_from(mu_star, rewards):
    t = np.arange(1, len(rewards) + 1)
    return mu_star * t - np.cumsum(rewards)


# ---------------------------------------------------------------------------
# algorithm registry


def build_algorithm(descriptor, space, rng):
    name = descriptor.get("name")
    params = {k: v for k, v in descriptor.items() if k != "name"}
    where = f"algorithm {name!r}"
    if name == "ucb1":
        return bandits.UCB1Session(required(params, "arms", where))
    if name in ("well_ordered_bandit", "cb_bandit"):
        sweep = bandits.ExplPrimeRun if name == "cb_bandit" else bandits.ExplRun
        return bandits.PhasedExplSession(
            space, params.get("f", "log_power:1"), sweep_cls=sweep)
    if name == "phased_ucb1":
        return bandits.PhasedUCB1Session(space)
    if name == "completion_adapter":
        inner = build_algorithm(required(params, "inner", where), space, rng)
        rule = params.get("rounding", "dyadic:20")
        if rule == "identity":
            rounding = bandits.identity_rounding
        elif rule.startswith("dyadic"):
            _, _, arg = rule.partition(":")
            rounding = bandits.dyadic_rounding(int(arg) if arg else 20)
        else:
            raise ValidationError(f"unknown rounding rule {rule!r}")
        return bandits.CompletionAdapterSession(inner, rounding, rng)
    if name == "double_feedback_expert":
        return experts.DoubleFeedbackExpert(space)
    if name == "naive_experts":
        return experts.NaiveExperts(
            space, required(params, "b", where),
            uniform=params.get("uniform", False))
    if name == "maxminlcd_experts":
        return experts.MaxMinLCDExperts(
            space, required(params, "b", where),
            uniform=params.get("uniform", False),
            active_cap=params.get("active_cap", 4096))
    raise ValidationError(f"unknown algorithm {name!r}")


# ---------------------------------------------------------------------------
# coherent block sampling for expert feedback

_CHUNK_CELLS = 2 ** 16  # bounds one draw's memory, whatever the block length


class _RoundSampler:
    """Vectorized feedback for a query tuple plus a bet over a block of
    coherent rounds: every round samples all points from one draw."""

    def __init__(self, instance, rng):
        self.instance = instance
        self.rng = rng

    def _prepare(self, points):
        """("signs", term matrix, sign probabilities or None) for sign
        mixtures, otherwise ("mean", mean vector, None)."""
        if not self.instance.uniformly_lipschitz:
            return "mean", self.instance.mean_vector(points), None
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
        return ("signs", matrix,
                (1.0 + np.array(biases)) / 2.0 if keys else None)

    def _block(self, tag, a, b, c):
        """Feedback of c rounds, one row per round, in a new array."""
        if tag == "signs":
            if b is None:
                return np.full((c, a.shape[0]), 0.5)
            signs = np.where(self.rng.random((c, len(b))) < b, 1.0, -1.0)
            values = np.empty((c, a.shape[0]))
            # one matrix-vector product per round keeps its summation order
            for i, s in enumerate(signs):
                values[i] = 0.5 + a @ s
            return values
        if self.instance.noise == "none":
            return np.tile(a, (c, 1))
        # one (c, m) draw is the stream of c draws of m; the 0/1 outcomes
        # overwrite the draw in place
        u = self.rng.random((c, len(a)))
        return np.less(u, a, out=u, casting="unsafe")

    def rewards(self, queries, bet, rounds):
        """(column sums of the query feedback, bet-reward array) over
        `rounds` rounds; the sums are added in round order."""
        tag, a, b = self._prepare(list(queries) + [bet])
        chunk = max(1, _CHUNK_CELLS // max(a.shape))
        sums = np.zeros(len(queries))
        bet_rewards = np.empty(rounds)
        for start in range(0, rounds, chunk):
            values = self._block(tag, a, b, min(chunk, rounds - start))
            bet_rewards[start:start + len(values)] = values[:, -1]
            block = values[:, :-1]
            # with the running sums in the first row (x + y == y + x), the
            # row-by-row accumulate adds each column in round order
            block[0] += sums
            sums = np.add.accumulate(block, axis=0, out=block)[-1].copy()
        return sums, bet_rewards


def _pull_sampler(instance, rng, horizon):
    """pull(x, mu) for `horizon` pulls: Bernoulli uniforms in chunks, as
    rng.random(c) is the stream of c single draws; sign mixtures per pull."""
    if instance.uniformly_lipschitz:
        return lambda x, mu: instance.bandit_reward(x, rng)
    if instance.noise == "none":
        return lambda x, mu: mu
    uniforms = itertools.chain.from_iterable(
        rng.random(min(_CHUNK_CELLS, horizon - start)).tolist()
        for start in range(0, horizon, _CHUNK_CELLS))
    return lambda x, mu: 1.0 if next(uniforms) < mu else 0.0


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
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")

    def to_dict(self):
        return {"space": self.space, "instance": self.instance,
                "algorithm": self.algorithm, "horizon": self.horizon,
                "seed": self.seed, "mode": self.mode,
                "record_actions": self.record_actions}

    @staticmethod
    def from_dict(d):
        return ExperimentConfig(
            *(required(d, key, "config")
              for key in ("space", "instance", "algorithm", "horizon")),
            seed=d.get("seed", 0), mode=d.get("mode"),
            record_actions=d.get("record_actions", False))


def _materialize(config, seed):
    instance = instances.instance_from_descriptor(config.instance)
    space = instance.space
    if sp.space_from_descriptor(config.space).descriptor() != space.descriptor():
        raise ValidationError(
            "config field 'space' differs from the instance's 'space'")
    inst_rng = np.random.default_rng([seed, 0])
    alg_rng = np.random.default_rng([seed, 1])
    session = build_algorithm(config.algorithm, space, alg_rng)
    if config.mode is not None and config.mode != session.mode:
        raise ValidationError(
            f"config mode {config.mode!r} but algorithm runs {session.mode!r}")
    return instance, session, inst_rng


def run_match(config, seed=None):
    seed = config.seed if seed is None else seed
    instance, session, inst_rng = _materialize(config, seed)
    horizon = config.horizon
    rewards = np.empty(horizon)
    means = np.empty(horizon)
    actions = [] if config.record_actions else None
    try:
        if session.mode == "bandit":
            pull = _pull_sampler(instance, inst_rng, horizon)
            for t in range(horizon):
                x = session.choose()
                mu = instance.mean(x)
                reward = pull(x, mu)
                session.observe(reward)
                rewards[t] = reward
                means[t] = mu
                if actions is not None:
                    actions.append(x)
        else:
            sampler = _RoundSampler(instance, inst_rng)
            t = 0
            while t < horizon:
                action = session.choose()
                n = min(action.rounds, horizon - t)
                sums, bet_rewards = sampler.rewards(
                    action.queries, action.bet, n)
                rewards[t:t + n] = bet_rewards
                means[t:t + n] = instance.mean(action.bet)
                if actions is not None:
                    actions.extend([action.bet] * n)
                t += n
                # a block cut by the horizon is not observed; one that ends
                # at it is, which records the session's next phase in info
                if n == action.rounds:
                    session.observe(sums)
    finally:
        session.close()
    return RegretTrace(
        algorithm=config.algorithm.get("name", "unknown"),
        instance=config.instance.get("kind", "unknown"),
        seed=seed, horizon=horizon, mu_star=instance.mu_star,
        rewards=rewards, means=means,
        cum_regret=_regret_from(instance.mu_star, rewards),
        actions=actions, info=dict(session.info))


# ---------------------------------------------------------------------------
# replicates


def _replicate_worker(config_dict, seed):
    return run_match(ExperimentConfig.from_dict(config_dict), seed=seed)


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
    """One trace per seed plus checkpoint aggregates; results are identical
    for any parallelism degree."""
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ValidationError("replicate seeds must be distinct")
    cd = config.to_dict()
    if parallelism <= 1 or len(seeds) == 1:
        traces = [_replicate_worker(cd, s) for s in seeds]
    else:
        failures = []
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = [(s, pool.submit(_replicate_worker, cd, s))
                       for s in seeds]
            traces = []
            for s, fut in futures:
                try:
                    traces.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append((s, exc))
        if failures:
            raise BanditLabError(
                f"{len(failures)} replicate(s) failed, first: "
                f"seed {failures[0][0]}: {failures[0][1]}")
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
                writer.writerow([t, repr(tr.cum_regret[t - 1]), rep,
                                 tr.algorithm, tr.instance, tr.seed])


def export_json(traces, path, extra=None):
    payload = {"traces": [tr.to_payload() for tr in traces]}
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        # dumps without indent runs the C encoder; dump and indent do not
        fh.write(json.dumps(payload))


def import_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    return [RegretTrace.from_payload(d)
            for d in required(payload, "traces", "trace file")]
