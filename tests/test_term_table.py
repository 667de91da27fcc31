"""The compiled term table and the per-point term walk of sign mixtures.

The reference is `FunctionSample`, the one-round sampler the table replaced:
it draws each sign on first use, in the order the points are evaluated, and
keeps it for the rest of the round.  A table round must give the same bits
and leave the noise stream in the same state, and the table's means the
bits of `mean` at every point.
"""

import gc
import hashlib
import inspect

import numpy as np
import pytest

import banditlab.harness as hn
import banditlab.instances as inst
import banditlab.spaces as sps
import banditlab.verify as vf
from test_term_walk import _DESCRIPTORS, _balls


class FunctionSample:
    """One round of a sign-mixture instance.  Signs are drawn on first use
    and cached by term key, so evaluations within the round are coherent."""

    def __init__(self, instance, rng):
        self._instance = instance
        self._rng = rng
        self._signs = {}

    def evaluate(self, x):
        total = 0.5
        for key, value, bias in self._instance.active_terms(x):
            if bias >= 1.0:
                sign = 1.0
            else:
                sign = self._signs.get(key)
                if sign is None:
                    p_plus = (1.0 + bias) / 2.0
                    sign = 1.0 if self._rng.random() < p_plus else -1.0
                    self._signs[key] = sign
            total += sign * value
        return total


def ref_certify(instance, pairs, rounds, rng):
    """`verify.lipschitz_certify` with a FunctionSample per round."""
    space = instance.space
    pair_list = [(vf.random_point(space, rng), vf.random_point(space, rng))
                 for _ in range(pairs)]
    mean_viol = 0.0
    for x, y in pair_list:
        v = abs(instance.mean(x) - instance.mean(y)) - space.distance(x, y)
        mean_viol = max(mean_viol, v)
    sample_viol = 0.0
    for _ in range(rounds):
        sample = FunctionSample(instance, rng)
        for x, y in pair_list:
            v = (abs(sample.evaluate(x) - sample.evaluate(y))
                 - space.distance(x, y))
            sample_viol = max(sample_viol, v)
    return vf.LipschitzCertificate(pairs, rounds, mean_viol, sample_viol)


def ref_table(instance, points):
    """The term table as the per-point walk `_chain` gives it: keys numbered
    on first use, points in order and each point's terms root first."""
    keys, bias = {}, []
    index = np.full((len(points), instance.depth_cap), -1, dtype=np.intp)
    value = np.zeros((len(points), instance.depth_cap))
    for i, x in enumerate(points):
        for j, (term, v) in enumerate(instance._chain(x)):
            if term.key not in keys:
                keys[term.key] = len(bias)
                bias.append(term.bias)
            index[i, j] = keys[term.key]
            value[i, j] = v
    return np.array(bias, dtype=float), index, value


def assert_same_table(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _points(instance, n, seed):
    """n random points of [0,1], then every term center, shuffled in."""
    rng = np.random.default_rng(seed)
    points = rng.random(n).tolist() + [c for c, _r in _balls(instance)]
    return [points[i] for i in rng.permutation(len(points))]


@pytest.mark.parametrize("kind", sorted(_DESCRIPTORS))
def test_table_rounds_match_function_sample(kind):
    instance = inst.instance_from_descriptor(_DESCRIPTORS[kind])
    points = _points(instance, 4000, seed=7)
    table = instance.term_table(points)
    bias, index, value = table
    assert index.shape == value.shape == (len(points), instance.depth_cap)
    assert (value[index < 0] == 0.0).all()
    if kind == "noncompact":
        assert 0 < np.count_nonzero(bias >= 1.0) < len(bias)  # favored keys
    rng = np.random.default_rng(11)
    ref_rng = np.random.default_rng(11)
    for _ in range(5):
        sample = FunctionSample(instance, ref_rng)
        expected = np.array([sample.evaluate(x) for x in points])
        got = inst.table_round(table, rng, 1)[0]
        assert (got.view(np.int64) == expected.view(np.int64)).all()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", sorted(_DESCRIPTORS))
def test_term_table_matches_the_point_walk(kind):
    instance = inst.instance_from_descriptor(_DESCRIPTORS[kind])
    points = _points(instance, 4000, seed=9)
    for part in (points, points[:1], points[-3:], []):
        assert_same_table(instance.term_table(part), ref_table(instance, part))


# the hard_instances certification: its seed-0 generator, pairs and rounds
_CERTIFY = {"seed": [0, 2], "pairs": 10000, "rounds": 10}

# recorded with the per-point table loop: SHA-256 of the bytes of bias,
# index, value and table_means, and the PCG64 state after the certification
_CERTIFY_PINS = {
    "lineage": (
        "1d1e3feb5009ba2aceb926a3a88074cf7ae78a1332df64d87ceee1850c5c6e16",
        16242745235115519158670305952971748849),
    "maxminlcd": (
        "6616250b1c66894a88c767bb9875fb32bcba1c2909262d329c633e5a7cc70f55",
        121340057786529789045146019406625935125),
    "noncompact": (
        "7cf0649811a802d9365dac8694b785152686d6ac5312984edac93e4cb170e420",
        330387427159019035179793523341555133501),
}
_CERTIFY_INC = 19681440599402660950022900364292316661


@pytest.mark.parametrize("kind", sorted(_DESCRIPTORS))
def test_certification_table_pinned(kind):
    """The certification's values read 0 at every pair, so its certificate
    cannot see a wrong table that stays 1-Lipschitz; the table is pinned
    itself."""
    instance = inst.instance_from_descriptor(_DESCRIPTORS[kind])
    tables = []
    compile_table = instance.term_table

    def capture(points):
        tables.append(compile_table(points))
        return tables[-1]

    instance.term_table = capture
    rng = np.random.default_rng(_CERTIFY["seed"])
    cert = vf.lipschitz_certify(instance, _CERTIFY["pairs"],
                                _CERTIFY["rounds"], rng)
    (table,) = tables
    assert len(table[1]) == 2 * _CERTIFY["pairs"]
    h = hashlib.sha256()
    for a in (*table, instance.table_means(table)):
        h.update(a.tobytes())
    digest, state = _CERTIFY_PINS[kind]
    assert h.hexdigest() == digest
    assert rng.bit_generator.state["state"] == {"state": state,
                                                "inc": _CERTIFY_INC}
    assert cert.passed


def test_term_table_leaves_no_reference_cycle():
    """A table walk frees what it built when it returns: with the cycle
    collector off, nothing is left for it to collect."""
    instance = inst.instance_from_descriptor(_DESCRIPTORS["lineage"])
    points = np.random.default_rng(0).random(20000).tolist()
    gc.collect()
    gc.disable()
    try:
        instance.term_table(points)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# a lineage on a tree space, whose points are tuples of branch symbols


_TREE_SPACE = sps.TreeSpace(eps=0.5, depth=24)
_TREE_LINEAGE = {"kind": "lineage", "space": _TREE_SPACE.descriptor(),
                 "tree_depth": 4, "gamma": 0.3, "depth_cap": 4, "seed": 0,
                 "lineage": "seeded"}


def _tree_points(instance, n, seed):
    """n random leaves, every ball center, and each center with one symbol
    flipped at every level, so each ball has points inside, on and just
    past its edge."""
    rng = np.random.default_rng(seed)
    points = [tuple(row) for row in rng.integers(2, size=(n, 24)).tolist()]
    for node, depth in instance.tree.nodes():
        if depth:
            points.append(node.center)
            points += [node.center[:i] + (1 - node.center[i],)
                       + node.center[i + 1:] for i in range(24)]
    return [points[i] for i in rng.permutation(len(points))]


def test_tree_lineage_table_matches_the_point_walk():
    instance = inst.instance_from_descriptor(_TREE_LINEAGE)
    points = _tree_points(instance, 400, seed=4)
    table = instance.term_table(points)
    assert_same_table(table, ref_table(instance, points))
    assert (table[1][:, -1] >= 0).any()  # some points reach depth 4


def test_tree_lineage_certify_matches_reference_loop():
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    cert = vf.lipschitz_certify(inst.instance_from_descriptor(_TREE_LINEAGE),
                                200, 3, rng)
    ref = ref_certify(inst.instance_from_descriptor(_TREE_LINEAGE),
                      200, 3, ref_rng)
    assert cert.max_mean_violation.hex() == ref.max_mean_violation.hex()
    assert cert.max_sample_violation.hex() == ref.max_sample_violation.hex()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert cert.passed


@pytest.mark.parametrize("algorithm", [{"name": "phased_ucb1"},
                                       {"name": "naive_experts", "b": 1.0}])
def test_tree_lineage_matches_run(algorithm, monkeypatch):
    """A bandit and an experts match on the tree lineage, each equal to the
    match played with the per-point table."""
    config = hn.ExperimentConfig(space=_TREE_SPACE.descriptor(),
                                 instance=_TREE_LINEAGE, algorithm=algorithm,
                                 horizon=512, seed=0)
    trace = hn.run_match(config)
    assert len(set(trace.rewards.tolist())) > 2  # signed terms were sampled
    monkeypatch.setattr(inst._SignMixture, "term_table", ref_table)
    ref = hn.run_match(config)
    assert trace.rewards.tobytes() == ref.rewards.tobytes()
    assert trace.means.tobytes() == ref.means.tobytes()


def test_table_round_without_drawn_keys_draws_nothing():
    # the favored wedges keep a +1 sign: a round over them alone uses no
    # uniform
    instance = inst.instance_from_descriptor(_DESCRIPTORS["noncompact"])
    favored = [instance.centers[i] for i in sorted(instance.favored)]
    table = instance.term_table(favored)
    assert (table[0] == 1.0).all()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    got = inst.table_round(table, rng, 1)[0]
    assert rng.bit_generator.state == state
    assert got.tolist() == [instance.mean(x) for x in favored]


def ref_mean(instance, x):
    """The mean as the walk adds it: bias * value per biased term, and
    value / 3.0 on a maxminlcd Q ball."""
    total = 0.5
    for term, value in instance._chain(x):
        if term.bias:
            total += (value / 3.0 if instance.kind == "maxminlcd"
                      else term.bias * value)
    return total


@pytest.mark.parametrize("kind", sorted(_DESCRIPTORS))
def test_table_means_match_mean(kind):
    instance = inst.instance_from_descriptor(_DESCRIPTORS[kind])
    points = _points(instance, 4000, seed=5)
    got = instance.table_means(instance.term_table(points))
    means = np.array([instance.mean(x) for x in points])
    expected = np.array([ref_mean(instance, x) for x in points])
    assert (got.view(np.int64) == expected.view(np.int64)).all()
    assert (means.view(np.int64) == expected.view(np.int64)).all()


class _Steep(inst._SignMixture):
    """Three disjoint wedges whose values are tripled, so sampled rounds
    (and the mean, on the biased ones) are 3-Lipschitz.  Biases 0, 1/2 and
    1 cover fair, biased and fixed signs."""

    kind = "steep"
    depth_cap = 1
    mu_star = 1.0

    def __init__(self):
        super().__init__(sps.IntervalSpace())
        self.roots = [inst._Term(k, c, 0.15, 0.1, bias, [])
                      for k, (c, bias) in enumerate(
                          [(1 / 6, 0.0), (0.5, 0.5), (5 / 6, 1.0)])]

    def _chain(self, x):
        for term, value in super()._chain(x):
            yield term, 3.0 * value

    def term_table(self, points):
        bias, index, value = super().term_table(points)
        return bias, index, 3.0 * value


@pytest.mark.parametrize("kind", ["steep"] + sorted(_DESCRIPTORS))
def test_lipschitz_certify_matches_reference_loop(kind):
    def build():
        if kind == "steep":
            return _Steep()
        return inst.instance_from_descriptor(_DESCRIPTORS[kind])

    rng = np.random.default_rng(3)
    ref_rng = np.random.default_rng(3)
    cert = vf.lipschitz_certify(build(), 500, 4, rng)
    ref = ref_certify(build(), 500, 4, ref_rng)
    assert cert.max_mean_violation.hex() == ref.max_mean_violation.hex()
    assert cert.max_sample_violation.hex() == ref.max_sample_violation.hex()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if kind == "steep":
        assert ref.max_sample_violation > 0.1 and not cert.passed


def test_lipschitz_certify_without_pairs():
    cert = vf.lipschitz_certify(_Steep(), 0, 3, np.random.default_rng(0))
    assert cert.max_sample_violation == 0.0 and cert.passed


@pytest.mark.parametrize("kind", sorted(_DESCRIPTORS))
def test_repeated_active_terms_match_a_fresh_walk(kind):
    instance = inst.instance_from_descriptor(_DESCRIPTORS[kind])
    points = _points(instance, 500, seed=2)
    first = [list(instance.active_terms(x)) for x in points]
    again = [list(instance.active_terms(x)) for x in points]
    fresh = inst.instance_from_descriptor(_DESCRIPTORS[kind])
    walked = [[(term.key, value, term.bias)
               for term, value in fresh._chain(x)] for x in points]
    assert repr(first) == repr(again) == repr(walked)


def test_active_terms_is_a_generator_function():
    # the benchmark's tracer counts generator functions instead of timing
    # them, and a call must not walk before it is iterated
    assert inspect.isgeneratorfunction(inst._SignMixture.active_terms)


def _sign_mixture(kind):
    if kind == "steep":
        return _Steep()
    if kind == "tree_lineage":
        return inst.instance_from_descriptor(_TREE_LINEAGE)
    return inst.instance_from_descriptor(_DESCRIPTORS[kind])


@pytest.mark.parametrize("kind",
                         ["steep", "tree_lineage"] + sorted(_DESCRIPTORS))
@pytest.mark.parametrize("rounds", [0, 1, 6])
def test_table_rounds_match_one_round_calls(kind, rounds):
    instance = _sign_mixture(kind)
    if kind == "tree_lineage":
        points = _tree_points(instance, 40, seed=1)
    else:
        points = _points(instance, 400, seed=1)
    table = instance.term_table(points)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = inst.table_round(table, rng, rounds)
    assert got.shape == (rounds, len(points))
    for row in got:
        expected = inst.table_round(table, ref_rng, 1)[0]
        assert row.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["steep"] + sorted(_DESCRIPTORS))
def test_monte_carlo_mean_reads_bandit_reward_rounds(kind):
    """monte_carlo_mean's n rounds at x are the stream of n bandit_reward
    pulls at x: both draw table rounds of the one-point table."""
    instance = _sign_mixture(kind)
    for x in [c for c, _r in _balls(instance)][:4] + [0.0, 0.5]:
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        est, se = inst.monte_carlo_mean(instance, x, 50, rng)
        pulls = np.array([instance.bandit_reward(x, ref_rng)
                          for _ in range(50)])
        assert est.hex() == float(pulls.mean()).hex()
        assert se.hex() == float(pulls.std(ddof=1) / np.sqrt(50)).hex()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
