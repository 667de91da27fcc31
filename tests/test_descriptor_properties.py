"""Descriptor round-trips for every space and instance kind, and point
membership on the point-set spaces.

A descriptor is what a config file carries, so each round-trip goes through
JSON: the rebuilt object must give back the same descriptor and the same
points and means, bit for bit.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import banditlab.instances as inst
import banditlab.spaces as sps
from banditlab.errors import StructuralError

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)

_DYADIC = st.integers(1, 40).map(lambda k: 2.0 ** -k)
_UNIT = st.floats(0.0, 1.0, allow_nan=False)


def _via_json(d):
    return json.loads(json.dumps(d))


# ---------------------------------------------------------------------------
# spaces


@st.composite
def _depth_chain(draw, point=_UNIT):
    """None, or the whole space followed by nested point sets or ranges,
    with `point` drawing points of the space."""
    if draw(st.booleans()):
        return None
    chain = [{"kind": "all"}]
    if draw(st.booleans()):
        points = draw(st.lists(point, min_size=1, max_size=4, unique=True))
        chain.append({"kind": "points", "points": points})
    else:
        a, b = sorted(draw(st.lists(point, min_size=2, max_size=2)))
        chain.append({"kind": "interval", "bounds": [a, b]})
    return chain


@st.composite
def _union_branches(draw):
    # limits three apart keep the branches' points from colliding
    slots = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3,
                          unique=True))
    return [(3.0 * s, draw(st.sampled_from([-1, 1])), draw(st.integers(1, 30)))
            for s in slots]


_SPACES = {
    "interval": st.builds(
        sps.IntervalSpace, resolution=_DYADIC,
        scan_resolution=st.integers(3, 10).map(lambda k: 2.0 ** -k),
        well_order=st.sampled_from([None, "coordinate"]),
        depth_chain=_depth_chain(),
        depth_dimension=st.sampled_from([0.5, 1.0])),
    "finite": st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                       max_size=20, unique=True).flatmap(
        lambda coords: st.builds(
            sps.FiniteSpace, st.just(coords),
            depth_chain=_depth_chain(st.sampled_from(coords)),
            depth_dimension=st.sampled_from([0.0, 0.5]))),
    "convergent": st.builds(sps.ConvergentSpace, st.integers(1, 200)),
    "convergent_union": st.builds(sps.ConvergentUnionSpace,
                                  _union_branches()),
    "nested_convergent": st.builds(sps.NestedConvergentSpace,
                                   st.integers(1, 12), st.integers(1, 12)),
    "tree": st.one_of(
        st.integers(1, 5).flatmap(lambda depth: st.builds(
            sps.TreeSpace, eps=st.sampled_from([0.25, 0.5, 0.75]),
            depth=st.just(depth),
            branching=st.lists(st.integers(2, 4), min_size=depth,
                               max_size=depth))),
        st.builds(sps.TreeSpace, eps=st.just(0.5), depth=st.integers(1, 4),
                  b=st.sampled_from([0.5, 1.0]),
                  branch_cap=st.sampled_from([10, 10 ** 12]))),
}


@pytest.mark.parametrize("kind", sorted(_SPACES))
def test_space_descriptor_round_trips(kind):
    @_SETTINGS
    @given(_SPACES[kind])
    def check(space):
        d = space.descriptor()
        assert d["kind"] == kind
        clone = sps.space_from_descriptor(_via_json(d))
        assert type(clone) is type(space)
        assert clone.descriptor() == d
        assert clone.scan_points() == space.scan_points()
        if space.depth_structure is not None:
            assert ([lv.descriptor() for lv in clone.depth_structure.levels]
                    == [lv.descriptor() for lv in space.depth_structure.levels])

    check()


_POINT_SETS = ("finite", "convergent", "convergent_union",
               "nested_convergent")


@pytest.mark.parametrize("kind", _POINT_SETS)
def test_point_set_validate_point(kind):
    @_SETTINGS
    @given(_SPACES[kind], st.floats(-20, 20, allow_nan=False))
    def check(space, x):
        for p in space.scan_points():
            space.validate_point(p)
        if x not in space.scan_points():
            with pytest.raises(StructuralError):
                space.validate_point(x)
        # just off a member is not a member either, unless it is another
        p = space.scan_points()[-1]
        off = p + max(abs(p), 1.0) * 1e-9
        if off not in space.scan_points():
            with pytest.raises(StructuralError):
                space.validate_point(off)

    check()


# ---------------------------------------------------------------------------
# instances


_INTERVAL = sps.IntervalSpace()
_INTERVAL_ORDERED = sps.IntervalSpace(well_order="coordinate")
_NOISE = st.sampled_from(["bernoulli", "none"])


@st.composite
def _peak(draw):
    space = draw(st.sampled_from([_INTERVAL, _INTERVAL_ORDERED,
                                  sps.ConvergentSpace(20),
                                  sps.FiniteSpace([0.0, 0.25, 1.0])]))
    peak = draw(st.sampled_from(space.scan_points()))
    far = max(space.distance(p, peak) for p in space.scan_points())
    slope = draw(st.floats(0.01, 1.0))
    c = draw(st.floats(min(1.0, slope * far + 1e-6), 1.0))
    return inst.PeakInstance(space, peak, slope, c=c, noise=draw(_NOISE))


@st.composite
def _arms(draw):
    coords = draw(st.lists(_UNIT, min_size=1, max_size=6, unique=True))
    means = draw(st.lists(_UNIT, min_size=len(coords), max_size=len(coords)))
    return inst.ArmsInstance(sps.FiniteSpace(coords), means,
                             noise=draw(_NOISE))


# deep enough for a four-level ball tree of binary leaf paths
_TREE = sps.TreeSpace(eps=0.5, depth=24)


@st.composite
def _lineage(draw):
    tree_depth = draw(st.integers(1, 4))
    depth_cap = draw(st.integers(1, tree_depth))
    biases = draw(st.one_of(
        st.none(), st.lists(_UNIT, min_size=depth_cap, max_size=depth_cap)))
    space = draw(st.sampled_from([_INTERVAL, _TREE]))
    return inst.LineageInstance(
        space, sps.build_ball_tree(space, tree_depth),
        gamma=draw(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.45])),
        depth_cap=depth_cap,
        seed=draw(st.integers(0, 2 ** 31)), biases=biases,
        lineage=draw(st.sampled_from(["seeded", "leftmost", "rightmost"])))


@st.composite
def _logt(draw):
    n = draw(st.integers(1, 6))
    seq = [0.5 + 3.0 ** -k for k in range(1, n + 1)]
    return inst.LogTEnsembleInstance(_INTERVAL, seq, draw(st.integers(0, n)),
                                     x_star=0.5, noise=draw(_NOISE))


@st.composite
def _noncompact(draw):
    centers = [0.1, 0.3, 0.5, 0.7, 0.9]
    seed = draw(st.integers(0, 2 ** 31))
    if draw(st.booleans()):
        # theoretical block sizes 4^t: one block of four wedges
        return inst.NoncompactInstance(centers[:4], 0.05, t_schedule=[1],
                                       seed=seed, space=_INTERVAL)
    cut = draw(st.integers(1, 4))
    return inst.NoncompactInstance(
        centers, draw(st.sampled_from([0.01, 0.05, 0.09])),
        t_schedule=draw(st.sampled_from([None, [1, 2]])), seed=seed,
        space=_INTERVAL, sizes=[cut, len(centers) - cut])


@st.composite
def _maxminlcd(draw):
    depth_cap = draw(st.integers(1, 3))
    return inst.MaxMinLCDInstance(
        _INTERVAL, b=draw(st.sampled_from([0.25, 0.5, 1.0])),
        depth_cap=depth_cap, seed=draw(st.integers(0, 2 ** 31)),
        n_list=draw(st.lists(st.integers(2, 4), min_size=depth_cap,
                             max_size=depth_cap)))


_INSTANCES = {
    "peak": _peak(),
    "constant": st.builds(inst.ConstantInstance, st.just(_INTERVAL), _UNIT,
                          noise=_NOISE),
    "arms": _arms(),
    "lineage": _lineage(),
    "logt": _logt(),
    "noncompact": _noncompact(),
    "maxminlcd": _maxminlcd(),
}


def test_every_instance_kind_is_covered():
    assert set(_INSTANCES) == set(inst._KINDS)


@pytest.mark.parametrize("kind", sorted(_INSTANCES))
def test_instance_descriptor_round_trips(kind):
    @_SETTINGS
    @given(_INSTANCES[kind], st.lists(_UNIT, max_size=8))
    def check(instance, xs):
        d = instance.descriptor()
        assert d["kind"] == kind
        clone = inst.instance_from_descriptor(_via_json(d))
        assert type(clone) is type(instance)
        assert clone.descriptor() == d
        assert clone.mu_star == instance.mu_star
        points = instance.space.scan_points()
        if instance.space.kind == "interval":
            points = points[::64] + xs
        elif instance.space.kind == "tree":
            points = points[::64]
        for x in points:
            assert clone.mean(x) == instance.mean(x)

    check()


# ---------------------------------------------------------------------------
# reward range


@pytest.mark.parametrize("kind", sorted(_INSTANCES))
def test_bandit_rewards_and_means_lie_in_unit_interval(kind):
    """UCB1 proves its blocks for rewards in [0, 1], as a reward there never
    lowers a float sum; every kind must keep its rewards and means there."""
    @_SETTINGS
    @given(_INSTANCES[kind], st.lists(_UNIT, max_size=8),
           st.integers(0, 2 ** 32))
    def check(instance, xs, seed):
        rng = np.random.default_rng(seed)
        points = instance.space.scan_points()
        if instance.space.kind == "interval":
            points = points[::64] + xs
        elif instance.space.kind == "tree":
            points = points[::64]
        for x in points:
            assert 0.0 <= instance.mean(x) <= 1.0
            for _ in range(3):
                assert 0.0 <= instance.bandit_reward(x, rng) <= 1.0

    check()


def test_means_past_the_unit_interval_are_clipped():
    """A peak the constructor's 1e-12 slack lets dip below 0, and a logt
    baseline on a space wider than 4, keep their means in [0, 1]."""
    peak = inst.PeakInstance(sps.FiniteSpace([0.0, 3.0]), 0.0, 0.1, c=0.3,
                             noise="none")
    assert 0.3 - 0.1 * 3.0 < 0.0
    assert peak.mean(3.0) == 0.0
    assert peak.bandit_reward(3.0, np.random.default_rng(0)) == 0.0
    wide = sps.FiniteSpace([0.0, 1.0, 7.0])
    logt = inst.LogTEnsembleInstance(wide, [7.0], 1, x_star=0.0,
                                     noise="none")
    assert [logt.mean(x) for x in wide.coords] == [1.0, 1.0, 0.0]
    assert logt.mu_star == 1.0
