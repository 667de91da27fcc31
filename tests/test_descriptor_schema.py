"""Descriptor decoding against the constructors it builds.

A descriptor with only the fields a kind needs must decode to what the
constructor gives with its own defaults, so no default can drift between
the two.  A field no constructor takes is an error, never ignored.
"""

import numpy as np
import pytest

import banditlab.bandits as bd
import banditlab.experts as ex
import banditlab.instances as inst
import banditlab.spaces as sps
from banditlab.errors import ValidationError
from banditlab.harness import _ALGORITHMS, ExperimentConfig, build_algorithm
from blocks import drive

_SEQ = [0.5 + 3.0 ** -k for k in range(1, 4)]
_CENTERS = [0.1, 0.3, 0.5, 0.7]

# kind -> (minimal descriptor, the constructor called with the same fields)
_MINIMAL_SPACES = {
    "interval": ({"kind": "interval"}, lambda: sps.IntervalSpace()),
    "finite": ({"kind": "finite", "coords": [0.0, 1.0]},
               lambda: sps.FiniteSpace([0.0, 1.0])),
    "convergent": ({"kind": "convergent"}, lambda: sps.ConvergentSpace()),
    "convergent_union": (
        {"kind": "convergent_union", "branches": [[0.0, 1, 3]]},
        lambda: sps.ConvergentUnionSpace([(0.0, 1, 3)])),
    "nested_convergent": ({"kind": "nested_convergent"},
                          lambda: sps.NestedConvergentSpace()),
    "tree": ({"kind": "tree"}, lambda: sps.TreeSpace()),
}

_INTERVAL = {"kind": "interval"}
_FINITE = {"kind": "finite", "coords": [0.0, 1.0]}

_MINIMAL_INSTANCES = {
    "peak": ({"kind": "peak", "space": _INTERVAL, "peak": 0.5, "slope": 0.5},
             lambda: inst.PeakInstance(sps.IntervalSpace(), 0.5, 0.5)),
    "constant": ({"kind": "constant", "space": _INTERVAL},
                 lambda: inst.ConstantInstance(sps.IntervalSpace())),
    "arms": ({"kind": "arms", "space": _FINITE, "means": [0.3, 0.7]},
             lambda: inst.ArmsInstance(sps.FiniteSpace([0.0, 1.0]),
                                       [0.3, 0.7])),
    "lineage": (
        {"kind": "lineage", "space": _INTERVAL, "tree_depth": 2},
        lambda: inst.LineageInstance(
            sps.IntervalSpace(),
            sps.build_ball_tree(sps.IntervalSpace(), 2))),
    # the last sequence point is x* when x_star is absent
    "logt": ({"kind": "logt", "space": _INTERVAL, "seq": _SEQ + [0.5],
              "i": 1},
             lambda: inst.LogTEnsembleInstance(sps.IntervalSpace(),
                                               _SEQ + [0.5], 1)),
    # without space, noncompact and maxminlcd use the unit interval; a
    # noncompact instance needs its block sizes from t_schedule or sizes
    "noncompact": (
        {"kind": "noncompact", "centers": _CENTERS, "r": 0.05,
         "t_schedule": [1]},
        lambda: inst.NoncompactInstance(_CENTERS, 0.05, t_schedule=[1])),
    "maxminlcd": ({"kind": "maxminlcd"},
                  lambda: inst.MaxMinLCDInstance(sps.IntervalSpace())),
}

_MINIMAL_DEPTH_LEVELS = {
    "all": ({"kind": "all"}, lambda: sps.DepthLevel("all")),
    "points": ({"kind": "points", "points": [0.25]},
               lambda: sps.DepthLevel("points", points=[0.25])),
    "interval": ({"kind": "interval", "bounds": [0.25, 0.75]},
                 lambda: sps.DepthLevel("interval", bounds=[0.25, 0.75])),
}


@pytest.mark.parametrize("kind", sorted(_MINIMAL_SPACES))
def test_minimal_space_descriptor_takes_constructor_defaults(kind):
    d, build = _MINIMAL_SPACES[kind]
    assert sps.space_from_descriptor(d).descriptor() == build().descriptor()


@pytest.mark.parametrize("kind", sorted(_MINIMAL_INSTANCES))
def test_minimal_instance_descriptor_takes_constructor_defaults(kind):
    d, build = _MINIMAL_INSTANCES[kind]
    assert (inst.instance_from_descriptor(d).descriptor()
            == build().descriptor())


@pytest.mark.parametrize("kind", sorted(_MINIMAL_DEPTH_LEVELS))
def test_minimal_depth_level_descriptor_takes_constructor_defaults(kind):
    d, build = _MINIMAL_DEPTH_LEVELS[kind]
    assert (sps.DepthLevel.from_descriptor(d).descriptor()
            == build().descriptor())


def test_every_kind_has_a_minimal_descriptor():
    assert set(_MINIMAL_SPACES) == set(sps._KINDS)
    assert set(_MINIMAL_INSTANCES) == set(inst._KINDS)


def _decoders():
    """(decoder, full descriptor) for every kind and for a config."""
    for what, decode, table in (
            ("space", sps.space_from_descriptor, _MINIMAL_SPACES),
            ("instance", inst.instance_from_descriptor, _MINIMAL_INSTANCES),
            ("level", sps.DepthLevel.from_descriptor, _MINIMAL_DEPTH_LEVELS)):
        for kind, (_d, build) in table.items():
            yield pytest.param(decode, build().descriptor(),
                               id=f"{what}-{kind}")
    yield pytest.param(ExperimentConfig.from_dict, {
        "space": _INTERVAL, "instance": {"kind": "constant"},
        "algorithm": {"name": "phased_ucb1"}, "horizon": 8}, id="config")


@pytest.mark.parametrize("decode, d", _decoders())
def test_unknown_field_is_rejected(decode, d):
    decode(d)
    with pytest.raises(ValidationError, match="'colour'"):
        decode(dict(d, colour="blue"))


# a key one kind's decoder reads is unknown to the others
@pytest.mark.parametrize("decode, d, key", [
    (inst.instance_from_descriptor,
     dict(_MINIMAL_INSTANCES["lineage"][0], tree=2), "tree"),
    (inst.instance_from_descriptor,
     dict(_MINIMAL_INSTANCES["peak"][0], guarantee_breaking=True),
     "guarantee_breaking"),
    (sps.space_from_descriptor, dict(_INTERVAL, branch_capped=False),
     "branch_capped"),
    (sps.space_from_descriptor, dict(_INTERVAL, resolutoin=1e-9),
     "resolutoin"),
], ids=["lineage-tree", "peak-guarantee_breaking", "interval-branch_capped",
        "interval-misspelt"])
def test_special_case_key_is_unknown_elsewhere(decode, d, key):
    with pytest.raises(ValidationError, match=f"'{key}'"):
        decode(d)


# name -> (minimal algorithm descriptor, the constructor called with the
# same fields and the match's space and rng)
_MINIMAL_ALGORITHMS = {
    "ucb1": ({"name": "ucb1", "arms": [0.25, 0.75]},
             lambda space, rng: bd.UCB1Session(space, [0.25, 0.75])),
    "well_ordered_bandit": ({"name": "well_ordered_bandit"},
                            lambda space, rng: bd.PhasedExplSession(space)),
    "cb_bandit": ({"name": "cb_bandit"},
                  lambda space, rng: bd.CBBanditSession(space)),
    "phased_ucb1": ({"name": "phased_ucb1"},
                    lambda space, rng: bd.PhasedUCB1Session(space)),
    # dyadic rounding, the default, needs the interval
    "completion_adapter": (
        {"name": "completion_adapter", "inner": {"name": "phased_ucb1"},
         "rounding": "identity"},
        lambda space, rng: bd.CompletionAdapterSession(
            bd.PhasedUCB1Session(space), space, rng, "identity")),
    "double_feedback_expert": (
        {"name": "double_feedback_expert"},
        lambda space, rng: ex.DoubleFeedbackExpert(space)),
    "naive_experts": ({"name": "naive_experts", "b": 1.0},
                      lambda space, rng: ex.NaiveExperts(space, 1.0)),
    "maxminlcd_experts": ({"name": "maxminlcd_experts", "b": 1.0},
                          lambda space, rng: ex.MaxMinLCDExperts(space, 1.0)),
}

# well-ordered, with rank classes and a depth chain: every session runs
_SPACE = sps.FiniteSpace(
    [0.0, 0.25, 0.5, 0.75, 1.0],
    depth_chain=[{"kind": "all"}, {"kind": "points", "points": [0.75]}])


def _steps(session):
    """The class, the bets and queries of 300 rounds at a constant 1/2, and
    the phase records of a session."""
    if session.mode == "bandit":
        bets = drive(session, 300, lambda t, a: 0.5)
    else:
        bets = drive(session, 300, lambda t, a: np.full(len(a.queries), 0.5))
    return type(session), bets, session.info


@pytest.mark.parametrize("name", sorted(_MINIMAL_ALGORITHMS))
def test_minimal_algorithm_descriptor_takes_constructor_defaults(name):
    d, build = _MINIMAL_ALGORITHMS[name]
    assert (_steps(build_algorithm(d, _SPACE,
                                   np.random.default_rng(0)))
            == _steps(build(_SPACE, np.random.default_rng(0))))


def test_every_session_class_has_a_name_and_a_minimal_descriptor():
    named = {cls for module in (bd, ex) for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, bd.Session)
             and "name" in vars(cls)}
    assert {_ALGORITHMS[cls.name] for cls in named} == named
    assert set(_MINIMAL_ALGORITHMS) == set(_ALGORITHMS)


# the match supplies space and rng, so no descriptor may set them
@pytest.mark.parametrize("key", ["colour", "space", "rng"])
@pytest.mark.parametrize("name", sorted(_MINIMAL_ALGORITHMS))
def test_unknown_algorithm_field_is_rejected(name, key):
    d, _build = _MINIMAL_ALGORITHMS[name]
    with pytest.raises(ValidationError, match=f"'{name}' has the unknown "
                                              f"field '{key}'"):
        build_algorithm(dict(d, **{key: 0}), _SPACE,
                        np.random.default_rng(0))


@pytest.mark.parametrize("key", ["space", "rng"])
def test_inner_algorithm_cannot_set_match_fields(key):
    d = {"name": "completion_adapter",
         "inner": {"name": "well_ordered_bandit", key: 0}}
    with pytest.raises(ValidationError, match=f"'well_ordered_bandit' has "
                                              f"the unknown field '{key}'"):
        build_algorithm(d, _SPACE, np.random.default_rng(0))
