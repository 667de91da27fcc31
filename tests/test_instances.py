import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import banditlab.instances as inst
import banditlab.spaces as sps
from banditlab.errors import ValidationError


def _interval():
    return sps.IntervalSpace()


# ---------------------------------------------------------------------------
# benign instances


def test_peak_instance_mean_and_optimum():
    pi = inst.PeakInstance(_interval(), 0.8, 1.0, c=0.9)
    assert pi.mean(0.8) == pytest.approx(0.9)
    assert pi.mean(0.3) == pytest.approx(0.4)
    assert pi.mu_star == pytest.approx(0.9)


def test_peak_instance_rejects_negative_payoff():
    with pytest.raises(ValidationError):
        inst.PeakInstance(_interval(), 0.0, 1.0, c=0.5)


def test_constant_and_arms():
    ci = inst.ConstantInstance(_interval(), 0.5)
    assert ci.mean(0.123) == 0.5 and ci.mu_star == 0.5
    space = sps.FiniteSpace([0.0, 1.0])
    ai = inst.ArmsInstance(space, [0.5, 0.6])
    assert ai.mean(1.0) == 0.6 and ai.mu_star == 0.6


def test_arms_need_finite_space():
    with pytest.raises(ValidationError):
        inst.ArmsInstance(_interval(), [0.5])


# ---------------------------------------------------------------------------
# lineage instances


def _lineage(depth=3, **kw):
    space = _interval()
    tree = sps.build_ball_tree(space, depth)
    return inst.LineageInstance(space, tree, depth_cap=depth, **kw)


def test_needle_shape():
    # one needle on B(0.5, 0.2): a lineage of one unbiased child
    root = sps.BallNode(0.5, 1.0, children=[sps.BallNode(0.5, 0.2, "0")])
    li = inst.LineageInstance(_interval(), sps.BallTree(root, 1), depth_cap=1,
                              biases=[0.0], lineage="leftmost")

    def needle(x):
        return sum(value for _key, value, _bias in li.active_terms(x))

    assert needle(0.5) == pytest.approx(0.1)
    assert needle(0.45) == pytest.approx(0.1)
    assert needle(0.65) == pytest.approx(0.05)
    assert needle(0.71) == 0.0


def test_lineage_mu_star_attained_on_path():
    li = _lineage(3)
    tip = li.lineage_path()[-1]
    assert li.mean(tip.center) == pytest.approx(li.mu_star)
    grid = [i / 512 for i in range(513)]
    assert max(li.mean(x) for x in grid) <= li.mu_star + 1e-12


def test_lineage_bias_schedule_decreases():
    li = _lineage(3)
    assert all(0 < d < 1 for d in li.deltas)
    assert all(b <= a for a, b in zip(li.deltas, li.deltas[1:]))


def test_lineage_gamma_validation():
    space = _interval()
    tree = sps.build_ball_tree(space, 2)
    with pytest.raises(ValidationError):
        inst.LineageInstance(space, tree, gamma=0.5, depth_cap=2)


@pytest.mark.parametrize("gamma", [0.4, 0.45])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_lineage_high_gamma_builds(gamma, depth):
    # at n_i the two sides of the threshold scan are large (about 3e8 at
    # gamma 0.4, depth 1) and agree up to rounding
    li = _lineage(depth, gamma=gamma)
    assert all(0 < d < 1 for d in li.deltas)


def test_lineage_threshold_past_float_range_rejected():
    with pytest.raises(ValidationError, match="float range"):
        _lineage(2, gamma=0.49)


# n_i ** -0.5 at depth cap 4 on the default interval, as first recorded
_PINNED_BIASES = {
    0.1: ["0x1.28d8418166c15p-9", "0x1.e6c8601fca074p-16",
          "0x1.1ded0f4c7eef3p-21", "0x1.852c51d9c8831p-27"],
    0.2: ["0x1.37dc3bee53edep-12", "0x1.dea7f2766d43dp-21",
          "0x1.28a8d40f06d14p-28", "0x1.bf7bcdd038cb3p-36"],
    0.3: ["0x1.5835158b774c8p-18", "0x1.ceceb4e8dc505p-31",
          "0x1.3f59af95a7649p-42", "0x1.27cfdc360c336p-53"],
}


@pytest.mark.parametrize("gamma", sorted(_PINNED_BIASES))
def test_lineage_biases_pinned(gamma):
    li = _lineage(4, gamma=gamma)
    assert [d.hex() for d in li.deltas] == _PINNED_BIASES[gamma]


def test_lineage_explicit_biases():
    li = _lineage(1, biases=[0.2], lineage="rightmost")
    node = li.lineage_path()[0]
    assert li.mu_star == pytest.approx(0.5 + 0.2 * node.radius / 2.0)
    assert li.mean(node.center) == pytest.approx(li.mu_star)


def test_lineage_mean_is_lipschitz_on_grid():
    li = _lineage(3)
    grid = [i / 1024 for i in range(1025)]
    vals = [li.mean(x) for x in grid]
    worst = max(abs(a - b) * 1024 for a, b in zip(vals, vals[1:]))
    assert worst <= 1.0 + 1e-9


def test_lineage_round_sample_coherent():
    # a point listed twice reads the same keys, so one round's signs give
    # both copies the same value; the second copy adds no key to draw
    li = _lineage(2)
    x = li.lineage_path()[0].center
    bias, index, value = li.term_table([x, x])
    assert len(bias) == np.count_nonzero(index[0] >= 0) == 2
    assert index[0].tolist() == index[1].tolist()
    assert value[0].tolist() == value[1].tolist()


def test_lineage_min_radii_per_depth():
    tree = sps.build_ball_tree(_interval(), 4)
    assert inst._min_radii(tree, 3) == [
        min(n.radius for n, depth in tree.nodes() if depth == i)
        for i in (1, 2, 3)]
    # a hand-built tree one level short
    root = sps.BallNode(0.5, 1.0, children=[sps.BallNode(0.3, 0.1, path="0")])
    with pytest.raises(ValidationError, match="depth 2"):
        inst.LineageInstance(_interval(), sps.BallTree(root, 2), biases=[0.5] * 2)


def test_lineage_overlapping_children_rejected():
    # the walk checks sibling disjointness: a hand-built tree can break it
    root = sps.BallNode(0.5, 1.0, children=[sps.BallNode(0.4, 0.2, path="0"),
                                            sps.BallNode(0.5, 0.2, path="1")])
    li = inst.LineageInstance(_interval(), sps.BallTree(root, 1),
                              biases=[0.5], lineage="leftmost")
    for _ in range(2):  # a walk that raised is not kept for the next call
        with pytest.raises(ValidationError, match="overlap"):
            list(li.active_terms(0.45))
    with pytest.raises(ValidationError, match="overlap"):
        li.mean(0.45)
    assert li.mean(0.25) == pytest.approx(0.5 + 0.5 * 0.05)  # left child only


# ---------------------------------------------------------------------------
# bump-sequence ensemble


def _logt(i):
    seq = [0.5 + 3.0 ** -k for k in range(1, 6)]
    return inst.LogTEnsembleInstance(_interval(), seq, i, x_star=0.5)


def test_logt_baseline_and_bumps():
    base = _logt(0)
    assert base.mean(0.5) == pytest.approx(0.5)
    assert base.mu_star == pytest.approx(0.5)
    member = _logt(2)
    r = member.radii[1]
    assert member.mu_star == pytest.approx(0.5 + r / 4.0)
    assert member.mean(0.5) == pytest.approx(0.5 + 0.75 * r / 3.0)
    ball = member.bump_ball()
    assert ball.center == 0.5 and ball.radius == pytest.approx(r / 3.0)
    assert base.bump_ball() is None


def test_logt_contraction_enforced():
    with pytest.raises(ValidationError, match="contract"):
        inst.LogTEnsembleInstance(_interval(), [0.9, 0.75], 1, x_star=0.5)
    with pytest.raises(ValidationError):
        inst.LogTEnsembleInstance(_interval(), [0.5], 0, x_star=0.5)


def test_logt_mean_lipschitz():
    member = _logt(1)
    grid = [i / 2048 for i in range(2049)]
    vals = [member.mean(x) for x in grid]
    worst = max(abs(a - b) * 2048 for a, b in zip(vals, vals[1:]))
    assert worst <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# disjoint wedges


def _wedges(**kw):
    return inst.NoncompactInstance(
        [0.1, 0.3, 0.5, 0.7, 0.9], 0.05, seed=0, sizes=[2, 3], **kw)


def test_wedge_structure():
    wi = _wedges()
    assert wi.metadata["guarantee_breaking"]
    assert wi.block_of == [1, 1, 2, 2, 2]
    assert wi.r_k[1] == pytest.approx(0.0125)
    assert wi.r_k[2] == pytest.approx(0.00625)
    assert wi.mu_star == pytest.approx(0.5 + 0.05 - 0.00625)


def test_wedge_mean_favored_only():
    wi = _wedges()
    favored = sorted(wi.favored)
    c = wi.centers[favored[-1]]
    assert wi.mean(c) == pytest.approx(0.5 + 0.05 - wi.r_k[wi.block_of[favored[-1]]])
    unfavored = next(i for i in range(5) if i not in wi.favored)
    assert wi.mean(wi.centers[unfavored]) == 0.5
    assert wi.mean(0.2) == 0.5


def test_wedge_overlap_rejected():
    with pytest.raises(ValidationError):
        inst.NoncompactInstance([0.1, 0.15], 0.05, seed=0, sizes=[2])


def test_wedge_theoretical_sizes():
    wi = inst.NoncompactInstance(
        [0.1, 0.3, 0.5, 0.7], 0.05, t_schedule=[1], seed=0, sizes=None)
    assert not wi.metadata["guarantee_breaking"]
    assert wi.sizes == [4]


def test_wedge_schedule_validation():
    with pytest.raises(ValidationError, match="strictly increasing"):
        inst.NoncompactInstance([0.1, 0.5], 0.05, t_schedule=[2, 1], seed=0)


# ---------------------------------------------------------------------------
# recursive bump balls


def test_maxminlcd_structure():
    mi = inst.MaxMinLCDInstance(_interval(), b=0.5, depth_cap=3, seed=0)
    assert len(mi.radii) == 3
    assert mi.radii[0] == pytest.approx(0.25 / 12.0)
    assert mi.mu_star == pytest.approx(0.5 + sum(r / 6.0 for r in mi.radii))
    assert mi.mean(mi.q_chain_center()) == pytest.approx(mi.mu_star)


def test_maxminlcd_mean_lipschitz():
    mi = inst.MaxMinLCDInstance(_interval(), b=0.5, depth_cap=2, seed=1)
    grid = [i / 4096 for i in range(4097)]
    vals = [mi.mean(x) for x in grid]
    worst = max(abs(a - b) * 4096 for a, b in zip(vals, vals[1:]))
    assert worst <= 1.0 + 1e-9


def test_maxminlcd_validation():
    with pytest.raises(ValidationError):
        inst.MaxMinLCDInstance(_interval(), depth_cap=2, n_list=[3])
    with pytest.raises(ValidationError):
        inst.MaxMinLCDInstance(sps.ConvergentSpace(10))


# ---------------------------------------------------------------------------
# sampling consistency


@pytest.mark.parametrize("build", [
    lambda: inst.PeakInstance(_interval(), 0.8, 1.0, c=0.9),
    lambda: _lineage(2),
    lambda: _logt(1),
    lambda: _wedges(),
    lambda: inst.MaxMinLCDInstance(_interval(), depth_cap=2, seed=0),
])
def test_monte_carlo_matches_mean(build):
    instance = build()
    rng = np.random.default_rng(7)
    for x in (0.1, 0.5, 0.8):
        est, se = inst.monte_carlo_mean(instance, x, 40000, rng)
        assert abs(est - instance.mean(x)) <= max(3 * se, 1e-12)


def test_zero_noise_sampling():
    pi = inst.PeakInstance(_interval(), 0.8, 1.0, c=0.9, noise="none")
    rng = np.random.default_rng(0)
    assert pi.bandit_reward(0.3, rng) == pytest.approx(0.4)
    est, se = inst.monte_carlo_mean(pi, 0.3, 10, rng)
    assert est == pytest.approx(0.4) and se == 0.0


def _inline_sign_reward(instance, x, rng):
    """The sign-mixture branch of bandit_reward before it went through
    FunctionSample: one draw per term with bias below 1, none otherwise."""
    total = 0.5
    for _key, value, bias in instance.active_terms(x):
        if bias >= 1.0:
            total += value
        else:
            sign = 1.0 if rng.random() < (1.0 + bias) / 2.0 else -1.0
            total += sign * value
    return total


_SIGN_MIXTURES = {
    "lineage": lambda: _lineage(4),
    "noncompact": _wedges,
    "maxminlcd": lambda: inst.MaxMinLCDInstance(_interval(), b=0.5,
                                                depth_cap=3, seed=0),
}


def _term_centers(instance):
    """Points inside many terms: needle, wedge and bump centers."""
    if instance.kind == "lineage":
        return [node.center for node, _depth in instance.tree.nodes()]
    if instance.kind == "noncompact":
        return list(instance.centers)
    balls, centers = list(instance.roots), []
    while balls:
        ball = balls.pop()
        centers.append(ball.center)
        balls.extend(ball.children)
    return centers


@pytest.mark.parametrize("kind", sorted(_SIGN_MIXTURES))
def test_bandit_reward_matches_inline_sign_loop(kind):
    instance = _SIGN_MIXTURES[kind]()
    points = st.one_of(st.floats(0.0, 1.0, allow_nan=False),
                       st.sampled_from(_term_centers(instance)))

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(points, min_size=1, max_size=20), st.integers(0, 2 ** 32))
    def check(xs, seed):
        ref_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for x in xs:
            expected = _inline_sign_reward(instance, x, ref_rng)
            assert instance.bandit_reward(x, rng).hex() == expected.hex()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    check()


def test_bandit_reward_binary_for_bernoulli():
    pi = inst.PeakInstance(_interval(), 0.8, 1.0, c=0.9)
    rng = np.random.default_rng(0)
    draws = {pi.bandit_reward(0.5, rng) for _ in range(50)}
    assert draws <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# descriptors


@pytest.mark.parametrize("build", [
    lambda: inst.PeakInstance(_interval(), 0.8, 1.0, c=0.9),
    lambda: inst.ConstantInstance(_interval(), 0.5),
    lambda: inst.ArmsInstance(sps.FiniteSpace([0.0, 1.0]), [0.5, 0.6]),
    lambda: _lineage(2, lineage="leftmost"),
    lambda: _logt(1),
    lambda: _wedges(),
    lambda: inst.MaxMinLCDInstance(_interval(), depth_cap=2, seed=3),
    # tree leaves are tuples, written as JSON lists
    lambda: inst.PeakInstance(sps.TreeSpace(depth=3), (0, 1, 0), 0.5,
                              c=0.9),
    lambda: inst.LogTEnsembleInstance(sps.TreeSpace(eps=0.25, depth=4),
                                      [(1, 0, 0, 0), (0, 0, 1, 0)], 1,
                                      x_star=(0, 0, 0, 0)),
])
def test_instance_descriptor_round_trip(build):
    a = build()
    # the descriptor is already what a JSON file gives back
    assert json.loads(json.dumps(a.descriptor())) == a.descriptor()
    b = inst.instance_from_descriptor(a.descriptor())
    assert b.descriptor() == a.descriptor()
    assert b.mu_star == pytest.approx(a.mu_star)
    for x in (0.0, 0.25, 0.8) if a.space.kind == "interval" else a.space.scan_points():
        assert b.mean(x) == pytest.approx(a.mean(x))


# ---------------------------------------------------------------------------
# input checks


_TREE3 = sps.TreeSpace(depth=3)


def _tree2(space=None):
    return sps.build_ball_tree(space or _interval(), 2)


@pytest.mark.parametrize("build, message", [
    (lambda: inst.ConstantInstance(_interval(), 1.5), "c must be in [0,1]"),
    (lambda: inst.ConstantInstance(_interval(), -0.5), "c must be in [0,1]"),
    (lambda: inst.LineageInstance(_interval(), _tree2(), depth_cap=3),
     "'depth_cap'"),
    (lambda: inst.LineageInstance(_interval(), _tree2(), depth_cap=2,
                                  biases=[0.1]), "one bias per depth"),
    (lambda: inst.LineageInstance(_interval(), _tree2(), depth_cap=2,
                                  biases=[0.1, 1.5]), "biases must lie"),
    (lambda: inst.LineageInstance(_interval(), _tree2(), depth_cap=2,
                                  biases=[-0.1, 0.1]), "biases must lie"),
    (lambda: inst.LogTEnsembleInstance(_interval(), [], 0, x_star=0.5),
     "at least one sequence point"),
    (lambda: inst.LogTEnsembleInstance(_interval(), [0.5], 0),
     "at least one sequence point"),
    (lambda: inst.LogTEnsembleInstance(_interval(), [0.9], 2, x_star=0.5),
     "member index out of range"),
    (lambda: inst.NoncompactInstance([0.1, 0.5], 0.6, sizes=[2]),
     "base radius"),
    (lambda: inst.NoncompactInstance([0.1, 0.5], 0.0, sizes=[2]),
     "base radius"),
    (lambda: sps.FiniteSpace([]), "at least one point"),
    (lambda: sps.TreeSpace(depth=3, branching=[2, 2]), "'branching'"),
    (lambda: sps.estimate_dimension(_interval(), "cov", [0.5, 0.25, 0.0]),
     "delta must be positive"),
    (lambda: sps.estimate_dimension(_interval(), "lcd", [4.0, 2.0, 1.0]),
     "N_delta >= 2"),
    (lambda: _TREE3.covering_number(0.01), "below tree truncation"),
    (lambda: sps.ordering_oracle(_TREE3, [sps.Ball((0, 0, 0), 0.5)]),
     "points on the line"),
], ids=["constant-c-high", "constant-c-low", "lineage-depth-cap",
        "lineage-bias-count", "lineage-bias-high", "lineage-bias-low",
        "logt-empty-seq", "logt-x-star-only", "logt-i", "noncompact-r-high",
        "noncompact-r-zero", "finite-no-coords", "tree-branching",
        "dimension-zero-delta", "dimension-lcd-one-set", "tree-fine-delta",
        "scan-tree-points"])
def test_input_check_names_its_field(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert message in str(exc.value)
