import math

import numpy as np
import pytest

import banditlab.instances as inst
import banditlab.spaces as sps
import banditlab.verify as vf
from banditlab.errors import ValidationError


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_zero_iff_equal():
    p = vf.FiniteMeasure(list("abcd"), [0.25] * 4)
    q = vf.FiniteMeasure(list("abcd"), [0.25] * 4)
    assert vf.kl_divergence(p, q) == 0.0
    r = vf.FiniteMeasure(list("abcd"), [0.3, 0.2, 0.25, 0.25])
    assert vf.kl_divergence(r, q) > 0


def test_kl_bernoulli_value():
    p = vf.FiniteMeasure([0, 1], [0.75, 0.25])
    q = vf.FiniteMeasure([0, 1], [0.5, 0.5])
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert vf.kl_divergence(p, q) == pytest.approx(expected)
    assert expected == pytest.approx(0.13081, abs=1e-5)


def test_kl_infinite_on_null_support():
    p = vf.FiniteMeasure([0, 1], [0.0, 1.0])
    q = vf.FiniteMeasure([0, 1], [1.0, 0.0])
    assert vf.kl_divergence(p, q) == math.inf


def test_kl_mismatched_atoms():
    p = vf.FiniteMeasure([0, 1], [0.5, 0.5])
    q = vf.FiniteMeasure([0, 2], [0.5, 0.5])
    with pytest.raises(ValidationError, match="different atom sets"):
        vf.kl_divergence(p, q)


def test_measure_validation():
    with pytest.raises(ValidationError):
        vf.FiniteMeasure([0, 1], [0.6, 0.6])
    with pytest.raises(ValidationError):
        vf.FiniteMeasure([0, 1], [-0.1, 1.1])


# ---------------------------------------------------------------------------
# chain rule


def test_chain_rule_product_measure():
    p1, p2 = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    q1, q2 = np.array([0.5, 0.5]), np.array([0.2, 0.8])
    p = np.outer(p1, p2)
    q = np.outer(q1, q2)
    lhs, rhs, residual = vf.kl_chain_check(p, q)
    assert residual <= 1e-12
    expected = vf._kl_arrays(p1, q1) + vf._kl_arrays(p2, q2)
    assert lhs == pytest.approx(expected)


def test_chain_rule_random_joints():
    rng = np.random.default_rng(11)
    for _ in range(50):
        shape = tuple(int(rng.integers(2, 5))
                      for _ in range(int(rng.integers(1, 4))))
        p = rng.random(shape) + 0.05
        q = rng.random(shape) + 0.05
        _lhs, _rhs, residual = vf.kl_chain_check(p / p.sum(), q / q.sum())
        assert residual <= 1e-12


def test_chain_rule_infinite_branch():
    p = np.array([[0.5, 0.5], [0.0, 0.0]])
    q = np.array([[0.0, 0.0], [0.5, 0.5]])
    lhs, rhs, residual = vf.kl_chain_check(p, q)
    assert lhs == math.inf and rhs == math.inf and residual == 0.0


def test_kl_terms_null_support_rule():
    terms = vf._kl_terms(np.array([0.0, 0.0, 0.5, 0.5]),
                         np.array([0.0, 0.5, 0.0, 0.25]))
    assert terms.tolist() == [0.0, 0.0, math.inf, 0.5 * math.log(2.0)]


@pytest.mark.parametrize("p, q, kl", [
    # a null prefix in both joints: its conditional laws are null too
    ([[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.5], [0.0, 0.0]], 0.0),
    # q charges what p does not; p's null atoms add 0 whatever q is
    ([[0.5, 0.0], [0.5, 0.0]], [[0.25, 0.25], [0.25, 0.25]], math.log(2.0)),
    # p charges a q-null atom of a conditional law only
    ([[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.0], [0.25, 0.25]], math.inf),
])
def test_chain_rule_null_supports(p, q, kl):
    lhs, rhs, residual = vf.kl_chain_check(np.array(p), np.array(q))
    assert lhs == pytest.approx(kl) and rhs == pytest.approx(kl)
    assert residual <= 1e-12


def test_chain_rule_cap():
    p = np.full((2,) * 13, 2.0 ** -13)
    with pytest.raises(ValidationError):
        vf.kl_chain_check(p, p)


# ---------------------------------------------------------------------------
# inequality grids


def test_kl_bounds_default_grids_pass():
    report = vf.kl_bounds_report()
    assert report.passed
    assert len(report.cases) >= 400


def test_kl_bounds_detects_shift_violation():
    # eps almost equal to y: the quadratic bound is loose only for small eps
    report = vf.kl_bounds_report(cases={
        "shift": [(0.5, 0.2)], "event": [], "ratio": []})
    assert report.passed


# ---------------------------------------------------------------------------
# ensembles


def _sibling(delta=0.2):
    space = sps.IntervalSpace()
    tree = sps.build_ball_tree(space, 1)
    return space, tree, vf.make_sibling_ensemble(space, tree, delta)


def test_sibling_ensemble_gap_and_kl():
    _space, tree, (spec, neutral, left, right) = _sibling()
    r_star = min(ch.radius for ch in tree.root.children)
    assert spec.eps == pytest.approx(r_star * 0.2 / 4.0)
    report = vf.ensemble_check(spec)
    assert report.gap_pass
    assert all(g >= spec.eps for g in report.gap)
    assert all(kl < spec.delta ** 2 for kl in report.kl)
    assert left.mu_star == pytest.approx(right.mu_star)
    assert neutral.mu_star == pytest.approx(0.5)


def test_sibling_ensemble_ratio_margin():
    # atomwise likelihood ratios reach 1/(1 - delta), so property 1 holds at
    # the slightly larger delta' = delta/(1 - delta) but not at delta itself
    _space, _tree, (spec, *_rest) = _sibling()
    report = vf.ensemble_check(spec)
    assert not report.ratio_pass
    dprime = spec.delta / (1.0 - spec.delta)
    lo = min(r[0] for r in report.ratio_extremes)
    hi = max(r[1] for r in report.ratio_extremes)
    assert lo >= 1 - dprime - 1e-12 and hi <= 1 + dprime + 1e-12


def test_ensemble_disjointness_enforced():
    measures = [vf.FiniteMeasure([0, 1], [0.5, 0.5]) for _ in range(3)]
    payoffs = np.zeros((2, 2))
    with pytest.raises(ValidationError, match="disjoint"):
        vf.EnsembleSpec(measures, [0.0, 1.0], payoffs,
                        subsets=[[0], [0]], eps=0.1, delta=0.1)


def test_lb_time_threshold_values():
    assert vf.lb_time_threshold(0.003, 0.2, 2) == 44
    assert vf.lb_time_threshold(0.003, 0.5, 2) == 7
    with pytest.raises(ValidationError):
        vf.lb_time_threshold(0.003, 0.6, 2)


# ---------------------------------------------------------------------------
# accumulated KL along traces


class _FakeTrace:
    def __init__(self, actions, seed=0):
        self.actions = actions
        self.seed = seed


def test_claim9_accounting():
    space = sps.IntervalSpace()
    seq = [0.5 + 3.0 ** -k for k in range(1, 5)]
    base = inst.LogTEnsembleInstance(space, seq, 0, x_star=0.5)
    bump = inst.LogTEnsembleInstance(space, seq, 1, x_star=0.5)
    ball = bump.bump_ball()
    inside = ball.center
    outside = 0.95
    trace = _FakeTrace([inside, outside, inside, outside])
    report = vf.claim9_check((base, bump), [trace])
    row = report.rows[0]
    assert row["hits"] == 2
    per_round = vf._bernoulli_kl(base.mean(inside), bump.mean(inside))
    assert row["lhs"] == pytest.approx(2 * per_round)
    assert row["rhs"] == pytest.approx((3 * ball.radius) ** 2 / 3.0 * 2)
    assert report.passed


def test_claim9_requires_actions():
    space = sps.IntervalSpace()
    seq = [0.5 + 3.0 ** -k for k in range(1, 5)]
    base = inst.LogTEnsembleInstance(space, seq, 0, x_star=0.5)
    bump = inst.LogTEnsembleInstance(space, seq, 1, x_star=0.5)

    class _NoActions:
        actions = None
        seed = 0

    with pytest.raises(ValidationError):
        vf.claim9_check((base, bump), [_NoActions()])


# ---------------------------------------------------------------------------
# Lipschitz certification


def test_lipschitz_certify_passes_lineage():
    space = sps.IntervalSpace()
    tree = sps.build_ball_tree(space, 3)
    li = inst.LineageInstance(space, tree, depth_cap=3)
    cert = vf.lipschitz_certify(li, 2000, 3, np.random.default_rng(0))
    assert cert.passed


def test_lipschitz_certify_on_a_point_set_space():
    """Off the interval and the tree, the pairs are drawn from the scan
    set: a slope-1/2 peak passes and a slope-3 ramp fails."""
    space = sps.ConvergentSpace(20)
    rng = np.random.default_rng(0)
    assert {vf.random_point(space, rng) for _ in range(200)} <= set(
        space.scan_points())

    class Ramp(inst.PayoffInstance):
        def mean(self, x):
            return min(1.0, 3.0 * x)

    peak = inst.PeakInstance(space, 0.0, 0.5, c=0.9)
    assert vf.lipschitz_certify(peak, 500, 0, rng).passed
    assert not vf.lipschitz_certify(Ramp(space), 500, 0, rng).passed


def test_lipschitz_certify_fails_corrupted():
    space = sps.IntervalSpace()

    class Corrupted(inst.PayoffInstance):
        uniformly_lipschitz = False

        def mean(self, x):
            return 0.2 + 0.6 * (x > 0.5)

        @property
        def mu_star(self):
            return 0.8

    cert = vf.lipschitz_certify(Corrupted(space), 2000, 0,
                                np.random.default_rng(0))
    assert not cert.passed
