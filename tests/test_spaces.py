import math

import pytest

import banditlab.spaces as sps
from banditlab.errors import (
    ResolutionError,
    StructuralError,
    UnsupportedCapabilityError,
    ValidationError,
)


# ---------------------------------------------------------------------------
# covering oracle


def test_interval_covering_budget_5():
    delta, points = sps.covering_oracle(sps.IntervalSpace(), 5)
    assert delta == pytest.approx(0.1)
    assert points == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])


def test_convergent_covering_budget_11():
    space = sps.ConvergentSpace(100)
    delta, points = sps.covering_oracle(space, 11)
    assert delta == pytest.approx(1.0 / 20.0)
    assert 0.0 in points and len(points) == 11


def test_convergent_covering_delta_certified_by_scan():
    space = sps.ConvergentSpace(100)
    for k in (3, 7, 11, 25):
        delta, points = sps.covering_oracle(space, k)
        worst = max(min(abs(p - c) for c in points) for p in space.scan_points())
        assert worst <= delta + 1e-12


def test_covering_budget_monotone():
    space = sps.ConvergentSpace(50)
    deltas = [sps.covering_oracle(space, k)[0] for k in range(1, 30)]
    assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_finite_space_exhausts_at_budget():
    space = sps.FiniteSpace([0.0, 0.2, 0.9])
    delta, points = sps.covering_oracle(space, 5)
    assert delta == 0.0
    assert sorted(points) == [0.0, 0.2, 0.9]


def test_tree_covering_at_level():
    space = sps.TreeSpace(eps=0.5, depth=6)
    delta, points = sps.covering_oracle(space, 4)
    assert delta == pytest.approx(0.25)
    assert len(points) == 4


def test_covering_budget_validation():
    with pytest.raises(ValidationError):
        sps.covering_oracle(sps.IntervalSpace(), 0)


# ---------------------------------------------------------------------------
# ordering oracle


def test_ordering_oracle_convergent_prefers_limit():
    space = sps.ConvergentSpace(100)
    balls = [sps.Ball(0.0, 0.005), sps.Ball(1.0, 0.1)]
    assert sps.ordering_oracle(space, balls) == 0.0


def test_ordering_oracle_isolated_points():
    space = sps.ConvergentSpace(100)
    # closure covers 1/3 and 1/4; the later point in the well-order wins
    balls = [sps.Ball(1.0 / 3.0, 0.0001), sps.Ball(0.25, 0.0001)]
    assert sps.ordering_oracle(space, balls) == 0.25


def test_ordering_oracle_empty_intersection_falls_back():
    space = sps.FiniteSpace([0.0, 0.5, 1.0])
    balls = [sps.Ball(0.25, 0.01)]
    assert sps.ordering_oracle(space, balls) == 0.0


def test_ordering_oracle_needs_well_order():
    with pytest.raises(UnsupportedCapabilityError):
        sps.ordering_oracle(sps.IntervalSpace(), [sps.Ball(0.5, 0.1)])


def test_interval_coordinate_well_order():
    space = sps.IntervalSpace(well_order="coordinate")
    assert sps.ordering_oracle(space, [sps.Ball(0.5, 0.25)]) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# rank structure


def test_cb_ranks():
    assert sps.cb_rank(sps.FiniteSpace([0.0, 1.0])) == 0
    assert sps.cb_rank(sps.ConvergentSpace(10)) == 1
    assert sps.cb_rank(sps.NestedConvergentSpace(5, 5)) == 2


def test_convergent_union_rank_classes():
    space = sps.ConvergentUnionSpace([(0.0, -1, 10), (0.5, 1, 10)])
    classes = space.rank_classes()
    assert sorted(classes[1]) == [0.0, 0.5]
    assert len(classes[0]) == 20


def test_rank_covering_oracle():
    space = sps.ConvergentSpace(100)
    delta, points = sps.rank_covering_oracle(space, 1, 3)
    assert points == [0.0] and delta == 0.0
    delta0, points0 = sps.rank_covering_oracle(space, 0, 5)
    assert len(points0) == 5 and delta0 > 0
    with pytest.raises(ValidationError):
        sps.rank_covering_oracle(space, 2, 3)


# ---------------------------------------------------------------------------
# depth and cover oracles


def _decomposed_interval():
    return sps.IntervalSpace(
        well_order="coordinate",
        depth_chain=[{"kind": "all"},
                     {"kind": "points", "points": [0.25, 0.75]}])


def test_depth_oracle_picks_deepest_level():
    space = _decomposed_interval()
    balls = [sps.Ball(0.75, 0.01), sps.Ball(0.1, 0.01)]
    assert sps.depth_oracle(space, balls) == 0.75
    # least scan-grid point inside the closed ball [0.09, 0.11]
    assert sps.depth_oracle(space, [sps.Ball(0.1, 0.01)]) == pytest.approx(
        93.0 / 1024.0)


def test_depth_oracle_requires_structure():
    with pytest.raises(UnsupportedCapabilityError):
        sps.depth_oracle(sps.IntervalSpace(), [sps.Ball(0.5, 0.1)])


def test_cover_oracle_witness_is_least_uncovered():
    space = _decomposed_interval()
    res = sps.cover_oracle(space, 0.1, [sps.Ball(0.5, 0.4)])
    assert not res.covered
    assert res.witness == 0.0
    res2 = sps.cover_oracle(space, 0.1, [sps.Ball(0.5, 2.0)])
    assert res2.covered and res2.witness is None


def test_cover_oracle_respects_anchor_depth():
    space = _decomposed_interval()
    # anchor at depth 1: only {0.25, 0.75} must be covered
    res = sps.cover_oracle(space, 0.25, [sps.Ball(0.25, 0.01),
                                         sps.Ball(0.75, 0.01)])
    assert res.covered


# ---------------------------------------------------------------------------
# covering numbers and dimension


def test_interval_covering_number():
    assert sps.covering_number(sps.IntervalSpace(), 0.1) == 10
    assert sps.covering_number(sps.IntervalSpace(), 2.0 ** -8) == 256
    assert sps.covering_number(sps.IntervalSpace(), 1.5) == 1


def test_tree_covering_number():
    space = sps.TreeSpace(eps=0.5, depth=6)
    assert sps.covering_number(space, 0.25) == 4


def test_interval_dimension_estimate():
    est = sps.estimate_dimension(
        sps.IntervalSpace(), "cov", [2.0 ** -j for j in range(4, 13)])
    assert 0.9 <= est.estimate <= 1.1


def test_finite_dimension_is_zero():
    space = sps.FiniteSpace([0.0, 0.25, 0.5, 1.0])
    est = sps.estimate_dimension(
        space, "cov", [2.0 ** -j for j in range(4, 13)])
    assert est.estimate == 0.0


def test_tree_lcd_estimate_matches_b():
    for b, depth in ((1.0, 6), (0.5, 12)):
        space = sps.TreeSpace(eps=0.5, b=b, depth=depth, branch_cap=10 ** 40)
        est = sps.estimate_dimension(
            space, "lcd", [2.0 ** -j for j in range(1, depth + 1)])
        assert abs(est.estimate - b) / b <= 0.15


def test_dimension_grid_validation():
    with pytest.raises(ValidationError):
        sps.estimate_dimension(sps.IntervalSpace(), "cov", [0.5, 0.5, 0.25])
    with pytest.raises(ValidationError):
        sps.estimate_dimension(sps.IntervalSpace(), "bad", [0.5, 0.25, 0.125])


def test_uniform_tree_branching_schedule():
    factors, capped = sps.uniform_tree_branching(0.5, 1.0, 4)
    assert factors == [math.ceil(math.exp(2.0 ** i)) for i in range(1, 5)]
    assert not capped
    factors2, capped2 = sps.uniform_tree_branching(0.5, 1.0, 6, cap=10 ** 6)
    assert capped2 and factors2[-1] == 10 ** 6
    with pytest.raises(ResolutionError):
        sps.uniform_tree_branching(0.5, 2.0, 8)


# ---------------------------------------------------------------------------
# ball trees


def test_ball_tree_interval_depth8():
    space = sps.IntervalSpace(resolution=2.0 ** -40)
    tree = sps.build_ball_tree(space, 8)
    assert tree.node_count() == 2 ** 9 - 1
    parent_slack, sibling_slack = sps.ball_tree_violations(tree, space)
    assert parent_slack > 0 and sibling_slack > 0


def test_ball_tree_tree_space_depth8():
    space = sps.TreeSpace(eps=0.5, depth=32)
    tree = sps.build_ball_tree(space, 8)
    assert tree.node_count() == 2 ** 9 - 1
    parent_slack, sibling_slack = sps.ball_tree_violations(tree, space)
    assert parent_slack > 0 and sibling_slack > 0


def test_ball_tree_requires_perfect_space():
    with pytest.raises(UnsupportedCapabilityError):
        sps.build_ball_tree(sps.FiniteSpace([0.0, 1.0]), 2)


def test_ball_tree_resolution_limit():
    with pytest.raises(ResolutionError):
        sps.build_ball_tree(sps.IntervalSpace(resolution=2.0 ** -10), 8)


# ---------------------------------------------------------------------------
# structure validation and descriptors


def test_point_validation():
    with pytest.raises(StructuralError):
        sps.IntervalSpace().validate_point(1.5)
    with pytest.raises(StructuralError):
        sps.ConvergentSpace(10).validate_point(0.3)
    with pytest.raises(StructuralError):
        sps.TreeSpace(depth=3).validate_point((0, 1))


def test_space_descriptor_round_trip():
    spaces = [
        sps.IntervalSpace(well_order="coordinate"),
        sps.FiniteSpace([0.0, 0.5, 1.0]),
        sps.ConvergentSpace(25),
        sps.ConvergentUnionSpace([(0.0, 1, 5), (0.9, -1, 5)]),
        sps.NestedConvergentSpace(4, 4),
        sps.TreeSpace(eps=0.5, b=0.5, depth=6),
        _decomposed_interval(),
        sps.FiniteSpace([0.0, 0.25, 0.5, 1.0], depth_dimension=0.5,
                        depth_chain=[{"kind": "all"},
                                     {"kind": "points", "points": [0.25]}]),
    ]
    for space in spaces:
        clone = sps.space_from_descriptor(space.descriptor())
        assert clone.descriptor() == space.descriptor()
        assert clone.scan_points() == space.scan_points()
        assert (clone.depth_structure is None) == (space.depth_structure is None)


def test_nested_convergent_structure():
    space = sps.NestedConvergentSpace(5, 5)
    classes = space.rank_classes()
    assert classes[2] == [0.0]
    assert len(classes[1]) == 5 and len(classes[0]) == 25
