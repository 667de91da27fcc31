"""Property tests: the array-backed oracles against scalar references.

The references are the per-call O(n k^2) farthest-point traversal and the
per-point ball scans that the oracles replaced.  The oracles must agree with
them exactly, point objects and float bits included.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import banditlab.spaces as sps
from banditlab.errors import ValidationError

_EPS = sps._EPS
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


# ---------------------------------------------------------------------------
# scalar references


def ref_covering(points, k):
    """Farthest-point traversal rebuilt from scratch for budget k."""
    if len(points) <= k:
        return 0.0, list(points)
    centers = [points[0]]
    while len(centers) < k:
        far = max(points, key=lambda p: min(abs(p - c) for c in centers))
        if min(abs(far - c) for c in centers) <= 0:
            break
        centers.append(far)
    delta = max(min(abs(p - c) for c in centers) for p in points)
    return delta, centers


def _in_closure(space, p, balls):
    return any(space.distance(p, b.center) <= b.radius + _EPS for b in balls)


def ref_ordering(space, balls):
    covered = [p for p in space.scan_points() if _in_closure(space, p, balls)]
    if not covered:
        return min(space.scan_points(), key=space.order_key)
    return max(covered, key=space.order_key)


def ref_depth(space, balls):
    for level in reversed(space.depth_structure.levels):
        hits = [p for p in level.scan(space) if _in_closure(space, p, balls)]
        if hits:
            return min(hits, key=space.canonical_key)
    raise ValidationError(
        "no scan point of any chain set lies in the ball union")


def ref_cover(space, anchor, balls):
    ds = space.depth_structure
    lam = 0 if anchor is None else ds.depth_of(space, anchor)
    for p in sorted(ds.levels[lam].scan(space), key=space.canonical_key):
        if not any(space.distance(p, b.center) < b.radius - _EPS for b in balls):
            return sps.CoverResult(False, p)
    return sps.CoverResult(True)


def _same(a, b):
    """Equal values of the same type (0.0 and -0.0 told apart)."""
    return type(a) is type(b) and repr(a) == repr(b)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# covering


# grid points repeat distances; nudged grid points make near-ties
_COORD = st.one_of(
    st.integers(-24, 24).map(lambda i: i / 8),
    st.integers(-24, 24).map(lambda i: math.nextafter(i / 8, math.inf)),
    st.floats(-3.0, 3.0, allow_nan=False),
)
_COORDS = st.lists(_COORD, min_size=1, max_size=24, unique=True)


def _certified(points, delta, centers):
    return delta == max(min(abs(p - c) for c in centers) for p in points)


@_SETTINGS
@given(_COORDS)
def test_covering_matches_reference_for_every_budget(coords):
    space = sps.FiniteSpace(coords)
    points = space.scan_points()
    for k in range(1, len(points) + 2):
        delta, centers = sps.covering_oracle(space, k)
        ref_delta, ref_centers = ref_covering(points, k)
        assert _same(delta, ref_delta)
        assert len(centers) == len(ref_centers)
        assert all(_same(a, b) for a, b in zip(centers, ref_centers))
        assert _certified(points, delta, centers)
        assert sps.rank_covering_oracle(space, 0, k) == (delta, centers)


@_SETTINGS
@given(_COORDS, st.permutations([1, 2, 3, 5, 8, 13, 21, 34]))
def test_covering_is_independent_of_budget_order(coords, budgets):
    space = sps.FiniteSpace(coords)
    for k in budgets:
        delta, centers = sps.covering_oracle(space, k)
        assert (delta, centers) == sps.covering_oracle(sps.FiniteSpace(coords), k)
        centers.append("caller's own list")
        assert sps.covering_oracle(space, k) == (delta, centers[:-1])


@pytest.mark.parametrize("space", [
    sps.ConvergentUnionSpace([(0.0, 1, 40), (2.0, 1, 40)]),
    sps.ConvergentUnionSpace([(0.0, -1, 30), (0.5, 1, 30), (3.0, -1, 20)]),
    sps.NestedConvergentSpace(6, 8),
])
def test_explicit_space_coverings_match_reference(space):
    points = space.scan_points()
    for k in (64, 8, 128, 1, 2, 4, 16, 32):
        delta, centers = sps.covering_oracle(space, k)
        assert (delta, centers) == ref_covering(points, k)
        assert all(type(c) is float for c in centers)
        assert _certified(points, delta, centers)
    for rank, cls in enumerate(space.rank_classes()):
        for k in (1, 3, 8, 32):
            assert sps.rank_covering_oracle(space, rank, k) == ref_covering(cls, k)


# ---------------------------------------------------------------------------
# scan oracles


def _radius_at(d, shift):
    """A radius r with r + shift == d in floats, where one lies nearby, so a
    scan point at distance d sits exactly on the oracle's ball boundary."""
    r = d - shift
    for _ in range(4):
        if r + shift == d:
            break
        r = math.nextafter(r, math.inf if r + shift < d else -math.inf)
    return r if r > 0 else 1e-15


# closed balls test d <= r + _EPS and open balls d < r - _EPS
_SHIFTS = [_EPS, -_EPS, 0.0, 2 * _EPS, -2 * _EPS]


def _balls(scan, max_size=4):
    """Balls centred on or off the scan points; a centred ball's radius puts
    some scan point exactly at r + _EPS, r - _EPS, r or r +- 2 _EPS."""
    n = len(scan)
    exact = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from(_SHIFTS)).map(
        lambda t: sps.Ball(scan[t[0]],
                           _radius_at(abs(scan[t[1]] - scan[t[0]]), t[2])))
    free = st.tuples(st.floats(-0.5, 1.5, allow_nan=False),
                     st.floats(1e-15, 0.6, allow_nan=False)).map(
        lambda cr: sps.Ball(*cr))
    return st.lists(st.one_of(exact, free), min_size=1, max_size=max_size)


_ORDERED = [
    sps.IntervalSpace(well_order="coordinate"),
    sps.ConvergentSpace(60),
    sps.FiniteSpace([0.75, 0.0, 0.5, 0.25, 1.0, 0.125]),
]


@pytest.mark.parametrize("space", _ORDERED, ids=lambda s: s.kind)
def test_ordering_oracle_matches_reference(space):
    @_SETTINGS
    @given(_balls(space.scan_points()))
    def check(balls):
        assert _same(sps.ordering_oracle(space, balls), ref_ordering(space, balls))

    check()


def _decomposed_spaces():
    interval = sps.IntervalSpace(
        scan_resolution=2.0 ** -7,
        depth_chain=[{"kind": "all"},
                     {"kind": "interval", "bounds": [0.2, 0.6]},
                     {"kind": "points", "points": [0.25, 0.5]}])
    finite = sps.FiniteSpace(
        [0.5, 0.0, 0.875, 0.25, 1.0, 0.375, 0.625],
        depth_chain=[{"kind": "all"}, {"kind": "points", "points": [0.25, 0.625]},
                     {"kind": "points", "points": [0.625]}])
    return [interval, finite,
            sps.space_from_descriptor(finite.descriptor())]


@pytest.mark.parametrize("space", _decomposed_spaces(),
                         ids=["interval", "finite", "finite-clone"])
def test_depth_and_cover_oracles_match_reference(space):
    scan = space.scan_points()

    @_SETTINGS
    @given(_balls(scan), st.one_of(st.none(), st.sampled_from(scan)),
           _balls(scan, max_size=12) | st.just([]))
    def check(balls, anchor, cover_balls):
        assert _same(_outcome(sps.depth_oracle, space, balls),
                     _outcome(ref_depth, space, balls))
        got = sps.cover_oracle(space, anchor, cover_balls)
        want = ref_cover(space, anchor, cover_balls)
        assert got.covered == want.covered and _same(got.witness, want.witness)

    check()


@pytest.mark.parametrize("space", _decomposed_spaces(),
                         ids=["interval", "finite", "finite-clone"])
def test_scan_oracles_on_exact_eps_boundaries(space):
    """One ball from the least scan point whose boundary passes exactly
    through another scan point, so < and <= give different answers."""
    scan = sorted(space.scan_points())
    c = scan[0]
    for p in scan[1:]:
        for shift in _SHIFTS:
            balls = [sps.Ball(c, _radius_at(abs(p - c), shift))]
            assert _same(_outcome(sps.depth_oracle, space, balls),
                         _outcome(ref_depth, space, balls))
            got = sps.cover_oracle(space, None, balls)
            want = ref_cover(space, None, balls)
            assert got.covered == want.covered
            assert _same(got.witness, want.witness)
