"""Explicit metric spaces with the oracle access model used by the algorithms.

Every space is represented by a finite truncation with an explicit resolution.
Oracles are pure functions of their inputs; "arbitrary choice" points in the
oracle contracts resolve to the least point under the space's canonical order
so that runs are reproducible without seeding the oracles.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, build, count, required

_EPS = 1e-12
_BUDGET = 2 ** 20  # the most points or balls any structure holds


def _within_budget(points, what):
    if points > _BUDGET:
        raise ValidationError(
            f"{what} asks for {points} points, over the budget of {_BUDGET}")


# ---------------------------------------------------------------------------
# balls and ball trees


@dataclass(frozen=True)
class Ball:
    center: object
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("ball radius must be positive")


@dataclass
class BallNode:
    center: object
    radius: float
    path: str = ""
    children: list = field(default_factory=list)


@dataclass
class BallTree:
    root: BallNode
    depth_cap: int

    def nodes(self):
        """Preorder (node, depth) pairs."""
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def node_count(self):
        return sum(1 for _ in self.nodes())


# ---------------------------------------------------------------------------
# depth structures (descending chains of closed sets)


class DepthLevel:
    """One closed set in a descending chain, with a finite scan set.

    kind 'all': the whole space.  kind 'points': an explicit finite set.
    kind 'interval': a closed subrange [a, b] of an interval space.
    """

    def __init__(self, kind, points=None, bounds=None):
        if kind not in ("all", "points", "interval"):
            raise ValidationError(f"unknown depth-level kind {kind!r}")
        if kind == "points" and points is None:
            raise ValidationError("depth level 'points' needs the field 'points'")
        if kind == "interval" and bounds is None:
            raise ValidationError("depth level 'interval' needs the field 'bounds'")
        for name, value in (("points", points), ("bounds", bounds)):
            if value is not None and not (
                    isinstance(value, (list, tuple)) and all(
                        isinstance(q, numbers.Real) and not isinstance(q, bool)
                        for q in value)):
                raise ValidationError(f"depth level field {name!r} must be "
                                      f"a list of numbers, not {value!r}")
        if bounds is not None and not (len(bounds) == 2
                                       and bounds[0] <= bounds[1]):
            raise ValidationError(f"depth level field 'bounds' needs two "
                                  f"numbers lo <= hi, not {bounds!r}")
        self.kind = kind
        self.points = list(points) if points is not None else None
        self.bounds = tuple(bounds) if bounds is not None else None

    def contains(self, space, p):
        if self.kind == "all":
            return True
        if self.kind == "points":
            return any(space.distance(p, q) <= _EPS for q in self.points)
        a, b = self.bounds
        return a - _EPS <= p <= b + _EPS

    def scan(self, space):
        if self.kind == "all":
            return space.scan_points()
        if self.kind == "points":
            return list(self.points)
        a, b = self.bounds
        pts = [p for p in space.scan_points() if a - _EPS <= p <= b + _EPS]
        return pts or [a]

    def descriptor(self):
        d = {"kind": self.kind}
        if self.points is not None:
            d["points"] = list(self.points)
        if self.bounds is not None:
            d["bounds"] = list(self.bounds)
        return d

    @staticmethod
    def from_descriptor(d):
        return build(DepthLevel, d, "depth level")


@dataclass
class DepthStructure:
    """Finite chain S_0 >= S_1 >= ... of closed sets; the empty set is implicit."""

    levels: list
    dimension: float = 1.0

    def __post_init__(self):
        if not self.levels or self.levels[0].kind != "all":
            raise ValidationError("depth chain must start with the whole space")

    def depth_of(self, space, p):
        depth = 0
        for i, level in enumerate(self.levels):
            if level.contains(space, p):
                depth = i
            else:
                break
        return depth


# ---------------------------------------------------------------------------
# spaces


class MetricSpace:
    kind = "abstract"
    depth_structure: DepthStructure | None = None
    _where = "this {kind} space"  # what a point error says p is not in

    # -- points ----------------------------------------------------------
    def point(self, p, field):
        """p as a point of the space, a JSON list read as a tree leaf; a
        value that is not one is a ValidationError naming the field."""
        p = tuple(p) if isinstance(p, list) else p
        try:
            if self._contains(p):
                return p
        except TypeError:
            pass
        raise ValidationError(f"field {field!r}: {p!r} is not a point of "
                              + self._where.format(kind=self.kind))

    def _contains(self, p):
        raise NotImplementedError

    def distance(self, p, q):
        raise NotImplementedError

    def distances(self, points, center):
        """distance(p, center) for each p of points, an array as np.asarray
        gives for a list of points, in a float array."""
        return np.array([self.distance(p, center) for p in points], dtype=float)

    def scan_points(self):
        """Finite point set used for oracle scans (the truncation itself,
        or a grid for continuous spaces)."""
        raise NotImplementedError

    def canonical_key(self, p):
        """Total order used for deterministic tie-breaks."""
        return p

    def canonical_least(self):
        return min(self.scan_points(), key=self.canonical_key)

    # -- optional capabilities ------------------------------------------
    def order_key(self, p):
        raise ValidationError(f"{self.kind} space is not well-ordered")

    def rank_classes(self):
        raise ValidationError(f"{self.kind} space has no CB structure")

    def perfect_neighbor(self, center, radius):
        raise ValidationError(
            f"{self.kind} space has no perfect-subspace sampler")

    # -- covering --------------------------------------------------------
    def covering(self, k):
        raise NotImplementedError

    def covering_number(self, delta):
        """Exact minimal number of diameter-<=delta sets covering the space."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def _cached(self, key, build):
        """Oracle structure built on first use and kept with the space."""
        cache = self.__dict__.setdefault("_oracle_cache", {})
        if key not in cache:
            cache[key] = build()
        return cache[key]


def _attach_depth(space, depth_chain, dimension):
    """The chain as depth structure; its points and bounds the space's."""
    if depth_chain is not None:
        levels = [d if isinstance(d, DepthLevel)
                  else DepthLevel.from_descriptor(d) for d in depth_chain]
        for level, name in itertools.product(levels, ("points", "bounds")):
            for p in getattr(level, name) or ():
                space.point(p, name)
        space.depth_structure = DepthStructure(levels, dimension=dimension)
    return space


def _depth_descriptor(space, d):
    if space.depth_structure is not None:
        d["depth_chain"] = [lv.descriptor() for lv in space.depth_structure.levels]
        d["depth_dimension"] = space.depth_structure.dimension
    return d


class IntervalSpace(MetricSpace):
    """The unit interval [0,1] with |x - y|, scanned on a dyadic grid."""

    kind = "interval"
    _where = "[0,1]"

    def __init__(self, resolution=2.0 ** -20, scan_resolution=2.0 ** -10,
                 well_order=None, depth_chain=None, depth_dimension=1.0):
        self.resolution = float(resolution)
        self.scan_resolution = float(scan_resolution)
        if not 0.0 < self.resolution < math.inf:
            raise ValidationError("interval field 'resolution' must be finite "
                                  f"and > 0, not {resolution!r}")
        # the scan grid steps across [0, 1] in at most _BUDGET steps
        if not 1.0 / _BUDGET <= self.scan_resolution <= 1.0:
            raise ValidationError("interval field 'scan_resolution' must be "
                                  f"in [2^-20, 1], not {scan_resolution!r}")
        self.well_order = well_order
        if well_order not in (None, "coordinate"):
            raise ValidationError("interval well_order must be 'coordinate'")
        self._scan = None
        _attach_depth(self, depth_chain, depth_dimension)

    def _contains(self, p):
        return isinstance(p, (int, float)) and 0.0 <= p <= 1.0

    def distance(self, p, q):
        return abs(p - q)

    def distances(self, points, center):
        return np.abs(points - center)

    def scan_points(self):
        if self._scan is None:
            n = int(round(1.0 / self.scan_resolution))
            self._scan = [i / n for i in range(n + 1)]
        return self._scan

    def canonical_least(self):
        return 0.0

    def order_key(self, p):
        if self.well_order is None:
            return super().order_key(p)
        return p

    def perfect_neighbor(self, center, radius):
        step = radius / 8.0
        if step < self.resolution:
            raise ValidationError("radius below interval resolution")
        return center + step if center + step <= 1.0 else center - step

    def covering(self, k):
        delta = 1.0 / (2 * k)
        return delta, [(2 * i + 1) / (2.0 * k) for i in range(k)]

    def covering_number(self, delta):
        if delta >= 1.0:
            return 1
        return math.ceil(1.0 / delta - 1e-9)

    def descriptor(self):
        d = {
            "kind": "interval",
            "resolution": self.resolution,
            "scan_resolution": self.scan_resolution,
        }
        if self.well_order:
            d["well_order"] = self.well_order
        return _depth_descriptor(self, d)


class _FarthestPointTraversal:
    """Farthest-point traversal of a finite point set on the line, grown on
    demand.  Each new center is the first point farthest from the centers so
    far, so the first k centers are the same for every budget k and one
    traversal answers all of them.  mind holds every point's distance to its
    nearest center; deltas[m] is its maximum once centers order[:m + 1] are
    placed, which certifies the covering on the truncation."""

    def __init__(self, points):
        self.points = points
        self.coords = np.array(points, dtype=float)
        self.mind = np.abs(self.coords - self.coords[0])
        self.order = [0]
        self.deltas = [float(self.mind.max())]

    def cover(self, k):
        # a zero delta means every point lies on a center: nothing is left
        while len(self.order) < k and self.deltas[-1] > 0:
            j = int(np.argmax(self.mind))
            self.order.append(j)
            np.minimum(self.mind, np.abs(self.coords - self.coords[j]),
                       out=self.mind)
            self.deltas.append(float(self.mind.max()))
        m = min(k, len(self.order))
        return self.deltas[m - 1], [self.points[i] for i in self.order[:m]]


def _traversal_cover(space, key, points, k):
    """(delta, centers) of budget k from the space's cached traversal of
    points; a budget that fits every point returns them all at delta 0."""
    if len(points) <= k:
        return 0.0, list(points)
    return space._cached(key, lambda: _FarthestPointTraversal(points)).cover(k)


def _line_cover_count(values, delta):
    """Minimal number of diameter-<=delta sets covering a finite subset of
    the line (greedy sweep, exact)."""
    vals = sorted(values)
    count = 0
    i = 0
    while i < len(vals):
        count += 1
        hi = vals[i] + delta + _EPS
        while i < len(vals) and vals[i] <= hi:
            i += 1
    return count


class _PointSetSpace(MetricSpace):
    """A finite set of points on the line, listed in `_points` (which fixes
    the scan order) and held as the set `_pointset`."""

    def _contains(self, p):
        return p in self._pointset

    def distance(self, p, q):
        return abs(p - q)

    def distances(self, points, center):
        return np.abs(points - center)

    def scan_points(self):
        return list(self._points)

    def covering(self, k):
        return _traversal_cover(self, "covering", self._points, k)

    def covering_number(self, delta):
        return _line_cover_count(self._points, delta)


class FiniteSpace(_PointSetSpace):
    """A finite set of points on the line; listed order is the well-order."""

    kind = "finite"

    def __init__(self, coords, depth_chain=None, depth_dimension=0.0):
        if len(coords) == 0:
            raise ValidationError("finite space needs at least one point")
        if len(set(coords)) != len(coords):
            raise ValidationError("finite space points must be distinct")
        self.coords = self._points = [float(c) for c in coords]
        if not all(map(math.isfinite, self.coords)):
            raise ValidationError("finite space points must be finite")
        self._pointset = set(self._points)
        self._order = {c: i for i, c in enumerate(self.coords)}
        _attach_depth(self, depth_chain, depth_dimension)

    def order_key(self, p):
        return self._order[p]

    def rank_classes(self):
        return [list(self.coords)]

    def descriptor(self):
        return _depth_descriptor(
            self, {"kind": "finite", "coords": list(self.coords)})


class ConvergentSpace(_PointSetSpace):
    """Truncated convergent sequence {0} u {1/n : n <= N}.

    Well-order: 1 < 1/2 < ... < 1/N < 0 (isolated points first, limit last).
    """

    kind = "convergent"

    def __init__(self, n_max=100):
        self.n_max = count(n_max, "convergent field 'n_max'")
        _within_budget(self.n_max + 1, "convergent field 'n_max'")
        self._points = [1.0 / n for n in range(1, self.n_max + 1)] + [0.0]
        self._pointset = set(self._points)

    def order_key(self, p):
        if p == 0.0:
            return math.inf
        return round(1.0 / p)

    def rank_classes(self):
        return [self._points[:-1], [0.0]]

    def covering(self, k):
        # analytic: the limit plus the k - 1 largest points
        if k >= self.n_max + 1:
            return 0.0, list(self._points)
        centers = [0.0] + [1.0 / n for n in range(1, k)]
        delta = max(
            min(abs(p - c) for c in centers) for p in self._points
        )
        return delta, centers

    def descriptor(self):
        return {"kind": "convergent", "n_max": self.n_max}


class ConvergentUnionSpace(_PointSetSpace):
    """Finite union of convergent sequences: for each branch (limit, sign, N)
    the points limit + sign/n, n <= N, plus the limit itself."""

    kind = "convergent_union"

    def __init__(self, branches):
        self.branches = []
        for limit, sign, n_max in branches:
            if isinstance(sign, bool) or sign not in (-1, 1):
                raise ValidationError("branch sign must be +-1")
            self.branches.append((float(limit), int(sign), count(
                n_max, "convergent_union field 'branches' size")))
        _within_budget(sum(n_max + 1 for *_, n_max in self.branches),
                       "convergent_union field 'branches'")
        iso = [limit + sign / n for limit, sign, n_max in self.branches
               for n in range(1, n_max + 1)]
        self.limits = [b[0] for b in self.branches]
        self._points = sorted(set(iso) | set(self.limits))
        if len(self._points) != len(iso) + len(set(self.limits)):
            raise ValidationError("branch points collide")
        self._pointset = set(self._points)
        self._iso = sorted(set(iso))

    def rank_classes(self):
        return [self._iso, sorted(set(self.limits))]

    def descriptor(self):
        return {"kind": "convergent_union",
                "branches": [list(b) for b in self.branches]}


class NestedConvergentSpace(_PointSetSpace):
    """Two-level accumulation: 0, the points 1/m (m <= M), and for each m the
    sequence 1/m + 1/(m(m+1)n), n <= N, converging to 1/m from above."""

    kind = "nested_convergent"

    def __init__(self, m_max=10, n_max=10):
        self.m_max = count(m_max, "nested_convergent field 'm_max'")
        self.n_max = count(n_max, "nested_convergent field 'n_max'")
        _within_budget(self.m_max * (self.n_max + 1) + 1,
                       "nested_convergent fields 'm_max' and 'n_max'")
        self._mid = [1.0 / m for m in range(1, self.m_max + 1)]
        self._iso = [
            1.0 / m + 1.0 / (m * (m + 1) * n)
            for m in range(1, self.m_max + 1)
            for n in range(1, self.n_max + 1)
        ]
        self._points = sorted(set(self._iso) | set(self._mid) | {0.0})
        self._pointset = set(self._points)

    def rank_classes(self):
        return [sorted(self._iso), sorted(self._mid), [0.0]]

    def descriptor(self):
        return {"kind": "nested_convergent",
                "m_max": self.m_max, "n_max": self.n_max}


_BRANCH_CAP_DEFAULT = 10 ** 12
_LEAF_ENUM_CAP = 4096


def uniform_tree_branching(eps, b, depth, cap=_BRANCH_CAP_DEFAULT):
    """Branching schedule exp(eps^{-i b} (2^b - 1)) for split levels i=1..depth,
    rounded up and capped.  Returns (factors, capped_flag)."""
    factors = []
    capped = False
    for i in range(1, depth + 1):
        exponent = eps ** (-i * b) * (2.0 ** b - 1.0)
        if exponent > 700:
            raise ValidationError("branching factor overflows at this depth")
        f = math.ceil(math.exp(exponent))
        if f > cap:
            f = cap
            capped = True
        factors.append(max(2, f))
    return factors, capped


class TreeSpace(MetricSpace):
    """Leaves of a rooted tree truncated at a fixed depth; two leaves whose
    paths first diverge after a common prefix of length i are at distance
    eps^i.  Uniform branching by default; a growth exponent b gives the
    schedule exp(eps^{-i b}(2^b - 1)) with log-covering dimension b."""

    kind = "tree"

    def __init__(self, eps=0.5, depth=8, branching=None, b=None,
                 branch_cap=_BRANCH_CAP_DEFAULT):
        if not 0 < eps < 1:
            raise ValidationError("eps must be in (0,1)")
        self.eps = float(eps)
        self.depth = count(depth, "tree field 'depth'")
        self.b = b
        self.branch_cap = branch_cap
        self.branch_capped = False
        if branching is not None:
            self.branching = [count(x, "tree field 'branching'", 2)
                              for x in branching]
        elif b is not None:
            self.branching, self.branch_capped = uniform_tree_branching(
                eps, b, self.depth, branch_cap)
        else:
            self.branching = [2] * self.depth
        if len(self.branching) != self.depth:
            raise ValidationError("branching schedule must list >=2 per level")

    def _contains(self, p):
        return len(p) == self.depth and all(
            0 <= sym < width for sym, width in zip(p, self.branching))

    def distance(self, p, q):
        for i, (a, b_) in enumerate(zip(p, q)):
            if a != b_:
                return self.eps ** i
        return 0.0

    def node_count(self, level):
        count = 1
        for f in self.branching[:level]:
            count *= f
        return count

    def _node_paths(self, level):
        return itertools.product(*(range(f) for f in self.branching[:level]))

    def _leftmost_leaf(self, prefix):
        return tuple(prefix) + (0,) * (self.depth - len(prefix))

    def scan_points(self):
        if self.node_count(self.depth) > _LEAF_ENUM_CAP:
            # representative leaves at the deepest enumerable level
            level = self.depth
            while self.node_count(level) > _LEAF_ENUM_CAP:
                level -= 1
            return [self._leftmost_leaf(p) for p in self._node_paths(level)]
        return [tuple(p) for p in self._node_paths(self.depth)]

    def canonical_least(self):
        return (0,) * self.depth

    def perfect_neighbor(self, center, radius):
        # smallest split level with eps^level < radius/4 gives a leaf close
        # enough for the ball-tree child rule
        level = 0
        while self.eps ** level >= radius / 4.0:
            level += 1
            if level > self.depth - 1:
                raise ValidationError(
                    "tree truncation too shallow for this radius")
        sym = (center[level] + 1) % self.branching[level]
        return tuple(center[:level]) + (sym,) + (0,) * (self.depth - level - 1)

    def covering(self, k):
        level = 0
        for j in range(self.depth + 1):
            if self.node_count(j) <= k:
                level = j
            else:
                break
        delta = self.eps ** level if level < self.depth else 0.0
        points = [self._leftmost_leaf(p) for p in self._node_paths(level)]
        return delta, points

    def covering_number(self, delta):
        if delta >= 1.0:
            return 1
        for j in range(1, self.depth + 1):
            if self.eps ** j <= delta + _EPS:
                return self.node_count(j)
        raise ValidationError("delta below tree truncation resolution")

    def descriptor(self):
        d = {"kind": "tree", "eps": self.eps, "depth": self.depth}
        if self.b is not None:
            d["b"] = self.b
            d["branch_cap"] = self.branch_cap
            d["branch_capped"] = self.branch_capped
        else:
            d["branching"] = list(self.branching)
        return d


# ---------------------------------------------------------------------------
# oracle front-ends


def covering_oracle(space, k):
    if k < 1:
        raise ValidationError("covering budget must be >= 1")
    _within_budget(k, "covering")
    return space.covering(k)


def net_for_radius(space, radius):
    """(points, delta, saturated): the covering of the smallest doubling
    budget whose delta is <= radius, kept with the space.  saturated says
    the net cannot refine: it is the whole space (delta 0), the covering
    stopped growing, or the next budget would pass _BUDGET."""

    def search():
        k = 1
        while True:
            delta, points = covering_oracle(space, k)
            if delta <= radius + _EPS:
                return points, delta, delta <= 0.0
            if len(points) < k or 2 * k > _BUDGET:
                return points, delta, True
            k *= 2

    return space._cached(("net", radius), search)


_MASK_CELLS = 1 << 16  # scan points x balls compared per numpy block


def _scan_array(space, level=None):
    """(points, coords): the scan set of a depth level (None: of the whole
    space) sorted by canonical_key, and its float64 coordinates."""

    def build():
        src = space.scan_points() if level is None else level.scan(space)
        points = sorted(src, key=space.canonical_key)
        coords = np.array(points, dtype=float)
        if coords.ndim != 1:
            raise ValidationError(
                f"scan oracles need points on the line, not {space.kind} points")
        return points, coords

    return space._cached(level, build)


def _ball_union(coords, balls, open_balls=False):
    """Mask of the coordinates inside some ball: |p - c| <= r + _EPS for the
    closed balls, |p - c| < r - _EPS for the open ones."""
    centers = np.array([b.center for b in balls], dtype=float)
    radii = np.array([b.radius for b in balls], dtype=float)
    bounds = radii - _EPS if open_balls else radii + _EPS
    mask = np.zeros(len(coords), dtype=bool)
    step = max(1, _MASK_CELLS // max(1, len(coords)))
    for lo in range(0, len(balls), step):
        dist = np.abs(coords[:, None] - centers[lo:lo + step])
        bound = bounds[lo:lo + step]
        hit = dist < bound if open_balls else dist <= bound
        mask |= hit.any(axis=1)
    return mask


def ordering_oracle(space, balls):
    if not balls:
        raise ValidationError("ordering oracle needs at least one ball")
    points, coords = _scan_array(space)
    covered = [points[i] for i in np.flatnonzero(_ball_union(coords, balls))]
    if not covered:
        return min(points, key=space.order_key)
    return max(covered, key=space.order_key)


def rank_covering_oracle(space, rank, k):
    classes = space.rank_classes()
    if not 0 <= rank < len(classes):
        raise ValidationError(f"rank {rank} out of range for CB rank {len(classes) - 1}")
    return _traversal_cover(space, ("rank", rank), classes[rank], k)


def _require_depth(space):
    if space.depth_structure is None:
        raise ValidationError(f"{space.kind} space has no depth structure")
    return space.depth_structure


def depth_oracle(space, balls):
    ds = _require_depth(space)
    if not balls:
        raise ValidationError("depth oracle needs at least one ball")
    for level in reversed(ds.levels):
        points, coords = _scan_array(space, level)
        hits = np.flatnonzero(_ball_union(coords, balls))
        if len(hits):
            # the scan is sorted by canonical_key: the first hit is the least
            return points[hits[0]]
    raise ValidationError(
        "no scan point of any chain set lies in the ball union")


@dataclass(frozen=True)
class CoverResult:
    covered: bool
    witness: object = None


def cover_oracle(space, anchor, balls):
    witness = next(cover_witnesses(space, anchor, balls, None), None)
    return CoverResult(witness is None, witness)


def cover_witnesses(space, anchor, balls, radius):
    """cover_oracle's witness, then each next one once the open radius-balls
    of the earlier ones join the balls (the first reads no radius).  One scan:
    the balls' union is built once and each witness ORs in its own ball."""
    ds = _require_depth(space)
    lam = 0 if anchor is None else ds.depth_of(space, anchor)
    points, coords = _scan_array(space, ds.levels[lam])
    covered = _ball_union(coords, balls, open_balls=True)
    i = 0
    while True:
        # the mask only grows, so no point before the last witness is outside
        outside = np.flatnonzero(~covered[i:])
        if not len(outside):
            return
        i += outside[0]
        yield points[i]
        covered |= _ball_union(coords, [Ball(points[i], radius)],
                               open_balls=True)


def covering_number(space, delta):
    if delta <= 0:
        raise ValidationError("delta must be positive")
    return space.covering_number(delta)


@dataclass
class DimensionEstimate:
    estimate: float
    table: list


def estimate_dimension(space, mode, delta_grid):
    """Slope of log N_delta (mode 'cov') or log log N_delta (mode 'lcd')
    against log(1/delta), taken as the max slope over the tail of the grid."""
    if mode not in ("cov", "lcd"):
        raise ValidationError("mode must be 'cov' or 'lcd'")
    grid = list(delta_grid)
    if (len(grid) < 3 or not all(map(math.isfinite, grid))
            or any(b >= a for a, b in zip(grid, grid[1:]))):
        raise ValidationError(
            "need >= 3 finite, strictly decreasing delta values")
    table = []
    ys = []
    for d in grid:
        count = covering_number(space, d)
        log_n = math.log(count)
        if mode == "lcd":
            if count < 2:
                raise ValidationError("lcd mode needs N_delta >= 2 on the grid")
            y = math.log(log_n)
        else:
            y = log_n
        ys.append(y)
        table.append({
            "delta": d, "count": count,
            "statistic": y / math.log(1.0 / d) if d < 1 else float("nan"),
        })
    slopes = [
        (ys[i + 1] - ys[i]) / (math.log(1.0 / grid[i + 1]) - math.log(1.0 / grid[i]))
        for i in range(len(grid) - 1)
    ]
    tail = slopes[-max(1, len(slopes) // 3):]
    return DimensionEstimate(max(tail), table)


def cb_rank(space):
    return len(space.rank_classes()) - 1


# ---------------------------------------------------------------------------
# ball-tree construction

_CHILD_SHRINK = 0.49  # slightly under d/2 so the sibling inequality is strict


def build_ball_tree(space, depth_cap):
    """Root (y, 1); each node (y, r) gets children (y, r') and (y', r') where
    y' is a designated point of B(y, r/4) and r' = 0.49 d(y, y')."""
    root_center = space.canonical_least() if space.kind == "tree" else 0.5
    # 2^(depth_cap + 1) - 1 nodes of a point's coordinates each; the depth
    # is cut first, as 2^depth_cap of a huge depth would not fit in memory
    coords = np.size(root_center)
    nodes = 2 ** (min(depth_cap, _BUDGET.bit_length()) + 1) - 1
    if nodes * coords > _BUDGET:
        raise ValidationError(
            f"a ball tree of 'tree_depth' {depth_cap} asks for "
            f"2^{depth_cap + 1} - 1 nodes of {coords} coordinates, over the "
            f"budget of {_BUDGET}")
    root = BallNode(root_center, 1.0, path="")
    # a stack, not a recursive closure: that cycle would keep the space
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth >= depth_cap:
            continue
        sibling = space.perfect_neighbor(node.center, node.radius)
        d = space.distance(node.center, sibling)
        if d <= 0:
            raise ValidationError(
                "perfect-subspace sampler returned the center")
        r_child = _CHILD_SHRINK * d
        node.children = [
            BallNode(node.center, r_child, path=node.path + "0"),
            BallNode(sibling, r_child, path=node.path + "1"),
        ]
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return BallTree(root, depth_cap)


def ball_tree_violations(tree, space):
    """Worst slack of the two defining inequalities over all nodes; both must
    be strictly positive for a valid tree."""
    parent_slack = math.inf
    sibling_slack = math.inf
    for node, _ in tree.nodes():
        for child in node.children:
            gap = node.radius / 2.0 - (
                space.distance(node.center, child.center) + child.radius)
            parent_slack = min(parent_slack, gap)
        if len(node.children) == 2:
            a, b = node.children
            gap = space.distance(a.center, b.center) - (a.radius + b.radius)
            sibling_slack = min(sibling_slack, gap)
    return parent_slack, sibling_slack


# ---------------------------------------------------------------------------
# descriptors

_KINDS = {cls.kind: cls for cls in (
    IntervalSpace, FiniteSpace, ConvergentSpace, ConvergentUnionSpace,
    NestedConvergentSpace, TreeSpace)}


def space_from_descriptor(d):
    """The space a descriptor() describes: its constructor's signature is the
    schema.  A tree's `branch_capped`, derived from `b` and `branch_cap`, is
    accepted and dropped."""
    kind = required(d, "kind", "space")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown space kind {kind!r}")
    fields = {k: v for k, v in d.items() if k != "kind"}
    if kind == "tree":
        fields.pop("branch_capped", None)
    return build(_KINDS[kind], fields, f"{kind} space")
