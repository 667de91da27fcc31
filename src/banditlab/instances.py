"""Payoff instances: a benign single-peak family plus the lower-bound
constructions (needle lineages on a ball tree, the bump-sequence ensemble,
the disjoint-wedge family, and the recursive bump-ball family).

Every instance exposes an analytic expected payoff `mean(x)`, its supremum
`mu_star`, and `bandit_reward(x, rng)` for one pull.  A sign mixture is
sampled one round at a time by a `FunctionSample`, which draws each sign on
first use and keeps it for the rest of the round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from .errors import InvalidScheduleError, ValidationError, required


def needle_eval(node, x, space):
    """Wedge with a plateau: min(r - d(x, center), r/2) inside B(center, r),
    zero outside.  1-Lipschitz with peak value r/2."""
    center = node.center
    radius = node.radius
    d = space.distance(x, center)
    if d >= radius:
        return 0.0
    return min(radius - d, radius / 2.0)


# ---------------------------------------------------------------------------
# round samples


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


# ---------------------------------------------------------------------------
# base class


class PayoffInstance:
    kind = "abstract"
    uniformly_lipschitz = False
    noise = "bernoulli"

    def __init__(self, space):
        self.space = space
        self.metadata = {}

    def mean(self, x):
        raise NotImplementedError

    @property
    def mu_star(self):
        raise NotImplementedError

    def mean_vector(self, points):
        return np.array([self.mean(x) for x in points])

    def bandit_reward(self, x, rng):
        """Reward for a single pull: the sampled function value for sign
        mixtures, otherwise a Bernoulli draw of the mean."""
        if self.uniformly_lipschitz:
            return FunctionSample(self, rng).evaluate(x)
        if self.noise == "none":
            return self.mean(x)
        return 1.0 if rng.random() < self.mean(x) else 0.0

    def active_terms(self, x):
        """(key, value, bias) triples with payoff 1/2 + sum sign_key * value,
        sign_key in {-1, +1} with expectation bias.  Only sign mixtures
        implement this."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError


def monte_carlo_mean(instance, x, n, rng):
    """Estimate the expected payoff at x from n independent rounds.
    Returns (estimate, standard_error)."""
    if instance.uniformly_lipschitz:
        values = np.full(n, 0.5)
        for _key, value, bias in instance.active_terms(x):
            if bias >= 1.0:
                values += value
            else:
                signs = np.where(rng.random(n) < (1.0 + bias) / 2.0, 1.0, -1.0)
                values += value * signs
    elif instance.noise == "none":
        return instance.mean(x), 0.0
    else:
        values = (rng.random(n) < instance.mean(x)).astype(float)
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se


# ---------------------------------------------------------------------------
# benign instances


class PeakInstance(PayoffInstance):
    """mu(x) = c - slope * d(x, peak); unique maximizer at the peak."""

    kind = "peak"
    noise = "bernoulli"

    def __init__(self, space, peak, slope, c=0.9, noise="bernoulli"):
        super().__init__(space)
        space.validate_point(peak)
        if not 0 < slope <= 1:
            raise ValidationError("slope must be in (0,1]")
        if not 0 < c <= 1:
            raise ValidationError("c must be in (0,1]")
        far = max(space.distance(p, peak) for p in space.scan_points())
        if c - slope * far < -1e-12:
            raise ValidationError("payoff would go negative at the far end")
        self.peak, self.slope, self.c = peak, slope, c
        self.noise = noise

    def mean(self, x):
        return self.c - self.slope * self.space.distance(x, self.peak)

    @property
    def mu_star(self):
        return self.c

    def descriptor(self):
        return {"kind": "peak", "space": self.space.descriptor(),
                "peak": _encode_point(self.peak), "slope": self.slope,
                "c": self.c, "noise": self.noise}


class ConstantInstance(PayoffInstance):
    kind = "constant"

    def __init__(self, space, c=0.5, noise="bernoulli"):
        super().__init__(space)
        if not 0 <= c <= 1:
            raise ValidationError("c must be in [0,1]")
        self.c = c
        self.noise = noise

    def mean(self, x):
        return self.c

    @property
    def mu_star(self):
        return self.c

    def descriptor(self):
        return {"kind": "constant", "space": self.space.descriptor(),
                "c": self.c, "noise": self.noise}


class ArmsInstance(PayoffInstance):
    """Explicit per-point means on a finite space (classic k-armed bandit)."""

    kind = "arms"

    def __init__(self, space, means, noise="bernoulli"):
        super().__init__(space)
        if space.kind != "finite":
            raise ValidationError("arms need a finite space")
        if len(means) != len(space.coords):
            raise ValidationError("one mean per point required")
        if any(not 0 <= m <= 1 for m in means):
            raise ValidationError("means must lie in [0,1]")
        self.means = {p: float(m) for p, m in zip(space.coords, means)}
        self.noise = noise

    def mean(self, x):
        return self.means[x]

    @property
    def mu_star(self):
        return max(self.means.values())

    def descriptor(self):
        return {"kind": "arms", "space": self.space.descriptor(),
                "means": [self.means[p] for p in self.space.coords],
                "noise": self.noise}


# ---------------------------------------------------------------------------
# needle lineage on a ball tree


def _lineage_deltas(tree, gamma, depth_cap):
    """Per-depth biases delta_i = n_i^{-1/2} with n_i the least n such that
    n^gamma < (1/(8i)) r*_i sqrt(n) for all larger n, where r*_i is the
    smallest radius at depth i.  Validated by scanning past the threshold."""
    if not 0 < gamma < 0.5:
        raise ValidationError("gamma must be in (0, 1/2) for a finite threshold")
    deltas = []
    r_star = []
    for i in range(1, depth_cap + 1):
        radii = [n.radius for n in tree.level(i)]
        r_i = min(radii)
        r_star.append(r_i)
        bound = 8.0 * i / r_i
        if math.log(bound) / (0.5 - gamma) > 700.0:  # 10 n_i overflows
            raise InvalidScheduleError(f"depth-{i} threshold past float range")
        n_i = max(1, math.ceil(bound ** (1.0 / (0.5 - gamma))))
        for n in (n_i, n_i + 1, 2 * n_i, 10 * n_i):
            # at n_i the sides agree up to rounding, which scales with them
            if not n ** gamma < (r_i / (8.0 * i)) * math.sqrt(n) * (1 + 1e-9):
                raise InvalidScheduleError("bias threshold scan failed")
        deltas.append(n_i ** -0.5)
    return deltas, r_star


class LineageInstance(PayoffInstance):
    """Sum of signed needles over a ball tree.  A lineage designates one
    child of every node; signs of lineage nodes at depth i are +1 with
    probability (1 + delta_i)/2, all other signs are fair coins."""

    kind = "lineage"
    uniformly_lipschitz = True

    def __init__(self, space, tree, gamma=0.3, depth_cap=None, seed=0,
                 biases=None, lineage="seeded"):
        super().__init__(space)
        self.tree = tree
        self.gamma = gamma
        self.depth_cap = depth_cap if depth_cap is not None else tree.depth_cap
        if not 1 <= self.depth_cap <= tree.depth_cap:
            raise ValidationError("depth_cap must be within the tree depth")
        self.seed = seed
        self.lineage_rule = lineage
        if biases is not None:
            if len(biases) != self.depth_cap:
                raise ValidationError("one bias per depth required")
            self.deltas = [float(b) for b in biases]
            self.r_star = [min(n.radius for n in tree.level(i))
                           for i in range(1, self.depth_cap + 1)]
        else:
            self.deltas, self.r_star = _lineage_deltas(tree, gamma, self.depth_cap)
        if any(not 0 <= d <= 1 for d in self.deltas):
            raise ValidationError("biases must lie in [0,1]")
        self._choice = self._pick_lineage()
        self.metadata["tail_bound"] = 2.0 ** (-self.depth_cap - 1)

    def _pick_lineage(self):
        choice = {}
        if self.lineage_rule == "seeded":
            rng = np.random.default_rng(self.seed)
            for node, depth in self.tree.nodes():
                if node.children and depth < self.depth_cap:
                    choice[node.path] = int(rng.integers(2))
        elif self.lineage_rule in ("leftmost", "rightmost"):
            idx = 0 if self.lineage_rule == "leftmost" else 1
            for node, depth in self.tree.nodes():
                if node.children and depth < self.depth_cap:
                    choice[node.path] = idx
        else:
            raise ValidationError(f"unknown lineage rule {self.lineage_rule!r}")
        return choice

    def _chain(self, x):
        """Ball-tree nodes of depth 1..depth_cap whose ball contains x,
        with their depth and lineage membership."""
        node = self.tree.root
        depth = 0
        while node.children and depth < self.depth_cap:
            inside = [
                (i, ch) for i, ch in enumerate(node.children)
                if self.space.distance(x, ch.center) < ch.radius
            ]
            if len(inside) > 1:
                raise ValidationError("sibling balls overlap; tree is invalid")
            if not inside:
                return
            idx, child = inside[0]
            depth += 1
            yield depth, child, self._choice.get(node.path) == idx
            node = child

    def active_terms(self, x):
        for depth, node, in_lineage in self._chain(x):
            value = needle_eval(node, x, self.space)
            bias = self.deltas[depth - 1] if in_lineage else 0.0
            yield node.path, value, bias

    def mean(self, x):
        total = 0.5
        for depth, node, in_lineage in self._chain(x):
            if in_lineage:
                total += self.deltas[depth - 1] * needle_eval(node, x, self.space)
        return total

    def lineage_path(self):
        """Nodes reached by following the designated child from the root."""
        node = self.tree.root
        out = []
        for _depth in range(self.depth_cap):
            node = node.children[self._choice[node.path]]
            out.append(node)
        return out

    @property
    def mu_star(self):
        return 0.5 + sum(
            d * n.radius / 2.0 for d, n in zip(self.deltas, self.lineage_path())
        )

    def descriptor(self):
        return {"kind": "lineage", "space": self.space.descriptor(),
                "tree_depth": self.tree.depth_cap, "gamma": self.gamma,
                "depth_cap": self.depth_cap, "seed": self.seed,
                "lineage": self.lineage_rule,
                "biases": list(self.deltas)}


# ---------------------------------------------------------------------------
# bump-sequence ensemble (baseline + one bump per index)


class LogTEnsembleInstance(PayoffInstance):
    """Baseline mu0(x) = 1/2 - d(x, x*)/8; member i >= 1 adds the bump
    (3/4) max(0, r_i/3 - d(x, x*)) where r_i is the distance of the i-th
    sequence point from x*.  Consecutive r must contract by more than 2."""

    kind = "logt"

    def __init__(self, space, seq, i, x_star=None, noise="bernoulli"):
        super().__init__(space)
        if x_star is None:
            x_star = seq[-1]
            seq = seq[:-1]
        if not seq:
            raise ValidationError("need at least one sequence point")
        for p in list(seq) + [x_star]:
            space.validate_point(p)
        self.x_star = x_star
        self.seq = list(seq)
        self.radii = [space.distance(p, x_star) for p in self.seq]
        if any(r <= 0 for r in self.radii):
            raise ValidationError("sequence points must be distinct from x*")
        for a, b in zip(self.radii, self.radii[1:]):
            if not b < a / 2.0:
                raise InvalidScheduleError(
                    "sequence must contract toward x* by more than a factor 2")
        if not 0 <= i <= len(self.seq):
            raise ValidationError("member index out of range")
        self.i = i
        self.noise = noise

    def mean(self, x):
        mu = 0.5 - self.space.distance(x, self.x_star) / 8.0
        if self.i >= 1:
            r = self.radii[self.i - 1]
            mu += 0.75 * max(0.0, r / 3.0 - self.space.distance(x, self.x_star))
        return mu

    @property
    def mu_star(self):
        if self.i >= 1:
            return 0.5 + self.radii[self.i - 1] / 4.0
        return 0.5

    def bump_ball(self):
        """Support ball of the member's bump (None for the baseline)."""
        if self.i == 0:
            return None
        return sp.Ball(self.x_star, self.radii[self.i - 1] / 3.0)

    def descriptor(self):
        return {"kind": "logt", "space": self.space.descriptor(),
                "seq": [_encode_point(p) for p in self.seq],
                "x_star": _encode_point(self.x_star), "i": self.i,
                "noise": self.noise}


# ---------------------------------------------------------------------------
# disjoint wedges with one favored center per block


class NoncompactInstance(PayoffInstance):
    """Disjoint wedges G_i(x) = min(r - d(x, s_i), r - r_k) on B(s_i, r).
    Centers are grouped in blocks; within block k the plateau height is
    r - r_k with r_k = r / 2^{k+1}.  One favored center per block keeps a
    fixed +1 sign; all other wedges flip fair coins each round."""

    kind = "noncompact"
    uniformly_lipschitz = True

    def __init__(self, centers, r, t_schedule=None, seed=0, space=None,
                 sizes=None):
        space = space if space is not None else sp.IntervalSpace()
        super().__init__(space)
        if not 0 < r <= 0.5:
            raise ValidationError("base radius must be in (0, 1/2]")
        for p in centers:
            space.validate_point(p)
        for i, p in enumerate(centers):
            for q in centers[i + 1:]:
                if space.distance(p, q) <= 2 * r:
                    raise ValidationError("wedge balls overlap")
        if sizes is None:
            if t_schedule is None or any(
                    b <= a for a, b in zip(t_schedule, t_schedule[1:])):
                raise InvalidScheduleError("t_schedule must be strictly increasing")
            sizes = [4 ** t for t in t_schedule]
            self.metadata["guarantee_breaking"] = False
        else:
            self.metadata["guarantee_breaking"] = True
            self.metadata["theoretical_sizes"] = (
                [4 ** t for t in t_schedule] if t_schedule else None)
        if sum(sizes) != len(centers):
            raise ValidationError("block sizes must sum to the center count")
        self.centers = list(centers)
        self.r = float(r)
        self.sizes = list(sizes)
        self.t_schedule = list(t_schedule) if t_schedule is not None else None
        self.seed = seed
        self.block_of = []
        for k, size in enumerate(sizes, start=1):
            self.block_of.extend([k] * size)
        self.r_k = {k: r / 2.0 ** (k + 1) for k in range(1, len(sizes) + 1)}
        rng = np.random.default_rng(seed)
        favored = []
        start = 0
        for size in sizes:
            favored.append(start + int(rng.integers(size)))
            start += size
        self.favored = set(favored)

    def _wedge(self, i, x):
        d = self.space.distance(x, self.centers[i])
        if d >= self.r:
            return 0.0
        return min(self.r - d, self.r - self.r_k[self.block_of[i]])

    def active_terms(self, x):
        for i, c in enumerate(self.centers):
            if self.space.distance(x, c) < self.r:
                value = self._wedge(i, x)
                yield i, value, (1.0 if i in self.favored else 0.0)
                return

    def mean(self, x):
        for i, c in enumerate(self.centers):
            if self.space.distance(x, c) < self.r:
                return 0.5 + (self._wedge(i, x) if i in self.favored else 0.0)
        return 0.5

    @property
    def mu_star(self):
        return 0.5 + self.r - self.r_k[len(self.sizes)]

    def descriptor(self):
        return {"kind": "noncompact", "space": self.space.descriptor(),
                "centers": [_encode_point(p) for p in self.centers],
                "r": self.r, "sizes": list(self.sizes),
                "t_schedule": list(self.t_schedule) if self.t_schedule else None,
                "seed": self.seed,
                "guarantee_breaking": self.metadata["guarantee_breaking"]}


# ---------------------------------------------------------------------------
# recursive bump balls with a biased chain


@dataclass
class _BumpBall:
    center: float
    radius: float
    level: int
    in_q: bool
    key: int
    children: list


class MaxMinLCDInstance(PayoffInstance):
    """Recursive disjoint balls on the interval; each parent holds n_i child
    balls inside its inner half, one of which (the Q child) gets sign bias
    E[sigma] = 1/3.  mu = 1/2 + sum over Q balls of their bump / 3."""

    kind = "maxminlcd"
    uniformly_lipschitz = True

    def __init__(self, space, b=0.5, depth_cap=3, seed=0, n_list=None):
        if space is None:
            space = sp.IntervalSpace()
        super().__init__(space)
        if space.kind != "interval":
            raise ValidationError("recursive ball placement needs the interval")
        self.b = float(b)
        self.depth_cap = int(depth_cap)
        self.seed = seed
        self.n_list = list(n_list) if n_list is not None else [3] * self.depth_cap
        if len(self.n_list) != self.depth_cap or any(n < 2 for n in self.n_list):
            raise ValidationError("need n >= 2 children at each level")
        self.metadata["guarantee_breaking"] = True
        rng = np.random.default_rng(seed)
        self.radii = []
        self._key = 0
        r_prev = 0.25
        for n in self.n_list:
            r_prev = r_prev / (4.0 * n)
            self.radii.append(r_prev)
        self.metadata["theoretical_n"] = [
            math.ceil(2.0 ** (r ** -self.b)) if r ** -self.b < 40 else None
            for r in self.radii
        ]
        self.roots = self._grow(0.5, 0.25, 0, rng)
        if sum(self.radii) >= 1.0 / 3.0:
            raise ValidationError("radius sum must stay below 1/3")

    def _grow(self, center, r_prev, level, rng):
        if level >= self.depth_cap:
            return []
        n = self.n_list[level]
        r_child = self.radii[level]
        left = center - r_prev / 2.0
        q_idx = int(rng.integers(n))
        balls = []
        for j in range(n):
            c = left + (j + 0.5) * (r_prev / n)
            self._key += 1
            ball = _BumpBall(c, r_child, level + 1, j == q_idx, self._key, [])
            ball.children = self._grow(c, r_child, level + 1, rng)
            balls.append(ball)
        return balls

    def _chain(self, x):
        balls = self.roots
        while balls:
            inside = [bb for bb in balls
                      if self.space.distance(x, bb.center) < bb.radius]
            if len(inside) > 1:
                raise ValidationError("bump balls overlap; construction invalid")
            if not inside:
                return
            ball = inside[0]
            yield ball
            balls = ball.children

    def _bump(self, ball, x):
        d = self.space.distance(x, ball.center)
        if d >= ball.radius:
            return 0.0
        return min(ball.radius - d, ball.radius / 2.0)

    def active_terms(self, x):
        for ball in self._chain(x):
            yield ball.key, self._bump(ball, x), (1.0 / 3.0 if ball.in_q else 0.0)

    def mean(self, x):
        total = 0.5
        for ball in self._chain(x):
            if ball.in_q:
                total += self._bump(ball, x) / 3.0
        return total

    def q_chain_center(self):
        balls = self.roots
        center = 0.5
        while balls:
            ball = next(bb for bb in balls if bb.in_q)
            center = ball.center
            balls = ball.children
        return center

    @property
    def mu_star(self):
        return 0.5 + sum(r / 6.0 for r in self.radii)

    def descriptor(self):
        return {"kind": "maxminlcd", "space": self.space.descriptor(),
                "b": self.b, "depth_cap": self.depth_cap, "seed": self.seed,
                "n_list": list(self.n_list),
                "guarantee_breaking": True}


# ---------------------------------------------------------------------------
# descriptors


def _encode_point(p):
    if isinstance(p, tuple):
        return list(p)
    return p


def _decode_point(space, p):
    if isinstance(p, list):
        return tuple(p)
    return p


_KINDS = ("peak", "constant", "arms", "lineage", "logt", "noncompact",
          "maxminlcd")


def instance_from_descriptor(d):
    kind = d.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"unknown instance kind {kind!r}")

    def need(key):
        return required(d, key, f"instance {kind!r}")

    # noncompact and maxminlcd instances default to the unit interval
    space = (sp.space_from_descriptor(need("space"))
             if "space" in d or kind not in ("noncompact", "maxminlcd")
             else None)
    if kind == "peak":
        return PeakInstance(space, _decode_point(space, need("peak")),
                            need("slope"), c=d.get("c", 0.9),
                            noise=d.get("noise", "bernoulli"))
    if kind == "constant":
        return ConstantInstance(space, d.get("c", 0.5),
                                noise=d.get("noise", "bernoulli"))
    if kind == "arms":
        return ArmsInstance(space, need("means"),
                            noise=d.get("noise", "bernoulli"))
    if kind == "lineage":
        tree = sp.build_ball_tree(space, need("tree_depth"))
        return LineageInstance(space, tree, gamma=d.get("gamma", 0.3),
                               depth_cap=d.get("depth_cap"),
                               seed=d.get("seed", 0),
                               biases=d.get("biases"),
                               lineage=d.get("lineage", "seeded"))
    if kind == "logt":
        return LogTEnsembleInstance(
            space, [_decode_point(space, p) for p in need("seq")], need("i"),
            x_star=_decode_point(space, d.get("x_star")),
            noise=d.get("noise", "bernoulli"))
    if kind == "noncompact":
        breaking = d.get("guarantee_breaking", True)
        return NoncompactInstance(
            [_decode_point(space, p) for p in need("centers")], need("r"),
            t_schedule=d.get("t_schedule"), seed=d.get("seed", 0), space=space,
            sizes=d.get("sizes") if breaking else None)
    return MaxMinLCDInstance(space, b=d.get("b", 0.5),
                             depth_cap=d.get("depth_cap", 3),
                             seed=d.get("seed", 0), n_list=d.get("n_list"))
