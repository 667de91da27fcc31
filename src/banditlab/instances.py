"""Payoff instances: a benign single-peak family plus the lower-bound
constructions (needle lineages on a ball tree, the bump-sequence ensemble,
the disjoint-wedge family, and the recursive bump-ball family).

Every instance exposes an analytic expected payoff `mean(x)`, its supremum
`mu_star`, and `bandit_reward(x, rng)` for one pull.  The three sign
mixtures (lineage, noncompact, maxminlcd) compile their terms once, at
construction, into a forest of `_Term`s: signed, plateaued bumps on nested
balls whose siblings are disjoint, each with its own key and sign bias.
`term_table` compiles a point list into arrays that give the means of all
of them, in one walk down that forest that takes each term's points
together, and `table_round` samples rounds of them at once: it is the sign
sampler of `bandit_reward`, `monte_carlo_mean` and certification.  A
match's sign pulls go through `harness._sign_pulls`, which adds a point's
compiled row with one uniform of the match's stream per drawn sign; its
reference in the tests is `table_round`, through `bandit_reward`.
`_chain` walks the forest for one point, and `active_terms` reads that
walk afresh on every call; the instance keeps no walk.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from .errors import ValidationError, build, count, required


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
# base class


class PayoffInstance:
    kind = "abstract"
    uniformly_lipschitz = False

    def __init__(self, space, noise="bernoulli"):
        if noise not in ("bernoulli", "none"):
            raise ValidationError(
                f"noise must be 'bernoulli' or 'none', not {noise!r}")
        self.space = space
        self.noise = noise
        self.metadata = {}

    def mean(self, x):
        raise NotImplementedError

    @property
    def mu_star(self):
        raise NotImplementedError

    def mean_vector(self, points):
        return np.array([self.mean(x) for x in points])

    def bandit_reward(self, x, rng):
        """Reward for a single pull: one table round at x for sign mixtures,
        otherwise a Bernoulli draw of the mean."""
        if self.uniformly_lipschitz:
            return float(table_round(self.term_table([x]), rng, 1)[0, 0])
        if self.noise == "none":
            return self.mean(x)
        return 1.0 if rng.random() < self.mean(x) else 0.0

    def descriptor(self):
        raise NotImplementedError


@dataclass(slots=True)
class _Term:
    """One signed bump of a sign mixture: min(radius - d(x, center), height)
    inside B(center, radius), zero outside.  Its sign has expectation bias
    and its key is its own within the instance; its children are the terms
    nested in its ball."""

    key: object
    center: object
    radius: float
    height: float
    bias: float
    children: list


class _SignMixture(PayoffInstance):
    """Payoff 1/2 + sum of sign_key * value over the terms active at x.
    Each subclass compiles its terms at construction into the forest
    `self.roots`; siblings must be disjoint, so x lies in at most one ball
    per level and the active terms form one chain from a root down, of at
    most `depth_cap` terms."""

    uniformly_lipschitz = True

    def _chain(self, x):
        """(term, value) for each term whose ball contains x, root first."""
        distance = self.space.distance
        terms = self.roots
        while terms:
            inside = None
            for term in terms:
                d = distance(x, term.center)
                if d < term.radius:
                    if inside is not None:
                        raise ValidationError(
                            "sibling balls overlap; construction invalid")
                    inside, value = term, min(term.radius - d, term.height)
            if inside is None:
                return
            yield inside, value
            terms = inside.children

    def active_terms(self, x):
        """(key, value, bias) triples with payoff 1/2 + sum sign_key * value,
        sign_key in {-1, +1} with expectation bias, from a fresh walk."""
        for term, value in self._chain(x):
            yield term.key, value, term.bias

    def term_table(self, points):
        """(bias, index, value) of the points' walks.  bias[k] is the sign
        bias of the k-th key in first-use order (points in order, terms root
        first); row i of the (points x depth_cap) arrays index and value
        lists point i's terms in walk order, padded with index -1 and value
        0.0.  `table_round` samples rounds of it.  One walk down the
        forest serves all points: each term keeps the rows of its parent's
        that lie in its ball, and the keys, numbered in walk order, are then
        renumbered by first row and level."""
        xs = np.asarray(points)
        cap = self.depth_cap
        index = np.full((len(points), cap), -1, dtype=np.intp)
        value = np.zeros((len(points), cap))
        bias, first = [], []
        stack = [(self.roots, np.arange(len(points)), 0)]
        while stack:
            terms, rows, level = stack.pop()
            for term in terms:
                d = self.space.distances(xs[rows], term.center)
                inside = d < term.radius
                sel = rows[inside]
                if not len(sel):
                    continue
                if (index[sel, level] >= 0).any():
                    raise ValidationError(
                        "sibling balls overlap; construction invalid")
                index[sel, level] = len(bias)
                value[sel, level] = np.minimum(term.radius - d[inside],
                                               term.height)
                bias.append(term.bias)
                first.append(sel[0] * cap + level)
                stack.append((term.children, sel, level + 1))
        order = np.argsort(first)
        rank = np.full(len(order) + 1, -1, dtype=np.intp)
        rank[order] = np.arange(len(order))
        for j in range(cap):
            index[:, j] = rank[index[:, j]]
        return np.array(bias, dtype=float)[order], index, value

    def mean(self, x):
        return float(self.table_means(self.term_table([x]))[0])

    def table_means(self, table):
        """mean(x) at each point of a term table, its terms added to 1/2 in
        walk order; a term of bias 0 and the padding add 0.0, which leaves
        a positive total as it is."""
        bias, index, value = table
        bias = np.append(bias, 0.0)
        total = np.full(len(index), 0.5)
        for j in range(index.shape[1]):
            total += bias[index[:, j]] * value[:, j]
        return total


def table_round(table, rng, rounds):
    """The values at a term table's points in `rounds` rounds, as a
    (rounds, points) array: each round's signs of the keys with bias below 1
    come in key order from one rng.random((rounds, keys)) draw, the stream
    of `rounds` one-round draws, and each point adds its terms to 1/2 in
    walk order, position by position.  The padding's index -1 reads a +1
    sign."""
    bias, index, value = table
    drawn = bias < 1.0
    signs = np.ones((rounds, len(bias) + 1))
    signs[:, :-1][:, drawn] = np.where(
        rng.random((rounds, np.count_nonzero(drawn)))
        < (1.0 + bias[drawn]) / 2.0, 1.0, -1.0)
    total = np.full((rounds, len(index)), 0.5)
    for j in range(index.shape[1]):
        total += signs[:, index[:, j]] * value[:, j]
    return total


def monte_carlo_mean(instance, x, n, rng):
    """Estimate the expected payoff at x from n independent rounds.
    Returns (estimate, standard_error)."""
    if instance.uniformly_lipschitz:
        values = table_round(instance.term_table([x]), rng, n)[:, 0]
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

    def __init__(self, space, peak, slope, c=0.9, noise="bernoulli"):
        super().__init__(space, noise)
        peak = space.point(peak, "peak")
        if not 0 < slope <= 1:
            raise ValidationError("slope must be in (0,1]")
        if not 0 < c <= 1:
            raise ValidationError("c must be in (0,1]")
        far = max(space.distance(p, peak) for p in space.scan_points())
        if c - slope * far < -1e-12:
            raise ValidationError("payoff would go negative at the far end")
        self.peak, self.slope, self.c = peak, slope, c

    def mean(self, x):
        mu = self.c - self.slope * self.space.distance(x, self.peak)
        # the constructor's slack lets the far end dip below 0 by 1e-12
        return mu if mu > 0.0 else 0.0

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
        super().__init__(space, noise)
        if not 0 <= c <= 1:
            raise ValidationError("c must be in [0,1]")
        self.c = c

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
        super().__init__(space, noise)
        if space.kind != "finite":
            raise ValidationError("arms need a finite space")
        if len(means) != len(space.coords):
            raise ValidationError("one mean per point required")
        if any(not 0 <= m <= 1 for m in means):
            raise ValidationError("means must lie in [0,1]")
        self.means = {p: float(m) for p, m in zip(space.coords, means)}

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


def _min_radii(tree, depth_cap):
    """r*_i, the smallest radius at depth i, for i = 1..depth_cap, in one
    walk of the tree."""
    r_star = [math.inf] * depth_cap
    for node, depth in tree.nodes():
        if 0 < depth <= depth_cap and node.radius < r_star[depth - 1]:
            r_star[depth - 1] = node.radius
    if math.inf in r_star:
        raise ValidationError(
            f"the ball tree has no node at depth {r_star.index(math.inf) + 1}")
    return r_star


def _lineage_deltas(r_star, gamma):
    """Per-depth biases delta_i = n_i^{-1/2} with n_i the least n such that
    n^gamma < (1/(8i)) r*_i sqrt(n) for all larger n, where r*_i is the
    smallest radius at depth i.  Validated by scanning past the threshold."""
    if not 0 < gamma < 0.5:
        raise ValidationError("gamma must be in (0, 1/2) for a finite threshold")
    deltas = []
    for i, r_i in enumerate(r_star, 1):
        bound = 8.0 * i / r_i
        if math.log(bound) / (0.5 - gamma) > 700.0:  # 10 n_i overflows
            raise ValidationError(f"depth-{i} threshold past float range")
        n_i = max(1, math.ceil(bound ** (1.0 / (0.5 - gamma))))
        for n in (n_i, n_i + 1, 2 * n_i, 10 * n_i):
            # at n_i the sides agree up to rounding, which scales with them
            if not n ** gamma < (r_i / (8.0 * i)) * math.sqrt(n) * (1 + 1e-9):
                raise ValidationError("bias threshold scan failed")
        deltas.append(n_i ** -0.5)
    return deltas


class LineageInstance(_SignMixture):
    """Sum of signed needles (`needle_eval`) over a ball tree.  A lineage
    designates one child of every node; signs of lineage nodes at depth i
    are +1 with probability (1 + delta_i)/2, all other signs are fair
    coins."""

    kind = "lineage"

    def __init__(self, space, tree, gamma=0.3, depth_cap=None, seed=0,
                 biases=None, lineage="seeded"):
        super().__init__(space)
        self.tree = tree
        self.gamma = gamma
        self.depth_cap = (tree.depth_cap if depth_cap is None else
                          count(depth_cap, "lineage field 'depth_cap'"))
        if not self.depth_cap <= tree.depth_cap:
            raise ValidationError(
                "lineage field 'depth_cap' must be at most the tree depth "
                f"{tree.depth_cap}, not {depth_cap!r}")
        self.seed = count(seed, "lineage field 'seed'", 0)
        self.lineage_rule = lineage
        self.r_star = _min_radii(tree, self.depth_cap)
        if biases is not None:
            if len(biases) != self.depth_cap:
                raise ValidationError("one bias per depth required")
            self.deltas = [float(b) for b in biases]
        else:
            self.deltas = _lineage_deltas(self.r_star, gamma)
        if any(not 0 <= d <= 1 for d in self.deltas):
            raise ValidationError("biases must lie in [0,1]")
        self._choice = self._pick_lineage()
        self.roots = self._compile(tree.root, 0)

    def _pick_lineage(self):
        """The designated child of every split node above depth_cap: one
        seeded draw per node in preorder, or the constant child."""
        rules = ("leftmost", "rightmost", "seeded")
        if self.lineage_rule not in rules:
            raise ValidationError(f"unknown lineage rule {self.lineage_rule!r}")
        rng = np.random.default_rng(self.seed)
        return {node.path: (int(rng.integers(2)) if self.lineage_rule ==
                            "seeded" else rules.index(self.lineage_rule))
                for node, depth in self.tree.nodes()
                if node.children and depth < self.depth_cap}

    def _compile(self, node, depth):
        """Terms of node's children, keyed by path and cut at depth_cap: the
        designated child is biased by delta at its depth."""
        if depth >= self.depth_cap:
            return []
        pick = self._choice.get(node.path)
        return [_Term(ch.path, ch.center, ch.radius, ch.radius / 2.0,
                      self.deltas[depth] if i == pick else 0.0,
                      self._compile(ch, depth + 1))
                for i, ch in enumerate(node.children)]

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
        super().__init__(space, noise)
        if x_star is None:
            x_star = seq[-1]
            seq = seq[:-1]
        if not seq:
            raise ValidationError("need at least one sequence point")
        self.x_star = space.point(x_star, "x_star")
        self.seq = [space.point(p, "seq") for p in seq]
        self.radii = [space.distance(p, self.x_star) for p in self.seq]
        if any(r <= 0 for r in self.radii):
            raise ValidationError("sequence points must be distinct from x*")
        for a, b in zip(self.radii, self.radii[1:]):
            if not b < a / 2.0:
                raise ValidationError(
                    "sequence must contract toward x* by more than a factor 2")
        if count(i, "logt field 'i'", 0) > len(self.seq):
            raise ValidationError("member index out of range")
        self.i = i

    def mean(self, x):
        mu = 0.5 - self.space.distance(x, self.x_star) / 8.0
        if self.i >= 1:
            r = self.radii[self.i - 1]
            mu += 0.75 * max(0.0, r / 3.0 - self.space.distance(x, self.x_star))
        # on a space wider than 4 (or with r > 2) a mean would leave [0, 1]
        return min(1.0, max(0.0, mu))

    @property
    def mu_star(self):
        if self.i >= 1:
            return min(1.0, 0.5 + self.radii[self.i - 1] / 4.0)
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


class NoncompactInstance(_SignMixture):
    """Disjoint wedges G_i(x) = min(r - d(x, s_i), r - r_k) on B(s_i, r).
    Centers are grouped in blocks; within block k the plateau height is
    r - r_k with r_k = r / 2^{k+1}.  One favored center per block keeps a
    fixed +1 sign; all other wedges flip fair coins each round."""

    kind = "noncompact"
    depth_cap = 1  # wedges do not nest

    def __init__(self, centers, r, t_schedule=None, seed=0, space=None,
                 sizes=None):
        space = space if space is not None else sp.IntervalSpace()
        super().__init__(space)
        if not 0 < r <= 0.5:
            raise ValidationError("base radius must be in (0, 1/2]")
        centers = [space.point(p, "centers") for p in centers]
        for i, p in enumerate(centers):
            for q in centers[i + 1:]:
                if space.distance(p, q) <= 2 * r:
                    raise ValidationError("wedge balls overlap")
        self.metadata["guarantee_breaking"] = sizes is not None
        if sizes is None:
            if t_schedule is None or any(
                    b <= a for a, b in zip(t_schedule, t_schedule[1:])):
                raise ValidationError("t_schedule must be strictly increasing")
            sizes = [4 ** t for t in t_schedule]
        if sum(sizes) != len(centers):
            raise ValidationError("block sizes must sum to the center count")
        self.centers = list(centers)
        self.r = float(r)
        self.sizes = list(sizes)
        self.t_schedule = list(t_schedule) if t_schedule is not None else None
        self.seed = count(seed, "noncompact field 'seed'", 0)
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
        self.roots = [_Term(i, c, self.r, self.r - self.r_k[self.block_of[i]],
                            1.0 if i in self.favored else 0.0, [])
                      for i, c in enumerate(self.centers)]

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


class MaxMinLCDInstance(_SignMixture):
    """Recursive disjoint balls on the interval; each parent holds n_i child
    balls inside its inner half, one of which (the Q child) gets sign bias
    E[sigma] = 1/3.  mu = 1/2 + sum over Q balls of their bump / 3."""

    kind = "maxminlcd"

    def __init__(self, space=None, b=0.5, depth_cap=3, seed=0, n_list=None):
        space = space if space is not None else sp.IntervalSpace()
        super().__init__(space)
        if space.kind != "interval":
            raise ValidationError("recursive ball placement needs the interval")
        self.b = float(b)
        self.depth_cap = count(depth_cap, "maxminlcd field 'depth_cap'")
        self.seed = count(seed, "maxminlcd field 'seed'", 0)
        if n_list is not None and (len(n_list) != self.depth_cap
                                   or any(n < 2 for n in n_list)):
            raise ValidationError("need n >= 2 children at each level")
        # level l holds prod_{i <= l} n_i >= 2^l terms, so 20 levels pass
        # the budget and no list of a huge depth_cap is built
        widths = itertools.accumulate(
            (n_list or [3] * min(self.depth_cap, 20))[:20], operator.mul)
        sp._within_budget(sum(widths), "maxminlcd term forest of 'n_list' "
                          "over 'depth_cap' levels")
        self.n_list = list(n_list) if n_list is not None else [3] * self.depth_cap
        self.metadata["guarantee_breaking"] = True
        rng = np.random.default_rng(seed)
        self.radii = []
        self._key = 0
        r_prev = 0.25
        for n in self.n_list:
            r_prev = r_prev / (4.0 * n)
            self.radii.append(r_prev)
        if sum(self.radii) >= 1.0 / 3.0:
            raise ValidationError("radius sum must stay below 1/3")
        self.roots = self._grow(0.5, 0.25, 0, rng)

    def _grow(self, center, r_prev, level, rng):
        if level >= self.depth_cap:
            return []
        n = self.n_list[level]
        r_child = self.radii[level]
        left = center - r_prev / 2.0
        q_idx = int(rng.integers(n))
        terms = []
        for j in range(n):
            c = left + (j + 0.5) * (r_prev / n)
            self._key += 1  # keys in preorder: read before the subtree grows
            terms.append(_Term(self._key, c, r_child, r_child / 2.0,
                               1.0 / 3.0 if j == q_idx else 0.0,
                               self._grow(c, r_child, level + 1, rng)))
        return terms

    def q_chain_center(self):
        balls = self.roots
        center = 0.5
        while balls:
            ball = next(bb for bb in balls if bb.bias)
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


_KINDS = {cls.kind: cls for cls in (
    PeakInstance, ConstantInstance, ArmsInstance, LineageInstance,
    LogTEnsembleInstance, NoncompactInstance, MaxMinLCDInstance)}


def instance_from_descriptor(d):
    """The instance a descriptor() describes: its constructor's signature is
    the schema, read with these renames.  `space` is a space descriptor
    (noncompact and maxminlcd take the unit interval without one).  The
    constructors read the points `peak`, `x_star`, `seq` and `centers`
    with `space.point`, which takes a JSON list as a tree leaf.  Lineage's
    `tree_depth` builds the ball tree `tree`.  On noncompact,
    `guarantee_breaking` false drops `sizes`, which then follow from
    `t_schedule`; maxminlcd accepts the flag and drops it."""
    kind = required(d, "kind", "instance")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown instance kind {kind!r}")
    where = f"instance {kind!r}"
    fields = {k: v for k, v in d.items() if k != "kind"}
    if "space" in fields:
        fields["space"] = sp.space_from_descriptor(fields["space"])
    for key in ("seq", "centers"):
        if key in fields and not isinstance(fields[key], list):
            raise ValidationError(f"{where} field {key!r} must be a list "
                                  f"of points, not {fields[key]!r}")
    if kind == "lineage":
        if "tree" in fields:
            raise ValidationError(f"{where} has the unknown field 'tree'")
        fields["tree"] = sp.build_ball_tree(
            required(fields, "space", where),
            count(required(fields, "tree_depth", where),
                  f"{where} field 'tree_depth'"))
        del fields["tree_depth"]
    if kind in ("noncompact", "maxminlcd"):
        if not fields.pop("guarantee_breaking", True) and kind == "noncompact":
            fields.pop("sizes", None)
    return build(_KINDS[kind], fields, where)
