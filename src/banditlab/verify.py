"""KL-divergence toolkit, indistinguishable-ensemble checks, and Lipschitz
certification for the instance generators.

All measures here are finite and explicit; products are handled coordinate
by coordinate, never through general measure theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import instances as inst_mod
from .errors import ValidationError

_SUM_TOL = 1e-12
_CHAIN_ATOM_CAP = 4096


@dataclass
class FiniteMeasure:
    atoms: list
    probs: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.atoms) != len(self.probs):
            raise ValidationError("one probability per atom required")
        if np.any(self.probs < 0):
            raise ValidationError("negative probability")
        if abs(self.probs.sum() - 1.0) > _SUM_TOL:
            raise ValidationError("probabilities must sum to 1")


def kl_divergence(p, q):
    """KL(p;q) = sum p(x) ln(p(x)/q(x)); terms with p(x)=0 contribute 0,
    and the result is +inf when p charges a q-null atom."""
    if p.atoms != q.atoms:
        raise ValidationError("measures live on different atom sets")
    return _kl_arrays(p.probs, q.probs)


def _kl_terms(p, q):
    """p ln(p/q) elementwise: 0 where p = 0, whatever q is, and +inf where
    p > 0 = q."""
    terms = np.where(p > 0, math.inf, 0.0)
    both = (p > 0) & (q > 0)
    terms[both] = p[both] * np.log(p[both] / q[both])
    return terms


def _kl_arrays(pv, qv):
    pv, qv = (np.asarray(v, dtype=float).ravel() for v in (pv, qv))
    return float(np.sum(_kl_terms(pv, qv)[pv > 0]))


def _bernoulli_kl(a, b):
    pa = np.array([1.0 - a, a])
    pb = np.array([1.0 - b, b])
    return _kl_arrays(pa, pb)


def kl_chain_check(p, q):
    """Check the chain rule on a joint distribution given as an n-dimensional
    array per measure: the joint KL must equal the sum over coordinates of
    expected conditional KLs.  Returns (lhs, rhs, residual)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("joint arrays must have identical shape")
    if p.size > _CHAIN_ATOM_CAP:
        raise ValidationError("joint atom count exceeds the enumeration cap")
    if abs(p.sum() - 1) > _SUM_TOL or abs(q.sum() - 1) > _SUM_TOL:
        raise ValidationError("joints must sum to 1")
    lhs = _kl_arrays(p, q)
    n = p.ndim
    rhs = 0.0
    for i in range(n):
        # coordinate i's law given the first i, weighted by their law; a
        # null prefix has the null conditional law
        laws = []
        for joint in (p, q):
            head = joint.sum(axis=tuple(range(i + 1, n)))
            prefix = head.sum(axis=i, keepdims=True)
            laws.append((prefix, np.divide(head, prefix, where=prefix > 0,
                                           out=np.zeros(head.shape))))
        (p_prefix, p_cond), (_q_prefix, q_cond) = laws
        rhs += float(np.sum(p_prefix * _kl_terms(p_cond, q_cond)))
    residual = abs(lhs - rhs) if math.isfinite(lhs) and math.isfinite(rhs) \
        else (0.0 if lhs == rhs else math.inf)
    return lhs, rhs, residual


# ---------------------------------------------------------------------------
# inequality lemmas


@dataclass
class BoundsReport:
    cases: list
    violations: list
    skipped: list

    @property
    def passed(self):
        return not self.violations


def kl_bounds_report(cases=None, rng=None):
    """Check three inequalities over a parameter grid.

    cases is a dict with optional keys:
      'shift':   (y, eps) pairs -> KL(y-eps; y) < eps^2 / (y (1-y))
      'event':   (p_probs, q_probs) pairs -> for every event E,
                 q(E) >= p(E) exp(-(KL(p;q) + 1/e) / p(E))
      'ratio':   (p_probs, delta) pairs; q is built with atomwise likelihood
                 ratios inside (1-delta, 1+delta) -> KL(p;q) < delta^2
    Missing keys get built-in default grids.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    cases = dict(cases or {})
    cases.setdefault("shift", [(y, f * y)
                               for y in np.linspace(0.05, 0.95, 19)
                               for f in np.linspace(0.05, 0.95, 19)])
    cases.setdefault("event", [tuple(_random_pair(rng)) for _ in range(30)])
    cases.setdefault("ratio", [(_random_simplex(rng, 4), d)
                               for d in np.linspace(0.01, 0.4, 30)])
    rows, violations, skipped = [], [], []

    for y, eps in cases["shift"]:
        if not (0 < eps < y <= 1) or y >= 1.0:
            skipped.append(("shift", y, eps))
            continue
        kl = _bernoulli_kl(y - eps, y)
        bound = eps * eps / (y * (1.0 - y))
        rows.append({"lemma": "shift", "y": y, "eps": eps,
                     "kl": kl, "bound": bound, "margin": bound - kl})
        if not kl < bound:
            violations.append(rows[-1])

    for p_probs, q_probs in cases["event"]:
        p_probs = np.asarray(p_probs, float)
        q_probs = np.asarray(q_probs, float)
        kappa = _kl_arrays(p_probs, q_probs)
        worst = math.inf
        n = len(p_probs)
        for mask in range(1, 2 ** n):
            sel = [(mask >> j) & 1 == 1 for j in range(n)]
            pe = float(p_probs[sel].sum())
            qe = float(q_probs[sel].sum())
            lower = 0.0 if pe == 0 else pe * math.exp(-(kappa + 1 / math.e) / pe)
            worst = min(worst, qe - lower)
        rows.append({"lemma": "event", "kappa": kappa, "margin": worst})
        if worst < 0:
            violations.append(rows[-1])

    for p_probs, delta in cases["ratio"]:
        p_probs = np.asarray(p_probs, float)
        q_probs = _ratio_perturb(p_probs, delta, rng)
        ratios = q_probs / p_probs
        if not (ratios.min() > 1 - delta and ratios.max() < 1 + delta):
            skipped.append(("ratio", delta))
            continue
        kl = _kl_arrays(p_probs, q_probs)
        rows.append({"lemma": "ratio", "delta": delta, "kl": kl,
                     "bound": delta * delta, "margin": delta * delta - kl})
        if not kl < delta * delta:
            violations.append(rows[-1])

    return BoundsReport(rows, violations, skipped)


def _random_simplex(rng, n):
    v = rng.random(n) + 0.05
    return v / v.sum()

def _random_pair(rng):
    n = int(rng.integers(2, 5))
    return _random_simplex(rng, n), _random_simplex(rng, n)


def _ratio_perturb(p, delta, rng):
    """q with q/p atomwise inside (1 - delta, 1 + delta), built from a
    centered perturbation so no renormalization is needed."""
    u = rng.random(len(p)) * 2 - 1
    u = u - float(np.dot(p, u))          # centered: sum p_i u_i = 0
    m = np.abs(u).max()
    if m > 0:
        u = u / m
    return p * (1.0 + 0.9 * delta * u)


# ---------------------------------------------------------------------------
# ensembles


@dataclass
class EnsembleSpec:
    """k+1 measures over payoff-function atoms, a payoff table mapping each
    atom to its values on a finite strategy list, disjoint strategy subsets,
    and the separation parameters."""

    measures: list                # P_0 first
    strategies: list
    atom_payoffs: np.ndarray      # shape (atoms, strategies)
    subsets: list                 # index sets into strategies, for P_1..P_k
    eps: float
    delta: float

    def __post_init__(self):
        self.atom_payoffs = np.asarray(self.atom_payoffs, dtype=float)
        k = len(self.measures) - 1
        if len(self.subsets) != k:
            raise ValidationError("one strategy subset per alternative measure")
        seen = set()
        for s in self.subsets:
            if seen & set(s):
                raise ValidationError("strategy subsets must be disjoint")
            seen |= set(s)
        if not (0 < self.delta < 0.5) or not 0 < self.eps < 0.5:
            raise ValidationError("eps and delta must lie in (0, 1/2)")


@dataclass
class EnsembleReport:
    ratio_extremes: list      # per alternative: (min ratio, max ratio)
    ratio_pass: bool
    gap: list                 # per alternative: sup on S_i minus sup off S_i
    gap_pass: bool
    kl: list                  # KL(P_i; P_0) per alternative
    kl_bound: float

    @property
    def passed(self):
        return self.ratio_pass and self.gap_pass


def ensemble_check(spec, horizon_atoms=1):
    """Property 1 (all-events likelihood-ratio bounds) reduces on a finite
    atom space to the atomwise extremes of P_0(a)/P_i(a): any event ratio is
    a probability-weighted mixture of atom ratios, so the event supremum and
    infimum are attained on single atoms.  For t i.i.d. rounds the extremes
    exponentiate.  Property 2 is checked directly on the means."""
    p0 = spec.measures[0]
    extremes, kls = [], []
    ratio_pass = True
    for pi in spec.measures[1:]:
        r = []
        for a, b in zip(p0.probs, pi.probs):
            if b == 0 and a == 0:
                continue
            if b == 0 or a == 0:
                ratio_pass = False
                r = [0.0, math.inf]
                break
            r.append(a / b)
        lo, hi = min(r) ** horizon_atoms, max(r) ** horizon_atoms
        extremes.append((lo, hi))
        if not (1 - spec.delta < lo and hi < 1 + spec.delta):
            ratio_pass = False
        kls.append(kl_divergence(pi, p0) * horizon_atoms)

    gaps = []
    gap_pass = True
    for pi, subset in zip(spec.measures[1:], spec.subsets):
        mu = spec.atom_payoffs.T @ pi.probs
        inside = max(mu[j] for j in subset)
        outside = max(mu[j] for j in range(len(spec.strategies))
                      if j not in subset)
        gaps.append(inside - outside)
        if inside - outside < spec.eps:
            gap_pass = False

    return EnsembleReport(extremes, ratio_pass, gaps, gap_pass,
                          kls, spec.delta ** 2)


def make_sibling_ensemble(space, tree, delta):
    """The two-sibling needle construction at depth 1: a neutral measure and
    one biased measure per sibling, payoffs read at the two sibling centers.
    Returns (spec, neutral, biased_left, biased_right)."""
    left, right = tree.root.children
    r_star = min(left.radius, right.radius)
    eps = r_star * delta / 4.0
    neutral = inst_mod.LineageInstance(space, tree, depth_cap=1,
                                       biases=[0.0], lineage="leftmost")
    biased = [
        inst_mod.LineageInstance(space, tree, depth_cap=1,
                                 biases=[delta], lineage=rule)
        for rule in ("leftmost", "rightmost")
    ]
    atoms = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
    strategies = [left.center, right.center]

    def probs(bias_left, bias_right):
        return [((1 + s1 * bias_left) / 2) * ((1 + s2 * bias_right) / 2)
                for s1, s2 in atoms]

    measures = [
        FiniteMeasure(atoms, probs(0.0, 0.0), "neutral"),
        FiniteMeasure(atoms, probs(delta, 0.0), "left"),
        FiniteMeasure(atoms, probs(0.0, delta), "right"),
    ]
    # each sibling's needle at each strategy, 0.0 outside its ball
    needles = [{key: value for key, value, _ in neutral.active_terms(x)}
               for x in strategies]
    payoffs = np.array([
        [0.5 + s1 * v.get(left.path, 0.0) + s2 * v.get(right.path, 0.0)
         for v in needles]
        for s1, s2 in atoms
    ])
    spec = EnsembleSpec(measures, strategies, payoffs,
                        subsets=[[0], [1]], eps=eps, delta=delta)
    return spec, neutral, biased[0], biased[1]


def lb_time_threshold(eps, delta, k):
    """floor(ln(17 k) / (2 delta^2)): below this horizon, at least half of
    the ensemble's measures force regret >= eps t / 2."""
    if not 0 < eps < 0.5 or not 0 < delta <= 0.5 or k < 2:
        raise ValidationError("need 0 < eps < 1/2, 0 < delta <= 1/2, k >= 2")
    return math.floor(math.log(17 * k) / (2 * delta * delta))


# ---------------------------------------------------------------------------
# accumulated-KL check for a baseline/bump instance pair


@dataclass
class Claim9Report:
    rows: list

    @property
    def passed(self):
        return all(row["holds"] for row in self.rows)


def claim9_check(instance_pair, traces):
    """Accumulated per-round Bernoulli KL between the baseline and the bump
    member along each trace, against (1/3) r^2 N(t) where N(t) counts rounds
    played inside the bump's support ball."""
    base, bump = instance_pair
    ball = bump.bump_ball() if hasattr(bump, "bump_ball") else None
    r = 3.0 * ball.radius if ball is not None else 0.0
    rows = []
    for trace in traces:
        if trace.actions is None:
            raise ValidationError("claim9_check needs traces with recorded actions")
        lhs = 0.0
        hits = 0
        for x in trace.actions:
            mu0 = base.mean(x)
            mui = bump.mean(x)
            if ball is not None and base.space.distance(x, ball.center) < ball.radius:
                hits += 1
            if mu0 != mui:
                lhs += _bernoulli_kl(mu0, mui)
        rhs = (r * r / 3.0) * hits
        rows.append({"seed": trace.seed, "lhs": lhs, "rhs": rhs,
                     "hits": hits, "holds": lhs <= rhs + 1e-12})
    return Claim9Report(rows)


# ---------------------------------------------------------------------------
# Lipschitz certification


def random_point(space, rng):
    if space.kind == "interval":
        return float(rng.random())
    if space.kind == "tree":
        return tuple(int(rng.integers(w)) for w in space.branching)
    pts = space.scan_points()
    return pts[int(rng.integers(len(pts)))]


@dataclass
class LipschitzCertificate:
    pairs: int
    rounds: int
    max_mean_violation: float
    max_sample_violation: float
    tolerance: float = 1e-9

    @property
    def passed(self):
        return (self.max_mean_violation <= self.tolerance
                and self.max_sample_violation <= self.tolerance)


def lipschitz_certify(instance, pairs, rounds, rng):
    """Sample point pairs and rounds; record the worst violation of the
    1-Lipschitz condition for the mean and for sampled functions.  The
    points x1, y1, x2, y2, ... come from `random_point`; on the interval
    they are one rng.random(2 * pairs), the stream of its scalar draws.  A
    sign mixture compiles them into one term table, which gives every mean;
    a round draws its signs on first use over the points and evaluates them
    all at once from the table."""
    space = instance.space
    if space.kind == "interval":
        points = rng.random(2 * pairs)
        dist = np.abs(points[0::2] - points[1::2])
    else:
        points = [random_point(space, rng) for _ in range(2 * pairs)]
        dist = np.array([space.distance(x, y)
                         for x, y in zip(points[0::2], points[1::2])])
    if not instance.uniformly_lipschitz:
        return LipschitzCertificate(
            pairs, rounds, _worst(instance.mean_vector(points), dist, 0.0),
            0.0)
    table = instance.term_table(points)
    mean_viol = _worst(instance.table_means(table), dist, 0.0)
    sample_viol = 0.0
    for _ in range(rounds):  # one at a time: a round holds (points,) arrays
        sample_viol = _worst(inst_mod.table_round(table, rng, 1)[0], dist,
                             sample_viol)
    return LipschitzCertificate(pairs, rounds, mean_viol, sample_viol)


def _worst(values, dist, initial):
    """The largest of initial and |values[2i] - values[2i + 1]| - dist[i]
    over the pairs i."""
    return float((np.abs(values[0::2] - values[1::2]) - dist).max(
        initial=initial))
