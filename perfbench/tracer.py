"""Outside-in span tracer for banditlab.

It wraps module functions and class methods of the package from here, so
it changes no package code.  A symbol that a refactor removed is reported
as absent instead of failing the run.  Functions that return generators
(`active_terms`, `_chain`) are only counted: their work runs when the
caller iterates, so it lands in the caller's self time.

Spans are kept in memory as columns (name, start, end, parent, match) and
summarised or written out after a pass.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

PACKAGE = "banditlab"

# (span name, symbol under the package).  "step" spans are named by the
# session's mode: bandits.step.* in bandit mode, experts.step.* otherwise.
SYMBOLS = (
    ("spaces.covering_oracle", "spaces.covering_oracle"),
    ("spaces.rank_covering_oracle", "spaces.rank_covering_oracle"),
    ("spaces.ordering_oracle", "spaces.ordering_oracle"),
    ("spaces.depth_oracle", "spaces.depth_oracle"),
    ("spaces.cover_oracle", "spaces.cover_oracle"),
    ("spaces.build_ball_tree", "spaces.build_ball_tree"),
    ("instances.instance_from_descriptor",
     "instances.instance_from_descriptor"),
    ("instances.monte_carlo_mean", "instances.monte_carlo_mean"),
    ("instances.bandit_reward", "instances.PayoffInstance.bandit_reward"),
    ("instances.mean", "instances.PayoffInstance.mean"),
    ("instances.mean_vector", "instances.PayoffInstance.mean_vector"),
    ("instances.active_terms", "instances.PayoffInstance.active_terms"),
    ("instances.chain", "instances.PayoffInstance._chain"),
    ("instances.sample_eval", "instances.FunctionSample.evaluate"),
    ("instances.sample_eval", "instances.MeanSample.evaluate"),
    ("step.choose", "bandits.Session.choose"),
    ("step.observe", "bandits.Session.observe"),
    ("harness.run_match", "harness.run_match"),
    ("harness.run_replicates", "harness.run_replicates"),
    ("harness.round_sampler", "harness._RoundSampler.rewards"),
    ("harness.aggregate_traces", "harness.aggregate_traces"),
    ("harness.fit_exponent", "harness.fit_exponent"),
    ("harness.export_json", "harness.export_json"),
    ("harness.import_json", "harness.import_json"),
    ("verify.lipschitz_certify", "verify.lipschitz_certify"),
    ("cli.main", "cli.main"),
)

STEP_LAYERS = ("bandits", "experts")


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def self_times(start, end, parent):
    """Self time of every span: its duration minus its direct children's."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested],
                        minlength=len(dur))
    return dur - child


class Tracer:
    """Collects spans while installed.  `clock` lets tests substitute a
    deterministic clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._match = array("i")
        self._stack = [-1]
        self._patches = []
        self.absent = []
        self.workload = ""
        self.matches = []
        self.match = 0
        self.counts = {}
        self.requests = []
        self._pinned = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self):
        """Drop recorded spans and counters; wrappers stay installed."""
        for column in (self._name, self._start, self._end, self._parent,
                       self._match):
            del column[:]
        del self._stack[1:]
        self.matches[:] = [("", "", -1)]
        self.match = 0
        self.counts.clear()
        self.requests.clear()
        self._pinned.clear()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid):
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._match.append(self.match)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self.clock())
        return idx

    def exit(self, idx):
        self._end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of code outside the package."""
        idx = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(idx)

    # -- wrappers --------------------------------------------------------

    def _timed(self, fn, nid):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _step(self, fn, name):
        enter, exit_ = self.enter, self.exit
        ids = {layer: self.name_id(f"{layer}.{name}") for layer in STEP_LAYERS}

        @functools.wraps(fn)
        def wrapper(session, *args, **kwargs):
            mode = getattr(session, "mode", "bandit")
            idx = enter(ids["bandits" if mode == "bandit" else "experts"])
            try:
                return fn(session, *args, **kwargs)
            finally:
                exit_(idx)
        return wrapper

    def _match_scope(self, fn):
        """run_match: spans inside carry the id (workload, config, seed)."""
        inner = self._timed(fn, self.name_id("harness.run_match"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            previous = self.match
            self.match = len(self.matches)
            self.matches.append(self._match_key(args, kwargs))
            try:
                return inner(*args, **kwargs)
            finally:
                self.match = previous
        return wrapper

    def _match_key(self, args, kwargs):
        try:
            config = args[0] if args else kwargs["config"]
            seed = args[1] if len(args) > 1 else kwargs.get("seed")
            seed = int(config.seed if seed is None else seed)
            label = (f"{config.algorithm.get('name')}/"
                     f"{config.instance.get('kind')}")
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            label, seed = "unknown", -1
        return (self.workload, label, seed)

    def _covering_requests(self, fn):
        """covering_oracle: also records (space, k) to count repeats."""
        inner = self._timed(fn, self.name_id("spaces.covering_oracle"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            space = args[0] if args else kwargs.get("space")
            k = args[1] if len(args) > 1 else kwargs.get("k")
            self._pinned.append(space)  # keeps id() unique while recorded
            self.requests.append((id(space), k))
            return inner(*args, **kwargs)
        return wrapper

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._counted(fn, name)
        if name.startswith("step."):
            return self._step(fn, name[len("step."):])
        if name == "harness.run_match":
            return self._match_scope(fn)
        if name == "spaces.covering_oracle":
            return self._covering_requests(fn)
        return self._timed(fn, self.name_id(name))

    # -- install ---------------------------------------------------------

    def install(self, workload=""):
        """Wrap every symbol in SYMBOLS that exists; record the others in
        `absent`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.workload = workload
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, path in SYMBOLS:
            if not self._install_one(name, path, modules):
                self.absent.append(path)

    def _install_one(self, name, path, modules):
        module_name, _, rest = path.partition(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return False
        owner_name, _, attr = rest.rpartition(".")
        if not owner_name:
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn):
                return False
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
            return True
        cls = getattr(module, owner_name, None)
        if not inspect.isclass(cls):
            return False
        wrapped = False
        for klass in _subclasses(cls):
            fn = klass.__dict__.get(attr)
            if inspect.isfunction(fn):
                self._patch(klass, attr, self._wrap(name, fn))
                wrapped = True
        return wrapped

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def columns(self):
        return (np.frombuffer(self._name, dtype=np.intc),
                np.frombuffer(self._start, dtype=np.float64),
                np.frombuffer(self._end, dtype=np.float64),
                np.frombuffer(self._parent, dtype=np.intc),
                np.frombuffer(self._match, dtype=np.intc))

    def summary(self):
        """Per span name: calls and self seconds; per step layer: rounds and
        per-round self time; covering requests; generator counts."""
        name, start, end, parent, _match = self.columns()
        own = self_times(start, end, parent)
        top = parent < 0
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        spans = {n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                 for i, n in enumerate(self.names)}
        steps = {}
        parent_name = np.where(top, -1, name[np.maximum(parent, 0)])
        for layer in STEP_LAYERS:
            choose = self._ids.get(f"{layer}.choose", -2)
            observe = self._ids.get(f"{layer}.observe", -2)
            in_step = (name == choose) | (name == observe)
            round_start = ((name == choose) & (parent_name != choose)
                           & (parent_name != observe))
            rounds = int(round_start.sum())
            if rounds:
                index = np.cumsum(round_start)[in_step] - 1
                per_round = np.bincount(index, weights=own[in_step],
                                        minlength=rounds)
            else:
                per_round = np.zeros(0)
            steps[layer] = per_round
        return {
            "spans": spans,
            "steps": steps,
            "top_level_s": float((end - start)[top].sum()),
            "covering_calls": len(self.requests),
            "covering_distinct": len(set(self.requests)),
            "counts": dict(self.counts),
        }

    def write(self, path):
        name, start, end, parent, match = self.columns()
        np.savez(path, name=name, start=start, end=end, parent=parent,
                 match=match, names=np.array(self.names),
                 matches=np.array([json.dumps(m) for m in self.matches]))
