"""Per-layer tracing from outside the program.

The tracer replaces module attributes of the ``pdmdp`` package with timing
wrappers; no source file of the package is edited. A function is wrapped at
every place the package looks it up, so ``sample_categorical`` is timed
whether the engine finds it in ``optimistic_pd`` or in ``sampling``.

Per-step functions are folded into a call count, a busy time and a
log-spaced latency histogram, because the three-state workload makes
millions of calls. Functions at the coarse boundaries (``bench.execute``,
``optimistic_pd.run``, the checkpoint evaluations and the set-up builders)
also record spans in memory: name, start, end, parent span and the solver
cell they belong to. Self time is busy time minus the time covered by
wrapped children.

A function that a later version of the package removes or renames is
reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

# Histogram bins are 2% wide, from 10 ns up.
_BIN_SCALE = 1.0 / math.log(1.02)
_BIN_OFFSET = -math.log(1e-8) * _BIN_SCALE
_NUM_BINS = int(math.log(1e3 / 1e-8) * _BIN_SCALE) + 1

# Candidate tail percentiles, highest first.
_TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)

FLOAT_BYTES = 8


def _mu_gradient_bytes(instance, pair_counts, triple_counts, t, v):
    """N x S count matrix read, plus its float64 cast written and read."""
    nbytes = int(triple_counts.nbytes)
    if triple_counts.dtype != v.dtype:
        nbytes += 2 * FLOAT_BYTES * int(triple_counts.size)
    return nbytes


def _predicted_bytes(instance, prediction, v):
    """N x S prediction matrix read once."""
    return int(prediction.entries.nbytes)


def _policy_evaluation_bytes(instance, policy):
    """N x S transition read, weighted N x S written and read, five S x S arrays.

    The S x S arrays are P_pi, the identity, gamma P_pi, the system matrix
    and the copy the solver factors.
    """
    n, s = instance.transition.shape
    return 3 * FLOAT_BYTES * n * s + 5 * FLOAT_BYTES * s * s


class Target(NamedTuple):
    """A package function the tracer wraps.

    kind is "step" for per-step functions, folded into counts and
    histograms; "checkpoint" for the checkpoint evaluations, "coarse" for the
    engine and orchestration and "setup" for the input builders, which also
    record spans. nbytes, if not None, computes the bytes one call moves.
    """

    module: str
    function: str
    kind: str
    nbytes: Callable | None = None

    @property
    def name(self):
        return f"{self.module}.{self.function}"


TARGETS = [
    Target("sampling", "sample_categorical", "step"),
    Target("sampling", "sample_transition", "step"),
    Target("optimistic_pd", "sampled_v_gradient", "step"),
    Target("optimistic_pd", "mu_gradient_from_counts", "step", _mu_gradient_bytes),
    Target("optimistic_pd", "fresh_mu_gradient", "step"),
    Target("optimistic_pd", "predicted_mu_gradient", "step", _predicted_bytes),
    Target("optimistic_pd", "update_v", "step"),
    Target("optimistic_pd", "update_mu", "step"),
    Target("optimistic_pd", "v_learning_rate", "step"),
    Target("optimistic_pd", "mu_learning_rate", "step"),
    Target("optimistic_pd", "extract_policy", "checkpoint"),
    Target("exact", "policy_evaluation", "checkpoint", _policy_evaluation_bytes),
    Target("minimax", "duality_gap", "checkpoint"),
    Target("optimistic_pd", "run", "coarse"),
    Target("bench", "execute", "coarse"),
    Target("bench", "write_csv", "coarse"),
    Target("instances", "random_instance", "setup"),
    Target("instances", "three_state_example", "setup"),
    Target("core", "build_prediction", "setup"),
]


def target_names(*kinds):
    return [t.name for t in TARGETS if t.kind in kinds]


class Stat:
    __slots__ = ("calls", "busy", "child", "hist", "bytes_per_call", "out_bytes")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.hist = [0] * _NUM_BINS
        self.bytes_per_call = None
        self.out_bytes = 0

    def percentile_us(self, pct):
        """The pct-th percentile, interpolated geometrically inside its bin."""
        if self.calls == 0:
            return 0.0
        rank = self.calls * pct / 100.0
        seen = 0
        for i, count in enumerate(self.hist):
            if count and seen + count >= rank:
                position = i + (rank - seen) / count
                return math.exp((position - _BIN_OFFSET) / _BIN_SCALE) * 1e6
            seen += count
        return math.exp((_NUM_BINS - _BIN_OFFSET) / _BIN_SCALE) * 1e6

    def tail(self):
        """(percentile, microseconds) of the highest percentile with >= 10 calls beyond it."""
        for pct in _TAIL_PERCENTILES:
            if self.calls * (100.0 - pct) / 100.0 >= 10:
                return pct, self.percentile_us(pct)
        return 0.0, 0.0


def _pdmdp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pdmdp" or name.startswith("pdmdp."))]


def patch_everywhere(original, replacement):
    """Point every pdmdp module attribute bound to `original` at `replacement`.

    Returns the (module, attribute) pairs changed, for restore().
    """
    changed = []
    for module in _pdmdp_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def restore(changed, original):
    for module, attr in changed:
        setattr(module, attr, original)


class Tracer:
    """Wraps the TARGETS in the loaded pdmdp package; install() / uninstall()."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.spans = []
        self._stack = [0.0]
        self._span_stack = [None]
        self._cell = None
        self._next_id = 0
        self._patches = []

    def reset(self):
        """Drop the statistics; spans are kept until write_spans."""
        self.stats = {}

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def install(self):
        self.absent = []
        for target in TARGETS:
            module = sys.modules.get(f"pdmdp.{target.module}")
            original = getattr(module, target.function, None) if module is not None else None
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(original, target.name, target.kind != "step", target.nbytes)
            self._patches.append((patch_everywhere(original, wrapper), original))

    def uninstall(self):
        for changed, original in reversed(self._patches):
            restore(changed, original)
        self._patches = []

    def open_span(self, name):
        """A span the benchmark itself opens, such as one workload unit."""
        self._next_id += 1
        span = [self._next_id, self._span_stack[-1], self._cell, name,
                time.perf_counter(), None]
        self._span_stack.append(span[0])
        self.spans.append(span)
        return span

    def close_span(self, span):
        span[5] = time.perf_counter()
        self._span_stack.pop()

    def _note_bytes(self, name, nbytes, args, kwargs):
        """Computed bytes, from the arguments of the first call after a reset.

        A changed signature or argument type reports 0 instead of failing.
        """
        s = self.stat(name)
        if s.bytes_per_call is None:
            try:
                s.bytes_per_call = nbytes(*args, **kwargs)
            except (AttributeError, IndexError, TypeError, ValueError):
                s.bytes_per_call = 0

    def _wrap(self, fn, name, spans, nbytes):
        stack = self._stack
        perf = time.perf_counter
        log = math.log
        last_bin = _NUM_BINS - 1
        is_run = name == "optimistic_pd.run"
        is_csv = name == "bench.write_csv"

        def record(t0):
            dt = perf() - t0
            child = stack.pop()
            stack[-1] += dt
            s = self.stat(name)
            s.calls += 1
            s.busy += dt
            s.child += child
            i = int(log(dt) * _BIN_SCALE + _BIN_OFFSET) if dt > 0.0 else 0
            s.hist[min(max(i, 0), last_bin)] += 1
            return s

        if not spans:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                if nbytes is not None:
                    self._note_bytes(name, nbytes, args, kwargs)
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(t0)
            return timed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if nbytes is not None:
                self._note_bytes(name, nbytes, args, kwargs)
            outer_cell = self._cell
            if is_run:
                self._next_id += 1
                self._cell = self._next_id
            span = self.open_span(name)
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                s = record(t0)
                self.close_span(span)
                self._cell = outer_cell
                if is_csv:
                    path = args[0] if args else kwargs.get("path")
                    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                        s.out_bytes += os.path.getsize(path)
        return spanned

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, cell, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "cell": cell,
                                     "name": name, "start": start, "end": end}) + "\n")
