"""Layer tracing of the twofold package from outside the program.

`Tracer.install` replaces, at run time, the names that calling modules
bound (module functions in every `twofold` module that imported them, and
methods on their classes) with wrappers.  The program's source is not
touched.  Three kinds of wrapper:

* span    -- one record per call: name, parent record, op, start, duration;
* leaf    -- for functions called up to millions of times and calling no
             other wrapped function: one record per (parent record, name)
             that sums the calls and their durations;
* counter -- a count only.

The DP54 stepper (`integrate._Stepper`) is private; its accepted steps,
attempts and right-hand-side calls are counted on the class until the
program reports them itself.

Records stay in memory; `write_spans` writes them out once the pass ends.
A record's self time is its duration minus the durations of its child
records, so per op the self times of all records sum to the root span.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("cli", "scenarios", "expr", "fields", "sliding", "singularities",
           "transform", "integrate", "svg")

ROOT = "cli.main"
# (record name, defining module, attribute)
SPANS = (
    ("scenarios.builtin", "scenarios", "builtin"),
    ("scenarios.save_run", "scenarios", "save_run"),
    ("expr.parse", "expr", "parse_expr"),
    ("expr.compile", "fields", "SmoothField.__init__"),
    ("sliding.lambda", "sliding", "sliding_lambda"),
    ("sliding.classify", "sliding", "region_classify"),
    ("singularities.classify", "singularities", "classify_two_fold"),
    ("singularities.folded", "singularities", "folded_singularities"),
    ("transform.check", "transform", "transform_check"),
    ("transform.residual", "transform", "equivalence_residual"),
    ("integrate.smoothed", "integrate", "integrate_smoothed"),
    ("integrate.filippov", "integrate", "integrate_filippov"),
    ("integrate.blowup", "integrate", "integrate_blowup"),
    ("integrate.to_csv", "integrate", "Trajectory.to_csv"),
    ("integrate.to_csv", "integrate", "Trajectory.events_to_csv"),
    ("svg.render", "svg", "render_trajectory"),
    ("svg.render", "svg", "render_region_map"),
)
LEAVES = (
    ("integrate.append", "integrate", "Trajectory.append"),
    ("fields.f1_surface", "fields", "PiecewiseSmoothSystem.f1_surface"),
    ("fields.combination", "fields", "PiecewiseSmoothSystem.combination"),
)
WRAPPED = tuple(dict.fromkeys(n for n, _, _ in SPANS + LEAVES))

EVENT_KINDS = ("crossing", "slide-entry", "slide-exit", "two-fold-hit",
               "determinacy-break", "step-floor", "boundary-exit")
# Trajectory keeps t, three states, two derivative triples and lam as
# doubles plus one mode reference per sample; integrate.sample_mb is this
# size times the samples, computed, not measured.
SAMPLE_BYTES = 11 * 8 + 8


def self_times(parent, duration):
    """Self time of every record: its duration minus its children's."""
    own = list(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= duration[i]
    return own


class Tracer:
    def __init__(self):
        self.name = []
        self.parent = array("i")
        self.op = array("i")
        self.calls = array("q")
        self.start = array("d")
        self.duration = array("d")
        self.stack = [-1]
        self.leaf_index = {}
        self.counts = Counter()
        self.current_op = -1
        self.pending = []          # (kind, args, result), looked at after the op

    # -- records -------------------------------------------------------------

    def _record(self, name, start, calls):
        i = len(self.duration)
        self.name.append(name)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.calls.append(calls)
        self.start.append(start)
        self.duration.append(0.0)
        return i

    def span(self, name, fn, post=None):
        stack, duration = self.stack, self.duration

        def wrapper(*args, **kwargs):
            i = self._record(name, 0.0, 1)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration[i] = perf_counter() - t0
                self.start[i] = t0
                stack.pop()
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        stack, index, calls, duration = self.stack, self.leaf_index, self.calls, self.duration

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (stack[-1], name)
                i = index.get(key)
                if i is None:
                    i = index[key] = self._record(name, t0, 0)
                calls[i] += 1
                duration[i] += dt
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the traced names of the already imported twofold package."""
        pkg = {m: importlib.import_module(f"twofold.{m}") for m in MODULES}

        def later(kind):
            return lambda args, result: self.pending.append((kind, args, result))

        posts = {"integrate.smoothed": later("trajectory"),
                 "integrate.filippov": later("trajectory"),
                 "integrate.blowup": later("trajectory"),
                 "integrate.to_csv": later("csv"),
                 "svg.render": later("svg"),
                 "sliding.lambda": self._count_roots,
                 "expr.compile": self._count_evaluations}
        for name, module, attr in SPANS:
            self._replace(pkg[module], attr,
                          lambda fn, name=name: self.span(name, fn, posts.get(name)))
        for name, module, attr in LEAVES:
            self._replace(pkg[module], attr, lambda fn, name=name: self.leaf(name, fn))

        counts = self.counts
        stepper = pkg["integrate"]._Stepper
        step, init = stepper.step, stepper.__init__

        def counted_step(obj, *args):
            segment = step(obj, *args)
            counts["integrate.steps"] += 1
            return segment
        stepper.step = counted_step
        stepper._attempt = self.counter("integrate.attempts", stepper._attempt)

        def counted_init(obj, rhs, *args, **kwargs):
            init(obj, self.counter("integrate.rhs_calls", rhs), *args, **kwargs)
        stepper.__init__ = counted_init

    def _count_evaluations(self, args, result):
        # every evaluation of a compiled field, through `fn`, call or evaluate
        field = args[0]
        field._fn = self.counter("fields.rhs_calls", field._fn)

    def _count_roots(self, args, result):
        self.counts["sliding.roots"] += len(result)

    @staticmethod
    def _replace(module, attr, make):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "twofold" or name.startswith("twofold.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    # -- ops -----------------------------------------------------------------

    def root(self, fn):
        return self.span(ROOT, fn)

    def begin_op(self, op_id):
        self.current_op = op_id
        self.leaf_index.clear()

    def end_op(self):
        """Inspect what the op's wrapped calls returned or wrote."""
        for kind, args, result in self.pending:
            if kind == "trajectory":
                self.counts["integrate.samples"] += len(result)
                self.counts["integrate.layer_samples"] += sum(
                    1 for i in range(len(result)) if result.mode(i) == "layer")
                for event in result.events:
                    self.counts[f"integrate.events.{event.kind}"] += 1
            elif kind == "csv":
                self.counts["integrate.csv_bytes"] += os.path.getsize(args[1])
            else:
                path = args[1] if len(args) == 2 else args[2]
                self.counts["svg.bytes"] += os.path.getsize(path)
        self.pending.clear()
        self.current_op = -1

    # -- results -------------------------------------------------------------

    def op_consistency(self):
        """Per op: (root duration, sum of self times, smallest self time)."""
        own = self_times(self.parent, self.duration)
        out = {}
        for i, op in enumerate(self.op):
            root, total, low = out.get(op, (0.0, 0.0, float("inf")))
            if self.parent[i] < 0:
                root = self.duration[i]
            out[op] = (root, total + own[i], min(low, own[i]))
        return out

    def layer_metrics(self):
        own = self_times(self.parent, self.duration)
        calls = Counter()
        by_name = Counter()
        by_module = Counter()
        for i, name in enumerate(self.name):
            calls[name] += self.calls[i]
            by_name[name] += own[i]
            by_module[name.split(".")[0]] += own[i]
        c = self.counts
        m = {f"{mod}.self_s": by_module[mod] for mod in MODULES}
        for name in WRAPPED:
            m[f"{name}_calls"] = calls[name]
            m[f"{name}_s"] = by_name[name]
        steps = c["integrate.steps"]
        integrate_self = sum(by_name[n] for n in ("integrate.smoothed", "integrate.filippov",
                                                  "integrate.blowup"))
        m.update({
            "integrate.steps": steps,
            "integrate.attempts": c["integrate.attempts"],
            "integrate.step_us": 1e6 * integrate_self / steps if steps else 0.0,
            "integrate.layer_step_share": (c["integrate.layer_samples"] / c["integrate.samples"]
                                           if c["integrate.samples"] else 0.0),
            "integrate.sample_mb": calls["integrate.append"] * SAMPLE_BYTES / 1e6,
            "integrate.rhs_calls": c["integrate.rhs_calls"],
            "integrate.rhs_per_step": c["integrate.rhs_calls"] / steps if steps else 0.0,
            "integrate.csv_bytes": c["integrate.csv_bytes"],
            "fields.rhs_calls": c["fields.rhs_calls"],
            "sliding.roots": c["sliding.roots"],
            "svg.bytes": c["svg.bytes"],
        })
        for kind in EVENT_KINDS:
            m[f"integrate.events.{kind}"] = c[f"integrate.events.{kind}"]
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\top\tcalls\tstart\tduration\n")
            for i, name in enumerate(self.name):
                fh.write(f"{i}\t{name}\t{self.parent[i]}\t{self.op[i]}\t{self.calls[i]}\t"
                         f"{self.start[i]!r}\t{self.duration[i]!r}\n")
