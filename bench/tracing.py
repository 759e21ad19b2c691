"""Layer spans for the benchmark's traced run.

``Tracer`` wraps, at run time, each layer's public functions in every contreg
module that binds them (``contreg.harness.run_continual``,
``contreg.schemes.task_loss``, ...), so spans follow what the program really
calls and a function that stops being called reports 0 calls.  Each span has
a name, start, end and parent; spans are kept in compact arrays in memory and
written out by ``write``.  A span's self time is its duration minus the part
covered by its child spans.  Leaving the ``with`` block restores every
wrapped function.

Spans assume one thread: the benchmark runs contreg with one worker thread.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# Span name -> the functions it wraps, as (defining module, attribute).  The
# prefix before the first dot is the layer the span's self time is charged to.
SPANS = {
    "cli.main": [("contreg.cli", "main")],
    "harness.run_experiment": [("contreg.harness", "run_experiment")],
    "harness.write_csv": [("contreg.harness", "write_csv")],
    "harness.read_csv": [("contreg.harness", "read_csv")],
    "harness.aggregate": [("contreg.harness", "aggregate")],
    "harness.fit_rate": [("contreg.harness", "fit_rate")],
    "harness.run_seen_task_floor": [("contreg.harness", "run_seen_task_floor")],
    "harness.run_any_alg_mean": [("contreg.harness", "run_any_alg_mean")],
    "tasks.build": [("contreg.tasks", "generate_realizable"),
                    ("contreg.tasks", "generate_aligned_pairs"),
                    ("contreg.tasks", "new_collection")],
    "tasks.new_task": [("contreg.tasks", "new_task")],
    "orderings.sample_ordering": [("contreg.orderings", "sample_ordering")],
    # The harness turns schedule dicts into ScheduleSpecs; its time is
    # almost all in the schedules module, so it is charged there.
    "schedules.build_schedule": [("contreg.harness", "build_schedule")],
    "schemes.run_continual": [("contreg.schemes", "run_continual")],
    "schemes.regularized_step": [("contreg.schemes", "regularized_step")],
    "schemes.budgeted_step": [("contreg.schemes", "budgeted_step")],
    "schemes.unregularized_step": [("contreg.schemes", "unregularized_step")],
    "schemes.igd_step": [("contreg.schemes", "igd_step")],
    "surrogates.build": [("contreg.surrogates", "build_regularized_surrogate"),
                         ("contreg.surrogates", "build_budgeted_surrogate")],
    "metrics.task_loss": [("contreg.metrics", "task_loss")],
    "metrics.average_loss": [("contreg.metrics", "average_loss")],
    "metrics.seen_task_loss": [("contreg.metrics", "seen_task_loss")],
    "metrics.loss_degradation": [("contreg.metrics", "loss_degradation")],
    "metrics.summarize": [("contreg.metrics", "summarize")],
    "adversarial.collection": [("contreg.adversarial", "seen_task_lb_collection"),
                               ("contreg.adversarial", "any_alg_lb_collection")],
}
# The probe closures ``harness.scheme_runner`` returns to the any-algorithm
# adversary; wrapped as they are made.
PROBE = "adversarial.probe"
LAYERS = ("tasks", "orderings", "schedules", "schemes", "surrogates", "metrics",
          "adversarial", "harness", "cli")
# Spans whose inclusive time is reported too; none of them nests in itself.
INCLUSIVE = ("schemes.run_continual", "metrics.average_loss", PROBE,
             "harness.run_any_alg_mean")


class Tracer:
    def __init__(self):
        self.names = list(SPANS) + [PROBE]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.steps = 0
        self.rows = 0
        self._probe_outputs = []  # one set of distinct outputs per probe
        self._patched = []        # (module, attribute, original)

    def __enter__(self):
        wrappers = {}
        for span, sites in SPANS.items():
            for module, attr in sites:
                fn = getattr(sys.modules[module], attr)
                wrappers[id(fn)] = (fn, self._wrap(span, fn, self._counter(span)))
        runner = sys.modules["contreg.harness"].scheme_runner
        wrappers[id(runner)] = (runner, self._wrap_runner(runner))
        try:
            for name, module in list(sys.modules.items()):
                if name != "contreg" and not name.startswith("contreg."):
                    continue
                for attr, value in list(vars(module).items()):
                    fn, wrapper = wrappers.get(id(value), (None, None))
                    if fn is value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _counter(self, span):
        if span == "schemes.run_continual":
            def count(args, result):
                self.steps += result.k
            return count
        if span == "harness.write_csv":
            def count(args, result):
                self.rows += len(args[0])
            return count
        return None

    def _wrap(self, span, fn, after=None):
        span_id = self._ids[span]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(span_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_runner(self, scheme_runner):
        @functools.wraps(scheme_runner)
        def runner(*args, **kwargs):
            outputs = set()
            self._probe_outputs.append(outputs)

            def record(args, result):
                outputs.add(np.asarray(result).tobytes())

            return self._wrap(PROBE, scheme_runner(*args, **kwargs), record)

        return runner

    def _per_span(self):
        """(calls, self seconds, inclusive seconds) per span name."""
        ids = np.asarray(self.name_id, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        return (np.bincount(ids, minlength=n),
                np.bincount(ids, weights=dur - child, minlength=n),
                np.bincount(ids, weights=dur, minlength=n))

    def metrics(self, body_s, reps):
        """Per-layer metrics of the spans so far.

        ``body_s`` is the traced body time and ``reps`` the number of traced
        reps; counts and times are given per rep, so runs that fit a different
        number of reps into their time compare.
        """
        calls, self_s, total_s = self._per_span()
        at = self._ids
        out = {}
        for name, i in at.items():
            out[f"{name}.calls"] = (calls[i] / reps, "count/rep")
            out[f"{name}.self_s"] = (self_s[i] / reps, "s/rep")
        for name in INCLUSIVE:
            out[f"{name}.total_s"] = (total_s[at[name]] / reps, "s/rep")

        def ratio(a, b):
            return float(a / b) if b else 0.0

        scheme_self = sum(self_s[i] for name, i in at.items() if name.startswith("schemes."))
        sampling = at["orderings.sample_ordering"]
        out["orderings.sample_ordering.us_per_call"] = (
            1e6 * ratio(self_s[sampling], calls[sampling]), "us")
        out["schemes.steps"] = (self.steps / reps, "count/rep")
        out["schemes.us_per_step"] = (1e6 * ratio(scheme_self, self.steps), "us")
        out["metrics.task_loss_per_step"] = (
            ratio(calls[at["metrics.task_loss"]], self.steps), "ratio")
        out["metrics.average_loss.share"] = (
            ratio(total_s[at["metrics.average_loss"]], body_s), "ratio")
        out["adversarial.probe_distinct_ratio"] = (
            ratio(sum(len(s) for s in self._probe_outputs), calls[at[PROBE]]), "ratio")
        out["adversarial.probe_share"] = (
            ratio(total_s[at[PROBE]], total_s[at["harness.run_any_alg_mean"]]), "ratio")
        out["harness.rows"] = (self.rows / reps, "count/rep")
        shares = dict.fromkeys(LAYERS, 0.0)
        for name, i in at.items():
            shares[name.split(".")[0]] += self_s[i]
        for layer, value in shares.items():
            out[f"share.{layer}"] = (ratio(value, body_s), "ratio")
        out["share.other"] = (ratio(body_s - sum(shares.values()), body_s), "ratio")
        return {name: (float(value), unit) for name, (value, unit) in out.items()}

    def write(self, path):
        """Write every span (name table, name id, parent index, start, end)."""
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.asarray(self.name_id),
                            parent=np.asarray(self.parent),
                            start=np.asarray(self.start), end=np.asarray(self.end))
