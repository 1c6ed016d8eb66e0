"""Layer spans for the traced run, recorded from outside the simulator.

:func:`install` wraps the public functions at each layer boundary (trace
build, functional warm, detailed core, runner, checkpoint store, result
cache, parallel prewarm) so every call records a span; a ``gc.callbacks``
hook adds a span for every full garbage collection.  A span's self time
is its duration minus the time its child spans cover; spans nest on one
stack per process.

Forked workers inherit the wrappers.  An ``os.register_at_fork`` hook
resets the child's recorder, and each time a worker's outermost span ends
the worker rewrites ``w-<pid>.json`` in the span directory, so the parent
reads every worker's spans after the sweep.

:func:`account` turns the parent's and the workers' spans into per-layer
self seconds that, together with ``parallel`` overhead and ``other``, sum
to the traced run's worker-seconds.
"""

import functools
import gc
import json
import os
import time

#: Layers in report order; a span named ``<layer>.<op>`` belongs to
#: ``<layer>``.
LAYERS = ("workloads", "emu", "core", "runner", "checkpoint", "cache",
          "parallel", "gc")


class Recorder(object):
    """In-memory span list for one process."""

    def __init__(self, span_dir=None, pass_counter=None):
        self.span_dir = span_dir
        self.pass_counter = pass_counter or (lambda: 0)
        self.spans = []
        self._stack = []  # open frames: [name, start, child seconds]
        self.fork_t = None
        self.passes_at_start = self.pass_counter()

    def begin(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self, attrs=None):
        name, start, child = self._stack.pop()
        end = time.perf_counter()
        self.spans.append({"name": name, "start": start, "end": end,
                           "self": (end - start) - child,
                           "attrs": attrs or {}})
        if self._stack:
            self._stack[-1][2] += end - start
        elif self.fork_t is not None:
            self.flush()

    def warm_passes(self):
        return self.pass_counter() - self.passes_at_start

    def after_fork_in_child(self):
        """Start a fresh span list for a forked worker."""
        self.spans = []
        self._stack = []
        self.fork_t = time.perf_counter()
        self.passes_at_start = self.pass_counter()

    def flush(self):
        """Write this worker's spans for the parent to collect."""
        path = os.path.join(self.span_dir, "w-%d.json" % os.getpid())
        payload = {"fork_t": self.fork_t, "end_t": self.spans[-1]["end"],
                   "warm_passes": self.warm_passes(), "spans": self.spans}
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def collect_workers(self):
        """Every worker's flushed payload, in pid order."""
        if not self.span_dir or not os.path.isdir(self.span_dir):
            return []
        out = []
        for name in sorted(os.listdir(self.span_dir)):
            if name.startswith("w-") and name.endswith(".json"):
                with open(os.path.join(self.span_dir, name)) as handle:
                    out.append(json.load(handle))
        return out


class _Patcher(object):
    """Replaces attributes and remembers the originals for :meth:`undo`."""

    def __init__(self):
        self.saved = []

    def wrap(self, recorder, owners, attr, name, before=None, after=None):
        """Wrap ``owner.attr`` for every owner in ``owners`` with one span
        wrapper.  ``before(*args)`` runs first; ``after(state, result,
        *args)`` returns the span's attributes."""
        original = getattr(owners[0], attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(*args) if before else None
            recorder.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                recorder.end(after(state, result, *args) if after else None)

        for owner in owners:
            self.saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def undo(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


def install(span_dir):
    """Wrap every layer boundary; returns ``(recorder, undo)``."""
    from repro.core.core import OOOCore
    from repro.emu import warmup
    from repro.sim import checkpoint, parallel, runner
    from repro.sim.cache import ResultCache
    from repro.workloads import suite

    os.makedirs(span_dir, exist_ok=True)
    recorder = Recorder(span_dir, warmup.warm_pass_count)
    os.register_at_fork(after_in_child=recorder.after_fork_in_child)
    patch = _Patcher()
    patch.wrap(recorder, [suite], "generate_trace", "workloads.build")
    patch.wrap(recorder, [warmup.FunctionalWarmer], "warm", "emu.warm",
               before=lambda warmer, *_: warmer.warmed,
               after=lambda before, _r, warmer, *_:
               {"instr": warmer.warmed - before})
    patch.wrap(recorder, [OOOCore], "run", "core.run",
               before=lambda core, *_: core.stats.instructions,
               after=lambda before, _r, core, *_: {
                   "instr": core.stats.instructions - before,
                   "rfp": bool(core.config.rfp.enabled)})
    for attr in ("simulate", "simulate_interval"):
        patch.wrap(recorder, [runner, parallel], attr, "runner." + attr)
    patch.wrap(recorder, [checkpoint.CheckpointStore], "put",
               "checkpoint.put")
    patch.wrap(recorder, [checkpoint.CheckpointStore], "get",
               "checkpoint.get",
               after=lambda _s, result, *_: {"hit": result is not None})
    patch.wrap(recorder, [checkpoint], "capture", "checkpoint.capture")
    patch.wrap(recorder, [checkpoint], "restore", "checkpoint.restore")
    patch.wrap(recorder, [ResultCache], "put", "cache.put")
    patch.wrap(recorder, [ResultCache], "get", "cache.get",
               after=lambda _s, result, *_: {"hit": result is not None})
    patch.wrap(recorder, [parallel], "ensure_checkpoints",
               "parallel.prewarm")

    def on_gc(phase, info):
        # Full collections only: young ones are too frequent to span.
        if info["generation"] == 2:
            if phase == "start":
                recorder.begin("gc.full")
            else:
                recorder.end()

    gc.callbacks.append(on_gc)

    def undo():
        gc.callbacks.remove(on_gc)
        patch.undo()

    return recorder, undo


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def account(parent_spans, wall_start, wall_end, workers, job_seconds,
            slots):
    """Attribute a traced sweep's worker-seconds to layers.

    Args:
        parent_spans: spans recorded in the sweep's own process.
        wall_start, wall_end: the sweep's wall-clock bounds in the parent.
        workers: worker payloads from :meth:`Recorder.collect_workers`.
        job_seconds: per-job seconds reported for worker jobs.
        slots: worker processes the sweep ran concurrently.

    Outside the fan-out window (first worker fork to last worker span
    end) the parent's wall time counts once.  Inside it each worker slot
    counts once and the parent's own spans (result commits) count on top.
    ``parallel`` includes the slot-seconds not spent in jobs (fork,
    pickling, pipes, idle slots); ``other`` is parent wall not covered by a
    span plus job time not covered by a worker span.

    Returns ``{"layers": {layer: self seconds}, "other_s", "overhead_s",
    "fanout_s", "total_s"}``; layers plus other sum to total.
    """
    wall = wall_end - wall_start
    layers = {layer: 0.0 for layer in LAYERS}
    fanout = 0.0
    inside = 0.0
    if workers:
        f0 = min(w["fork_t"] for w in workers)
        f1 = max(w["end_t"] for w in workers)
        fanout = f1 - f0
    for span in parent_spans:
        layers[layer_of(span["name"])] += span["self"]
        if workers and f0 <= span["start"] <= f1:
            inside += span["self"]
    worker_self = 0.0
    for payload in workers:
        for span in payload["spans"]:
            layers[layer_of(span["name"])] += span["self"]
            worker_self += span["self"]
    outside_wall = wall - fanout
    outside_spans = sum(s["self"] for s in parent_spans) - inside
    job_s = sum(job_seconds) if workers else 0.0
    overhead = slots * fanout - job_s if workers else 0.0
    layers["parallel"] += overhead
    other = (outside_wall - outside_spans) + (job_s - worker_self)
    total = outside_wall + slots * fanout + inside
    return {"layers": layers, "other_s": other, "overhead_s": overhead,
            "fanout_s": fanout, "total_s": total}
