"""Single-simulation runner producing a serialisable :class:`SimResult`.

Measurement protocol: counters are snapshotted when ``warmup`` instructions
have committed, and the reported ("measured") numbers are deltas over the
post-warmup window — predictors and caches are warm, matching how
architecture papers measure region IPC.

Two-speed execution (sampled simulation): when ``config.fast_forward`` is
on, most of the warmup window is executed by the in-order
:class:`~repro.emu.warmup.FunctionalWarmer` (which warms caches, TLB,
hit-miss predictor, RFP tables and the memory-dependence predictor), the
detailed core re-simulates the last ``config.ff_detail_ramp`` warmup
instructions to refill the pipeline, and only then does measurement start —
at exactly the same instruction count as a full-detail run.  Fast-forward
is disabled under tracing (``REPRO_TRACE`` / an explicit tracer), for
``record_commits`` runs, for value-predictor configs (VP tables train on
pipeline events the warmer does not model), and by ``REPRO_FF=0``.
"""

import os

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.emu.warmup import FunctionalWarmer
from repro.obs.export import sort_events, write_jsonl
from repro.obs.tracer import trace_spec_from_env
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.workloads.suite import build_workload, workload_category

#: Result-schema / core-semantics version, mixed into every ResultCache
#: fingerprint.  Bump this whenever :class:`SimResult` gains/changes fields
#: or the core's timing semantics change, so stale on-disk results from an
#: older simulator become cache misses instead of wrong answers.
SCHEMA_VERSION = 4


def fast_forward_env_disabled(environ=None):
    """True when ``REPRO_FF`` explicitly disables fast-forward.

    The env knob is a kill-switch for validation runs (like ``--no-ff``);
    it is mixed into the result-cache fingerprint so a run with the switch
    thrown can never poison fast-forward cache entries.
    """
    environ = environ if environ is not None else os.environ
    return environ.get("REPRO_FF", "") in ("0", "off", "false")


def fast_forward_split(config, trace_length, warmup):
    """Resolve the two-speed split for one run.

    Returns ``(functional, detailed_warmup)``: instructions executed by the
    functional warmer, and warmup instructions the detailed core simulates
    before measurement starts.  ``functional + detailed_warmup`` always
    equals the effective warmup window (``warmup`` clamped to half the
    trace), so the measured region is the same instructions either way.
    """
    effective = min(warmup, max(0, trace_length // 2))
    if (
        not config.fast_forward
        or config.vp.enabled
        or fast_forward_env_disabled()
    ):
        return 0, effective
    detailed = min(config.ff_detail_ramp, effective)
    return effective - detailed, detailed


class SimResult(object):
    """Flat, JSON-friendly record of one simulation."""

    def __init__(self, data):
        self.data = data

    @classmethod
    def from_core(cls, core, workload_name, category):
        final = core.snapshot_counters()
        if core.warmup_instructions and core.warmup_snapshot is None:
            raise RuntimeError(
                "empty measurement window: warmup=%d but only %d instructions "
                "committed for workload %r under config %r — lower warmup or "
                "lengthen the trace"
                % (
                    core.warmup_instructions,
                    final["stats"]["instructions"],
                    workload_name,
                    core.config.name,
                )
            )
        start = core.warmup_snapshot or {
            "cycle": 0,
            "stats": {k: 0 for k in final["stats"]},
            "loads_served": {k: 0 for k in final["loads_served"]},
            "rfp": {k: 0 for k in final.get("rfp", {})},
        }
        cycles = final["cycle"] - start["cycle"]
        stats = {
            key: final["stats"][key] - start["stats"].get(key, 0)
            for key in final["stats"]
        }
        loads_served = {
            key: final["loads_served"][key] - start["loads_served"].get(key, 0)
            for key in final["loads_served"]
        }
        data = {
            "workload": workload_name,
            "category": category,
            "config": core.config.name,
            "cycles": cycles,
            "instructions": stats["instructions"],
            "ipc": stats["instructions"] / cycles if cycles else 0.0,
            "stats": stats,
            "loads_served": loads_served,
            "total_cycles": final["cycle"],
            "total_instructions": final["stats"]["instructions"],
        }
        if core.warmup_instructions and (
            cycles <= 0 or stats["instructions"] <= 0
        ):
            raise RuntimeError(
                "empty measurement window: warmup=%d left %d instructions / "
                "%d cycles to measure for workload %r under config %r — "
                "lower warmup or lengthen the trace"
                % (
                    core.warmup_instructions,
                    stats["instructions"],
                    cycles,
                    workload_name,
                    core.config.name,
                )
            )
        if "rfp" in final:
            rfp_start = start.get("rfp", {})
            data["rfp"] = {
                key: final["rfp"][key] - rfp_start.get(key, 0)
                for key in final["rfp"]
            }
        if core.vp is not None:
            data["vp"] = core.vp.stats_dict()
        return cls(data)

    # -- convenience accessors -------------------------------------------

    @property
    def ipc(self):
        return self.data["ipc"]

    @property
    def workload(self):
        return self.data["workload"]

    @property
    def category(self):
        return self.data["category"]

    @property
    def stats(self):
        return self.data["stats"]

    @property
    def rfp(self):
        return self.data.get("rfp")

    @property
    def loads(self):
        return self.data["stats"]["loads"]

    def rfp_fraction(self, counter):
        """An RFP counter as a fraction of committed loads."""
        loads = self.loads or 1
        return self.data.get("rfp", {}).get(counter, 0) / loads

    @property
    def coverage(self):
        """Fraction of loads usefully prefetched (the paper's coverage)."""
        return self.rfp_fraction("useful")

    def load_distribution(self):
        """Fractions of loads served per hierarchy level plus forwarding."""
        served = dict(self.data["loads_served"])
        served["FWD"] = self.stats.get("load_forwards", 0)
        served["RFP"] = self.data.get("rfp", {}).get("useful", 0)
        total = sum(served.values()) or 1
        return {level: count / total for level, count in served.items()}

    def as_dict(self):
        return self.data

    def __repr__(self):
        return "<SimResult %s/%s ipc=%.3f>" % (
            self.data["workload"],
            self.data["config"],
            self.ipc,
        )


def simulate(
    workload,
    config=None,
    length=DEFAULT_LENGTH,
    warmup=DEFAULT_WARMUP,
    record_commits=False,
    max_cycles=None,
    tracer=None,
    check_invariants=None,
):
    """Simulate ``workload`` (suite name or a Trace) under ``config``.

    Returns a :class:`SimResult` measured over the post-warmup window.

    Tracing: pass an explicit :class:`~repro.obs.tracer.Tracer` to collect
    events yourself (the ``trace`` CLI and the parallel engine do), or set
    ``REPRO_TRACE=<path>`` to have this function attach one and write the
    sorted JSONL event log to ``<path>`` when the run drains.  Either way
    the metrics snapshot lands in ``result.data["obs"]``.

    Invariant net: ``check_invariants`` is a sweep interval in cycles for
    :mod:`repro.core.invariants` (0 disables; None defers to
    ``REPRO_CHECK_INVARIANTS``).  The sweep only observes state, so results
    are identical with checking on or off.
    """
    config = config or baseline()
    if isinstance(workload, str):
        trace = build_workload(workload, length=length)
        name = workload
        category = workload_category(workload)
    else:
        trace = workload
        name = trace.name
        category = trace.category
    env_spec = None
    if tracer is None:
        env_spec = trace_spec_from_env()
        if env_spec is not None:
            tracer = env_spec.build_tracer()
    core = OOOCore(trace, config, record_commits=record_commits, tracer=tracer,
                   check_invariants=check_invariants)
    functional, detailed_warmup = fast_forward_split(config, len(trace), warmup)
    if record_commits or tracer is not None:
        # Commit logs and event traces must cover the whole trace.
        functional, detailed_warmup = 0, min(warmup, max(0, len(trace) // 2))
    if functional > 0:
        FunctionalWarmer(core).warm(functional)
    core.warmup_instructions = detailed_warmup
    core.run(max_cycles=max_cycles)
    result = SimResult.from_core(core, name, category)
    result.data["fast_forward"] = {
        "enabled": functional > 0,
        "functional_instructions": functional,
        "detailed_warmup": detailed_warmup,
    }
    result.data["idle_skipped_cycles"] = core.idle_cycles_skipped
    if record_commits:
        result.data["committed"] = core.committed
    if tracer is not None:
        result.data["obs"] = tracer.metrics.snapshot()
    if env_spec is not None:
        write_jsonl(sort_events(tracer.events), env_spec.path)
    return result


def _resolve_trace(workload, length):
    if isinstance(workload, str):
        return (build_workload(workload, length=length), workload,
                workload_category(workload))
    return workload, workload.name, workload.category


def simulate_interval(
    workload,
    config=None,
    length=DEFAULT_LENGTH,
    start=0,
    measure=None,
    ramp=0,
    index=0,
    checkpoint_store="default",
    max_cycles=None,
):
    """Simulate ONE sampling interval of ``workload`` under ``config``.

    The interval measures the ``measure`` instructions beginning at trace
    position ``start``: the first ``start - ramp`` instructions are
    functionally fast-forwarded (restored from ``checkpoint_store`` when a
    matching warm-state checkpoint exists, warmed and checkpointed
    otherwise), the detailed core re-simulates the ``ramp``-instruction
    pipeline-refill window, and the fetch limit is lowered to
    ``start + measure`` so the pipeline drains naturally after exactly the
    measured instructions — no mid-flight stop, identical commit timing to
    a longer run over the same prefix.

    ``checkpoint_store`` is a :class:`~repro.sim.checkpoint.CheckpointStore`,
    None (always warm functionally), or ``"default"`` for the shared store.
    Returns a :class:`SimResult` whose data carries ``interval`` metadata.
    """
    from repro.sim import checkpoint

    config = config or baseline()
    trace, name, category = _resolve_trace(workload, length)
    if measure is None:
        measure = len(trace) - start
    if measure < 1 or start < 0 or start + measure > len(trace):
        raise ValueError(
            "interval [%d, %d) does not fit a %d-instruction trace"
            % (start, start + measure, len(trace))
        )
    if ramp < 0 or ramp > start:
        raise ValueError(
            "detailed ramp %d does not fit before interval start %d"
            % (ramp, start)
        )
    if checkpoint_store == "default":
        checkpoint_store = checkpoint.default_checkpoint_store()
    core = OOOCore(trace, config)
    functional = start - ramp
    outcome = checkpoint.warm_or_restore(
        core, name, config, len(trace), functional, checkpoint_store
    )
    core.warmup_instructions = ramp
    core.frontend.cursor.limit = start + measure
    core.run(max_cycles=max_cycles)
    result = SimResult.from_core(core, name, category)
    result.data["interval"] = {
        "index": index,
        "start": start,
        "measure": measure,
        "ramp": ramp,
        "functional": functional,
        "checkpoint": outcome,
    }
    result.data["fast_forward"] = {
        "enabled": functional > 0,
        "functional_instructions": functional,
        "detailed_warmup": ramp,
    }
    result.data["idle_skipped_cycles"] = core.idle_cycles_skipped
    return result


def simulate_sampled(
    workload,
    config=None,
    length=DEFAULT_LENGTH,
    warmup=DEFAULT_WARMUP,
    samples=10,
    interval_length=None,
    ci_target=None,
    confidence=None,
    min_samples=None,
    checkpoint_store="default",
    max_cycles=None,
):
    """Estimate ``workload``'s IPC from ``samples`` short detailed intervals.

    SMARTS-style sampled simulation: the measured region is covered by
    ``samples`` systematically placed intervals (see
    :class:`~repro.sim.sampling.SamplingPlan`), every interval boundary's
    warm state comes from one shared functional pass through the checkpoint
    store, and the reported IPC is the per-interval mean with a Student-t
    confidence interval (``result.data["ipc_ci"]``).

    Adaptive mode: with ``ci_target`` set (relative half-width, e.g. 0.01
    for 1%), intervals are simulated in order and measurement stops as soon
    as — after ``min_samples`` intervals — the CI is tight enough.  The
    stopping rule is deterministic, so a parallel sweep that simulates all
    intervals aggregates to the identical result.

    With ``samples=1`` (and no ``interval_length``) the plan degenerates to
    the standard two-speed single-window run and the result's measured
    counters match :func:`simulate` exactly.
    """
    from repro.sim import checkpoint
    from repro.sim.sampling import (
        SamplingPlan, aggregate_intervals, mean_ci, normalize_spec,
    )

    config = config or baseline()
    trace, name, _category = _resolve_trace(workload, length)
    spec = {"samples": samples, "interval_length": interval_length,
            "ci_target": ci_target}
    if confidence is not None:
        spec["confidence"] = confidence
    if min_samples is not None:
        spec["min_samples"] = min_samples
    spec = normalize_spec(spec)
    plan = SamplingPlan(config, len(trace), warmup, spec)
    if checkpoint_store == "default":
        checkpoint_store = checkpoint.default_checkpoint_store()
    if checkpoint_store is not None:
        checkpoint.ensure_checkpoints(
            trace, name, config, len(trace), plan.checkpoint_positions(),
            checkpoint_store,
        )

    interval_datas = []
    for i in range(plan.samples):
        interval = simulate_interval(
            trace,
            config,
            start=plan.starts[i],
            measure=plan.measure,
            ramp=plan.ramps[i],
            index=i,
            checkpoint_store=checkpoint_store,
            max_cycles=max_cycles,
        )
        interval_datas.append(interval.data)
        if spec["ci_target"] is not None and \
                len(interval_datas) >= spec["min_samples"]:
            # Deterministic adaptive stop: a parallel sweep that simulates
            # every interval aggregates to the identical subset.
            mean, half = mean_ci([d["ipc"] for d in interval_datas],
                                 spec["confidence"])
            if half is not None and mean > 0 and \
                    half <= spec["ci_target"] * mean:
                break
    return SimResult(aggregate_intervals(interval_datas, spec))
