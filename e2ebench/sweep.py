"""One benchmark step in a fresh interpreter, as a ``repro`` command runs.

Usage: ``python3 e2ebench/sweep.py '<json spec>'``.  The spec's ``kind``
is one of:

- ``sweep``: one ``run_matrix`` sweep over the drawn workloads, timed from
  just before the call to its return; with ``trace`` set, the layer spans
  are recorded and attributed (see :mod:`spans`).
- ``fill``: bring the checkpoint store to the state a sampled sweep of the
  same configs leaves it in, through the same ``ensure_checkpoints`` call
  the sweep's prewarm makes.
- ``reference``: full-detail runs of the swept cells, for accuracy.

The last line of standard output is one JSON object.  The parent sets the
environment (store directories) before starting this process.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import design  # noqa: E402
import spans  # noqa: E402


def dir_bytes(path):
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def _configs(spec):
    from repro.core.config import baseline

    return [baseline(**overrides) for overrides in spec["configs"]]


def _cells(per_config, names):
    return [by_name[name].data if name in by_name else None
            for by_name in per_config for name in names]


def _cell_summary(cells):
    """Per-cell IPCs the parent needs for accuracy: reported, and
    instructions over cycles."""
    return [None if data is None else
            {"ipc": data["ipc"],
             "ratio_ipc": data["instructions"] / data["cycles"]}
            for data in cells]


def run_sweep(spec):
    from repro.sim import parallel
    from repro.sim.cache import ResultCache
    from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP

    configs = _configs(spec)
    names = spec["names"]
    cache = ResultCache(spec["cache_dir"])
    sampling = {"samples": spec["sample"]} if spec["sample"] else None
    recorder = None
    progress = None
    job_seconds = []
    retries = []
    if spec["trace"]:
        store_before = dir_bytes(spec["checkpoint_dir"])
        recorder, _undo = spans.install(spec["span_dir"])

        def progress(_done, _total, _workload, _config, seconds, source):
            if source == "run":
                job_seconds.append(seconds)
            elif source == "retry":
                retries.append(1)

    started = time.perf_counter()
    per_config, report = parallel.run_matrix(
        configs, names, DEFAULT_LENGTH, DEFAULT_WARMUP, cache=cache,
        max_workers=spec["workers"], progress=progress, keep_going=True,
        sampling=sampling)
    ended = time.perf_counter()
    cells = _cells(per_config, names)
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "started": started,
        "wall_s": ended - started,
        "peak_rss_mb": (parent_kb + report.workers * worker_kb) / 1024.0,
        "store_mb": (dir_bytes(spec["cache_dir"])
                     + dir_bytes(spec["checkpoint_dir"])) / 1e6,
        "digest": design.digest(cells),
        "failed": sum(1 for cell in cells if cell is None),
        "cells": _cell_summary(cells),
    }
    if recorder is not None:
        out["layers"] = per_layer(
            recorder, started, ended, job_seconds, len(retries),
            report.workers, cells,
            dir_bytes(spec["checkpoint_dir"]) - store_before)
    return out


def per_layer(recorder, started, ended, job_seconds, retries, workers,
              cells, bytes_written):
    """The traced sweep's per-layer metrics."""
    worker_payloads = recorder.collect_workers()
    acc = spans.account(recorder.spans, started, ended, worker_payloads,
                        job_seconds, workers)
    every = list(recorder.spans)
    for payload in worker_payloads:
        every.extend(payload["spans"])

    def pick(name):
        return [s for s in every if s["name"] == name]

    def self_s(name):
        return sum(s["self"] for s in pick(name))

    def frac(name):
        got = pick(name)
        return (sum(1 for s in got if s["attrs"]["hit"]) / len(got)
                if got else 0.0)

    core = pick("core.run")
    core_s = sum(s["self"] for s in core)
    core_instr = sum(s["attrs"]["instr"] for s in core)
    rfp_s = sum(s["self"] for s in core if s["attrs"]["rfp"])
    base_s = core_s - rfp_s
    sampled = [c for c in cells if c is not None and c.get("ipc_ci")]
    ci_rel = [c["ipc_ci"]["relative_half_width"] for c in sampled
              if c["ipc_ci"]["relative_half_width"] is not None]
    layers = acc["layers"]
    return {
        "workloads.build_s": self_s("workloads.build"),
        "workloads.builds": len(pick("workloads.build")),
        "emu.warm_s": self_s("emu.warm"),
        "emu.warm_instr": sum(s["attrs"]["instr"] for s in pick("emu.warm")),
        "emu.warm_passes": recorder.warm_passes() + sum(
            p["warm_passes"] for p in worker_payloads),
        "core.run_s": core_s,
        "core.detail_instr": core_instr,
        "core.us_per_instr": (1e6 * core_s / core_instr
                              if core_instr else 0.0),
        "rfp.overhead_pct": (100.0 * (rfp_s / base_s - 1.0)
                             if base_s else 0.0),
        "runner.self_s": (self_s("runner.simulate")
                          + self_s("runner.simulate_interval")),
        "checkpoint.put_s": self_s("checkpoint.put"),
        "checkpoint.puts": len(pick("checkpoint.put")),
        "checkpoint.capture_s": self_s("checkpoint.capture"),
        "checkpoint.get_s": self_s("checkpoint.get"),
        "checkpoint.gets": len(pick("checkpoint.get")),
        "checkpoint.restore_s": self_s("checkpoint.restore"),
        "checkpoint.bytes_written": bytes_written,
        "checkpoint.hit_frac": frac("checkpoint.get"),
        "cache.put_s": self_s("cache.put"),
        "cache.puts": len(pick("cache.put")),
        "cache.get_s": self_s("cache.get"),
        "cache.hit_frac": frac("cache.get"),
        "parallel.prewarm_s": sum(s["end"] - s["start"]
                                  for s in pick("parallel.prewarm")),
        "parallel.job_s": sum(job_seconds) if worker_payloads else 0.0,
        "parallel.overhead_s": acc["overhead_s"],
        "parallel.jobs": len(worker_payloads),
        "parallel.retries": retries,
        "sampling.intervals": sum(c["ipc_ci"]["intervals_used"]
                                  for c in sampled),
        "sampling.ci_rel_pct": (100.0 * sum(ci_rel) / len(ci_rel)
                                if ci_rel else 0.0),
        "gc.full_s": self_s("gc.full"),
        "gc.full_collections": len(pick("gc.full")),
        "other_s": acc["other_s"],
        "trace.total_s": acc["total_s"],
        "trace.fanout_s": acc["fanout_s"],
        "layer_self_s": layers,
    }


def run_fill(spec):
    from repro.sim.checkpoint import CheckpointStore, ensure_checkpoints
    from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
    from repro.sim.sampling import SamplingPlan

    store = CheckpointStore(spec["checkpoint_dir"])
    for config in _configs(spec):
        plan = SamplingPlan(config, DEFAULT_LENGTH, DEFAULT_WARMUP,
                            {"samples": spec["sample"]})
        for name in spec["names"]:
            ensure_checkpoints(None, name, config, DEFAULT_LENGTH,
                               plan.checkpoint_positions(), store)
    return {}


def run_reference(spec):
    from repro.sim.cache import ResultCache
    from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
    from repro.sim.parallel import run_matrix

    per_config, _report = run_matrix(
        _configs(spec), spec["names"], DEFAULT_LENGTH, DEFAULT_WARMUP,
        cache=ResultCache(spec["cache_dir"]), max_workers=spec["workers"],
        keep_going=True)
    return {"cells": _cell_summary(_cells(per_config, spec["names"]))}


def main(argv):
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    handler = {"sweep": run_sweep, "fill": run_fill,
               "reference": run_reference}[spec["kind"]]
    print(json.dumps(handler(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
