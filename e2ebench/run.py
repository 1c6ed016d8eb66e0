"""End-to-end sweep benchmark for the RFP simulator.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload twospeed-suite --seed 0 \
        --seconds 20 --trace 0

``--workload`` is one of the names in ``design.WORKLOADS`` or ``all``
(every workload, timed and then traced).  ``--seed`` draws the eight suite
workloads.  With ``--trace 0`` the sweep is repeated, each time in a fresh
interpreter with empty stores, until ``--seconds`` of sweep time have
been measured, and the end-to-end metrics are medians over the repeats.
With ``--trace 1`` one untraced and one traced sweep run; the traced one
gives the per-layer metrics, and full-detail runs of the same cells give
the estimator's accuracy.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` (cells), ``failed`` (cells) and
``metrics``.

Every sweep's cells are digested (sha256 of canonical result JSON); the
digests must agree between repeats and between traced and untraced runs.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench-work")
sys.path.insert(0, HERE)

import design  # noqa: E402

#: A step that takes longer than this is killed and the run fails.
STEP_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "store_mb": "MB",
}
PER_LAYER_UNITS = {
    "workloads.build_s": "s", "workloads.builds": "count",
    "emu.warm_s": "s", "emu.warm_instr": "count",
    "emu.warm_passes": "count",
    "core.run_s": "s", "core.detail_instr": "count",
    "core.us_per_instr": "us",
    "rfp.overhead_pct": "%",
    "runner.self_s": "s",
    "checkpoint.put_s": "s", "checkpoint.puts": "count",
    "checkpoint.capture_s": "s", "checkpoint.get_s": "s",
    "checkpoint.gets": "count", "checkpoint.restore_s": "s",
    "checkpoint.bytes_written": "bytes", "checkpoint.hit_frac": "fraction",
    "cache.put_s": "s", "cache.puts": "count", "cache.get_s": "s",
    "cache.hit_frac": "fraction",
    "parallel.prewarm_s": "s", "parallel.job_s": "s",
    "parallel.overhead_s": "s", "parallel.jobs": "count",
    "parallel.retries": "count",
    "sampling.intervals": "count", "sampling.ci_rel_pct": "%",
    "sampling.ipc_err_pct": "%", "sampling.ratio_ipc_err_pct": "%",
    "sampling.speedup_err_pp": "pp",
    "gc.full_s": "s", "gc.full_collections": "count",
    "other_s": "s", "trace.total_s": "s", "trace.overhead_pct": "%",
    "calibration_s": "s",
}


class StepFailed(RuntimeError):
    pass


def calibrate():
    """Median seconds of a fixed pure-Python loop (machine speed context,
    reported and never gated)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(200000):
            table[i & 1023] = acc
            acc = (acc + i * i) % 1000003
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def child_env(run_dir):
    """The environment of a fresh ``repro`` command, stores in ``run_dir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "default-cache")
    env["REPRO_CHECKPOINT_DIR"] = os.path.join(run_dir, "checkpoints")
    return env


def start(spec, env):
    """Start one ``sweep.py`` step in its own process group."""
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sweep.py"),
         json.dumps(dict(spec, src=SRC))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True)


def finish(proc, kind):
    """Wait for a step and return its JSON result.  The process group is
    killed afterwards, so no worker outlives its step."""
    try:
        out, err = proc.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = b"", b"timed out"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise StepFailed("%s step failed (exit %s):\n%s"
                         % (kind, proc.returncode,
                            err.decode("utf-8", "replace")[-2000:]))
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def step(spec, env):
    return finish(start(spec, env), spec["kind"])


def reset(*paths):
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)


def fill_store(names, dirs, env):
    """Fill the checkpoint store as the l1_latency=5 sampled sweep leaves
    it; two concurrent fill processes take half the draw each."""
    started = time.perf_counter()
    procs = [start({"kind": "fill", "names": half,
                    "configs": design.config_specs(5),
                    "sample": design.SAMPLES,
                    "checkpoint_dir": dirs["checkpoints"]}, env)
             for half in (names[0::2], names[1::2])]
    errors = []
    for proc in procs:  # finish every process, even after a failure
        try:
            finish(proc, "fill")
        except StepFailed as exc:
            errors.append(str(exc))
    if errors:
        raise StepFailed("\n".join(errors))
    return time.perf_counter() - started


def reference(workload, names, dirs, env):
    """Full-detail result of every swept cell (outside any timed region)."""
    reset(dirs["reference"])
    return step({"kind": "reference", "names": names,
                 "configs": design.config_specs(
                     design.WORKLOADS[workload]["l1_latency"],
                     full_detail=True),
                 "workers": design.SAMPLED_WORKERS,
                 "cache_dir": dirs["reference"]}, env)["cells"]


def gmean_speedup(cells, n):
    """Geometric-mean RFP speedup over baseline, in percent."""
    ratios = [rfp["ipc"] / base["ipc"]
              for base, rfp in zip(cells[:n], cells[n:])]
    return 100.0 * (statistics.geometric_mean(ratios) - 1.0)


def accuracy(cells, ref, n):
    """Mean |err| of the reported and of the Σinstr/Σcycles IPC against
    full detail (percent), and the RFP speedup error (pp)."""
    errs = [abs(c["ipc"] - r["ipc"]) / r["ipc"] for c, r in zip(cells, ref)]
    ratio_errs = [abs(c["ratio_ipc"] - r["ipc"]) / r["ipc"]
                  for c, r in zip(cells, ref)]
    return {
        "ipc_err_pct": 100.0 * statistics.fmean(errs),
        "ratio_ipc_err_pct": 100.0 * statistics.fmean(ratio_errs),
        "speedup_pct": gmean_speedup(cells, n),
        "ref_speedup_pct": gmean_speedup(ref, n),
        "speedup_err_pp": abs(gmean_speedup(cells, n)
                              - gmean_speedup(ref, n)),
    }


def run_workload(workload, seed, seconds, trace, log):
    """Measure one workload; returns the result object to print."""
    from repro.workloads.suite import WORKLOADS as SUITE

    info = design.WORKLOADS[workload]
    names = design.draw(seed, SUITE)
    n = len(names)
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    dirs = {name: os.path.join(run_dir, name)
            for name in ("cache", "checkpoints", "spans", "reference")}
    env = child_env(run_dir)
    log("workload %s, seed %d: %s" % (workload, seed, " ".join(names)))
    calibration_s = calibrate()
    log("calibration loop: %.4f s" % calibration_s)
    fill_s = 0.0
    if info["fill"]:
        reset(dirs["checkpoints"])
        fill_s = fill_store(names, dirs, env)
        log("store fill (set-up): %.2f s" % fill_s)

    runs = []
    while True:
        traced = trace and len(runs) == 1
        prep_started = time.perf_counter()
        reset(dirs["cache"], dirs["spans"],
              *([] if info["fill"] else [dirs["checkpoints"]]))
        out = step({"kind": "sweep", "names": names, "trace": traced,
                    "configs": design.config_specs(info["l1_latency"]),
                    "sample": info["sample"], "workers": info["workers"],
                    "cache_dir": dirs["cache"],
                    "checkpoint_dir": dirs["checkpoints"],
                    "span_dir": dirs["spans"]}, env)
        out["setup_s"] = out["started"] - prep_started
        runs.append(out)
        log("%s sweep %d: wall %.3f s, set-up %.3f s, peak RSS %.1f MB, "
            "store %.3f MB, failed cells %d, digest %s"
            % ("traced" if traced else "timed", len(runs), out["wall_s"],
               out["setup_s"], out["peak_rss_mb"], out["store_mb"],
               out["failed"], out["digest"]))
        if traced or (not trace
                      and sum(r["wall_s"] for r in runs) >= seconds):
            break

    digests = {r["digest"] for r in runs}
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        log("FAIL: cell digests differ between sweeps: %s"
            % sorted(digests))
    if trace:
        metrics, units = traced_metrics(workload, names, runs, dirs, env,
                                        failed, log), PER_LAYER_UNITS
        metrics["calibration_s"] = calibration_s
    else:
        metrics, units = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": fill_s + statistics.median(r["setup_s"]
                                                  for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "store_mb": statistics.median(r["store_mb"] for r in runs),
        }, END_TO_END_UNITS
    shutil.rmtree(run_dir, ignore_errors=True)
    for name in units:
        log("%-28s %14.6g %s" % (name, metrics[name], units[name]))
    return {"correct": correct, "attempted": 2 * n * len(runs),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def traced_metrics(workload, names, runs, dirs, env, failed, log):
    """Per-layer metrics of the traced sweep (``runs[1]``), its overhead
    against the untraced one (``runs[0]``) and the estimator's accuracy."""
    layers = dict(runs[1]["layers"])
    self_s = layers.pop("layer_self_s")
    log("span accounting (worker-seconds, traced sweep): %s, other %.3f"
        " = %.3f of %.3f s"
        % (", ".join("%s %.3f" % kv for kv in self_s.items()),
           layers["other_s"], sum(self_s.values()) + layers["other_s"],
           layers["trace.total_s"]))
    layers.pop("trace.fanout_s")
    layers["trace.overhead_pct"] = 100.0 * (
        runs[1]["wall_s"] / runs[0]["wall_s"] - 1.0)
    for name in ("ipc_err_pct", "ratio_ipc_err_pct", "speedup_err_pp"):
        layers["sampling." + name] = 0.0
    if failed == 0:
        acc = accuracy(runs[0]["cells"],
                       reference(workload, names, dirs, env), len(names))
        log("accuracy vs full detail: reported IPC mean |err| %.3f%%, "
            "sum(instr)/sum(cycles) %.3f%%; RFP gmean speedup %+.3f%% "
            "vs %+.3f%% full detail (|diff| %.3f pp)"
            % (acc["ipc_err_pct"], acc["ratio_ipc_err_pct"],
               acc["speedup_pct"], acc["ref_speedup_pct"],
               acc["speedup_err_pp"]))
        for name in ("ipc_err_pct", "ratio_ipc_err_pct", "speedup_err_pp"):
            layers["sampling." + name] = acc[name]
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(design.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=design.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no simulator sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    def log(line):
        print(line, flush=True)

    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), log)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in design.WORKLOADS:
                for trace in (False, True):
                    part = run_workload(workload, args.seed, args.seconds,
                                        trace, log)
                    result["correct"] = result["correct"] and part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for name, metric in part["metrics"].items():
                        result["metrics"][workload + ":" + name] = metric
    except StepFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
