"""Tests of the benchmark's own logic: seeded draw, digest, span accounting.

Run from the repository root: ``python3 -m pytest -q e2ebench``.
"""

import json
import multiprocessing
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import design  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from repro.workloads.suite import CATEGORIES, WORKLOADS as SUITE  # noqa: E402


# -- seeded draw -------------------------------------------------------------

def test_allocation_is_proportional_with_one_per_category():
    quota = design.allocation({c: sum(1 for v in SUITE.values() if v == c)
                               for c in CATEGORIES})
    assert sum(quota.values()) == design.DRAW_SIZE
    assert set(quota) == set(CATEGORIES)
    assert min(quota.values()) == 1
    assert quota == {"ISPEC06": 1, "FSPEC06": 2, "ISPEC17": 1,
                     "FSPEC17": 2, "Cloud": 1, "Client": 1}


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345])
def test_draw_is_stratified_and_repeatable(seed):
    names = design.draw(seed, SUITE)
    assert names == design.draw(seed, SUITE)
    assert len(set(names)) == design.DRAW_SIZE
    assert {SUITE[n] for n in names} == set(CATEGORIES)
    order = list(SUITE)
    assert names == sorted(names, key=order.index)


def test_seeds_draw_different_sets():
    draws = {tuple(design.draw(seed, SUITE)) for seed in range(10)}
    assert len(draws) >= 8


def test_recorded_draws_match():
    with open(os.path.join(HERE, "design.json")) as handle:
        recorded = json.load(handle)["seeds"]
    assert recorded["default"]["seed"] == design.DEFAULT_SEED
    assert recorded["held_out"]["seed"] == design.HELD_OUT_SEED
    for entry in recorded.values():
        assert entry["names"] == design.draw(entry["seed"], SUITE)


def test_benchmark_json_matches_design():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(design.WORKLOADS)
    for entry in bench["workloads"]:
        assert entry["why"] == design.WORKLOADS[entry["name"]]["why"]
    with open(os.path.join(HERE, "design.json")) as handle:
        layer_map = json.load(handle)["layers"]
    mapped = {m for layer in layer_map.values() for m in layer["metrics"]}
    assert mapped == {m["name"] for m in bench["per_layer"]}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS


# -- digest ------------------------------------------------------------------

def test_digest_ignores_key_order_but_not_values_or_cell_order():
    a = {"ipc": 1.25, "stats": {"x": 1, "y": 2}}
    b = {"stats": {"y": 2, "x": 1}, "ipc": 1.25}
    c = {"ipc": 1.2500000001, "stats": {"x": 1, "y": 2}}
    assert design.digest([a, None]) == design.digest([b, None])
    assert design.digest([a]) != design.digest([c])
    assert design.digest([a, c]) != design.digest([c, a])
    assert design.digest([a]) != design.digest([a, None])


# -- span accounting ---------------------------------------------------------

def test_recorder_self_time_excludes_children():
    rec = spans.Recorder()
    rec.begin("runner.simulate")
    rec.begin("core.run")
    rec.end({"instr": 5})
    rec.begin("cache.get")
    rec.end()
    rec.end()
    inner, get, outer = rec.spans
    assert outer["name"] == "runner.simulate"
    children = (inner["end"] - inner["start"]) + (get["end"] - get["start"])
    assert outer["self"] == pytest.approx(
        outer["end"] - outer["start"] - children, abs=1e-12)
    assert inner["self"] == inner["end"] - inner["start"]


def _span(name, start, end, self_s=None):
    return {"name": name, "start": start, "end": end,
            "self": end - start if self_s is None else self_s, "attrs": {}}


def test_account_serial_sums_to_wall():
    parent = [_span("workloads.build", 1.0, 2.0),
              _span("core.run", 2.0, 5.0),
              _span("runner.simulate", 2.0, 5.5, self_s=0.5),
              _span("cache.put", 5.5, 5.6)]
    acc = spans.account(parent, 0.0, 6.0, [], [], 1)
    assert acc["total_s"] == pytest.approx(6.0)
    assert acc["overhead_s"] == 0.0
    assert acc["other_s"] == pytest.approx(6.0 - 1.0 - 3.0 - 0.5 - 0.1)
    assert sum(acc["layers"].values()) + acc["other_s"] == pytest.approx(6.0)


def test_account_counts_worker_seconds_in_the_fanout():
    parent = [_span("parallel.prewarm", 0.0, 4.0),
              _span("cache.put", 6.0, 6.1)]        # inside the fan-out
    workers = [
        {"fork_t": 4.0, "end_t": 7.0, "warm_passes": 0,
         "spans": [_span("runner.simulate_interval", 4.1, 7.0, 1.0),
                   _span("core.run", 5.1, 7.0)]},
        {"fork_t": 4.2, "end_t": 8.0, "warm_passes": 0,
         "spans": [_span("runner.simulate_interval", 4.3, 8.0)]},
    ]
    job_seconds = [3.0, 3.8]
    acc = spans.account(parent, 0.0, 9.0, workers, job_seconds, 2)
    assert acc["fanout_s"] == pytest.approx(4.0)
    # 5 s of parent wall outside, 2 slots x 4 s, 0.1 s of parent commits.
    assert acc["total_s"] == pytest.approx(5.0 + 8.0 + 0.1)
    assert acc["overhead_s"] == pytest.approx(8.0 - 6.8)
    assert sum(acc["layers"].values()) + acc["other_s"] == pytest.approx(
        acc["total_s"])
    assert acc["other_s"] >= 0


def _forked_worker(rec):
    rec.after_fork_in_child()
    rec.begin("runner.simulate_interval")
    rec.begin("core.run")
    rec.end({"instr": 3, "rfp": False})
    rec.end()


def test_worker_spans_are_collected(tmp_path):
    rec = spans.Recorder(str(tmp_path))
    rec.begin("parallel.prewarm")
    rec.end()
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_forked_worker, args=(rec,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    [payload] = rec.collect_workers()
    assert [s["name"] for s in payload["spans"]] == [
        "core.run", "runner.simulate_interval"]
    assert payload["end_t"] >= payload["fork_t"]
    assert [s["name"] for s in rec.spans] == ["parallel.prewarm"]


def test_traced_sweep_matches_untraced_and_accounts(tmp_path, monkeypatch):
    """The wrappers change no result, and spans from real forked workers
    plus ``other`` add up to the traced run's worker-seconds."""
    from repro.core.config import baseline
    from repro.sim.cache import ResultCache
    from repro.sim.parallel import run_matrix

    names = ["spec06_mcf", "tpce"]
    configs = [baseline(), baseline(rfp={"enabled": True})]

    def sweep(tag, progress=None):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / tag))
        per_config, report = run_matrix(
            configs, names, 3000, 1500,
            cache=ResultCache(str(tmp_path / ("cache-" + tag))),
            max_workers=2, progress=progress, sampling={"samples": 3})
        return [m[n].data for m in per_config for n in names], report

    job_seconds = []

    def progress(_done, _total, _workload, _config, seconds, source):
        if source == "run":
            job_seconds.append(seconds)

    plain, _ = sweep("plain")
    rec, undo = spans.install(str(tmp_path / "spans"))
    try:
        started = time.perf_counter()
        traced, report = sweep("traced", progress)
        ended = time.perf_counter()
    finally:
        undo()
    assert design.digest(traced) == design.digest(plain)
    workers = rec.collect_workers()
    assert len(workers) == report.jobs_simulated == 12
    acc = spans.account(rec.spans, started, ended, workers, job_seconds,
                        report.workers)
    assert sum(acc["layers"].values()) + acc["other_s"] == pytest.approx(
        acc["total_s"])
    assert 0 <= acc["other_s"] < 0.25 * acc["total_s"]
    assert acc["layers"]["core"] > 0 and acc["layers"]["checkpoint"] > 0
