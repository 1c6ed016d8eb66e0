"""The supervised shard-pool scheduler (repro.sim.scheduler).

Byte-identity with the trace-bound worker engine is the core contract —
results must not depend on which engine ran them — plus the supervision
paths: shard death recovery, heartbeat quarantine, fair-share lanes,
admission control, and the asyncio service front end.
"""

import asyncio
import json
import os

import pytest

from conftest import quiet_config

from repro.sim.cache import ResultCache
from repro.sim.parallel import _PendingJob, run_jobs
from repro.sim.scheduler import PoolSaturated, ShardPool, SweepService

WORKLOADS = ["spec06_bzip2", "spec06_mcf", "spec06_perlbench", "spec06_gcc"]
LENGTH = 1200
WARMUP = 200


@pytest.fixture(autouse=True)
def shard_env(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    monkeypatch.setenv("REPRO_RESPAWN_BACKOFF", "0.05")
    for name in ("REPRO_FAULT", "REPRO_SHARDS", "REPRO_JOB_TIMEOUT",
                 "REPRO_JOB_RETRIES"):
        monkeypatch.delenv(name, raising=False)
    yield
    os.environ.pop("REPRO_FAULT", None)


def jobs4(config=None):
    config = config or quiet_config()
    return [(name, config, LENGTH, WARMUP) for name in WORKLOADS]


def payload(results):
    return json.dumps([r.data if r is not None else None for r in results],
                      sort_keys=True)


class TestShardEngineEquivalence:
    def test_results_byte_identical_to_worker_per_job(self, tmp_path):
        ref, _ = run_jobs(jobs4(), cache=ResultCache(str(tmp_path / "a")),
                          max_workers=2)
        got, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path / "b")),
                               shards=2)
        assert payload(got) == payload(ref)
        assert report.workers == 2
        assert report.jobs_failed == 0
        assert report.drained is False

    def test_env_routes_through_shards(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        via_env, env_report = run_jobs(
            jobs4(), cache=ResultCache(str(tmp_path / "a")), shards=None)
        assert env_report.workers == 2  # REPRO_SHARDS picked the pool up
        monkeypatch.delenv("REPRO_SHARDS")
        got, _ = run_jobs(jobs4(), cache=ResultCache(str(tmp_path / "b")),
                          shards=2)
        assert payload(got) == payload(via_env)

    def test_sampled_jobs_match_serial_engine(self, tmp_path):
        spec = {"samples": 2}
        jobs = [(name, quiet_config(), 4000, 1000, spec)
                for name in WORKLOADS[:2]]
        ref, _ = run_jobs(jobs, cache=ResultCache(str(tmp_path / "a")),
                          max_workers=1)
        got, _ = run_jobs(jobs, cache=ResultCache(str(tmp_path / "b")),
                          shards=2)
        assert payload(got) == payload(ref)


class TestShardSupervision:
    def test_killed_shard_requeues_and_recovers(self, tmp_path):
        os.environ["REPRO_FAULT"] = "kill_shard:shard=0:after=1"
        results, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path)),
                                   shards=2, retries=2, keep_going=True)
        assert all(r is not None for r in results)
        assert report.jobs_failed == 0
        crashes = [f for f in report.failures
                   if f["classification"] == "crash"]
        assert crashes and crashes[0]["recovered"] is True
        assert "died" in crashes[0]["detail"]

    def test_wedged_shard_is_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.05")
        monkeypatch.setenv("REPRO_HEARTBEAT_MISSES", "5")
        os.environ["REPRO_FAULT"] = "hang_heartbeat:shard=0:seconds=30:after=1"
        results, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path)),
                                   shards=2, retries=2, keep_going=True)
        assert all(r is not None for r in results)
        assert report.jobs_failed == 0
        quarantined = [f for f in report.failures
                       if "quarantined" in (f.get("detail") or "")]
        assert quarantined and quarantined[0]["classification"] == "timeout"

    def test_crash_loop_emits_quarantine_event(self, tmp_path):
        # Every incarnation of shard 0 dies on its first job: attempts=99
        # keeps the fault alive across respawns, so the slot crash-loops.
        os.environ["REPRO_FAULT"] = "kill_shard:shard=0:after=0:attempts=99"
        pool = ShardPool(1, keep_going=True, retries=5,
                         crash_loop_limit=2, crash_loop_window=60.0,
                         respawn_backoff=0.02)
        pj = _PendingJob(
            "k0", (WORKLOADS[0], quiet_config(), LENGTH, WARMUP, None),
            0, None)
        done = []
        pool.execute([pj], on_success=lambda p, d, s: done.append(d),
                     on_terminal=lambda p: done.append(None),
                     on_aborted=lambda p, detail: done.append(None),
                     on_retry=lambda p: None)
        assert len(done) == 1 and done[0] is None  # retries exhausted
        kinds = [e["event"] for e in pool.events]
        assert "quarantine" in kinds
        assert any(e.get("crash_loop") for e in pool.events
                   if e["event"] == "quarantine")


class TestLanesAndAdmission:
    def _job(self, index):
        return _PendingJob(
            "k%d" % index,
            (WORKLOADS[index % len(WORKLOADS)], quiet_config(),
             LENGTH, WARMUP, None),
            index, None)

    def test_interactive_lane_preempts_bulk(self):
        pool = ShardPool(1)
        bulk = [self._job(i) for i in range(3)]
        inter = self._job(3)
        for pj in bulk:
            pool._lane_of[id(pj)] = "bulk"
            pool._lanes["bulk"].append(pj)
        pool._lane_of[id(inter)] = "interactive"
        pool._lanes["interactive"].append(inter)
        order = [pool._next_ready(0.0) for _ in range(4)]
        assert order[0] is inter          # chunk-granularity preemption
        assert order[1:] == bulk

    def test_backoff_job_is_skipped_until_eligible(self):
        pool = ShardPool(1)
        ready, backing_off = self._job(0), self._job(1)
        backing_off.next_start = 10.0
        for pj in (backing_off, ready):
            pool._lane_of[id(pj)] = "bulk"
            pool._lanes["bulk"].append(pj)
        assert pool._next_ready(0.0) is ready
        assert pool._next_ready(0.0) is None      # only ineligible left
        assert pool._next_ready(11.0) is backing_off

    def test_submit_backpressure(self):
        pool = ShardPool(1, max_queue=2)
        pool.submit(self._job(0))
        pool.submit(self._job(1), lane="interactive")
        with pytest.raises(PoolSaturated, match="queue full"):
            pool.submit(self._job(2))
        with pytest.raises(ValueError, match="unknown lane"):
            pool.submit(self._job(3), lane="premium")


class TestSweepService:
    def test_json_lines_service_end_to_end(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        pool = ShardPool(1, keep_going=True)
        pool.start()
        try:
            asyncio.run(self._drive(pool, cache))
        finally:
            pool.shutdown()

    async def _drive(self, pool, cache):
        service = SweepService(pool, cache, length=LENGTH, warmup=WARMUP,
                               port=0)
        host, port = await service.start()

        async def rpc(request):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return json.loads(line)

        assert await rpc({"op": "ping"}) == {"ok": True, "pong": True}
        stats = await rpc({"op": "stats"})
        assert stats["ok"] and stats["stats"]["shards"] == 1
        ran = await rpc({"op": "run", "workload": WORKLOADS[0]})
        assert ran["ok"] and ran["source"] == "run"
        hit = await rpc({"op": "run", "workload": WORKLOADS[0]})
        assert hit["ok"] and hit["source"] == "cache"
        assert hit["result"] == ran["result"]
        bad = await rpc({"op": "run"})
        assert not bad["ok"]
        unknown = await rpc({"op": "warp"})
        assert not unknown["ok"] and "unknown op" in unknown["error"]
        service.server.close()
