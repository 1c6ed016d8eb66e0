"""Set-associative cache model: LRU, eviction, dirty bits, stats; and the
on-disk result cache's envelope codec (canonical writes, verified reads)."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import quiet_config

from repro.__main__ import main
from repro.memory.cache import Cache
from repro.sim import cache as cache_mod
from repro.sim.cache import ResultCache, simulate_cached
from repro.sim.runner import simulate


def small_cache():
    # 4 sets x 2 ways x 64B lines.
    return Cache(512, 2, 64, name="tiny")


class TestGeometry:
    def test_parameters(self):
        cache = Cache(48 * 1024, 12, 64)
        assert cache.num_sets == 64
        assert cache.line_shift == 6

    def test_bad_divisibility(self):
        with pytest.raises(ValueError):
            Cache(1000, 3, 64)

    def test_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            Cache(3 * 64 * 2, 2, 64)  # 3 sets

    def test_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            Cache(512, 2, 48)

    def test_line_addr(self):
        cache = small_cache()
        assert cache.line_addr(0) == 0
        assert cache.line_addr(63) == 0
        assert cache.line_addr(64) == 1


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_contains_no_stats(self):
        cache = small_cache()
        cache.fill(5)
        assert cache.contains(5)
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_lru_eviction(self):
        cache = small_cache()  # 2 ways, set = line % 4
        cache.fill(0)
        cache.fill(4)
        cache.fill(8)  # evicts line 0 (LRU)
        assert not cache.contains(0)
        assert cache.contains(4) and cache.contains(8)

    def test_lookup_refreshes_lru(self):
        cache = small_cache()
        cache.fill(0)
        cache.fill(4)
        cache.lookup(0)   # 0 becomes MRU
        cache.fill(8)     # evicts 4
        assert cache.contains(0)
        assert not cache.contains(4)

    def test_fill_returns_victim(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        cache.fill(4)
        victim = cache.fill(8)
        assert victim == (0, True)

    def test_refill_merges_dirty(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        cache.fill(0, dirty=False)
        cache.fill(4)
        victim = cache.fill(8)
        assert victim == (0, True)

    def test_mark_dirty(self):
        cache = small_cache()
        cache.fill(0)
        assert cache.mark_dirty(0)
        assert not cache.mark_dirty(99)

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(0)
        assert cache.invalidate(0)
        assert not cache.invalidate(0)
        assert not cache.contains(0)

    def test_occupancy(self):
        cache = small_cache()
        for line in range(8):
            cache.fill(line)
        assert cache.occupancy() == 8

    def test_prefetch_fill_counted(self):
        cache = small_cache()
        cache.fill(1, is_prefetch=True)
        assert cache.stats.prefetch_fills == 1


class TestStats:
    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0)
        cache.lookup(0)
        cache.lookup(1)
        assert cache.stats.hit_rate == 0.5

    def test_empty_hit_rate(self):
        assert small_cache().stats.hit_rate == 0.0

    def test_as_dict_keys(self):
        d = small_cache().stats.as_dict()
        for key in ("hits", "misses", "evictions", "fills", "hit_rate"):
            assert key in d


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=200))
def test_cache_matches_reference_lru(ops):
    """The cache must behave exactly like a per-set LRU list reference."""
    cache = Cache(512, 2, 64)
    reference = {s: [] for s in range(4)}  # set -> MRU-last list of lines

    def ref_touch(line):
        bucket = reference[line % 4]
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
            return True
        return False

    def ref_fill(line):
        bucket = reference[line % 4]
        if line in bucket:
            bucket.remove(line)
        elif len(bucket) >= 2:
            bucket.pop(0)
        bucket.append(line)

    for is_fill, line in ops:
        if is_fill:
            cache.fill(line)
            ref_fill(line)
        else:
            assert cache.lookup(line) == ref_touch(line)
    for s in range(4):
        resident = sorted(l for l in range(0, 31) if cache.contains(l) and l % 4 == s)
        assert resident == sorted(reference[s])


# ---------------------------------------------------------------------------
# the result cache's on-disk envelopes

WORKLOAD = "spec06_bzip2"


class _Result(object):
    def __init__(self, data):
        self.data = data

    def as_dict(self):
        return self.data


class TestResultEnvelope:
    def test_reloaded_result_equals_fresh(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = quiet_config(rfp={"enabled": True})
        fresh = simulate(WORKLOAD, config, length=3000, warmup=1000)
        simulate_cached(WORKLOAD, config, length=3000, warmup=1000,
                        cache=cache)
        key = cache.key(WORKLOAD, config, 3000, 1000)
        with open(cache._path(key), "rb") as handle:
            blob = handle.read()
        text = json.dumps(fresh.as_dict(), sort_keys=True)
        assert blob == ('{"checksum": "%s", "data": %s}'
                        % (ResultCache.checksum(fresh.as_dict()),
                           text)).encode()
        reloaded = cache.get(key)
        assert reloaded.data == fresh.data
        assert json.dumps(reloaded.as_dict(), sort_keys=True) == text

    @pytest.mark.parametrize("damage, reason", [
        ("truncate", "unreadable (truncated or malformed JSON)"),
        ("not_envelope", "not a checksummed cache envelope"),
        ("flip", "checksum mismatch (payload altered on disk)"),
    ])
    def test_damage_keeps_its_reason(self, tmp_path, monkeypatch, damage,
                                     reason):
        cache = ResultCache(str(tmp_path))
        cache.put("victim-k", _Result({"cycles": 10, "ipc": 1.0}))
        if damage == "not_envelope":
            with open(cache._path("victim-k"), "w") as handle:
                json.dump({"cycles": 10}, handle)
        else:
            monkeypatch.setenv("REPRO_FAULT",
                               "corrupt_cache:key=victim:how=%s" % damage)
        with pytest.warns(RuntimeWarning, match="re-simulated"):
            assert cache.get("victim-k") is None
        assert cache.pop_evictions() == [{"key": "victim-k",
                                          "reason": reason}]

    @pytest.mark.parametrize("journal", ["1", "0"])
    def test_non_json_payload_touches_nothing(self, tmp_path, monkeypatch,
                                              journal):
        monkeypatch.setenv("REPRO_JOURNAL", journal)
        cache = ResultCache(str(tmp_path))
        cache.put("good", _Result({"v": 1}))
        before = sorted(os.listdir(str(tmp_path)))
        with pytest.raises(TypeError):
            cache.put("k", _Result({"b": {1, 2}}))
        assert sorted(os.listdir(str(tmp_path))) == before
        if journal == "1":
            assert os.path.getsize(str(tmp_path / "journal.wal")) == 0

    def test_suite_output_identical_cold_and_warm(self, tmp_path,
                                                  monkeypatch, capsys):
        """Reloaded results come back key-sorted; ``--out`` JSON and the
        printed tables must not change between a cold and a warm cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        outputs = []
        for run in ("cold", "warm"):
            out = tmp_path / ("%s.json" % run)
            assert main(["suite", "-n", "4", "--rfp", "--sample", "4",
                         "--length", "8000", "--warmup", "4000",
                         "--jobs", "1", "--out", str(out)]) == 0
            text = capsys.readouterr().out
            outputs.append((out.read_bytes(),
                            text[: text.index("suite timing:")]))
        assert "0 simulated, 8 cache hits" in text
        assert outputs[0] == outputs[1]
