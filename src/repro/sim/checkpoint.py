"""Warm-state checkpoints: serialize a functional warm, restore it bit-exact.

A config sweep re-derives identical warm state per cell: the
:class:`~repro.emu.warmup.FunctionalWarmer` touches only structures selected
by a small subset of the config (cache/TLB geometry, prefetcher knobs, the
RFP training tables and their RNG seed), so two cells that differ only in
timing parameters (latencies, widths, queue sizes) share the exact same
warm end-state.  This module captures that end-state once and restores it
everywhere else:

- :func:`capture` serializes everything the warmer mutates — cache/DTLB
  contents *and* counters, the L2 streamer, the hit-miss and
  memory-dependence predictors, the RFP PT/PAT/context tables including the
  probabilistic confidence counter's RNG stream, branch path history,
  architectural registers, and the committed-memory delta over the trace
  image — into a JSON-friendly dict.
- :func:`restore` applies such a dict onto a freshly constructed
  :class:`~repro.core.core.OOOCore`, leaving it indistinguishable from one
  warmed functionally over the same region (proven bit-exact by the
  determinism tests).
- :class:`CheckpointStore` is the content-addressed on-disk store, keyed by
  ``(workload, trace length, functional position, warm-relevant config
  fingerprint)`` and wrapped in the same checksummed envelopes as the
  result cache (:mod:`repro.sim.envelope`: canonical-JSON ``data``, the
  sha256 of those bytes verified on every read without re-encoding): a
  corrupt checkpoint is classified, evicted with a warning, logged for the
  failure manifest, and the workload re-warmed — never silently restored.

``REPRO_CHECKPOINT_DIR`` overrides the store location (default
``<repo>/benchmarks/.checkpoints``); ``REPRO_CHECKPOINTS=0`` disables the
store entirely (restore is bit-exact versus a fresh warm, so the switch is
*not* mixed into result fingerprints — results are identical either way).
"""

import hashlib
import json
import os
import warnings

from repro.emu.warmup import FunctionalWarmer
from repro.sim import faults
from repro.sim.envelope import checksum as envelope_checksum
from repro.sim.envelope import encode_envelope, read_envelope
from repro.sim.journal import (
    JournaledDir,
    journaling_env_disabled,
    plain_commit,
)
from repro.sim.runner import SCHEMA_VERSION

#: On-disk checkpoint format version.  Mixed into every fingerprint so a
#: layout change turns old entries into misses, not wrong warm state.
CHECKPOINT_FORMAT = 1

#: CoreConfig fields the functional warmer's behaviour depends on.  Timing
#: parameters (latencies, widths, queue depths) are deliberately absent:
#: the warmer executes architecturally, so a timing sweep shares one warm
#: state per workload — that sharing is the whole point of the store.
WARM_CONFIG_FIELDS = (
    "line_bytes",
    "l1_size", "l1_assoc",
    "l2_size", "l2_assoc",
    "llc_size", "llc_assoc",
    "dtlb_entries", "dtlb_assoc",
    "l2_prefetcher_enabled", "l2_prefetcher_entries", "l2_prefetcher_degree",
    "l1_next_line_prefetch",
    "hit_miss_predictor", "hit_miss_entries",
    "seed",
)

#: RFPConfig fields that shape the warmer's PT/PAT/context training.
WARM_RFP_FIELDS = (
    "enabled",
    "pt_entries", "pt_assoc",
    "confidence_bits", "confidence_increment_prob",
    "utility_bits", "stride_bits", "inflight_bits",
    "use_pat", "pat_entries", "pat_assoc",
    "context_enabled", "context_entries",
)


def checkpoints_env_disabled(environ=None):
    """True when ``REPRO_CHECKPOINTS`` explicitly disables the store."""
    environ = environ if environ is not None else os.environ
    return environ.get("REPRO_CHECKPOINTS", "") in ("0", "off", "false")


def warm_fingerprint(config):
    """Stable hash of the warmup-relevant config subset.

    Two configs with equal fingerprints produce byte-identical warm state
    over the same (workload, length, functional count) by construction, so
    they share checkpoints.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "checkpoint_format": CHECKPOINT_FORMAT,
        "config": {name: getattr(config, name) for name in WARM_CONFIG_FIELDS},
        "rfp": {name: getattr(config.rfp, name) for name in WARM_RFP_FIELDS},
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# state capture / restore


def _cache_dump(cache):
    """Per-set (line, dirty) pairs in LRU order plus the stat counters."""
    stats = cache.stats
    return {
        "sets": [list(map(list, cache_set.items())) for cache_set in cache.sets],
        "stats": [stats.hits, stats.misses, stats.evictions, stats.fills,
                  stats.prefetch_fills],
    }


def _cache_load(cache, dump):
    for cache_set, pairs in zip(cache.sets, dump["sets"]):
        cache_set.clear()
        for line, dirty in pairs:
            cache_set[line] = dirty
    stats = cache.stats
    (stats.hits, stats.misses, stats.evictions, stats.fills,
     stats.prefetch_fills) = dump["stats"]


def _pt_dump(pt):
    sets = []
    for pt_set in pt.sets:
        sets.append([
            [tag, [entry.confidence, entry.utility, entry.stride,
                   entry.inflight, entry.base_addr,
                   list(entry.pat_pointer)
                   if entry.pat_pointer is not None else None,
                   entry.page_offset]]
            for tag, entry in pt_set.items()
        ])
    version, internal, gauss = pt._rng.getstate()
    return {
        "sets": sets,
        "counters": [pt.trainings, pt.allocations, pt.evictions,
                     pt.confidence_saturations],
        "rng": [version, list(internal), gauss],
    }


def _pt_load(pt, dump):
    from repro.rfp.prefetch_table import PTEntry

    for pt_set, pairs in zip(pt.sets, dump["sets"]):
        pt_set.clear()
        for tag, fields in pairs:
            entry = PTEntry(tag)
            (entry.confidence, entry.utility, entry.stride, entry.inflight,
             entry.base_addr, pat_pointer, entry.page_offset) = fields
            entry.pat_pointer = (
                tuple(pat_pointer) if pat_pointer is not None else None
            )
            pt_set[tag] = entry
    (pt.trainings, pt.allocations, pt.evictions,
     pt.confidence_saturations) = dump["counters"]
    version, internal, gauss = dump["rng"]
    pt._rng.setstate((version, tuple(internal), gauss))


def capture(core, warmer):
    """Serialize ``core``'s post-warm state into a JSON-friendly dict.

    ``warmer`` is the :class:`FunctionalWarmer` that produced the state;
    its register file and instruction position are part of the snapshot.
    """
    trace = core.trace
    image_get = trace.memory_image.get
    hierarchy = core.hierarchy
    dtlb = hierarchy.dtlb
    state = {
        "workload": trace.name,
        "length": len(trace),
        "functional": warmer.warmed,
        "registers": list(warmer.registers.values),
        "memory": [
            [addr, value] for addr, value in core.memory.items()
            if image_get(addr) != value
        ],
        "path_history": core.frontend.path_history,
        "hierarchy": {
            "l1": _cache_dump(hierarchy.l1),
            "l2": _cache_dump(hierarchy.l2),
            "llc": _cache_dump(hierarchy.llc),
            "dtlb": {
                "sets": [list(tlb_set.keys()) for tlb_set in dtlb.sets],
                "hits": dtlb.hits,
                "misses": dtlb.misses,
            },
        },
        "md": {
            "table": list(core.md.table),
            "commit_tick": core.md._commit_tick,
            "violations": core.md.violations,
        },
    }
    prefetcher = hierarchy.l2_prefetcher
    if prefetcher is not None:
        state["hierarchy"]["l2_prefetcher"] = {
            "pages": [
                [page, [entry.min_line, entry.max_line,
                        entry.fwd_score, entry.bwd_score]]
                for page, entry in prefetcher.pages.items()
            ],
            "issued": prefetcher.issued,
            "trainings": prefetcher.trainings,
        }
    if core.hit_miss is not None:
        state["hit_miss"] = {
            "table": list(core.hit_miss.table),
            "predictions": core.hit_miss.predictions,
            "mispredicts": core.hit_miss.mispredicts,
        }
    rfp = core.rfp
    if rfp is not None:
        state["rfp"] = {"pt": _pt_dump(rfp.pt)}
        if rfp.pat is not None:
            state["rfp"]["pat"] = {
                "ways": [list(ways) for ways in rfp.pat.ways],
                "lru": [list(order) for order in rfp.pat.lru],
                "insertions": rfp.pat.insertions,
                "evictions": rfp.pat.evictions,
            }
        if rfp.context is not None:
            state["rfp"]["context"] = {
                "table": [
                    [index, [entry.tag, entry.last_addr, entry.stride,
                             entry.confidence]]
                    for index, entry in rfp.context.table.items()
                ],
                "predictions": rfp.context.predictions,
                "trainings": rfp.context.trainings,
            }
    return state


def restore(core, state):
    """Apply a :func:`capture` dict onto a freshly constructed core.

    Leaves ``core`` exactly as a functional warm over the first
    ``state["functional"]`` instructions would: fetch cursor at the
    boundary, rename unit seeded with the warmed register values, every
    warmed structure (contents and counters) restored.  Returns ``core``.
    """
    if state["length"] != len(core.trace):
        raise ValueError(
            "checkpoint for a %d-instruction trace restored onto a "
            "%d-instruction trace" % (state["length"], len(core.trace))
        )
    for addr, value in state["memory"]:
        core.memory[addr] = value
    hierarchy = core.hierarchy
    dumped = state["hierarchy"]
    _cache_load(hierarchy.l1, dumped["l1"])
    _cache_load(hierarchy.l2, dumped["l2"])
    _cache_load(hierarchy.llc, dumped["llc"])
    dtlb = hierarchy.dtlb
    for tlb_set, pages in zip(dtlb.sets, dumped["dtlb"]["sets"]):
        tlb_set.clear()
        for page in pages:
            tlb_set[page] = True
    dtlb.hits = dumped["dtlb"]["hits"]
    dtlb.misses = dumped["dtlb"]["misses"]
    prefetcher = hierarchy.l2_prefetcher
    if prefetcher is not None and "l2_prefetcher" in dumped:
        from repro.memory.prefetcher import _PageEntry

        prefetcher.pages.clear()
        for page, fields in dumped["l2_prefetcher"]["pages"]:
            entry = _PageEntry(0)
            (entry.min_line, entry.max_line,
             entry.fwd_score, entry.bwd_score) = fields
            prefetcher.pages[page] = entry
        prefetcher.issued = dumped["l2_prefetcher"]["issued"]
        prefetcher.trainings = dumped["l2_prefetcher"]["trainings"]
    if core.hit_miss is not None and "hit_miss" in state:
        core.hit_miss.table[:] = state["hit_miss"]["table"]
        core.hit_miss.predictions = state["hit_miss"]["predictions"]
        core.hit_miss.mispredicts = state["hit_miss"]["mispredicts"]
    core.md.table[:] = state["md"]["table"]
    core.md._commit_tick = state["md"]["commit_tick"]
    core.md.violations = state["md"]["violations"]
    if core.rfp is not None and "rfp" in state:
        _pt_load(core.rfp.pt, state["rfp"]["pt"])
        if core.rfp.pat is not None and "pat" in state["rfp"]:
            pat = core.rfp.pat
            pat.ways = [list(ways) for ways in state["rfp"]["pat"]["ways"]]
            pat.lru = [list(order) for order in state["rfp"]["pat"]["lru"]]
            pat.insertions = state["rfp"]["pat"]["insertions"]
            pat.evictions = state["rfp"]["pat"]["evictions"]
        if core.rfp.context is not None and "context" in state["rfp"]:
            from repro.rfp.context import _ContextEntry

            context = core.rfp.context
            context.table.clear()
            for index, fields in state["rfp"]["context"]["table"]:
                entry = _ContextEntry(fields[0], fields[1])
                entry.stride, entry.confidence = fields[2], fields[3]
                context.table[index] = entry
            context.predictions = state["rfp"]["context"]["predictions"]
            context.trainings = state["rfp"]["context"]["trainings"]
    core.frontend.path_history = state["path_history"]
    core.rename.seed_architectural(list(state["registers"]))
    core.frontend.cursor.rewind(state["functional"])
    return core


def resume_warmer(core, state):
    """A :class:`FunctionalWarmer` positioned at a restored checkpoint.

    :func:`restore` is applied to ``core`` first; the returned warmer's
    emulator state (registers, memory, position) matches the end of the
    checkpointed region, so ``warm(count)`` continues from there without
    replaying the prefix.
    """
    restore(core, state)
    warmer = FunctionalWarmer(core)
    warmer.registers.values[:] = state["registers"]
    warmer.warmed = state["functional"]
    return warmer


# ---------------------------------------------------------------------------
# the on-disk store


class CheckpointStore(object):
    """JSON-file-per-checkpoint store with checksummed envelopes.

    Mirrors :class:`~repro.sim.cache.ResultCache`: entries are
    ``{"checksum", "data"}`` envelopes written and verified by
    :mod:`repro.sim.envelope`, corruption is classified and
    evicted with a warning (the workload is then re-warmed), and every
    write is a locked, journaled commit (:mod:`repro.sim.journal`) —
    crash-safe against ``kill -9`` mid-commit and serialized against
    concurrent sweeps filling the same directory.  ``REPRO_JOURNAL=0``
    falls back to the bare per-process tmp + atomic rename discipline.
    """

    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get("REPRO_CHECKPOINT_DIR") or os.path.join(
                os.path.dirname(os.path.dirname(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))))),
                "benchmarks",
                ".checkpoints",
            )
        self.directory = directory
        self.hits = 0
        self.misses = 0
        #: Corruption incidents seen by this process (dicts with ``key``
        #: and ``reason``), drained via :meth:`pop_evictions`.
        self.eviction_log = []
        self._journaled = None

    def _path(self, key):
        return os.path.join(self.directory, key + ".ckpt.json")

    def _journal(self):
        """The directory's :class:`JournaledDir`, or None when disabled."""
        if journaling_env_disabled():
            return None
        if self._journaled is None:
            self._journaled = JournaledDir(self.directory)
        return self._journaled

    def _recover(self):
        """Replay an interrupted commit; free (one stat) when at rest."""
        journaled = self._journal()
        if journaled is None:
            return
        self.eviction_log.extend(journaled.recover())

    def key(self, workload, config, length, functional):
        return "%s-%d-%d-%s" % (
            workload, length, functional, warm_fingerprint(config)
        )

    #: Content hash of a checkpoint payload (canonical-JSON sha256).
    checksum = staticmethod(envelope_checksum)

    def contains(self, key):
        """Presence probe without reading/validating the entry."""
        self._recover()
        return os.path.exists(self._path(key))

    def get(self, key):
        """Return the checkpoint state dict for ``key``, or None."""
        path = self._path(key)
        self._recover()
        # Deterministic fault injection (REPRO_FAULT=corrupt_checkpoint:...)
        faults.corrupt_checkpoint_file(key, path)
        if not os.path.exists(path):
            self.misses += 1
            return None
        reason, state = read_envelope(path, "checkpoint envelope")
        if reason is not None:
            self._evict(key, path, reason)
            self.misses += 1
            return None
        self.hits += 1
        # Refresh recency for prune()'s LRU ordering.
        try:
            os.utime(path, None)
        except OSError:
            pass
        return state

    def _evict(self, key, path, reason):
        try:
            os.remove(path)
        except OSError:
            pass
        self.eviction_log.append({"key": key, "reason": reason})
        warnings.warn(
            "evicted corrupt checkpoint %s: %s — the workload will be "
            "re-warmed functionally" % (key, reason),
            RuntimeWarning,
            stacklevel=3,
        )

    def pop_evictions(self):
        """Drain and return the corruption incidents seen so far."""
        log, self.eviction_log = self.eviction_log, []
        return log

    def put(self, key, state):
        # Encode first: a payload that is not JSON fails here, before any
        # file (or journal record) is touched.
        checksum, blob = encode_envelope(state)
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        journaled = self._journal()
        if journaled is None:
            plain_commit(path, blob)
            return
        self._recover()
        # Locked, journaled commit (see repro.sim.journal).
        journaled.commit(key, path, checksum, blob)

    # -- maintenance (the CLI's ``repro checkpoint`` subcommand) ---------

    def entry_paths(self):
        """Paths of all checkpoint files currently in the store."""
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if name.endswith(".ckpt.json")
        )

    def stats(self):
        """On-disk entry count/bytes plus this process's hit/miss counters.

        Every entry is checksum-validated first and corrupt ones are
        evicted, so ``entries``/``bytes`` are *post-eviction* totals: an
        entry evicted during this call appears in ``corrupt_evicted`` (and
        the eviction log) but never also in ``entries``.  An interrupted
        journaled commit is replayed first, so a mid-commit ``kill -9``
        never shows up here as corruption — replay already resolved it.
        """
        self._recover()
        total_bytes = 0
        surviving = 0
        corrupt = 0
        for path in self.entry_paths():
            reason, _ = read_envelope(path, "checkpoint envelope")
            if reason is not None:
                key = os.path.basename(path)[: -len(".ckpt.json")]
                self._evict(key, path, reason)
                corrupt += 1
                continue
            surviving += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "directory": self.directory,
            "entries": surviving,
            "bytes": total_bytes,
            "corrupt_evicted": corrupt,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self):
        """Delete every checkpoint (and stray temp files); returns the
        number of entries removed."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if not (name.endswith(".ckpt.json") or ".ckpt.json." in name):
                continue
            try:
                os.remove(os.path.join(self.directory, name))
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_bytes):
        """LRU-evict entries until the store fits in ``max_bytes``.

        Recency is file mtime (refreshed on every :meth:`get` hit).
        Returns the number of entries removed.
        """
        entries = []
        total = 0
        for path in self.entry_paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        entries.sort()
        removed = 0
        for _mtime, path, size in entries:
            if total <= max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed


_default_store = None


def default_checkpoint_store():
    """The shared store, or None when ``REPRO_CHECKPOINTS`` disables it."""
    global _default_store
    if checkpoints_env_disabled():
        return None
    if _default_store is None or (
        os.environ.get("REPRO_CHECKPOINT_DIR")
        and _default_store.directory != os.environ["REPRO_CHECKPOINT_DIR"]
    ):
        _default_store = CheckpointStore()
    return _default_store


# ---------------------------------------------------------------------------
# high-level helpers


def warm_or_restore(core, workload, config, length, functional, store):
    """Bring ``core`` to the warm state at ``functional`` instructions.

    Restores from ``store`` when possible, else warms functionally (and
    files the result for next time).  Returns ``"restored"``, ``"warmed"``
    (store miss, checkpoint written) or ``"off"`` (no store).
    """
    if functional <= 0:
        return "off"
    if store is None:
        FunctionalWarmer(core).warm(functional)
        return "off"
    key = store.key(workload, config, length, functional)
    state = store.get(key)
    if state is not None:
        restore(core, state)
        return "restored"
    warmer = FunctionalWarmer(core).warm(functional)
    store.put(key, capture(core, warmer))
    return "warmed"


def ensure_checkpoints(trace, workload, config, length, positions, store):
    """Write every missing checkpoint among ``positions`` in ONE warm pass.

    ``positions`` are functional instruction counts (ascending order not
    required; zeros are skipped).  The pass resumes from the deepest
    already-stored position preceding the first gap, so a partially-filled
    store is completed without replaying its prefix, and a fully-filled
    store costs only presence probes — zero functional warms.

    ``trace`` may be None; it is built lazily only if a warm is needed.
    Returns ``{position: "hit" | "warmed"}``.
    """
    from repro.workloads.suite import build_workload

    wanted = sorted({int(p) for p in positions if p > 0})
    outcome = {}
    missing = []
    for position in wanted:
        if store.contains(store.key(workload, config, length, position)):
            outcome[position] = "hit"
        else:
            missing.append(position)
    if not missing:
        return outcome
    if trace is None:
        trace = build_workload(workload, length=length)
    from repro.core.core import OOOCore

    core = OOOCore(trace, config)
    warmer = None
    # Resume from the deepest stored position below the first gap.
    resume_from = [p for p in wanted if p < missing[0]
                   and outcome.get(p) == "hit"]
    if resume_from:
        state = store.get(store.key(workload, config, length,
                                    resume_from[-1]))
        if state is not None:
            warmer = resume_warmer(core, state)
    if warmer is None:
        warmer = FunctionalWarmer(core)
    for position in missing:
        warmer.warm(position)
        store.put(store.key(workload, config, length, position),
                  capture(core, warmer))
        outcome[position] = "warmed"
    return outcome
