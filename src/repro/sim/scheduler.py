"""Supervised shard-pool scheduler: the service layer over the job engine.

:mod:`repro.sim.parallel` binds each worker process to one workload
trace and exits it when that trace's jobs are done — right for a single
sweep.  A simulation *service* wants a different shape: N long-lived
**shard** processes fed any job over the same per-job pipe protocol,
supervised for health rather than per-trace lifetime.  This module
provides that layer:

- **Shards** (:func:`_shard_main`): long-lived children that loop
  ``recv job -> run -> send result``, reusing the exact worker body
  (:func:`repro.sim.parallel._run_job`) and wire protocol
  (``("ok", key, data, seconds)`` / ``("err", ...)``), plus a heartbeat
  thread that reports liveness every ``REPRO_HEARTBEAT_INTERVAL`` seconds
  (default 0.25).
- **Supervision** (:class:`ShardPool`): a selector loop over all shard
  pipes.  A shard that misses ``REPRO_HEARTBEAT_MISSES`` consecutive
  heartbeats (default 20) or whose pipe hits EOF is killed and its
  in-flight job requeued to a healthy shard; a replacement is spawned
  with exponential backoff (``REPRO_RESPAWN_BACKOFF`` base seconds,
  doubling per consecutive failure), and a shard that crash-loops
  ``REPRO_CRASH_LOOP`` times (default 3) within ``REPRO_CRASH_WINDOW``
  seconds (default 30) is **quarantined** — benched for the backoff
  period with an event on :attr:`ShardPool.events`.  Job-level retry
  accounting (attempts, backoff, keep-going manifests) matches the
  trace-bound worker engine exactly, so results are byte-identical.
- **Admission control + fair-share lanes**: two dispatch lanes,
  ``interactive`` and ``bulk``.  The dispatcher always serves interactive
  jobs first at chunk (one job) granularity, so an interactive
  ``repro run`` preempts a 10k-cell bulk sweep at the next free shard
  rather than queueing behind it.  :meth:`ShardPool.submit` bounds the
  total queue at ``REPRO_MAX_QUEUE`` (default 1024) and raises
  :class:`PoolSaturated` — backpressure, not an unbounded queue.
- **Service front end** (:class:`SweepService` + ``repro serve``): an
  asyncio JSON-lines TCP server feeding the pool in background mode;
  results are committed to the result cache in the supervisor thread
  (the parent-side commit discipline the whole engine uses) and answered
  from the cache when already present.

Fault injection (``REPRO_FAULT``): ``kill_shard:shard=N:after=C`` and
``hang_heartbeat:shard=N:seconds=S`` target shard children by id and
incarnation so CI drives the quarantine/respawn/requeue paths
deterministically; see :mod:`repro.sim.faults`.

``run_jobs(..., shards=N)`` (or ``REPRO_SHARDS``) routes a normal sweep
through this pool in blocking mode; ``repro suite --shards N`` exposes it
on the CLI and :mod:`repro.sim.chaos` proves the whole stack converges
byte-identically under injected faults.
"""

import asyncio
import json
import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait_connections

from repro.core.config import baseline, baseline_2x
from repro.sim import faults
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.parallel import (
    CLASS_CRASH, CLASS_TIMEOUT, RETRYABLE, WorkerError, _PendingJob,
    _run_job, classify_failure, default_retries, drain_timeout_default,
    resolve_job_timeout, retry_backoff_base, start_method,
)


class PoolSaturated(RuntimeError):
    """Admission control rejected a submit: the queue is at its bound."""


def heartbeat_interval_default():
    """Seconds between shard heartbeats (``REPRO_HEARTBEAT_INTERVAL``)."""
    env = os.environ.get("REPRO_HEARTBEAT_INTERVAL")
    if env:
        try:
            return max(0.01, float(env))
        except ValueError:
            pass
    return 0.25


def heartbeat_miss_limit_default():
    """Consecutive missed heartbeats before quarantine
    (``REPRO_HEARTBEAT_MISSES``)."""
    env = os.environ.get("REPRO_HEARTBEAT_MISSES")
    if env:
        try:
            return max(2, int(env))
        except ValueError:
            pass
    return 20


def crash_loop_limit_default():
    """Shard deaths within the window that trigger a crash-loop
    quarantine (``REPRO_CRASH_LOOP``)."""
    env = os.environ.get("REPRO_CRASH_LOOP")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 3


def crash_loop_window_default():
    """Sliding window seconds for crash-loop detection
    (``REPRO_CRASH_WINDOW``)."""
    env = os.environ.get("REPRO_CRASH_WINDOW")
    if env:
        try:
            return max(1.0, float(env))
        except ValueError:
            pass
    return 30.0


def respawn_backoff_default():
    """Respawn delay base seconds, doubling per consecutive failure
    (``REPRO_RESPAWN_BACKOFF``)."""
    env = os.environ.get("REPRO_RESPAWN_BACKOFF")
    if env:
        try:
            return max(0.0, float(env))
        except ValueError:
            pass
    return 0.25


def max_queue_default():
    """Admission-control queue bound (``REPRO_MAX_QUEUE``)."""
    env = os.environ.get("REPRO_MAX_QUEUE")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1024


def _shard_main(shard_id, incarnation, conn, hb_interval, parent_fd=None):
    """Shard child body: loop ``recv job -> run -> send``, heartbeating.

    Wire protocol (a superset of the per-job worker's): the parent sends
    ``("job", item)`` or ``("stop",)``; the shard answers every job with
    ``("ok", key, data, seconds)`` or ``("err", workload, config_name,
    detail, root_cause)`` and interleaves ``("hb", shard_id)`` liveness
    beats from a daemon thread.  A send lock keeps the two writers from
    interleaving a message mid-frame.

    Fault hooks: ``kill_shard`` hard-exits at job receipt once enough
    jobs have finished; ``hang_heartbeat`` wedges the shard — no beats,
    no progress — so the supervisor's quarantine must fire.
    """
    if parent_fd is not None:
        # Fork start method: this child inherited a copy of its own
        # pipe's *parent* end.  Close it, or the child would hold its
        # peer open and never see EOF when the supervisor dies (e.g. a
        # kill -9 mid-commit), leaving an orphan shard blocked in recv.
        try:
            os.close(parent_fd)
        except OSError:
            pass
    send_lock = threading.Lock()
    stop = threading.Event()
    wedge_until = [0.0]  # heartbeats are suppressed until this monotonic time

    def _heartbeats():
        while not stop.is_set():
            time.sleep(hb_interval)
            if time.monotonic() < wedge_until[0]:
                continue
            try:
                with send_lock:
                    conn.send(("hb", shard_id))
            except (OSError, ValueError):
                return

    threading.Thread(target=_heartbeats, daemon=True).start()
    jobs_done = 0
    kill_after = faults.shard_kill_after(shard_id, incarnation)
    hang = faults.shard_heartbeat_hang(shard_id, incarnation)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, tuple) or message[0] != "job":
                break  # ("stop",) or anything unexpected: exit cleanly
            if kill_after is not None and jobs_done >= kill_after:
                os._exit(32)  # a true crash: no goodbye on the pipe
            if hang is not None and jobs_done >= hang[0]:
                wedge_until[0] = time.monotonic() + hang[1]
                time.sleep(hang[1])
                hang = None
            item = message[1]
            try:
                key, data, seconds = _run_job(item)
                with send_lock:
                    conn.send(("ok", key, data, seconds))
            except WorkerError as err:
                with send_lock:
                    conn.send(("err", err.workload, err.config_name,
                               err.detail, err.root_cause))
            jobs_done += 1
    except BaseException:
        pass  # broken pipe / teardown: the parent sees EOF
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


class _ShardSlot(object):
    """Supervisor-side state for one shard position in the pool."""

    __slots__ = ("index", "incarnation", "process", "conn", "last_hb",
                 "job", "deadline", "down_until", "consecutive_failures",
                 "crash_times", "respawns", "jobs_completed")

    def __init__(self, index):
        self.index = index
        self.incarnation = 0
        self.process = None
        self.conn = None
        self.last_hb = 0.0
        self.job = None          # the in-flight pending job, if any
        self.deadline = None     # per-job watchdog deadline
        self.down_until = 0.0    # respawn eligibility (monotonic)
        self.consecutive_failures = 0
        self.crash_times = deque()  # recent deaths, for crash-loop detection
        self.respawns = 0
        self.jobs_completed = 0


class ShardPool(object):
    """N supervised long-lived shards behind two fair-share lanes.

    Two modes share one supervisor loop:

    - :meth:`execute` (blocking) — run a list of pending jobs to
      completion for :func:`repro.sim.parallel.run_jobs`; completion
      callbacks fire in the caller's thread, preserving the parent-side
      incremental cache commit.
    - :meth:`start` + :meth:`submit` (service) — a background supervisor
      thread serves jobs as they arrive, waking on a self-pipe; each job
      carries its own completion callback.  Used by ``repro serve``.
    """

    def __init__(self, shards, job_timeout=None, retries=None,
                 keep_going=True, heartbeat_interval=None, miss_limit=None,
                 crash_loop_limit=None, crash_loop_window=None,
                 respawn_backoff=None, max_queue=None):
        self.shards = max(1, int(shards))
        self.job_timeout = job_timeout
        self.retries = retries if retries is not None else default_retries()
        self.keep_going = keep_going
        self.hb_interval = (heartbeat_interval if heartbeat_interval
                            is not None else heartbeat_interval_default())
        self.miss_limit = (miss_limit if miss_limit is not None
                           else heartbeat_miss_limit_default())
        self.crash_loop_limit = (crash_loop_limit if crash_loop_limit
                                 is not None else crash_loop_limit_default())
        self.crash_loop_window = (crash_loop_window if crash_loop_window
                                  is not None else crash_loop_window_default())
        self.respawn_backoff = (respawn_backoff if respawn_backoff
                                is not None else respawn_backoff_default())
        self.max_queue = (max_queue if max_queue is not None
                          else max_queue_default())
        self.backoff = retry_backoff_base()
        #: Supervision events (spawn/death/quarantine/watchdog), in order.
        self.events = []
        self._ctx = multiprocessing.get_context(start_method())
        self._slots = [_ShardSlot(i) for i in range(self.shards)]
        self._lanes = {"interactive": deque(), "bulk": deque()}
        self._lane_of = {}       # id(pj) -> lane name
        self._callbacks = {}     # id(pj) -> service completion callback
        self._submit_lock = threading.Lock()
        self._tick = min(0.05, self.hb_interval)
        self._stop_flag = False
        self._fatal = None
        self._service_thread = None
        self._wake_r = None
        self._wake_w = None
        # execute-mode completion hooks (None in service mode)
        self._on_success = None
        self._on_terminal = None
        self._on_aborted = None
        self._on_retry = None

    # -- events / stats --------------------------------------------------

    def _event(self, kind, slot, **extra):
        record = {"event": kind, "shard": slot.index,
                  "incarnation": slot.incarnation}
        record.update(extra)
        self.events.append(record)

    def queued(self):
        """Jobs waiting in both lanes (admission-control occupancy)."""
        return sum(len(lane) for lane in self._lanes.values())

    def stats(self):
        """A JSON-friendly snapshot for the service's ``stats`` op."""
        return {
            "shards": self.shards,
            "queued": {name: len(lane)
                       for name, lane in self._lanes.items()},
            "max_queue": self.max_queue,
            "slots": [
                {
                    "shard": slot.index,
                    "incarnation": slot.incarnation,
                    "alive": slot.process is not None,
                    "busy": slot.job is not None,
                    "respawns": slot.respawns,
                    "jobs_completed": slot.jobs_completed,
                }
                for slot in self._slots
            ],
            "events": len(self.events),
        }

    # -- shard lifecycle -------------------------------------------------

    def _spawn(self, slot):
        slot.incarnation += 1
        parent_conn, child_conn = self._ctx.Pipe()
        # Under fork the child inherits our parent_conn fd; hand it the
        # number so it can close the copy (see _shard_main).  Under spawn
        # nothing is inherited and fd numbers don't transfer: pass None.
        parent_fd = (parent_conn.fileno()
                     if self._ctx.get_start_method() == "fork" else None)
        process = self._ctx.Process(
            target=_shard_main,
            args=(slot.index, slot.incarnation, child_conn,
                  self.hb_interval, parent_fd),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.last_hb = time.monotonic()
        slot.job = None
        slot.deadline = None
        self._event("spawn" if slot.incarnation == 1 else "respawn", slot)

    def _kill_slot(self, slot):
        """Terminate a shard process and close its pipe (no accounting)."""
        process, conn = slot.process, slot.conn
        slot.process = None
        slot.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.terminate()
                process.join(1.0)
                if process.is_alive():
                    process.kill()
                    process.join(1.0)
            else:
                process.join(0)

    def _bench(self, slot, now, reason, quarantined):
        """Record a death/quarantine and schedule the respawn backoff."""
        slot.consecutive_failures += 1
        slot.crash_times.append(now)
        while slot.crash_times and \
                slot.crash_times[0] < now - self.crash_loop_window:
            slot.crash_times.popleft()
        crash_looping = len(slot.crash_times) >= self.crash_loop_limit
        delay = self.respawn_backoff * (
            2 ** min(slot.consecutive_failures - 1, 8))
        slot.down_until = now + delay
        slot.respawns += 1
        self._event(
            "quarantine" if (quarantined or crash_looping) else "shard_died",
            slot, reason=reason, backoff_seconds=round(delay, 3),
            crash_loop=crash_looping,
        )

    def _shard_died(self, slot, now):
        """Pipe EOF: the shard process is gone; requeue its job."""
        pj = slot.job
        slot.job = None
        slot.deadline = None
        process = slot.process
        exitcode = None
        if process is not None:
            process.join(1.0)
            exitcode = process.exitcode
        incarnation = slot.incarnation
        self._kill_slot(slot)
        self._bench(slot, now, "process died (exit %s)" % exitcode,
                    quarantined=False)
        if pj is not None:
            self._fail_attempt(
                pj, CLASS_CRASH,
                "shard %d (incarnation %d) died (exit %s) while running "
                "attempt %d" % (slot.index, incarnation, exitcode,
                                pj.tries + 1),
                None, now)

    def _quarantine(self, slot, now, reason):
        """Heartbeat-miss (or wedge) quarantine: kill, requeue, bench."""
        pj = slot.job
        slot.job = None
        slot.deadline = None
        incarnation = slot.incarnation
        self._kill_slot(slot)
        self._bench(slot, now, reason, quarantined=True)
        if pj is not None:
            self._fail_attempt(
                pj, CLASS_TIMEOUT,
                "shard %d (incarnation %d) quarantined (%s) while running "
                "attempt %d; job requeued" % (slot.index, incarnation,
                                              reason, pj.tries + 1),
                None, now)

    def _watchdog_kill(self, slot, now):
        """Per-job deadline blown: kill the shard, fail the attempt."""
        pj = slot.job
        slot.job = None
        slot.deadline = None
        self._kill_slot(slot)
        # The job hung, not the shard: respawn promptly, no crash-loop
        # penalty growth beyond the single slot restart.
        slot.down_until = now
        slot.respawns += 1
        self._event("watchdog_kill", slot, job=pj.key if pj else None)
        if pj is not None:
            self._fail_attempt(
                pj, CLASS_TIMEOUT,
                "watchdog: attempt %d exceeded its %.1fs deadline; shard "
                "killed and respawned"
                % (pj.tries + 1,
                   resolve_job_timeout(self.job_timeout, pj.job[2])),
                None, now)

    # -- job accounting --------------------------------------------------

    def _requeue(self, pj, front=False):
        lane = self._lanes[self._lane_of.get(id(pj), "bulk")]
        if front:
            lane.appendleft(pj)
        else:
            lane.append(pj)

    def _complete_ok(self, pj, data, seconds):
        callback = self._callbacks.pop(id(pj), None)
        self._lane_of.pop(id(pj), None)
        if callback is not None:
            callback(("ok", data, seconds, pj))
        elif self._on_success is not None:
            self._on_success(pj, data, seconds)

    def _complete_terminal(self, pj):
        callback = self._callbacks.pop(id(pj), None)
        self._lane_of.pop(id(pj), None)
        if callback is not None:
            callback(("failed", pj.last_class, pj.last_detail, pj))
        elif self._on_terminal is not None:
            self._on_terminal(pj)

    def _complete_aborted(self, pj, detail):
        callback = self._callbacks.pop(id(pj), None)
        self._lane_of.pop(id(pj), None)
        if callback is not None:
            callback(("aborted", detail, None, pj))
        elif self._on_aborted is not None:
            self._on_aborted(pj, detail)

    def _fail_attempt(self, pj, classification, detail, root_cause, now):
        pj.tries += 1
        pj.last_class = classification
        pj.last_detail = detail
        pj.last_root = root_cause
        if classification in RETRYABLE and pj.tries <= self.retries:
            pj.next_start = now + self.backoff * (2 ** (pj.tries - 1))
            self._requeue(pj)
            if self._on_retry is not None:
                self._on_retry(pj)
            return
        if self.keep_going or id(pj) in self._callbacks:
            self._complete_terminal(pj)
            return
        self._fatal = WorkerError(pj.workload_name, pj.config_name,
                                  detail, root_cause)

    # -- dispatch --------------------------------------------------------

    def _next_ready(self, now):
        """The next runnable job: interactive lane first, then bulk —
        chunk-granularity preemption of bulk sweeps."""
        for name in ("interactive", "bulk"):
            lane = self._lanes[name]
            for _ in range(len(lane)):
                pj = lane.popleft()
                if pj.next_start <= now:
                    return pj
                lane.append(pj)  # still backing off
        return None

    def _dispatch(self, slot, pj, now):
        item = (pj.key, pj.job, pj.trace_path, pj.index, pj.tries + 1, True)
        try:
            slot.conn.send(("job", item))
        except (OSError, ValueError):
            self._requeue(pj, front=True)
            self._shard_died(slot, now)
            return
        slot.job = pj
        timeout = resolve_job_timeout(self.job_timeout, pj.job[2])
        slot.deadline = now + timeout if timeout is not None else None

    def _handle_message(self, slot, message, now):
        kind = message[0]
        if kind == "hb":
            slot.last_hb = now
            return
        pj = slot.job
        slot.job = None
        slot.deadline = None
        slot.last_hb = now
        if pj is None:
            return  # late result from a job already requeued elsewhere
        if kind == "ok":
            slot.consecutive_failures = 0
            slot.jobs_completed += 1
            self._complete_ok(pj, message[2], message[3])
        else:  # ("err", workload, config_name, detail, root_cause)
            detail, root_cause = message[3], message[4]
            self._fail_attempt(pj, classify_failure(detail, root_cause),
                               detail, root_cause, now)

    # -- the supervisor loop ---------------------------------------------

    def _busy_slots(self):
        return [slot for slot in self._slots if slot.job is not None]

    def _run_loop(self, guard=None, until_idle=True):
        drain_deadline = None
        while True:
            if self._stop_flag or self._fatal is not None:
                break
            if guard is not None and guard.triggered:
                break
            now = time.monotonic()
            draining = guard is not None and guard.draining
            if draining:
                if drain_deadline is None:
                    drain_deadline = now + drain_timeout_default()
                while True:
                    pj = self._next_ready(float("inf"))
                    if pj is None:
                        break
                    self._complete_aborted(
                        pj, "SIGTERM drain: job never started"
                        if pj.tries == 0 else
                        "SIGTERM drain: retry abandoned after attempt %d"
                        % pj.tries)
                busy = self._busy_slots()
                if not busy:
                    break
                if now >= drain_deadline:
                    for slot in busy:
                        pj = slot.job
                        slot.job = None
                        self._kill_slot(slot)
                        self._complete_aborted(
                            pj, "SIGTERM drain: in-flight chunk exceeded "
                            "the %.1fs drain deadline; shard killed"
                            % drain_timeout_default())
                    break
            queued = self.queued()
            busy = self._busy_slots()
            if until_idle and not queued and not busy:
                break
            # Respawn benched shards once their backoff elapses — eagerly
            # in service mode (capacity for future submits), only while
            # work remains in blocking mode.
            if not draining and (queued or not until_idle):
                for slot in self._slots:
                    if slot.process is None and now >= slot.down_until:
                        self._spawn(slot)
            # Dispatch: interactive lane preempts bulk at chunk boundary.
            if not draining:
                for slot in self._slots:
                    if slot.process is None or slot.job is not None:
                        continue
                    pj = self._next_ready(now)
                    if pj is None:
                        break
                    self._dispatch(slot, pj, now)
            wait_on = [slot.conn for slot in self._slots
                       if slot.process is not None]
            by_conn = {slot.conn: slot for slot in self._slots
                       if slot.process is not None}
            if self._wake_r is not None:
                wait_on.append(self._wake_r)
            if not wait_on:
                # Every shard benched and backing off: sleep to the next
                # respawn eligibility (capped to stay signal-responsive).
                soonest = min((slot.down_until for slot in self._slots),
                              default=now)
                time.sleep(min(max(soonest - now, 0.0), self._tick) or 0.005)
                continue
            for ready in _wait_connections(wait_on, timeout=self._tick):
                if self._wake_r is not None and ready == self._wake_r:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                    continue
                slot = by_conn.get(ready)
                if slot is None or slot.process is None:
                    continue
                try:
                    message = ready.recv()
                except (EOFError, OSError):
                    self._shard_died(slot, time.monotonic())
                    continue
                self._handle_message(slot, message, time.monotonic())
            # Health checks: per-job watchdog, then heartbeat misses.
            now = time.monotonic()
            miss_window = self.hb_interval * self.miss_limit
            for slot in self._slots:
                if slot.process is None:
                    continue
                if slot.job is not None and slot.deadline is not None \
                        and now >= slot.deadline:
                    self._watchdog_kill(slot, now)
                    continue
                if now - slot.last_hb > miss_window:
                    self._quarantine(
                        slot, now,
                        "missed %d heartbeats (%.1fs silent)"
                        % (self.miss_limit, now - slot.last_hb))

    def _shutdown_shards(self):
        for slot in self._slots:
            if slot.process is None:
                continue
            try:
                slot.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 1.0
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(max(0.0, deadline - time.monotonic()))
            self._kill_slot(slot)

    # -- blocking mode (run_jobs) ----------------------------------------

    def execute(self, pending, guard=None, on_success=None, on_terminal=None,
                on_aborted=None, on_retry=None):
        """Run ``pending`` jobs (pending-job protocol objects) to
        completion, firing the completion callbacks in this thread.

        Raises the terminal :class:`WorkerError` after shutting the
        shards down when ``keep_going`` is False; with a ``guard``,
        honours SIGINT (stop now; the caller re-raises
        ``KeyboardInterrupt``) and SIGTERM (graceful drain — in-flight
        chunks finish, queued jobs abort).
        """
        self._on_success = on_success
        self._on_terminal = on_terminal
        self._on_aborted = on_aborted
        self._on_retry = on_retry
        pending = list(pending)
        for pj in pending:
            self._lane_of[id(pj)] = "bulk"
            self._lanes["bulk"].append(pj)
        # Never hold more shards than jobs: trim the pool so the respawn
        # path can't resurrect slots the workload cannot use.
        self._slots = self._slots[: max(1, min(self.shards, len(pending)))]
        for slot in self._slots:
            self._spawn(slot)
        try:
            self._run_loop(guard=guard, until_idle=True)
        finally:
            self._shutdown_shards()
        if self._fatal is not None and not self.keep_going:
            raise self._fatal

    # -- service mode (repro serve) --------------------------------------

    def start(self):
        """Start the background supervisor thread (service mode)."""
        if self._service_thread is not None:
            return
        self._wake_r, self._wake_w = os.pipe()
        for slot in self._slots:
            self._spawn(slot)
        self._service_thread = threading.Thread(
            target=self._run_loop, kwargs={"until_idle": False},
            name="shard-pool-supervisor", daemon=True)
        self._service_thread.start()

    def _wake(self):
        if self._wake_w is not None:
            try:
                os.write(self._wake_w, b"x")
            except OSError:
                pass

    def submit(self, pj, lane="bulk", callback=None):
        """Enqueue one job; ``callback(outcome)`` fires in the supervisor
        thread with ``("ok", data, seconds, pj)``, ``("failed", class,
        detail, pj)`` or ``("aborted", detail, None, pj)``.

        Raises :class:`PoolSaturated` when the queue is at its bound —
        the caller sheds load instead of queueing without limit.
        """
        if lane not in self._lanes:
            raise ValueError("unknown lane %r" % (lane,))
        with self._submit_lock:
            if self.queued() >= self.max_queue:
                raise PoolSaturated(
                    "queue full (%d jobs; REPRO_MAX_QUEUE=%d)"
                    % (self.queued(), self.max_queue))
            if callback is not None:
                self._callbacks[id(pj)] = callback
            self._lane_of[id(pj)] = lane
            self._lanes[lane].append(pj)
        self._wake()

    def shutdown(self):
        """Stop the service loop (if running) and all shards."""
        self._stop_flag = True
        self._wake()
        if self._service_thread is not None:
            self._service_thread.join(5.0)
            self._service_thread = None
        self._shutdown_shards()
        for fd in (self._wake_r, self._wake_w):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._wake_r = self._wake_w = None


# ---------------------------------------------------------------------------
# the asyncio front end (repro serve)


class SweepService(object):
    """JSON-lines TCP front end over a :class:`ShardPool`.

    One request per line; one JSON response per line.  Ops:

    - ``{"op": "ping"}`` -> ``{"ok": true, "pong": true}``
    - ``{"op": "stats"}`` -> pool + cache occupancy
    - ``{"op": "run", "workload": NAME, "rfp": bool, "core_2x": bool,
      "length": N, "warmup": N, "lane": "interactive"|"bulk"}`` ->
      ``{"ok": true, "source": "cache"|"run", "result": {...}}``

    ``run`` answers straight from the result cache when possible;
    misses are submitted to the pool (interactive lane by default, so a
    human query preempts any bulk sweep at chunk granularity) and the
    completed result is committed to the cache from the supervisor
    thread — the same parent-side commit discipline as the engines.
    Saturation surfaces as ``{"ok": false, "error": "overloaded: ..."}``
    rather than unbounded queueing.
    """

    def __init__(self, pool, cache, length=DEFAULT_LENGTH,
                 warmup=DEFAULT_WARMUP, host="127.0.0.1", port=0):
        self.pool = pool
        self.cache = cache
        self.length = length
        self.warmup = warmup
        self.host = host
        self.port = port
        self.server = None
        self._counter = 0

    def _config_for(self, request):
        factory = baseline_2x if request.get("core_2x") else baseline
        overrides = {}
        if request.get("rfp"):
            overrides["rfp"] = {"enabled": True}
        return factory(**overrides)

    async def _run_request(self, request):
        workload = request.get("workload")
        if not isinstance(workload, str) or not workload:
            return {"ok": False, "error": "run requires a workload name"}
        config = self._config_for(request)
        length = int(request.get("length", self.length))
        warmup = int(request.get("warmup", self.warmup))
        lane = request.get("lane", "interactive")
        key = self.cache.key(workload, config, length, warmup)
        cached = self.cache.get(key)
        if cached is not None:
            return {"ok": True, "source": "cache", "result": cached.data}
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._counter += 1
        pj = _PendingJob(key, (workload, config, length, warmup, None),
                         self._counter, None)

        def _done(outcome):
            # Supervisor thread: commit, then resolve the asyncio future.
            if outcome[0] == "ok":
                from repro.sim.runner import SimResult
                self.cache.put(key, SimResult(outcome[1]))
            loop.call_soon_threadsafe(future.set_result, outcome)

        try:
            self.pool.submit(pj, lane=lane, callback=_done)
        except PoolSaturated as exc:
            return {"ok": False, "error": "overloaded: %s" % exc}
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}
        outcome = await future
        if outcome[0] == "ok":
            return {"ok": True, "source": "run", "result": outcome[1]}
        if outcome[0] == "failed":
            return {"ok": False, "error": "job failed (%s): %s"
                    % (outcome[1], (outcome[2] or "").strip()
                       .splitlines()[-1] if outcome[2] else "")}
        return {"ok": False, "error": "job aborted: %s" % (outcome[1],)}

    async def _respond(self, request):
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            return {"ok": True, "stats": self.pool.stats()}
        if op == "run":
            return await self._run_request(request)
        return {"ok": False, "error": "unknown op %r" % (op,)}

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line.decode("utf-8"))
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    response = {"ok": False, "error": "bad request: %s" % exc}
                else:
                    response = await self._respond(request)
                writer.write((json.dumps(response, sort_keys=True) + "\n")
                             .encode("utf-8"))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def start(self):
        """Bind and start serving; returns the bound (host, port)."""
        self.server = await asyncio.start_server(
            self._handle, self.host, self.port)
        return self.server.sockets[0].getsockname()[:2]

    async def serve_forever(self):
        address = await self.start()
        print("repro serve: listening on %s:%d (shards=%d)"
              % (address[0], address[1], self.pool.shards), flush=True)
        async with self.server:
            await self.server.serve_forever()
