"""Register renaming: RAT, physical register file, and free list.

The physical register file is the destination of RFP prefetches: a prefetch
packet carries the load's renamed destination (``prfid``) so the prefetched
data has a home — the paper's answer to "register files are not tagged".

Each physical register carries a *ready cycle* (the earliest cycle a
consumer may issue reading it) and the actual 64-bit value, so the model is
both a timing and a functional simulator.
"""

INFINITY = float("inf")


class PhysicalRegisterFile(object):
    """Physical registers with per-entry ready time and value.

    Event-driven wakeup: each register carries a *wakeup list* — the
    consumers the attached scheduler (see :meth:`attach_scheduler`)
    parked on it while its producer is still executing.  :meth:`write`
    hands that list to the scheduler the moment a value lands, so
    completion pushes dependents toward the ready queue instead of the
    scheduler re-scanning its window.
    """

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.ready_cycle = [0] * num_entries
        self.value = [0] * num_entries
        #: Per-register consumer wakeup lists; only the scheduler fills them.
        self.waiters = [[] for _ in range(num_entries)]
        self.scheduler = None

    def attach_scheduler(self, scheduler):
        """Enable dependency-driven wakeup: completions notify ``scheduler``."""
        self.scheduler = scheduler

    def mark_pending(self, preg):
        """Mark a newly allocated register as not yet produced."""
        self.ready_cycle[preg] = INFINITY
        self.value[preg] = 0
        if self.waiters[preg]:
            # A register only re-enters the free list once every consumer
            # of its previous life has issued or been squashed, so any
            # leftover subscription here is dead weight from a squash.
            self.waiters[preg] = []

    def write(self, preg, value, ready_cycle):
        self.value[preg] = value
        self.ready_cycle[preg] = ready_cycle
        woken = self.waiters[preg]
        if woken:
            self.waiters[preg] = []
            self.scheduler.wake_consumers(woken)

    def is_ready(self, preg, cycle):
        return self.ready_cycle[preg] <= cycle

    def read(self, preg):
        return self.value[preg]


class RenameUnit(object):
    """RAT + free list over a :class:`PhysicalRegisterFile`.

    Squash support: every rename records the previous mapping; the core
    walks squashed instructions youngest-first calling :meth:`unmap`.
    """

    def __init__(self, num_arch_regs, prf):
        self.prf = prf
        if prf.num_entries <= num_arch_regs:
            raise ValueError("PRF must be larger than the architectural file")
        # Architectural registers start mapped to pregs [0, num_arch_regs).
        self.rat = list(range(num_arch_regs))
        self.free_list = list(range(num_arch_regs, prf.num_entries))
        for preg in range(num_arch_regs):
            self.prf.write(preg, 0, 0)

    @property
    def free_count(self):
        return len(self.free_list)

    def lookup(self, arch_reg):
        """Current physical mapping of an architectural register."""
        return self.rat[arch_reg]

    def rename_sources(self, arch_regs):
        """Map a tuple of architectural sources to physical registers."""
        rat = self.rat
        return tuple(rat[reg] for reg in arch_regs)

    def allocate_dest(self, arch_reg):
        """Allocate a new physical register for ``arch_reg``.

        Returns ``(new_preg, previous_preg)``; the caller stores
        ``previous_preg`` for commit-time freeing and squash-time restore.
        Raises IndexError when the free list is empty (caller must check
        :attr:`free_count` first).
        """
        new_preg = self.free_list.pop()
        previous = self.rat[arch_reg]
        self.rat[arch_reg] = new_preg
        self.prf.mark_pending(new_preg)
        return new_preg, previous

    def commit_free(self, previous_preg):
        """Free the overwritten mapping once the overwriting instr commits."""
        self.free_list.append(previous_preg)

    def unmap(self, arch_reg, new_preg, previous_preg):
        """Undo a rename during a squash (youngest-first order required)."""
        if self.rat[arch_reg] != new_preg:
            raise RuntimeError(
                "squash order violation: r%d maps to p%d, expected p%d"
                % (arch_reg, self.rat[arch_reg], new_preg)
            )
        self.rat[arch_reg] = previous_preg
        self.free_list.append(new_preg)

    def seed_architectural(self, values):
        """Install committed architectural register state (the fast-forward
        handoff): each architectural register's current mapping receives its
        warmed-up value, ready immediately."""
        if len(values) != len(self.rat):
            raise ValueError(
                "expected %d architectural values, got %d"
                % (len(self.rat), len(values))
            )
        for arch_reg, value in enumerate(values):
            self.prf.write(self.rat[arch_reg], value, 0)

    def architectural_values(self):
        """Read the committed architectural state (for emulator checks).

        Only meaningful when the pipeline is drained.
        """
        return [self.prf.read(preg) for preg in self.rat]
