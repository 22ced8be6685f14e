"""Buffer manager: a fixed-size LRU page pool with I/O accounting.

The paper attributes part of the lock-protocol cost differences to disk
accesses (e.g. the *-2PL subtree scans in CLUSTER2 "may include accesses to
disks").  The buffer manager makes those costs observable: every page
access is a *logical* read; accesses to pages not resident in the pool are
*physical* reads.  The TaMix cost model converts these counters into
simulated time.

Pages live in a :class:`PageFile` (the "disk").  Residency is what the
LRU pool tracks; page contents are shared Python objects either way, which
keeps the simulation cheap while the hit/miss behaviour stays faithful.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.errors import StorageError
from repro.obs import BUFFER_EVICT, BUFFER_FIX, BUFFER_MISS, NULL_TRACER
from repro.storage.page import DEFAULT_PAGE_SIZE, Page


@dataclass
class IoStatistics:
    """Counters the cost model and the storage examples read."""

    logical_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    evictions: int = 0
    #: Simulated milliseconds added by injected latency faults and fault
    #: retries (repro.chaos); charged by the cost model like extra I/O time.
    fault_delay_ms: float = 0.0

    def snapshot(self) -> "IoStatistics":
        return IoStatistics(
            self.logical_reads,
            self.physical_reads,
            self.physical_writes,
            self.evictions,
            self.fault_delay_ms,
        )

    def delta_since(self, earlier: "IoStatistics") -> "IoStatistics":
        return IoStatistics(
            self.logical_reads - earlier.logical_reads,
            self.physical_reads - earlier.physical_reads,
            self.physical_writes - earlier.physical_writes,
            self.evictions - earlier.evictions,
            self.fault_delay_ms - earlier.fault_delay_ms,
        )

    @property
    def hit_ratio(self) -> float:
        if self.logical_reads == 0:
            return 1.0
        return 1.0 - self.physical_reads / self.logical_reads


class PageFile:
    """The backing store ("disk"): allocates and owns all pages."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = page_size
        self._pages: Dict[int, Page] = {}
        self._next_id = 0

    def allocate(self) -> Page:
        page = Page(self._next_id, self.page_size)
        self._pages[self._next_id] = page
        self._next_id += 1
        return page

    def free(self, page_id: int) -> None:
        self._pages.pop(page_id, None)

    def read(self, page_id: int) -> Page:
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"page {page_id} does not exist") from None

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def occupancy(self) -> float:
        """Mean occupancy over all allocated pages (paper: > 96 %)."""
        if not self._pages:
            return 0.0
        return sum(p.occupancy for p in self._pages.values()) / len(self._pages)


class BufferManager:
    """LRU page pool in front of a :class:`PageFile`.

    ``fix`` brings a page into the pool (counting a physical read on a
    miss) and returns it.  Newly allocated pages enter the pool resident
    and dirty.  The pool never holds more than ``pool_size`` pages;
    evicting a dirty page counts a physical write.
    """

    def __init__(self, page_file: PageFile, pool_size: int = 256):
        if pool_size < 4:
            raise StorageError(f"pool size {pool_size} is too small")
        self.page_file = page_file
        self.pool_size = pool_size
        self.stats = IoStatistics()
        #: Observability tracer; bound by :meth:`bind_observability`.
        self.tracer = NULL_TRACER
        self._resident: "OrderedDict[int, bool]" = OrderedDict()  # id -> dirty
        #: Cached per-site chaos hooks; None when the engine is absent or
        #: has no rules for the site (see the ``chaos`` property).
        self._chaos_read = None
        self._chaos_write = None
        self.chaos = None  # property: also selects the fix implementation

    def bind_observability(self, obs) -> None:
        """Attach a tracer and publish the I/O counters into a registry."""
        self.tracer = obs.tracer
        obs.metrics.register_collector(self._collect_metrics)
        self._rebind_fix()

    # -- instrumentation dispatch -------------------------------------------

    @property
    def chaos(self):
        """Fault-injection engine (repro.chaos), or None.

        Zero-cost-when-disabled dispatch: assigning an engine (or None)
        re-selects ``fix`` from the static implementations below and
        caches the per-site hooks, so an absent -- or installed but
        storage-idle -- engine costs the page access path nothing.
        """
        return self._chaos

    @chaos.setter
    def chaos(self, engine) -> None:
        self._chaos = engine
        if engine is None:
            self._chaos_read = None
            self._chaos_write = None
        else:
            wants = getattr(engine, "wants", None)
            self._chaos_read = (
                engine.page_read
                if wants is None or wants("page.read") else None
            )
            self._chaos_write = (
                engine.page_write
                if wants is None or wants("page.write") else None
            )
        self._rebind_fix()

    def _rebind_fix(self) -> None:
        """Select the ``fix`` implementation for the current wiring.

        The choice is latched when observability or chaos is (re)bound,
        not re-checked per access: the common configurations pay only
        for what they use, and toggling is an explicit rebind.
        """
        if self._chaos_read is not None:
            self.fix = self._fix_chaos
        elif self.tracer.enabled:
            self.fix = self._fix_traced
        else:
            self.fix = self._fix_plain

    def _collect_metrics(self, registry) -> None:
        registry.gauge("buffer.logical_reads").set(self.stats.logical_reads)
        registry.gauge("buffer.physical_reads").set(self.stats.physical_reads)
        registry.gauge("buffer.physical_writes").set(self.stats.physical_writes)
        registry.gauge("buffer.evictions").set(self.stats.evictions)
        registry.gauge("buffer.hit_ratio").set(round(self.stats.hit_ratio, 6))
        registry.gauge("buffer.resident_pages").set(len(self._resident))
        registry.gauge("buffer.pool_size").set(self.pool_size)

    # -- page access -------------------------------------------------------

    def _fix_plain(self, page_id: int, *, for_update: bool = False) -> Page:
        """``fix`` with neither tracing nor chaos: the bare LRU walk."""
        stats = self.stats
        stats.logical_reads += 1
        resident = self._resident
        if page_id in resident:
            dirty = resident.pop(page_id)
            resident[page_id] = dirty or for_update
        else:
            stats.physical_reads += 1
            self._admit(page_id, dirty=for_update)
        return self.page_file.read(page_id)

    def _fix_traced(self, page_id: int, *, for_update: bool = False) -> Page:
        """``fix`` with tracing bound (no storage chaos rules)."""
        self.stats.logical_reads += 1
        if page_id in self._resident:
            dirty = self._resident.pop(page_id)
            self._resident[page_id] = dirty or for_update
            if self.tracer.enabled:
                self.tracer.emit(BUFFER_FIX, page=page_id, hit=True,
                                 for_update=for_update)
        else:
            self.stats.physical_reads += 1
            if self.tracer.enabled:
                self.tracer.emit(BUFFER_MISS, page=page_id,
                                 for_update=for_update)
            self._admit(page_id, dirty=for_update)
        return self.page_file.read(page_id)

    def _fix_chaos(self, page_id: int, *, for_update: bool = False) -> Page:
        """``fix`` with a chaos engine holding ``page.read`` rules."""
        self.stats.logical_reads += 1
        delay = self._chaos_read(page_id)
        if delay:
            self.stats.fault_delay_ms += delay
        if page_id in self._resident:
            dirty = self._resident.pop(page_id)
            self._resident[page_id] = dirty or for_update
            if self.tracer.enabled:
                self.tracer.emit(BUFFER_FIX, page=page_id, hit=True,
                                 for_update=for_update)
        else:
            self.stats.physical_reads += 1
            if self.tracer.enabled:
                self.tracer.emit(BUFFER_MISS, page=page_id,
                                 for_update=for_update)
            self._admit(page_id, dirty=for_update)
        return self.page_file.read(page_id)

    #: ``fix`` is rebound per instance by :meth:`_rebind_fix`; the class
    #: attribute is only a safe-everywhere fallback for exotic
    #: construction paths that bypass ``__init__``.
    fix = _fix_traced

    def allocate(self) -> Page:
        """Allocate a fresh page; it enters the pool resident and dirty."""
        page = self.page_file.allocate()
        self._admit(page.page_id, dirty=True)
        return page

    def free(self, page_id: int) -> None:
        """Drop a page from pool and disk (page deallocation)."""
        self._resident.pop(page_id, None)
        self.page_file.free(page_id)

    def flush(self) -> None:
        """Write back all dirty pages (checkpoint)."""
        for page_id, dirty in self._resident.items():
            if dirty:
                self.stats.physical_writes += 1
                if self._chaos_write is not None:
                    delay = self._chaos_write(page_id)
                    if delay:
                        self.stats.fault_delay_ms += delay
                self._resident[page_id] = False

    def is_resident(self, page_id: int) -> bool:
        return page_id in self._resident

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    # -- internals -----------------------------------------------------------

    def _admit(self, page_id: int, *, dirty: bool) -> None:
        while len(self._resident) >= self.pool_size:
            victim_id, victim_dirty = self._resident.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.physical_writes += 1
                if self._chaos_write is not None:
                    delay = self._chaos_write(victim_id)
                    if delay:
                        self.stats.fault_delay_ms += delay
            if self.tracer.enabled:
                self.tracer.emit(BUFFER_EVICT, page=victim_id,
                                 dirty=victim_dirty)
        self._resident[page_id] = dirty


def make_buffered_store(
    page_size: int = DEFAULT_PAGE_SIZE, pool_size: int = 256
) -> BufferManager:
    """Convenience constructor for a fresh page file + buffer manager."""
    return BufferManager(PageFile(page_size), pool_size)
