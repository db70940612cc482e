"""The buffer pool: pinned, dirty-tracked logical pages over the pager.

Every heap page in the engine lives behind a :class:`PageStore`.  A page
is a plain Python object (the heap's slot dict) plus a *codec* that can
serialize it to bytes; the store keeps a bounded set of them resident,
spills the least-recently-used ones to the
:class:`~repro.storage.pager.Pager` when the pool is full, and reloads them
on demand.

The access protocol is explicit and linted
(``analysis/hazard_lint.py`` rule ``page-pin-protocol``):

* **read path** — ``store.read(page_id, codec)`` returns the resident
  object without pinning.  The returned object must be treated as
  immutable; eviction may drop the store's reference at any time, after
  which in-place mutations are silently lost.
* **write path** — ``store.fetch(page_id, codec)`` pins the page (an
  eviction barrier), the caller mutates it, calls ``mark_dirty``, and
  ``unpin``s in a ``finally``.  Dirty pages are written back on eviction
  and at checkpoints.

An in-memory store (no pager) simply never evicts — it is today's
all-in-RAM behaviour with the same API.  A durable store caps residency at
``capacity`` pages (``buffer_pool_pages`` in
:class:`~repro.storage.exec_settings.ExecutionSettings`).

Checkpoint support is shadow-paged: ``flush`` writes dirty pages to *fresh*
frames, and frames referenced by the last **published** checkpoint are only
recycled after :meth:`PageStore.publish` installs the next one — so the
on-disk image named by ``snapshot.json`` stays byte-stable no matter where
a crash lands.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import DurabilityError

#: Default residency cap of a durable database's shared pool, in pages.
DEFAULT_BUFFER_POOL_PAGES = 1024


@dataclass
class BufferPoolStats:
    """A snapshot of one :class:`PageStore`'s counters."""

    #: Residency cap in pages; None for an unbounded (in-memory) store.
    capacity: int | None = None
    #: Pages currently resident / dirty / pinned.
    resident: int = 0
    dirty: int = 0
    pins: int = 0
    #: Lookups served from the pool vs. loaded from the pager.
    hits: int = 0
    misses: int = 0
    #: Pages dropped from residency under capacity pressure.
    evictions: int = 0
    #: Dirty-page serializations to the pager (evictions + checkpoint flushes).
    writebacks: int = 0
    #: Heap pages ever allocated.
    pages_allocated: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        if not lookups:
            return 1.0
        return self.hits / lookups


class _Resident:
    """One resident page: the live object plus its pool bookkeeping."""

    __slots__ = ("obj", "codec", "dirty", "pins")

    def __init__(self, obj, codec, dirty: bool):
        self.obj = obj
        self.codec = codec
        self.dirty = dirty
        self.pins = 0


class PageStore:
    """Pin/unpin page cache with LRU eviction and shadow-paged write-back.

    Thread-safe: a single re-entrant lock serializes the (short)
    bookkeeping sections.  Pinned pages are never evicted, so a
    write sequence holds its page across its own store calls; *unpinned*
    objects stay valid Python objects for whoever already holds a reference
    (eviction drops the store's reference, it does not mutate the object) —
    which is what makes the pinless read path safe for iteration.
    """

    def __init__(self, pager=None, capacity: int | None = None):
        self._pager = pager
        self._capacity = capacity if pager is not None else None
        self._resident: OrderedDict[int, _Resident] = OrderedDict()
        self._chains: dict[int, list[int]] = {}  # page_id -> on-disk frame chain
        self._published: set[int] = set()  # frames the last checkpoint references
        self._deferred: list[int] = []  # superseded published frames
        self._next_page_id = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._writebacks = 0
        self._allocated = 0

    # -- page lifecycle -------------------------------------------------------

    def allocate(self, obj, codec) -> int:
        """Register a brand-new page (resident, dirty); returns its id."""
        with self._lock:
            page_id = self._next_page_id
            self._next_page_id += 1
            self._resident[page_id] = _Resident(obj, codec, dirty=True)
            self._allocated += 1
            self._evict_to_capacity()
            return page_id

    def adopt_chain(self, head_frame: int) -> int:
        """Recovery: register a page whose image lives at ``head_frame``.

        The chain is walked (verifying every frame's checksum) but the page
        is *not* made resident — a cold open of a large database must not
        blow the pool.  Adopted frames join the published set: they are the
        checkpoint being recovered from.
        """
        with self._lock:
            if self._pager is None:
                raise DurabilityError("adopt_chain requires a pager-backed store")
            chain = self._pager.walk(head_frame)
            page_id = self._next_page_id
            self._next_page_id += 1
            self._chains[page_id] = chain
            self._published.update(chain)
            return page_id

    def free(self, page_id: int) -> None:
        """Drop a page entirely (its frames recycle, shadow rules applied)."""
        with self._lock:
            entry = self._resident.pop(page_id, None)
            if entry is not None and entry.pins:
                raise DurabilityError(f"page {page_id} freed while pinned")
            chain = self._chains.pop(page_id, None)
            if chain:
                self._release_chain(chain)

    # -- access protocol ------------------------------------------------------

    def read(self, page_id: int, codec):
        """The page object, loaded if needed, *without* pinning (read-only)."""
        with self._lock:
            return self._get(page_id, codec).obj

    def fetch(self, page_id: int, codec):
        """The page object, loaded if needed, pinned for mutation."""
        with self._lock:
            entry = self._get(page_id, codec)
            entry.pins += 1
            return entry.obj

    def unpin(self, page_id: int) -> None:
        with self._lock:
            entry = self._resident.get(page_id)
            if entry is not None and entry.pins > 0:
                entry.pins -= 1

    def mark_dirty(self, page_id: int) -> None:
        """Record that a fetched page was mutated (write-back required)."""
        with self._lock:
            entry = self._resident.get(page_id)
            if entry is None:
                raise DurabilityError(
                    f"mark_dirty on non-resident page {page_id}: mutate pages "
                    f"only while pinned via fetch()"
                )
            entry.dirty = True

    def _get(self, page_id: int, codec) -> _Resident:
        entry = self._resident.get(page_id)
        if entry is not None:
            self._hits += 1
            self._resident.move_to_end(page_id)
            return entry
        self._misses += 1
        chain = self._chains.get(page_id)
        if chain is None or self._pager is None:
            raise DurabilityError(f"unknown page {page_id} (freed or never stored)")
        payload, _ = self._pager.read(chain[0])
        entry = _Resident(codec.decode(payload), codec, dirty=False)
        self._resident[page_id] = entry
        self._evict_to_capacity(protect=page_id)
        return entry

    # -- eviction and write-back ----------------------------------------------

    def _evict_to_capacity(self, protect: int | None = None) -> None:
        if self._capacity is None:
            return
        while len(self._resident) > self._capacity:
            victim = None
            for page_id, entry in self._resident.items():  # LRU order
                if entry.pins == 0 and page_id != protect:
                    victim = page_id
                    break
            if victim is None:
                return  # everything pinned: soft cap, shrink on next unpin
            entry = self._resident.pop(victim)
            if entry.dirty:
                self._write_back(victim, entry)
            self._evictions += 1

    def _write_back(self, page_id: int, entry: _Resident) -> None:
        """Serialize one dirty page to fresh frames (shadow paging)."""
        new_chain = self._pager.write(entry.codec.encode(entry.obj))
        old_chain = self._chains.get(page_id)
        self._chains[page_id] = new_chain
        if old_chain:
            self._release_chain(old_chain)
        entry.dirty = False
        self._writebacks += 1

    def _release_chain(self, chain: list[int]) -> None:
        if self._pager is None:
            return
        recyclable = [frame for frame in chain if frame not in self._published]
        deferred = [frame for frame in chain if frame in self._published]
        if recyclable:
            self._pager.release(recyclable)
        self._deferred.extend(deferred)

    # -- checkpoint protocol --------------------------------------------------

    def flush(self, page_ids) -> int:
        """Write the dirty resident pages among ``page_ids`` to the pager.

        Non-resident pages are already on disk; clean resident pages have a
        valid chain from their last write-back.  Returns the pages written —
        the size of the checkpoint's incremental working set.
        """
        with self._lock:
            if self._pager is None:
                raise DurabilityError("flush requires a pager-backed store")
            written = 0
            for page_id in page_ids:
                entry = self._resident.get(page_id)
                if entry is not None and entry.dirty:
                    self._write_back(page_id, entry)
                    written += 1
            return written

    def chain_head(self, page_id: int) -> int:
        """The on-disk head frame of a flushed page (checkpoint directory)."""
        with self._lock:
            chain = self._chains.get(page_id)
            if not chain:
                raise DurabilityError(
                    f"page {page_id} has no on-disk image; flush() it first"
                )
            return chain[0]

    def publish(self, page_ids) -> None:
        """Install ``page_ids``'s current chains as the published checkpoint.

        Called after the checkpoint metadata has been atomically renamed:
        from here on, these frames are what recovery will read, so they are
        protected from reuse — and the frames the *previous* checkpoint
        protected (parked on the deferred list by ``_release_chain``) become
        recyclable at last.
        """
        with self._lock:
            published: set[int] = set()
            for page_id in page_ids:
                chain = self._chains.get(page_id)
                if chain:
                    published.update(chain)
            self._published = published
            if self._pager is not None and self._deferred:
                self._pager.release(
                    frame for frame in self._deferred if frame not in published
                )
            self._deferred = []

    def reconcile_free(self) -> None:
        """Recovery: everything outside the adopted chains is reusable."""
        with self._lock:
            if self._pager is None:
                return
            used: set[int] = set()
            for chain in self._chains.values():
                used.update(chain)
            self._pager.restrict_free(used)

    def sync(self) -> None:
        with self._lock:
            if self._pager is not None:
                self._pager.sync()

    def close(self) -> None:
        with self._lock:
            if self._pager is not None:
                self._pager.close()

    # -- observability --------------------------------------------------------

    def stats(self) -> BufferPoolStats:
        with self._lock:
            return BufferPoolStats(
                capacity=self._capacity,
                resident=len(self._resident),
                dirty=sum(1 for entry in self._resident.values() if entry.dirty),
                pins=sum(entry.pins for entry in self._resident.values()),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                writebacks=self._writebacks,
                pages_allocated=self._allocated,
            )
