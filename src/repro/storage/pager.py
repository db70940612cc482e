"""The page file: fixed-size checksummed frames with a free list.

The pager is the bottom of the paged storage stack
(:mod:`repro.storage.buffer_pool` sits on top of it): one ``pages.db`` file
per ``data_dir``, divided into fixed-size *frames*.  A logical page is
serialized to bytes by its owner and written as a chain of one or more
frames (large payloads overflow into continuation frames linked by a
``next`` pointer in each frame header), so callers never care about frame
granularity — they hand the pager a payload and get back the head frame
number.

Every frame carries a header ``(magic, payload_len, crc32, next_frame)``;
a chain read verifies all three, so a torn or recycled frame is detected
instead of decoded.  Frames are recycled through a free list that the
buffer pool manages with *shadow paging* discipline: a frame referenced by
the last published checkpoint is never overwritten in place — rewrites of
the same logical page go to fresh frames, and the superseded frames return
to the free list only after the next checkpoint publishes (see
:meth:`~repro.storage.buffer_pool.PageStore.publish`).  That is what makes
a crash at any byte harmless: the published checkpoint's frames are still
exactly as they were synced.
"""

from __future__ import annotations

import heapq
import os
import struct
import zlib

from repro.errors import DurabilityError

#: File name of the page file inside a database's ``data_dir``.
PAGES_FILE_NAME = "pages.db"

#: Bytes per frame (header included).  4 KiB mirrors the common device
#: page size; payloads larger than one frame chain through overflow frames.
DEFAULT_FRAME_SIZE = 4096

_HEADER = struct.Struct("<IIIQ")  # magic, payload_len, crc32, next_frame
_MAGIC = 0x50414745  # "PAGE"
#: ``next_frame`` sentinel ending a chain (frame 0 is a valid frame).
_NO_FRAME = 0xFFFFFFFFFFFFFFFF


class Pager:
    """Frame-granular access to one page file.

    The pager only knows bytes and frames; page identity, residency, and
    the shadow-paging free policy live in the buffer pool.  All methods
    are called under the buffer pool's lock, so the pager itself needs no
    locking.
    """

    def __init__(self, path: str | os.PathLike, frame_size: int = DEFAULT_FRAME_SIZE):
        if frame_size <= _HEADER.size:
            raise DurabilityError(
                f"frame_size {frame_size} leaves no payload room "
                f"(header is {_HEADER.size} bytes)"
            )
        self.path = os.fspath(path)
        self.frame_size = frame_size
        self._capacity = frame_size - _HEADER.size
        # O_CREAT without truncation: an existing file's frames may be
        # referenced by a published checkpoint.
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        self._file = os.fdopen(fd, "r+b", buffering=0)
        size = os.fstat(fd).st_size
        # Frames are written without tail padding, so the last frame of the
        # file is usually short: count it with a ceiling division.
        self._frames = (size + frame_size - 1) // frame_size
        self._free: list[int] = []  # min-heap of recyclable frame numbers
        self._free_set: set[int] = set()
        #: Frames written since the last :meth:`sync` (diagnostics).
        self.frames_written = 0
        self._closed = False

    # -- accounting -----------------------------------------------------------

    def restrict_free(self, used: set[int]) -> None:
        """Recovery: mark every frame outside ``used`` recyclable.

        Frames not referenced by any adopted page chain are garbage from the
        crashed run (written after the last published checkpoint) and can be
        reused immediately.  With nothing used at all the file is truncated —
        there is no checkpoint left that could reference it.
        """
        if not used:
            self._file.truncate(0)
            self._frames = 0
            self._free = []
            self._free_set = set()
            return
        self._free_set = {frame for frame in range(self._frames) if frame not in used}
        self._free = sorted(self._free_set)
        heapq.heapify(self._free)

    def release(self, frames) -> None:
        """Return ``frames`` to the free list for reuse."""
        for frame in frames:
            if frame not in self._free_set:
                self._free_set.add(frame)
                heapq.heappush(self._free, frame)

    def _allocate(self) -> int:
        if self._free:
            frame = heapq.heappop(self._free)
            self._free_set.discard(frame)
            return frame
        frame = self._frames
        self._frames += 1
        return frame

    # -- chain I/O --------------------------------------------------------------

    def write(self, payload: bytes) -> list[int]:
        """Write ``payload`` as a fresh frame chain; returns the frames used.

        The first element is the chain head the caller stores in its page
        directory.  Frames come from the free list (extending the file when
        it runs dry), which by construction never contains a frame the last
        published checkpoint references.
        """
        self._assert_open()
        chunks = [
            payload[offset : offset + self._capacity]
            for offset in range(0, len(payload), self._capacity)
        ] or [b""]
        frames = [self._allocate() for _ in chunks]
        for position, chunk in enumerate(chunks):
            next_frame = frames[position + 1] if position + 1 < len(frames) else _NO_FRAME
            header = _HEADER.pack(_MAGIC, len(chunk), zlib.crc32(chunk), next_frame)
            self._file.seek(frames[position] * self.frame_size)
            self._file.write(header + chunk)
        self.frames_written += len(frames)
        return frames

    def read(self, head: int) -> tuple[bytes, list[int]]:
        """Read the payload of the chain starting at ``head``.

        Returns ``(payload, frames)``; raises
        :class:`~repro.errors.DurabilityError` when any frame in the chain
        fails its integrity check (bad magic, short read, CRC mismatch) or
        the chain walks out of the file.
        """
        self._assert_open()
        parts: list[bytes] = []
        frames: list[int] = []
        frame = head
        while frame != _NO_FRAME:
            if frame < 0 or frame >= self._frames or frame in self._free_set:
                raise DurabilityError(
                    f"page chain in {self.path!r} failed its integrity check: "
                    f"frame {frame} is outside the file or recycled"
                )
            if frame in frames:
                raise DurabilityError(
                    f"page chain in {self.path!r} failed its integrity check: "
                    f"frame {frame} forms a cycle"
                )
            frames.append(frame)
            self._file.seek(frame * self.frame_size)
            raw = self._file.read(self.frame_size)
            if len(raw) < _HEADER.size:
                raise DurabilityError(
                    f"page frame {frame} of {self.path!r} failed its integrity "
                    f"check: truncated header"
                )
            magic, length, crc, next_frame = _HEADER.unpack_from(raw)
            chunk = raw[_HEADER.size : _HEADER.size + length]
            if magic != _MAGIC or len(chunk) != length or zlib.crc32(chunk) != crc:
                raise DurabilityError(
                    f"page frame {frame} of {self.path!r} failed its integrity "
                    f"check (bad magic, length, or checksum)"
                )
            parts.append(chunk)
            frame = next_frame
        return b"".join(parts), frames

    def walk(self, head: int) -> list[int]:
        """The verified frame list of the chain at ``head`` (payload dropped)."""
        return self.read(head)[1]

    # -- lifecycle -------------------------------------------------------------

    def sync(self) -> None:
        """Flush and ``fsync`` the page file (the checkpoint barrier)."""
        self._assert_open()
        self._file.flush()
        os.fsync(self._file.fileno())
        self.frames_written = 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.close()

    def _assert_open(self) -> None:
        if self._closed:
            raise DurabilityError(f"pager for {self.path!r} is closed")
