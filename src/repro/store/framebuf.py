"""Shared output framebuffer: pooled render workers write tiles in place.

The parallel frame renderer's ship-back problem: each pooled render job
returns its tile's (H, W, 3) float32 pixels through the executor's
result queue — a pickle copy per tile per eye, so at wall scale the
frame is serialized (and deserialized) once more on top of being
rendered.  This module gives the *output* plane the same treatment
:mod:`repro.store.arena` gives the input data plane: one shared block
sized to the whole frame, a small picklable :class:`FramebufferHandle`
addressing each tile/eye slot, workers attach once per block and write
their slot pixels **in place**, and the caller reads the frame from the
very same pages — no result ship-back and no copy-out at all.

Write discipline (what makes torn tiles impossible):

* every slot is written by **exactly one** render job, and the parent
  reads slots only after the supervised map has completed — there is
  never a concurrent reader/writer pair on a slot;
* renders are deterministic, so a retried job (crashed worker,
  disavowed corrupt attempt) simply overwrites its slot with identical
  bytes: a half-written slot left by a killed worker is healed by the
  retry, and the parity/chaos suites prove the assembled frame
  bit-identical to serial;
* fresh slots are zero-filled (POSIX shared memory guarantee), which
  is *not* the renderer's background color — byte-parity with the
  serial frame therefore proves every slot pixel was actually written;
  a reused block holds the previous frame, which every job overwrites
  in full (a clear, or a copy of its retained base);
* the creating process owns the block; attach-side clients never
  unlink (the same ownership rule as every block in
  :mod:`repro.store.shm`).

Lifetime.  A block outlives frames: the render service of
:mod:`repro.parallel.tilerender` keeps one for a session and reuses it
frame after frame.  The frame a caller receives is a set of read-only
:meth:`SharedFrameBuffer.view` s of the slots, not a copy, so the block
counts the views it handed out (:attr:`SharedFrameBuffer.in_use`): it
is rewritten only once none is alive, and a block that is
:meth:`~SharedFrameBuffer.retire` d is unlinked at once but unmapped
only when its last view dies — a frame a caller holds keeps its bytes.
"""

from __future__ import annotations

import pickle
import struct
import threading
import time
import uuid
import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro import obs
from repro.store.arena import ArraySpec, _aligned, _map_array
from repro.store.shm import (
    BLOCK_PREFIX,
    SharedBlock,
    StoreAttachError,
    attach_block,
    create_block,
)

__all__ = [
    "FramebufferHandle",
    "SharedFrameBuffer",
    "FrameBufferClient",
    "create_framebuffer",
    "attach_framebuffer",
]

_MAGIC = b"RFBUF1\n\x00"
_HEADER = struct.Struct("<8s32s24x")  # magic, uid hex, reserved → 64 B
_DTYPE = "<f4"


#: Retired blocks still pinned by handed-out views.  Only the views'
#: weakref callbacks point back at such a block, so without this strong
#: reference the collector could drop it, callbacks and all, and its
#: mapping would never be released.
_RETIRING: set["SharedFrameBuffer"] = set()


def _slot_key(col: int, row: int, eye: int) -> str:
    """TOC key of the (tile column, tile row, eye) slot."""
    return f"{col}:{row}:{eye}"


@dataclass(frozen=True)
class FramebufferHandle:
    """Small picklable address of a shared output framebuffer.

    Shipping one of these with each batch replaces shipping rendered
    pixels back per job: the handle is a few hundred bytes regardless
    of frame size, and each worker attaches once per block.

    Attributes
    ----------
    block:
        Shared-memory block name to attach.
    uid:
        Unique id of this framebuffer build.
    slots:
        Array table-of-contents: one float32 ``(H, W, 3)`` entry per
        (tile, eye) render job, keyed ``"col:row:eye"``.
    """

    block: str
    uid: str
    slots: tuple[ArraySpec, ...]

    def spec(self, col: int, row: int, eye: int) -> ArraySpec:
        """The TOC entry of one tile/eye slot (``KeyError`` if absent)."""
        key = _slot_key(col, row, eye)
        for s in self.slots:
            if s.key == key:
                return s
        raise KeyError(key)

    @property
    def frame_bytes(self) -> int:
        """Total pixel payload addressed by the handle — what the
        pickle ship-back transport would have copied per frame."""
        return sum(s.nbytes for s in self.slots)

    @property
    def handle_bytes(self) -> int:
        """Size of this handle itself on the wire."""
        return len(pickle.dumps(self))


class _SlotMapping:
    """Shared slot-view plumbing of the publisher and attach client."""

    def __init__(self, block: SharedBlock, handle: FramebufferHandle) -> None:
        self._block = block
        self.handle = handle

    def slot(self, col: int, row: int, eye: int, *, writable: bool = False) -> np.ndarray:
        """Zero-copy ``(H, W, 3)`` float32 view of one tile/eye slot.

        Defaults to read-only (assembly); a render job requests its own
        slot ``writable=True`` and must write every pixel of it.
        """
        return _map_array(self._block, self.handle.spec(col, row, eye), writable=writable)

    @property
    def closed(self) -> bool:
        """True once this process's mapping has been released."""
        return self._block.closed

    def close(self) -> bool:
        """Release this process's mapping (idempotent).  False while
        live slot views still pin the buffer — drop them and retry."""
        return self._block.close()


class SharedFrameBuffer(_SlotMapping):
    """The creating process's side of a shared output framebuffer.

    Build via :func:`create_framebuffer`; ship :attr:`handle` to pool
    workers; hand slots to callers with :meth:`view`; tear down with
    :meth:`retire` (or :meth:`unlink` + :meth:`close`, or use as a
    context manager).  The creating process
    owns the block: render workers attach via
    :func:`attach_framebuffer` and can never unlink it.
    """

    def __init__(self, block: SharedBlock, handle: FramebufferHandle) -> None:
        super().__init__(block, handle)
        # re-entrant: a view can die (and its callback run) anywhere,
        # including inside this lock's critical sections
        self._views_lock = threading.RLock()
        # id(weakref) -> weakref (a weakref to a memoryview is unhashable)
        self._views: dict[int, weakref.ref] = {}
        self._retired = False

    def view(self, col: int, row: int, eye: int) -> np.ndarray:
        """A read-only view of one slot for a caller to keep.

        The block counts these views (and any view derived from one —
        numpy views of a view share its buffer): :attr:`in_use` is True
        while one is alive.
        """
        arr = self.slot(col, row, eye)
        # np.frombuffer reads the block through a memoryview of its
        # own, which every derived array keeps alive and which releases
        # the mapping's buffer before its weakref callbacks run
        anchor = arr
        while isinstance(anchor, np.ndarray):
            anchor = anchor.base
        ref = weakref.ref(anchor, self._view_released)
        with self._views_lock:
            self._views[id(ref)] = ref
        return arr

    def _view_released(self, ref: weakref.ref) -> None:
        with self._views_lock:
            self._views.pop(id(ref), None)
            close = self._retired and not self._views
        if close:
            self._block.close()
            _RETIRING.discard(self)

    @property
    def in_use(self) -> bool:
        """True while a view handed out by :meth:`view` is alive."""
        return bool(self._views)

    def retire(self) -> None:
        """Unlink the block now and release this process's mapping as
        soon as no handed-out view is alive (at once if none is)."""
        with self._views_lock:
            self._retired = True
            idle = not self._views
            if not idle:
                _RETIRING.add(self)
        self.unlink()
        if idle:
            self.close()

    def unlink(self) -> None:
        """Remove the block's name (creator only; idempotent)."""
        self._block.unlink()

    def __enter__(self) -> "SharedFrameBuffer":
        """Context-manage the frame's lifetime (unlink + close on exit)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Unlink the name and release the mapping."""
        self.unlink()
        self.close()

    def __repr__(self) -> str:
        return (
            f"SharedFrameBuffer({self.handle.block!r}, "
            f"{len(self.handle.slots)} slots, {self.handle.frame_bytes}B)"
        )


class FrameBufferClient(_SlotMapping):
    """One worker's attachment to a shared output framebuffer.

    Held open for as long as the parent keeps the block (a worker
    attaches once and every later batch writes through the same
    pages).  Closing drops only this process's mapping — the parent's
    block and other workers are unaffected.
    """

    def __enter__(self) -> "FrameBufferClient":
        """Context-manage the attachment (close on exit)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Release the client's mapping."""
        self.close()

    def __repr__(self) -> str:
        return f"FrameBufferClient({self.handle.block!r}, {len(self.handle.slots)} slots)"


def create_framebuffer(
    slots: Iterable[tuple[int, int, int, int, int]],
) -> SharedFrameBuffer:
    """Create (and own) a shared framebuffer with one slot per job.

    Parameters
    ----------
    slots:
        One ``(col, row, eye, height, width)`` tuple per render job.
        Each becomes a 16-byte-aligned float32 ``(height, width, 3)``
        slot in the block; slot pixels start zero-filled and must be
        fully written by the job that owns the slot.
    """
    t0 = time.perf_counter()
    specs: list[ArraySpec] = []
    seen: set[str] = set()
    cursor = _HEADER.size
    for col, row, eye, height, width in slots:
        if height < 1 or width < 1:
            raise ValueError(
                f"slot ({col}, {row}, eye {eye}) must be positive, got {width}x{height}"
            )
        key = _slot_key(int(col), int(row), int(eye))
        if key in seen:
            raise ValueError(f"duplicate framebuffer slot {key!r}")
        seen.add(key)
        cursor = _aligned(cursor)
        specs.append(ArraySpec(key, _DTYPE, (int(height), int(width), 3), cursor))
        cursor += specs[-1].nbytes
    if not specs:
        raise ValueError("a shared framebuffer needs at least one slot")
    uid = uuid.uuid4().hex
    block = create_block(cursor, name=f"{BLOCK_PREFIX}fb_{uid[:12]}")
    _HEADER.pack_into(block.buf, 0, _MAGIC, uid.encode("ascii"))
    handle = FramebufferHandle(block=block.name, uid=uid, slots=tuple(specs))
    obs.observe("framebuf.create_seconds", time.perf_counter() - t0)
    obs.counter_add("framebuf.creates", 1)
    return SharedFrameBuffer(block, handle)


def attach_framebuffer(handle: FramebufferHandle) -> FrameBufferClient:
    """Attach to a shared framebuffer and verify the handle against the
    block header.

    Raises
    ------
    StaleHandleError
        The block no longer exists (the parent already unlinked it).
    StoreAttachError
        The block exists but is not this framebuffer (bad magic, uid
        mismatch, truncated).
    """
    block = attach_block(handle.block)
    try:
        if block.size < _HEADER.size:
            raise StoreAttachError(
                f"block {handle.block!r} too small to be a framebuffer ({block.size}B)"
            )
        magic, uid = _HEADER.unpack_from(block.buf, 0)
        if magic != _MAGIC:
            raise StoreAttachError(
                f"block {handle.block!r} is not a shared framebuffer (bad magic)"
            )
        if uid.decode("ascii") != handle.uid:
            raise StoreAttachError(
                f"handle uid {handle.uid[:8]} does not match block "
                f"uid {uid.decode('ascii')[:8]} — stale frame handle"
            )
        need = max((s.offset + s.nbytes for s in handle.slots), default=0)
        if block.size < need:
            raise StoreAttachError(
                f"block {handle.block!r} truncated: {block.size}B < {need}B"
            )
    except Exception:
        block.close()
        obs.counter_add("framebuf.attach.failures", 1)
        raise
    obs.counter_add("framebuf.attaches", 1)
    return FrameBufferClient(block, handle)
