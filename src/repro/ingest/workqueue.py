"""A bounded producer/consumer queue with byte-aware backpressure.

The ingest front-end produces chunks as devices emit them; the
streaming executor consumes them as fast as the pipeline allows.  The
queue between the two is the only buffering in the system, so bounding
it bounds peak memory: ``put`` blocks while the queue is full (by item
count *or* payload bytes), which is exactly the backpressure a real
acquisition service applies to its radios.  The queue keeps the
counters capacity planning needs — peak depth, peak buffered bytes,
how often producers blocked — and the streaming bench records them
next to its throughput figures.

Closing follows the sentinel-free convention: the producer calls
:meth:`close` once, consumers drain remaining items and then receive
``None`` from :meth:`get`.
"""

from __future__ import annotations

import threading
import warnings
from collections import deque
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, QueueClosedError

__all__ = ["BoundedWorkQueue", "QueueStats"]


class QueueStats:
    """Counters of one queue's lifetime (see attribute docs)."""

    def __init__(self) -> None:
        #: Items accepted by ``put`` over the queue's lifetime.
        self.total_put = 0
        #: Items handed out by ``get``.
        self.total_got = 0
        #: Largest simultaneous item count.
        self.peak_depth = 0
        #: Largest simultaneous buffered payload, bytes.
        self.peak_bytes = 0
        #: ``put`` calls that had to wait for space (backpressure
        #: events).
        self.blocked_puts = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (for benches and JSON)."""
        return {"total_put": self.total_put,
                "total_got": self.total_got,
                "peak_depth": self.peak_depth,
                "peak_bytes": self.peak_bytes,
                "blocked_puts": self.blocked_puts}


class BoundedWorkQueue:
    """Blocking FIFO bounded by item count and/or payload bytes.

    Parameters
    ----------
    max_items:
        Maximum simultaneous items; ``None`` leaves the count
        unbounded.
    max_bytes:
        Maximum simultaneous sum of item payload sizes; ``None``
        leaves bytes unbounded.  Items are sized by their ``nbytes``
        attribute, falling back to ``(shape, dtype)``; an item sized
        neither way counts as zero and warns once per queue.

    At least one bound must be set — an unbounded "bounded queue" is a
    configuration error, not a default.
    """

    def __init__(self, max_items: Optional[int] = 64,
                 max_bytes: Optional[int] = None) -> None:
        if max_items is None and max_bytes is None:
            raise ConfigurationError(
                "a bounded queue needs max_items and/or max_bytes")
        if max_items is not None and max_items < 1:
            raise ConfigurationError("max_items must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError("max_bytes must be >= 1")
        self.max_items = max_items
        self.max_bytes = max_bytes
        self.stats = QueueStats()
        self._items: deque = deque()
        self._bytes = 0
        self._closed = False
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._warned_unsized = False

    # -- internals ---------------------------------------------------------

    def _size_of(self, item) -> int:
        """Payload bytes one item buffers.

        ``nbytes`` when the item exposes it (chunks, shm descriptors,
        ndarrays), else derived from ``(shape, dtype)``
        (bare descriptor tuples).  An item sized neither way counts as
        zero and — when a byte bound is configured — warns once per
        queue: silently unbounded byte backpressure is the historical
        bug this closes.
        """
        nbytes = getattr(item, "nbytes", None)
        if nbytes is not None:
            return int(nbytes)
        shape = getattr(item, "shape", None)
        dtype = getattr(item, "dtype", None)
        if shape is not None and dtype is not None:
            try:
                return int(np.prod(shape, dtype=np.int64)
                           * np.dtype(dtype).itemsize)
            except (TypeError, ValueError):
                pass
        if self.max_bytes is not None and not self._warned_unsized:
            self._warned_unsized = True
            warnings.warn(
                f"queue item of type {type(item).__name__} exposes "
                f"neither nbytes nor (shape, dtype); byte "
                f"backpressure cannot account for it",
                RuntimeWarning, stacklevel=3)
        return 0

    def _has_space(self, nbytes: int) -> bool:
        if self.max_items is not None and len(self._items) >= self.max_items:
            return False
        if (self.max_bytes is not None and self._items
                and self._bytes + nbytes > self.max_bytes):
            return False
        return True

    # -- producer side -----------------------------------------------------

    def put(self, item) -> None:
        """Enqueue, blocking while the queue is full (backpressure).

        Raises :class:`~repro.errors.QueueClosedError` when the queue
        is (or becomes) closed — including for a producer already
        blocked in the backpressure wait when :meth:`close` lands: the
        close wakes it and it fails cleanly instead of blocking
        forever on space no consumer will ever free.
        """
        nbytes = self._size_of(item)
        with self._not_full:
            if self._closed:
                raise QueueClosedError("queue is closed")
            if not self._has_space(nbytes):
                self.stats.blocked_puts += 1
                while not self._has_space(nbytes):
                    if self._closed:
                        raise QueueClosedError("queue is closed")
                    self._not_full.wait()
            self._items.append(item)
            self._bytes += nbytes
            self.stats.total_put += 1
            self.stats.peak_depth = max(self.stats.peak_depth,
                                        len(self._items))
            self.stats.peak_bytes = max(self.stats.peak_bytes,
                                        self._bytes)
            self._not_empty.notify()

    def close(self) -> None:
        """No further ``put``; consumers drain then receive ``None``."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    # -- consumer side -----------------------------------------------------

    def get(self, timeout: Optional[float] = None):
        """Dequeue the oldest item, blocking while empty.

        Returns ``None`` once the queue is closed and drained (or when
        ``timeout`` expires first).
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None
            item = self._items.popleft()
            self._bytes -= self._size_of(item)
            self.stats.total_got += 1
            self._not_full.notify()
            return item

    def drain(self, timeout: Optional[float] = None) -> list:
        """Dequeue *everything* buffered in one lock acquisition.

        Blocks like :meth:`get` while empty; returns ``[]`` once the
        queue is closed and drained (or on ``timeout``).  Consumers
        that can process bursts amortise the per-item lock/notify
        cost — the streaming executor's drain loop uses this.
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return []
                if not self._not_empty.wait(timeout=timeout):
                    return []
            items = list(self._items)
            self._items.clear()
            self._bytes = 0
            self.stats.total_got += len(items)
            self._not_full.notify_all()
            return items

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def buffered_bytes(self) -> int:
        """Payload bytes currently buffered."""
        with self._lock:
            return self._bytes

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed
