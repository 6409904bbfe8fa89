"""Event queue for the discrete-event kernel.

A binary heap of ``(time, sequence, Event)`` tuples.  The sequence
number breaks ties so that events scheduled at the same instant fire in
scheduling order, which keeps runs deterministic; because it is unique,
tuple comparison never reaches the :class:`Event` itself, so the heap
orders its entries with integer compares only.

Cancellation is lazy: :meth:`EventQueue.cancel` marks the entry dead
and the heap skips it on pop.  This is the standard approach (also used
by ``sched`` and asyncio) and keeps cancellation O(1).
"""

import heapq


class Event:
    """A scheduled callback.  Returned by :meth:`EventQueue.push`.

    ``pending`` is true while the event sits in its queue waiting to
    fire; popping or cancelling it clears the flag.
    """

    __slots__ = ("time", "seq", "fn", "pending")

    def __init__(self, time, seq, fn):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.pending = True

    def __repr__(self):
        state = "pending" if self.pending else "done"
        return "Event(t=%d, seq=%d, %s)" % (self.time, self.seq, state)


class EventQueue:
    """Deterministic min-heap of events."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0

    def push(self, time, fn):
        """Schedule ``fn`` to fire at virtual time ``time`` (ns)."""
        seq = self._seq
        event = Event(time, seq, fn)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event):
        """Cancel a pending event.

        A no-op for an event that was already cancelled, popped or
        fired, so the live count stays exact.
        """
        if event.pending:
            event.pending = False
            event.fn = None
            self._live -= 1

    def peek_time(self):
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._drop_dead()
        if not heap:
            return None
        return heap[0][0]

    def pop(self, until_ns=None):
        """Remove and return the next live event.

        Returns ``None`` if the queue is empty or, with ``until_ns``,
        if the next live event fires after that time (it stays queued).
        """
        heap = self._drop_dead()
        if not heap or (until_ns is not None and heap[0][0] > until_ns):
            return None
        self._live -= 1
        event = heapq.heappop(heap)[2]
        event.pending = False
        return event

    def _drop_dead(self):
        heap = self._heap
        while heap and not heap[0][2].pending:
            heapq.heappop(heap)
        return heap
