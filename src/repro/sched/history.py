"""Runtime I/O bookkeeping for the workload-aware scheduler.

Tracks the working thread's outstanding I/O commands and produces the
paper's feature vector ``T = w|r`` (§IV-A): the recent ``t``
microseconds are divided into ``n`` time slices, and ``w_i`` / ``r_i``
count the outstanding write / read commands submitted within the
``i``-th slice (slice 0 = most recent).  Commands older than the
window are clamped into the oldest slice — they are still outstanding
and still predictive.

Also maintains the rolling average completion latency used by the
``avg(t)`` probing baseline of Fig 10.

Submit times are kept sorted per kind, so the occupied slices come
from bisecting slice boundaries from the young end instead of a pass
over every outstanding command.
"""

from bisect import bisect_left, bisect_right, insort
from collections import deque

from repro.sim.clock import usec

DEFAULT_WINDOW_US = 1000
DEFAULT_SLICES = 20


class IoHistory:
    """Outstanding-I/O tracker owned by one working thread."""

    def __init__(self, clock, window_us=DEFAULT_WINDOW_US, slices=DEFAULT_SLICES,
                 latency_window_us=1_000_000):
        if slices < 1:
            raise ValueError("need at least one slice")
        self.clock = clock
        self.window_ns = usec(window_us)
        self.slices = slices
        self.slice_ns = self.window_ns // slices
        self.latency_window_ns = usec(latency_window_us)
        self._outstanding = {}
        # ascending submit times of the outstanding writes / reads
        self._write_times = []
        self._read_times = []
        self._completions = deque()
        self._latency_sum = 0
        self.submitted_reads = 0
        self.submitted_writes = 0
        self.detected_completions = 0

    @property
    def outstanding_count(self):
        return len(self._outstanding)

    def on_submit(self, command):
        key = id(command)
        if key in self._outstanding:
            self._forget(key)
        submit_ns = command.submit_ns
        self._outstanding[key] = (submit_ns, command.is_write)
        if command.is_write:
            insort(self._write_times, submit_ns)
            self.submitted_writes += 1
        else:
            insort(self._read_times, submit_ns)
            self.submitted_reads += 1

    def on_complete(self, command):
        """Record a completion *detected by probe* (polled-mode)."""
        self._forget(id(command))
        self.detected_completions += 1
        latency = self.clock.now - command.submit_ns
        self._completions.append((self.clock.now, latency))
        self._latency_sum += latency
        self._trim_completions()

    def _forget(self, key):
        entry = self._outstanding.pop(key, None)
        if entry is None:
            return
        submit_ns, is_write = entry
        times = self._write_times if is_write else self._read_times
        del times[bisect_left(times, submit_ns)]

    def _trim_completions(self):
        horizon = self.clock.now - self.latency_window_ns
        completions = self._completions
        while completions and completions[0][0] < horizon:
            _, latency = completions.popleft()
            self._latency_sum -= latency

    def occupied_slices(self, at_ns=None):
        """``(feature index, count)`` of every non-empty feature slot,
        in ascending feature-index order (writes, then reads).

        ``at_ns`` lets the scheduler ask "what will the vector look
        like at a future instant" for the CPU-yield decision (ages grow
        but no new submissions are assumed).
        """
        now = self.clock.now if at_ns is None else at_ns
        occupied = []
        self._slice_counts(self._write_times, now, 0, occupied)
        self._slice_counts(self._read_times, now, self.slices, occupied)
        return occupied

    def _slice_counts(self, times, now, base, out):
        """Append the occupied slices of one kind, youngest first.

        A command of age ``now - s`` sits in slice ``(now - s) //
        slice_ns`` clamped to ``[0, n - 1]``, so the commands in slice
        ``i`` or older are exactly those with ``s <= now - i *
        slice_ns``: one bisection per slice boundary, stopping as soon
        as no older command remains.
        """
        remaining = len(times)
        if not remaining:
            return
        slice_ns = self.slice_ns
        last = self.slices - 1
        bound = now - slice_ns
        index = 0
        while index < last:
            older = bisect_right(times, bound, 0, remaining)
            if older < remaining:
                out.append((base + index, remaining - older))
                if not older:
                    return
                remaining = older
            index += 1
            bound -= slice_ns
        out.append((base + last, remaining))

    def feature_vector(self, at_ns=None):
        """The ``2n``-dim feature list ``[w_1..w_n, r_1..r_n]``."""
        features = [0.0] * (2 * self.slices)
        for index, count in self.occupied_slices(at_ns):
            features[index] = float(count)
        return features

    def avg_completion_latency_ns(self):
        """Mean detected-completion latency over the rolling window."""
        self._trim_completions()
        count = len(self._completions)
        if count == 0:
            return 0
        return self._latency_sum // count
