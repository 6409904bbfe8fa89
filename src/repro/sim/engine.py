"""The discrete-event simulation kernel.

A minimal, deterministic event loop: components schedule callbacks at
future virtual times; :meth:`Engine.run` pops them in time order and
advances the clock.  Everything else in the reproduction — the OS
model, the NVMe device, the PA-Tree working thread — is built from
callbacks on this kernel.
"""

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry


class Engine:
    """Discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Root seed for all random streams in the simulation.
    max_events:
        Safety valve: the engine raises :class:`SimulationError` after
        this many dispatched events, catching accidental infinite loops
        (e.g. a polling thread that never yields virtual time).
    """

    def __init__(self, seed=0, max_events=500_000_000):
        self.clock = Clock()
        self.events = EventQueue()
        self.rng = RngRegistry(seed)
        self.max_events = max_events
        self.dispatched = 0
        self._running = False
        self._stop_requested = False
        self._until_ns = None
        # dispatch_in_place is allowed only inside a run() without an
        # ``until`` predicate (which must see every event)
        self._in_place_ok = False
        # Observability hook: called with each event just before its
        # callback runs.  Must not schedule, cancel, or advance time.
        self.on_dispatch = None
        # Schedule-exploration hook (repro.fuzz): called with every
        # scheduled delay and returns the (possibly perturbed) delay to
        # use.  Must stay None outside fuzz runs so ordinary runs are
        # bit-identical; the fuzzer's perturbations stay >= 0.
        self.perturb_delay = None
        # Idle hook: called once when the event queue drains while a
        # run() is still looking for work.  SimOS installs its stall
        # guard here so a drained queue with blocked threads raises a
        # typed error instead of silently ending the run.
        self.on_idle = None

    @property
    def now(self):
        return self.clock.now

    def schedule(self, delay_ns, fn):
        """Run ``fn()`` after ``delay_ns`` nanoseconds of virtual time."""
        if self.perturb_delay is not None:
            delay_ns = self.perturb_delay(int(delay_ns))
        if delay_ns < 0:
            raise SimulationError("negative delay: %r" % delay_ns)
        return self.events.push(self.clock.now + int(delay_ns), fn)

    def schedule_at(self, time_ns, fn):
        """Run ``fn()`` at absolute virtual time ``time_ns``."""
        if time_ns < self.clock.now:
            raise SimulationError(
                "scheduling in the past: %d < %d" % (time_ns, self.clock.now)
            )
        return self.events.push(int(time_ns), fn)

    def cancel(self, event):
        self.events.cancel(event)

    def stop(self):
        """Make the current :meth:`run` return before its next event.

        Callbacks use this to end a run on a condition they observe
        (``SimOS.run_until_done`` stops when the last thread exits).
        Outside a run it does nothing, so a stale request cannot end a
        later run.
        """
        if self._running:
            self._stop_requested = True

    def run(self, until_ns=None, until=None):
        """Dispatch events until a stop condition.

        ``until_ns``: stop once the clock would pass this time (the
        clock is left at ``until_ns``).  ``until``: a zero-argument
        predicate checked after every event.  With neither, runs until
        the event queue drains or a callback calls :meth:`stop`.
        """
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        self._stop_requested = False
        self._until_ns = until_ns
        self._in_place_ok = until is None
        events = self.events
        clock = self.clock
        try:
            while True:
                if self._stop_requested or (until is not None and until()):
                    return
                event = events.pop(until_ns)
                if event is None:
                    if not events and self.on_idle is not None:
                        # the idle hook may raise (stall guard) or
                        # schedule wrap-up work; look again afterwards
                        self.on_idle()
                        event = events.pop(until_ns)
                    if event is None:
                        # the next live event, if any, is after until_ns
                        if until_ns is not None and (
                            events or until_ns > clock.now
                        ):
                            clock.advance_to(until_ns)
                        return
                clock.advance_to(event.time)
                fn = event.fn
                event.fn = None
                self.dispatched += 1
                if self.on_dispatch is not None:
                    self.on_dispatch(event)
                if self.dispatched > self.max_events:
                    raise SimulationError(
                        "event budget exceeded (%d); likely a livelock"
                        % self.max_events
                    )
                fn()
        finally:
            self._running = False
            self._stop_requested = False
            self._in_place_ok = False

    def dispatch_in_place(self, delay_ns):
        """Fire an event ``delay_ns`` from now without the heap, if the
        heap path provably fires it next.

        The caller must be in tail position in a running callback:
        nothing else runs between this call and the run loop's next
        pop.  Then the event would be popped next exactly when no stop
        is pending, no ``until`` predicate or observation/perturbation
        hook must see it, every queued event is strictly later, it does
        not pass ``until_ns`` and it stays within the event budget.  In
        that case the clock advances and the dispatch is counted as the
        heap path would, and ``True`` tells the caller to run the
        continuation itself; otherwise nothing changes.
        """
        if (
            not self._in_place_ok
            or self._stop_requested
            or self.on_dispatch is not None
            or self.perturb_delay is not None
            or self.dispatched >= self.max_events
        ):
            return False
        time = self.clock.now + delay_ns
        head = self.events.peek_time()
        if head is not None and head <= time:
            return False
        if self._until_ns is not None and time > self._until_ns:
            return False
        self.clock.advance_to(time)
        self.dispatched += 1
        return True

    def run_for(self, duration_ns):
        """Run for ``duration_ns`` of virtual time from now."""
        self.run(until_ns=self.clock.now + duration_ns)
