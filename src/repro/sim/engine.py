"""The discrete-event engine and virtual clock.

The engine is a classic priority-queue event loop.  Time is a float in
seconds.  Events scheduled for the same instant fire in scheduling order
(FIFO), which keeps every simulation in this repository deterministic.
"""

import contextlib
import heapq
import itertools
import math


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Engine.schedule` and can be cancelled.
    Cancellation is O(1): the event is flagged and skipped when popped.

    Heaps hold ``(time, seq, event)`` tuples: ``seq`` is unique, so
    ordering is a C-level tuple comparison that never reaches the event.

    Events that land on an instant already present in the queue are
    chained onto the existing heap entry (``members``) instead of being
    pushed separately — the dominant same-delay workloads (per-peer
    keepalive ticks, per-update CPU charges, RPC timeout timers armed in
    one batch) then cost an O(1) list append instead of a heap push, and
    one heap pop fires the whole slot.  FIFO order at an instant is
    preserved exactly: members are appended (and fired) in sequence
    order, and once a slot starts firing it is retired, so late arrivals
    for the same instant open a fresh, later slot.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "members",
                 "ctx", "scope", "fired")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.members = None  # later events chained onto this heap slot
        self.ctx = None  # ambient trace span captured at schedule time
        self.scope = None  # ambient event scope captured at schedule time
        self.fired = False

    def cancel(self):
        """Prevent the event from firing.  Safe to call multiple times."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {state} {self.callback!r}>"


class Engine:
    """Discrete-event loop with a virtual clock.

    Usage::

        engine = Engine()
        engine.schedule(1.5, handler, arg1, arg2)
        engine.run(until=10.0)
        assert engine.now <= 10.0
    """

    def __init__(self):
        self._queue = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._slots = {}  # time -> open (not yet firing) heap Event
        self._trace_hook = None  # a repro.trace.Tracer when tracing is on
        self._named_counters = {}  # name -> itertools.count (see next_id)
        self._ambient_scope = None  # event scope applied to new schedules
        self._scope_heaps = {}  # scope -> heap of tagged (time, seq, Event)

    def next_id(self, name, start=0):
        """Next value of the named monotonic counter scoped to *this* engine.

        Protocol layers (TCP ISNs, BFD discriminators, ephemeral ports)
        need unique-per-simulation identifiers.  Module-level counters
        would leak allocation state between simulations co-hosted in one
        OS process, making a shard's identifiers depend on which other
        shards share its worker — engine-scoped counters keep every
        simulation bit-identical regardless of process placement.
        """
        counter = self._named_counters.get(name)
        if counter is None:
            counter = self._named_counters[name] = itertools.count(start)
        return next(counter)

    def set_trace_hook(self, hook):
        """Install a trace hook (``hook.current`` is the ambient span).

        With a hook installed, :meth:`schedule` captures the ambient span
        onto each event and the run loop restores it around the callback,
        so trace causality follows every scheduling hop.  ``None``
        uninstalls.
        """
        self._trace_hook = hook

    @property
    def now(self):
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite (delay={delay})")
        time = self._now + delay
        seq = next(self._counter)
        event = Event(time, seq, callback, args)
        hook = self._trace_hook
        if hook is not None and hook.current is not None:
            event.ctx = hook.current
        scope = self._ambient_scope
        if scope is not None:
            event.scope = scope
            heap = self._scope_heaps.get(scope)
            if heap is None:
                heap = self._scope_heaps[scope] = []
            heapq.heappush(heap, (time, seq, event))
        head = self._slots.get(time)
        if head is not None:
            # Same instant already queued: chain onto its slot (O(1)).
            if head.members is None:
                head.members = [event]
            else:
                head.members.append(event)
        else:
            self._slots[time] = event
            heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, when, callback, *args):
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        return self.schedule(when - self._now, callback, *args)

    def call_soon(self, callback, *args):
        """Schedule ``callback(*args)`` at the current instant (after the
        currently-firing event and anything already queued for now)."""
        return self.schedule(0.0, callback, *args)

    @contextlib.contextmanager
    def scoped(self, scope):
        """Tag every event scheduled inside the ``with`` block with ``scope``.

        Scopes propagate transitively: when a scoped event fires, the
        scope becomes ambient again, so events its callback schedules are
        tagged too.  The closure of a scope is therefore everything
        causally downstream of the schedules made under it (plus any
        later explicit ``scoped`` blocks).  Used by the parallel runtime
        to track the *outbound-capable* subset of a shard's events — see
        :meth:`next_event_time` and ``repro.sim.parallel``.
        """
        previous = self._ambient_scope
        self._ambient_scope = scope
        try:
            yield
        finally:
            self._ambient_scope = previous

    def next_event_time(self, scope=None):
        """Earliest pending event time, or ``None`` when nothing is queued.

        With ``scope=None`` this peeks the global queue (skipping events
        that are cancelled and carry no live slot members, exactly like
        the run loop's lazy pop).  With a scope token it answers for the
        events tagged by :meth:`scoped` only — the earliest instant at
        which anything inside that scope can happen.  Both forms are
        O(amortized 1): stale heap heads are discarded as they are seen.
        """
        if scope is not None:
            heap = self._scope_heaps.get(scope)
            while heap:
                head = heap[0][2]
                if head.fired or head.cancelled:
                    heapq.heappop(heap)
                    continue
                return head.time
            return None
        queue = self._queue
        slots = self._slots
        while queue:
            head = queue[0][2]
            if head.cancelled and head.members is None:
                heapq.heappop(queue)
                if slots.get(head.time) is head:
                    del slots[head.time]
                continue
            return head.time
        return None

    def stop(self):
        """Stop a running :meth:`run` loop after the current event."""
        self._stopped = True

    def pending(self):
        """Number of non-cancelled events still queued."""
        total = 0
        for _time, _seq, event in self._queue:
            if not event.cancelled:
                total += 1
            if event.members:
                total += sum(1 for m in event.members if not m.cancelled)
        return total

    def run(self, until=None, max_events=None):
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` events have fired.

        Returns the number of events executed.  The clock is advanced to
        ``until`` when it is provided and the queue drains early, so that
        time-based assertions hold regardless of event density.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        entry_scope = self._ambient_scope
        executed = 0
        queue = self._queue
        slots = self._slots
        heappop = heapq.heappop
        try:
            while queue:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                event = queue[0][2]
                if event.cancelled and event.members is None:
                    heappop(queue)
                    if slots.get(event.time) is event:
                        del slots[event.time]
                    continue
                if until is not None and event.time > until:
                    break
                heappop(queue)
                # Retire the slot before firing: same-instant events
                # scheduled by the callbacks below open a fresh slot that
                # pops after the remaining members (their seq is higher).
                if slots.get(event.time) is event:
                    del slots[event.time]
                self._now = event.time
                # Fire the head, then its chained members in FIFO order.
                members = event.members
                index = 0
                while True:
                    if not event.cancelled:
                        event.fired = True
                        self._ambient_scope = event.scope
                        hook = self._trace_hook
                        if hook is not None and event.ctx is not None:
                            hook.current = event.ctx
                            event.callback(*event.args)
                            hook.current = None
                        else:
                            event.callback(*event.args)
                        executed += 1
                    if not members or index >= len(members):
                        break
                    if self._stopped or (
                        max_events is not None and executed >= max_events
                    ):
                        self._requeue_members(members, index)
                        break
                    event = members[index]
                    index += 1
        finally:
            self._running = False
            # fired events made their scope ambient; don't leak the last
            # one into schedules made after the loop (e.g. at barriers)
            self._ambient_scope = entry_scope
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return executed

    def _requeue_members(self, members, start):
        """Push unfired slot members back when a run() is interrupted."""
        rest = members[start:]
        head = rest[0]
        head.members = rest[1:] if len(rest) > 1 else None
        heapq.heappush(self._queue, (head.time, head.seq, head))
        if head.time not in self._slots:
            self._slots[head.time] = head

    def inject(self, when, callback, *args):
        """Schedule ``callback(*args)`` from *outside* the simulation at
        absolute virtual time ``when``.

        The entry point the parallel runtime uses to merge cross-shard
        frames between conservative windows: injections happen at window
        barriers, in the deterministic merge order ``(time, shard, seq)``,
        and their engine sequence numbers are assigned in injection order
        — so the interleaving with locally scheduled events is a pure
        function of the merge, not of worker placement.  ``when`` must
        not lie in the past (the lookahead bound guarantees this for
        conservative synchronization).
        """
        if when < self._now:
            raise SimulationError(
                f"inject into the past (when={when} < now={self._now})"
            )
        return self.schedule(when - self._now, callback, *args)

    def run_window(self, until):
        """Run one conservative window: fire every event with
        ``time <= until`` and land the clock exactly on ``until``.

        Identical to ``run(until=until)`` except that a backwards window
        is rejected rather than silently ignored — the parallel runtime
        calls this repeatedly with monotonically increasing barriers and
        relies on every shard's clock sitting exactly on the barrier
        when the window returns.  Returns the number of events executed.
        """
        if until < self._now:
            raise SimulationError(
                f"window ends in the past (until={until} < now={self._now})"
            )
        return self.run(until=until)

    def run_until_idle(self, max_events=10_000_000):
        """Run until no events remain.  Guards against runaway loops."""
        executed = self.run(max_events=max_events)
        if executed >= max_events:
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )
        return executed

    def advance(self, duration):
        """Run for ``duration`` seconds of virtual time."""
        return self.run(until=self._now + duration)

    def run_stepped(self, until, on_step, quantum=0.05):
        """Run to ``until`` in ``quantum``-sized slices, calling
        ``on_step(now)`` after each slice.

        The continuous-checking driver for invariant oracles: the oracle
        callback observes the system at a bounded virtual-time granularity
        without wiring itself into every event.  ``on_step`` may call
        :meth:`stop` to abort the run early (e.g. on the first violation).
        Returns the number of events executed.
        """
        if quantum <= 0:
            raise SimulationError(f"quantum must be positive (quantum={quantum})")
        executed = 0
        while self._now < until:
            slice_end = min(self._now + quantum, until)
            executed += self.run(until=slice_end)
            on_step(self._now)
            if self._stopped:
                break
        return executed

    def __repr__(self):
        return f"<Engine t={self._now:.6f} pending={self.pending()}>"
