"""Core of the discrete-event simulation kernel.

The design follows the classic event-list architecture: a binary heap of
``(time, priority, sequence, event)`` tuples.  Ties at equal time are broken
first by priority (lower runs first) and then by scheduling order, which
makes runs fully deterministic.

Processes are Python generators.  A process yields an :class:`Event`; when
that event triggers, the kernel resumes the generator, sending the event's
value in (or throwing the event's exception).  A :class:`Process` is itself
an event, so processes can wait on each other.

Hot-path notes
--------------
:meth:`Environment.run` is the kernel's one dispatch loop.  It drains
all entries sharing the head timestamp as a batch: the stop-time and
stop-event head checks and the clock assignment run once per tick, and
the inner loop needs one float comparison per entry.  Entries still
come off the one heap, so same-tick order is exactly the
``(priority, sequence)`` order single :meth:`Environment.step` calls
pop them in — ``tests/test_sim_kernel.py`` holds ``run`` to a
``step`` loop on random schedules.

The heap holds two entry shapes.  ``(time, priority, sequence, event)``
carries an :class:`Event`; ``(time, NORMAL, sequence, fn, args)`` is
the flat record :meth:`Environment.defer` pushes for fire-and-forget
work — one tuple, no event object, no callbacks list (every transport
delivery is one).  Mixing the two lengths in one heap is safe because
``sequence`` is unique per environment, so tuple comparison never
reaches index 3.

``heappush``/``heappop`` are imported as locals instead of attribute
lookups on the :mod:`heapq` module.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush, heappop
from typing import Any, Callable, Generator, Optional

from repro.errors import ProcessError, SchedulingError, SimulationError

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent bookkeeping events (run before NORMAL at a tick).
URGENT = 0

_PENDING = object()


class Event:
    """A one-shot event that may succeed with a value or fail with an error.

    Callbacks receive the event as their only argument once it triggers.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire (value decided)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SchedulingError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise SchedulingError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        # Flattened Event.__init__ + _schedule: every process wake-up
        # builds one of these, in one frame instead of three.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._scheduled = True
        self._defused = False
        self.delay = delay = float(delay)
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))
        env._eid += 1

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]


class _InterruptEvent(Event):
    """Internal immediate event used to deliver an interrupt."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        env._schedule(self, URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is an event that triggers when the generator finishes; its
    value is the generator's return value.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SchedulingError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SchedulingError("a process cannot interrupt itself")
        # Detach from the event currently waited on; the interrupt event
        # resumes the process instead (the stale event must not resume the
        # process a second time when it eventually fires).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        _InterruptEvent(self.env, self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not _PENDING:  # pragma: no cover - defensive
            return
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    event._defused = True
                    next_target = generator.throw(event._value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                break
            except BaseException as error:
                self._finish(False, error)
                break

            if isinstance(next_target, Event):
                if next_target.env is env:
                    if next_target.callbacks is None:
                        # Already processed: resume immediately with its value.
                        event = next_target
                        continue
                    next_target.callbacks.append(self._resume)
                    self._target = next_target
                    break
                self._finish(
                    False,
                    ProcessError(
                        f"process {self.name!r} yielded event from a foreign "
                        "environment"
                    ),
                )
                generator.close()
                break
            self._finish(
                False,
                ProcessError(
                    f"process {self.name!r} yielded non-event "
                    f"{next_target!r}"
                ),
            )
            generator.close()
            break
        env._active_process = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._target = None
        self._ok = ok
        self._value = value
        self.env._schedule(self, NORMAL)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Environment:
    """The simulation environment: virtual clock plus event loop.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (defaults to ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # 4-tuples carry Events; 5-tuples carry flat (fn, args) deferred
        # records.
        self._queue: list[tuple] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- properties -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def now_getter(self) -> Callable[[], float]:
        """A zero-argument callable returning the current time.

        ``partial(getattr, env, "_now")`` runs no Python frame, where
        ``lambda: env.now`` runs two (the lambda and the property): the
        cost ledger reads the clock on every warm-up hop.
        """
        return partial(getattr, self, "_now")

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def queue_size(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._queue)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def call_later(self, delay: float, function: Callable, *args) -> Timeout:
        """Schedule ``function(*args)`` after ``delay``; returns the event.

        The handle-returning form of :meth:`defer`, for callers that
        wait on the :class:`Timeout` or attach further callbacks to it.
        """
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _event: function(*args))
        return timeout

    def defer(self, delay: float, function: Callable, *args) -> None:
        """Schedule ``function(*args)`` to run after ``delay`` time units.

        Fire-and-forget: the call is flattened straight into the heap
        entry — no :class:`Timeout`, no callbacks list — in the same
        ``(time, NORMAL, sequence)`` slot a timeout would occupy, so
        ``defer`` and :meth:`call_later` interleave in scheduling order.
        """
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        heappush(
            self._queue,
            (self._now + delay, NORMAL, self._eid, function, args),
        )
        self._eid += 1

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0:
            raise SchedulingError(f"cannot schedule {event!r} in the past")
        event._scheduled = True
        heappush(self._queue, (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        entry = heappop(self._queue)
        self._now = entry[0]
        if len(entry) == 5:  # flat deferred record
            entry[3](*entry[4])
            return
        event = entry[3]
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"unhandled event failure: {value!r}")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the given time, event, or event-queue exhaustion.

        Parameters
        ----------
        until:
            ``None`` runs until no events remain.  A number runs until the
            clock reaches it.  An :class:`Event` runs until that event has
            been processed and returns its value.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SchedulingError(
                    f"until={stop_time} lies in the past (now={self._now})"
                )

        # All entries sharing the head timestamp are drained as one batch:
        # the stop-time check and the clock assignment run once per tick,
        # and the inner loop needs only a float equality per entry.
        queue = self._queue
        while queue:
            if stop_event is not None and stop_event.callbacks is None:
                return stop_event.value
            tick = queue[0][0]
            if tick > stop_time:
                self._now = stop_time
                return None
            self._now = tick
            while queue and queue[0][0] == tick:
                entry = heappop(queue)
                if len(entry) == 5:  # flat deferred record
                    entry[3](*entry[4])
                    continue
                event = entry[3]
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise SimulationError(
                        f"unhandled event failure: {value!r}"
                    )
                if stop_event is not None and stop_event.callbacks is None:
                    return stop_event.value

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise SimulationError(
                "event queue exhausted before the awaited event triggered"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def close(self) -> None:
        """Retire the environment: drop every pending event and close the
        generator of each process suspended on one.

        A suspended process and the event it waits on refer to each other
        (the event's callbacks hold the process's resume method), and the
        generator's frame holds whatever the process works on, so a run
        stopped at its horizon leaves reference cycles behind.  After
        ``close()`` none is left, and the objects the processes and the
        deferred calls held are freed by reference counting alone.  A
        process waiting on an event that was never scheduled is not
        reached.  Call it when nothing more is to run.
        """
        pending, self._queue = self._queue, []
        self._active_process = None
        for entry in pending:
            if len(entry) == 5:  # flat deferred record
                continue
            event = entry[3]
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks or ():
                process = getattr(callback, "__self__", None)
                if isinstance(process, Process):
                    process._target = None
                    process._generator.close()

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"
