"""Deterministic fault injection for storage, workers, and the wire.

The chaos layer is a process-global plan installed with :func:`use`
(or :func:`set_plan`), **off by default** — with no plan installed, every :func:`fire` call is a
single ``None`` check, so fault-simulation traces and benchmark
medians stay byte-identical to a build without the layer.

Sites name their injection points and call ``faults.fire(point)`` at
the moment the fault would strike::

    faults.fire("storage.manifest.staged")     # between fsync and rename

A :class:`FaultPlan` maps point names to :class:`FaultSpec` actions:

``raise``
    raise :class:`~repro.errors.InjectedFaultError` at the point;
``crash``
    ``os._exit(CRASH_EXIT_CODE)`` — a hard kill, exactly like a
    ``kill -9`` landing between two syscalls;
``delay``
    sleep ``delay_s`` seconds, then continue (drives timeout paths);
``tear``
    return the spec to the call site, which performs a torn/short
    write of ``fraction`` of the payload and then calls
    :meth:`FaultSpec.conclude` to raise or crash.

Plans are picklable, so :class:`~repro.monet.multiproc
.MultiprocExecutor` can ship one to its worker processes, and
deterministic: firing is governed by ``skip``/``times`` hit counters
plus an optional ``probability`` drawn from a per-spec
``random.Random(seed)`` stream — same plan, same sequence of hits,
same faults.

Injection points self-register via :func:`declare` at import time of
the instrumented module, so the chaos suite can enumerate
:func:`registered_points` and sweep every one of them.
"""

import contextlib
import random
import threading
import time

from .errors import InjectedFaultError

__all__ = [
    "CRASH_EXIT_CODE", "FaultPlan", "FaultSpec", "declare", "fire",
    "get_plan", "registered_points", "set_plan", "use",
]

#: Exit status used by the ``crash`` action — distinguishable from a
#: normal failure in fork-based tests.
CRASH_EXIT_CODE = 23

_REGISTRY = set()


def declare(*points):
    """Register injection point names (idempotent, import time)."""
    _REGISTRY.update(points)


def registered_points(prefix=""):
    """Sorted registered point names, optionally filtered by prefix."""
    return sorted(p for p in _REGISTRY if p.startswith(prefix))


class FaultSpec:
    """One fault bound to one injection point.

    Parameters
    ----------
    point:
        Injection-point name this spec arms.
    action:
        ``"raise"`` | ``"crash"`` | ``"delay"`` | ``"tear"``.
    times:
        Fire at most this many times, then disarm (``None`` = always).
    skip:
        Let this many hits pass before the first firing.
    delay_s:
        Sleep length for ``delay``.
    fraction:
        For ``tear``: fraction of the payload the site should write
        before concluding.
    then:
        For ``tear``: what :meth:`conclude` does afterwards —
        ``"raise"`` (default) or ``"crash"``.
    probability / seed:
        Fire each eligible hit with this probability, drawn from a
        dedicated ``random.Random(seed)`` stream (deterministic).
    """

    __slots__ = ("point", "action", "times", "skip", "delay_s",
                 "fraction", "then", "probability", "seed",
                 "_rng", "_hits", "_fired")

    def __init__(self, point, action="raise", times=1, skip=0,
                 delay_s=0.0, fraction=0.5, then="raise",
                 probability=1.0, seed=0):
        if action not in ("raise", "crash", "delay", "tear"):
            raise ValueError("unknown fault action: %r" % (action,))
        self.point = point
        self.action = action
        self.times = times
        self.skip = int(skip)
        self.delay_s = float(delay_s)
        self.fraction = float(fraction)
        self.then = then
        self.probability = float(probability)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._hits = 0
        self._fired = 0

    # pickle: ship the configuration, reset the counters/stream so a
    # worker process starts from the same deterministic state.
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__
                if not name.startswith("_")}

    def __setstate__(self, state):
        self.__init__(**state)

    def should_fire(self):
        """Advance the hit counter; True when this hit fires."""
        self._hits += 1
        if self._hits <= self.skip:
            return False
        if self.times is not None and self._fired >= self.times:
            return False
        if self.probability < 1.0 and \
                self._rng.random() >= self.probability:
            return False
        self._fired += 1
        return True

    @property
    def fired(self):
        return self._fired

    def conclude(self):
        """Finish a ``tear``: raise or crash per ``then``."""
        if self.then == "crash":
            _crash()
        raise InjectedFaultError(
            "injected torn write at %s" % self.point)

    def __repr__(self):
        return ("FaultSpec(%r, action=%r, times=%r, skip=%d, fired=%d)"
                % (self.point, self.action, self.times, self.skip,
                   self._fired))


class FaultPlan:
    """A set of armed :class:`FaultSpec` keyed by injection point."""

    def __init__(self, specs=()):
        self._specs = {}
        self._lock = threading.Lock()
        for spec in specs:
            self.add(spec)

    def add(self, spec):
        self._specs[spec.point] = spec
        return self

    def arm(self, point, **kwargs):
        """Shorthand: build and add a :class:`FaultSpec`."""
        return self.add(FaultSpec(point, **kwargs))

    def spec_for(self, point):
        """The armed spec if this hit fires, else ``None``."""
        spec = self._specs.get(point)
        if spec is None:
            return None
        with self._lock:
            return spec if spec.should_fire() else None

    def fired(self, point):
        """How many times ``point`` has fired under this plan."""
        spec = self._specs.get(point)
        return 0 if spec is None else spec.fired

    def points(self):
        return sorted(self._specs)

    # the lock is per-process state; workers re-create it on unpickle
    def __getstate__(self):
        return list(self._specs.values())

    def __setstate__(self, specs):
        self.__init__(specs)

    def __repr__(self):
        return "FaultPlan(%s)" % ", ".join(self.points())


#: The installed plan; ``None`` = chaos layer off (the default).
_current = None


def get_plan():
    """The active :class:`FaultPlan`, or ``None`` when disabled."""
    return _current


def set_plan(plan):
    """Install ``plan`` globally (``None`` disables the layer)."""
    global _current
    _current = plan


@contextlib.contextmanager
def use(plan):
    """Context manager installing ``plan`` for the duration."""
    global _current
    previous = _current
    _current = plan
    try:
        yield plan
    finally:
        _current = previous


def _crash():
    import os
    os._exit(CRASH_EXIT_CODE)


def fire(point):
    """Hit an injection point.

    With no plan installed this is one attribute read and a ``None``
    check — the entire overhead on the default path.  With a plan:
    executes ``raise``/``crash``/``delay`` actions here, and returns
    the :class:`FaultSpec` for site-handled actions (``tear``) or
    ``None`` when the point did not fire.
    """
    plan = _current
    if plan is None:
        return None
    spec = plan.spec_for(point)
    if spec is None:
        return None
    if spec.action == "raise":
        raise InjectedFaultError("injected fault at %s" % point)
    if spec.action == "crash":
        _crash()
    if spec.action == "delay":
        time.sleep(spec.delay_s)
        return None
    return spec                                  # "tear": site handles
