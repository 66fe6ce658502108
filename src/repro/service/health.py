"""Fleet health: ping probes driving ring membership, and a warm standby.

Two small actors make the router tier self-healing:

``HealthMonitor``
    Probes every backend of a :class:`~repro.service.router.RouterServer`
    with the protocol's ``ping`` op under a deadline, and drives each
    backend's :class:`~repro.service.router.HashRing` state machine::

        up ──1 failure──▶ suspect ──fail_threshold──▶ down
        ▲                    │                          │
        └────1 success───────┘      recover_threshold successes
        ▲                                               │
        └───────────────────────────────────────────────┘

    A ``suspect`` backend still takes traffic (one failed probe may be a
    blip); only ``down`` backends are routed around, *before* any client
    pays a dial timeout.  A ``draining`` ping answer counts as unhealthy
    on purpose: a server winding down should stop receiving new tenants
    even though it still answers.  Every transition goes through
    ``router.set_backend_state`` — which rebalances (migrating spaces
    off/onto the affected arcs) and bumps the per-transition
    ``transitions[old->new]`` counters — and is echoed to the optional
    ``on_membership`` hook.

``StandbyMirror``
    The warm-standby half of the availability story: a second router
    mirrors the primary's membership (addresses *and* ring states) via
    the ``membership`` admin op, never issuing migrations of its own —
    the primary already did, and a mirror pushing them again would
    double-migrate.  After ``takeover_failures`` consecutive failed
    polls it *promotes*: bumps ``standby_takeovers``, fires
    ``on_takeover`` and (optionally) starts its own health monitor so
    the fleet keeps self-healing under the new primary.

Both actors are deterministic under test: probing and polling are
exposed as ``check_once`` / ``poll_once`` with injectable probe
functions, and the background threads sleep on seeded jittered delays
through an interruptible :class:`threading.Event` wait.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import protocol
from .protocol import ProtocolError
from .router import RouterServer, fetch_router_membership

__all__ = ["HealthMonitor", "StandbyMirror"]

#: Callback fired on every membership transition:
#: ``on_membership(address, old_state, new_state)``.
MembershipHook = Callable[[str, str, str], None]


def default_probe(address: str, timeout: float) -> bool:
    """One ``ping`` probe: healthy iff the backend answers ``ok`` with
    state ``"serving"`` inside the deadline."""
    try:
        reply = protocol.round_trip(address, {"op": "ping"}, timeout)
    except (OSError, ProtocolError):
        return False
    return bool(reply.get("ok")) and reply.get("state") == "serving"


class HealthMonitor:
    """Drives ring membership from periodic backend health probes.

    Parameters
    ----------
    router:
        The :class:`RouterServer` whose ring this monitor owns.
    interval:
        Base seconds between probe rounds; each round's delay is
        jittered by ``(1 + jitter * u)`` with ``u`` from a private RNG
        seeded by ``seed``, so a fleet of monitors never thunders in
        lockstep yet tests stay deterministic.
    probe_timeout:
        Deadline per ``ping`` probe.
    fail_threshold:
        Consecutive failures that take a backend ``suspect → down``.
        The first failure always takes ``up → suspect``.
    recover_threshold:
        Consecutive successes that re-admit a ``down`` backend.
    probe:
        Injectable probe function ``(address, timeout) -> bool`` — tests
        substitute a scripted one; production uses :func:`default_probe`.
    on_membership:
        Optional hook fired after every state transition.
    """

    def __init__(
        self,
        router: RouterServer,
        *,
        interval: float = 1.0,
        probe_timeout: float = 1.0,
        fail_threshold: int = 3,
        recover_threshold: int = 1,
        seed: int = 0,
        jitter: float = 0.1,
        probe: Callable[[str, float], bool] = default_probe,
        on_membership: Optional[MembershipHook] = None,
    ) -> None:
        if interval <= 0 or probe_timeout <= 0:
            raise ValueError("interval and probe_timeout must be positive")
        if fail_threshold < 1 or recover_threshold < 1:
            raise ValueError("fail/recover thresholds must be >= 1")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.router = router
        self.interval = interval
        self.probe_timeout = probe_timeout
        self.fail_threshold = fail_threshold
        self.recover_threshold = recover_threshold
        self.jitter = jitter
        self.probe = probe
        self.on_membership = on_membership
        self._rng = np.random.default_rng(seed)
        self._failures: Dict[str, int] = {}
        self._successes: Dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- one deterministic round ----------------------------------------

    def check_once(self) -> List[Tuple[str, str, str]]:
        """Probe every ring member once; returns the transitions made as
        ``(address, old_state, new_state)`` tuples."""
        transitions: List[Tuple[str, str, str]] = []
        states = self.router.ring.states()
        for address, state in states.items():
            healthy = self.probe(address, self.probe_timeout)
            new_state = self._advance(address, state, healthy)
            if new_state != state:
                self.router.set_backend_state(address, new_state)
                transitions.append((address, state, new_state))
                if self.on_membership is not None:
                    # repro: allow[callback-hook] fleet membership hook, not a SearchCallback hook
                    self.on_membership(address, state, new_state)
        return transitions

    def _advance(self, address: str, state: str, healthy: bool) -> str:
        """The membership state machine for one probe result."""
        if healthy:
            self._failures[address] = 0
            if state == "down":
                streak = self._successes.get(address, 0) + 1
                self._successes[address] = streak
                if streak >= self.recover_threshold:
                    self._successes[address] = 0
                    return "up"
                return "down"
            self._successes[address] = 0
            return "up"
        self._successes[address] = 0
        streak = self._failures.get(address, 0) + 1
        self._failures[address] = streak
        if state == "down":
            return "down"
        if streak >= self.fail_threshold:
            return "down"
        return "suspect"

    # -- background operation -------------------------------------------

    def start(self) -> "HealthMonitor":
        """Probe on a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("health monitor already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.check_once()
            except (OSError, ValueError):
                # A backend leaving mid-round is not the monitor's
                # problem; the next round sees the updated ring.
                pass
            delay = self.interval * (1.0 + self.jitter * float(self._rng.random()))
            self._stop.wait(delay)

    def close(self) -> None:
        """Stop probing.  Idempotent."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def __enter__(self) -> "HealthMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StandbyMirror:
    """Mirrors a primary router's membership and takes over on its death.

    Parameters
    ----------
    router:
        The *standby* :class:`RouterServer` (already serving on its own
        address — clients land on it via whatever VIP/DNS flip fronts
        the pair; the mirror only keeps its ring current).
    primary:
        ``"host:port"`` of the primary router's admin plane.
    interval:
        Base seconds between membership polls (jittered like the
        health monitor's, from the same kind of seeded private RNG).
    takeover_failures:
        Consecutive failed polls before the standby promotes itself.
    poll_timeout:
        Deadline per ``membership`` poll.
    on_takeover:
        Optional hook fired exactly once at promotion.
    """

    def __init__(
        self,
        router: RouterServer,
        primary: str,
        *,
        interval: float = 1.0,
        takeover_failures: int = 3,
        poll_timeout: float = 2.0,
        seed: int = 0,
        jitter: float = 0.1,
        fetch: Callable[..., Dict[str, Any]] = fetch_router_membership,
        on_takeover: Optional[Callable[["StandbyMirror"], None]] = None,
    ) -> None:
        if interval <= 0 or poll_timeout <= 0:
            raise ValueError("interval and poll_timeout must be positive")
        if takeover_failures < 1:
            raise ValueError("takeover_failures must be >= 1")
        self.router = router
        self.primary = primary
        self.interval = interval
        self.takeover_failures = takeover_failures
        self.poll_timeout = poll_timeout
        self.jitter = jitter
        self.fetch = fetch
        self.on_takeover = on_takeover
        self.promoted = False
        self._failures = 0
        self._rng = np.random.default_rng(seed)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def poll_once(self) -> bool:
        """One membership poll; True when the primary answered.  After
        ``takeover_failures`` consecutive misses the standby promotes."""
        if self.promoted:
            return False
        try:
            membership = self.fetch(self.primary, timeout=self.poll_timeout)
        except (OSError, ProtocolError):
            self._failures += 1
            if self._failures >= self.takeover_failures:
                self.promote()
            return False
        self._failures = 0
        try:
            self.router.apply_membership(
                membership.get("backends") or [], membership.get("states") or {}
            )
        except ValueError:
            # An empty/garbled answer must never wipe the mirror's ring.
            pass
        return True

    def promote(self) -> None:
        """Become the primary: stop mirroring, count the takeover, fire
        the hook.  Idempotent — at most one promotion per mirror."""
        if self.promoted:
            return
        self.promoted = True
        self.router._count("standby_takeovers", 1.0)
        if self.on_takeover is not None:
            # repro: allow[callback-hook] standby takeover hook, not a SearchCallback hook
            self.on_takeover(self)

    # -- background operation -------------------------------------------

    def start(self) -> "StandbyMirror":
        """Poll on a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("standby mirror already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set() and not self.promoted:
            self.poll_once()
            delay = self.interval * (1.0 + self.jitter * float(self._rng.random()))
            self._stop.wait(delay)

    def close(self) -> None:
        """Stop polling.  Idempotent; promotion state is kept."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def __enter__(self) -> "StandbyMirror":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
