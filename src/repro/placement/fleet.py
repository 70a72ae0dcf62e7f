"""Fleet state: the server-pool bookkeeping of the placement core.

Before this core existed, the offline simulator
(:func:`repro.scheduling.dynamic.simulate_sessions`) and the online
broker (:class:`repro.serving.RequestBroker`) each carried their own
copy of the same bookkeeping — a dict of server compositions, a
departure heap, peak tracking — proven equivalent only by parity tests.
Now the broker is the only driver (the offline simulator replays
through it) and :class:`FleetState` is the single implementation:
servers are stable integer ids hosting lists of live sessions, members are kept in
departure order (earliest-ending first), and every admitted session gets
a monotonically increasing *member id* so crash evictions can be
re-ordered deterministically regardless of any container iteration
order.

Mutation goes through three verbs — :meth:`place` (admit a session, on
an existing server or a fresh one), :meth:`pop_departures` (retire
sessions whose time has come), and :meth:`crash` (evict a whole server)
— which is what lets :class:`repro.placement.DecisionEngine` be the only
place placement decisions turn into fleet changes.

A fourth verb, :meth:`update_resolution`, supports the resolution
actuator: it swaps one member's session for a same-game, same-departure
copy at a different resolution, adjusting the server signature in place
— the restore loop's promotion primitive (and, symmetrically, how an
in-place downscale would land).

The fleet also keeps a *signature index* under the same four verbs:
each distinct signature on the pool is interned to an int id, and
servers are bucketed by ``(size, sig id)``.  :meth:`signatures` hands it
out with the pool-order list (:class:`PoolSignatures`), so a policy can
scan the few distinct signatures of a pool instead of every server.

An optional *observer* (duck-typed: ``fleet_placed`` /
``fleet_departed`` / ``fleet_evicted``, plus the optional
``fleet_resolution_changed``) is notified synchronously after each
mutation with the stable member ids involved — the hook the QoS ledger
(:class:`repro.obs.qos.QoSLedger`) uses to mirror group composition
without the fleet knowing anything about QoS.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, replace

from repro.games.resolution import Resolution
from repro.placement.signature import (
    Signature,
    SignatureGroup,
    entry_of,
    group_plain,
    signature_add,
)

__all__ = [
    "Session",
    "FleetState",
    "PoolSignatures",
    "degraded_to",
    "promoted_to",
]

#: Signature ids come from one process-wide counter: an id names one
#: signature of one fleet and is never reused, so policies may memoize
#: per-id work across decisions and fleets without collisions.
_SIG_IDS = itertools.count()

#: Ids of signatures that left the pool a fleet keeps before sweeping.
_INTERN_SLACK = 1024


@dataclass(frozen=True)
class Session:
    """One play session: a game at a resolution over [arrival, arrival+duration).

    ``resolution`` is the resolution the session is currently served at;
    ``requested`` remembers the player's original request when the
    downscale actuator placed (or re-placed) the session below it.  A
    session with ``requested`` unset was never degraded.  Because the
    whole :class:`Session` object travels through crash eviction,
    readmission, shard migration, and failover, degraded state survives
    all of them without any side-channel bookkeeping.
    """

    game: str
    resolution: Resolution
    arrival: float
    duration: float
    requested: Resolution | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if (
            self.requested is not None
            and self.requested.pixels < self.resolution.pixels
        ):
            raise ValueError(
                "requested resolution must not be below the served one"
            )

    @property
    def departure(self) -> float:
        """The instant the session ends."""
        return self.arrival + self.duration

    @property
    def degraded(self) -> bool:
        """Whether the session is currently served below its request."""
        return self.requested is not None and self.resolution != self.requested


def degraded_to(session: Session, resolution: Resolution) -> Session:
    """Copy of ``session`` served at a lower ``resolution``.

    The original request is remembered (first degradation pins it;
    further degradations keep the original, not the intermediate rung).
    """
    requested = session.requested if session.requested is not None else session.resolution
    return replace(session, resolution=resolution, requested=requested)


def promoted_to(session: Session, resolution: Resolution) -> Session:
    """Copy of ``session`` promoted towards its request.

    ``requested`` is kept even on a full restore — `degraded` turns
    False by equality, and the QoS ledger still knows the session spent
    time below its request.
    """
    return replace(session, resolution=resolution)


class PoolSignatures(list):
    """The open servers' signatures in pool order, plus their distinct groups.

    A plain ``list`` to every caller that indexes or compares it; policies
    also call :meth:`groups`, which answers from the fleet's signature
    index as long as the fleet has not changed since the list was taken.
    """

    __slots__ = ("_fleet", "_version")

    def __init__(self, fleet: "FleetState") -> None:
        super().__init__(fleet._signatures.values())
        self._fleet = fleet
        self._version = fleet._version

    def groups(self, max_size: int | None = None) -> list[SignatureGroup]:
        """Distinct signatures with fewer than ``max_size`` entries.

        ``(first index, sig id, signature)`` in first-index order; see
        :func:`repro.placement.signature.signature_groups`.
        """
        fleet = self._fleet
        if fleet._version != self._version:
            # The fleet moved on: group this snapshot directly.
            return group_plain(self, max_size)
        return fleet._groups(max_size)


class FleetState:
    """Servers, member signatures, and arrival/departure bookkeeping.

    The pool grows on demand (:meth:`place` with ``choice=None``) and
    shrinks when servers empty; ``peak`` records the largest
    simultaneous pool observed after any placement.  Iteration order of
    the open servers is insertion order (stable ids ascending within one
    run), and the index a policy returns is interpreted against exactly
    the :meth:`signatures` list of the same instant.
    """

    def __init__(self, observer=None) -> None:
        # Duck-typed mutation observer (fleet_placed / fleet_departed /
        # fleet_evicted), or None for zero-overhead operation.
        self.observer = observer
        # server id -> members as (member_id, session), departure-ordered.
        self._servers: dict[int, list[tuple[int, Session]]] = {}
        # server id -> canonical signature, maintained incrementally in
        # lockstep with _servers (same insertion order, same deletions)
        # so signatures() is a values() copy instead of a per-server
        # re-sort on every decision.
        self._signatures: dict[int, Signature] = {}
        # Open-server ids in pool order, mirrored from _servers so
        # place() resolves a policy's index without materializing the
        # key list per decision.
        self._ids: list[int] = []
        # The signature index: each distinct signature on the pool is
        # interned to an id (kept after its last server leaves, until a
        # sweep), and _buckets[size][sig id] lists the ids of the servers
        # carrying it, ascending.
        # _version counts mutations so a PoolSignatures snapshot knows
        # whether the index still describes it.
        self._sig_ids: dict[Signature, int] = {}
        self._sig_of: dict[int, Signature] = {}
        self._server_sig: dict[int, int] = {}
        self._buckets: list[dict[int, list[int]]] = []
        self._version = 0
        self._departures: list[tuple[float, int, int]] = []  # (time, seq, server)
        self._next_server_id = 0
        self._next_member_id = 0
        self._seq = 0
        self._n_live = 0
        self._n_degraded = 0
        self.peak = 0

    # -- read side ------------------------------------------------------

    @property
    def n_open(self) -> int:
        """Number of currently open (non-empty) servers."""
        return len(self._servers)

    @property
    def n_live(self) -> int:
        """Live (placed, not yet departed or evicted) sessions fleet-wide.

        Maintained incrementally so occupancy checks — the sharded
        tier's rebalancer compares this across shards on every cycle —
        stay O(1) regardless of pool size.
        """
        return self._n_live

    @property
    def n_degraded(self) -> int:
        """Live sessions currently served below their requested resolution.

        Maintained incrementally so the restore loop's fast path — "is
        there anything to promote at all?" — is O(1) per barrier.
        """
        return self._n_degraded

    def degraded_members(self) -> list[tuple[int, int, Session]]:
        """Degraded live sessions as ``(server_id, member_id, session)``.

        Ordered by member id (admission order) so restore trajectories
        are deterministic: the longest-degraded session gets first claim
        on freed capacity, and no container iteration order leaks in.
        """
        out = [
            (server_id, member_id, session)
            for server_id, members in self._servers.items()
            for member_id, session in members
            if session.degraded
        ]
        out.sort(key=lambda m: m[1])
        return out

    def server_signature(self, server_id: int) -> Signature:
        """Canonical signature of one open server."""
        return self._signatures[server_id]

    def loads(self) -> dict[int, int]:
        """Member count per open server, in pool (decision-index) order."""
        return {sid: len(members) for sid, members in self._servers.items()}

    @property
    def servers_opened(self) -> int:
        """Total servers ever opened (stable ids are never reused)."""
        return self._next_server_id

    def server_ids(self) -> list[int]:
        """Stable ids of the open servers, in pool (decision-index) order."""
        return list(self._ids)

    def signatures(self) -> PoolSignatures:
        """Canonical signatures of the open servers, in pool order.

        This is the list placement policies decide against; the index a
        policy returns is a position in this list.  Signatures are
        maintained under mutation (each verb touches only the affected
        server), so this is a pool-order copy, not a recomputation.  The
        copy also carries the signature index: its
        :meth:`PoolSignatures.groups` lists the distinct signatures
        without visiting the servers.
        """
        return PoolSignatures(self)

    def signature_buckets(self) -> dict[tuple[int, int], tuple[Signature, list[int]]]:
        """The signature index: ``(size, sig id) -> (signature, server ids)``.

        Server ids are ascending.  Exposed so tests can check the
        incremental index against one recomputed from :meth:`signatures`.
        """
        return {
            (size, sig_id): (self._sig_of[sig_id], list(servers))
            for size, by_id in enumerate(self._buckets)
            for sig_id, servers in by_id.items()
        }

    def _groups(self, max_size: int | None) -> list[SignatureGroup]:
        buckets = self._buckets
        stop = len(buckets) if max_size is None else min(max_size, len(buckets))
        # A group's first server is its lowest id; ids ascend in pool
        # order, so sorting by it is sorting by first index.
        heads = sorted(
            (servers[0], sig_id)
            for size in range(stop)
            for sig_id, servers in buckets[size].items()
        )
        ids, sig_of = self._ids, self._sig_of
        return [
            (bisect_left(ids, head), sig_id, sig_of[sig_id])
            for head, sig_id in heads
        ]

    def members(self, server_id: int) -> list[Session]:
        """Live sessions hosted on ``server_id``, departure-ordered."""
        return [s for _, s in self._servers[server_id]]

    # -- mutation -------------------------------------------------------

    def _file(self, server_id: int, sig: Signature) -> None:
        """Set ``server_id``'s signature and file it in the index."""
        sig_id = self._sig_ids.get(sig)
        if sig_id is None:
            if len(self._sig_of) > 2 * len(self._server_sig) + _INTERN_SLACK:
                self._sweep_interned()
            sig_id = self._sig_ids[sig] = next(_SIG_IDS)
            self._sig_of[sig_id] = sig
        # Equal signatures share the interned tuple.
        self._signatures[server_id] = self._sig_of[sig_id]
        self._server_sig[server_id] = sig_id
        size = len(sig)
        while len(self._buckets) <= size:
            self._buckets.append({})
        by_id = self._buckets[size]
        servers = by_id.get(sig_id)
        if servers is None:
            by_id[sig_id] = [server_id]
        else:
            insort(servers, server_id)

    def _unfile(self, server_id: int) -> None:
        """Take ``server_id`` out of the index (its signature keeps its id)."""
        sig_id = self._server_sig.pop(server_id)
        by_id = self._buckets[len(self._sig_of[sig_id])]
        servers = by_id[sig_id]
        if len(servers) == 1:
            del by_id[sig_id]
        else:
            del servers[bisect_left(servers, server_id)]

    def _sweep_interned(self) -> None:
        """Forget the ids of signatures no open server carries.

        Ids outlive their last server so a signature that comes back
        keeps its id (and the policies' memo of it); this sweep bounds
        the table by the open pool instead of by every signature seen.
        """
        live = {sig_id for by_id in self._buckets for sig_id in by_id}
        for sig_id in [i for i in self._sig_of if i not in live]:
            del self._sig_ids[self._sig_of.pop(sig_id)]

    def place(self, choice: int | None, session: Session) -> int:
        """Apply a placement decision; returns the hosting server's id.

        ``choice`` is a policy's index into the current :meth:`signatures`
        list, or ``None`` to open a fresh server.  The session's
        departure is scheduled and the member list re-sorted so the
        earliest-ending session leaves first.
        """
        member = (self._next_member_id, session)
        self._next_member_id += 1
        if choice is None:
            server_id = self._next_server_id
            self._next_server_id += 1
            self._servers[server_id] = [member]
            self._file(server_id, (entry_of(session),))
            self._ids.append(server_id)
        else:
            server_id = self._ids[choice]
            hosted = self._servers[server_id]
            hosted.append(member)
            # Keep departure order: earliest-ending session leaves first.
            hosted.sort(key=lambda m: m[1].departure)
            sig = self._signatures[server_id]
            self._unfile(server_id)
            self._file(server_id, signature_add(sig, entry_of(session)))
        self._version += 1
        heapq.heappush(self._departures, (session.departure, self._seq, server_id))
        self._seq += 1
        self._n_live += 1
        if session.degraded:
            self._n_degraded += 1
        self.peak = max(self.peak, len(self._servers))
        if self.observer is not None:
            self.observer.fleet_placed(server_id, member[0], session)
        return server_id

    def pop_departures(self, until: float) -> int:
        """Retire every session departing at or before ``until``.

        Servers that empty leave the pool.  Departure entries whose
        server already vanished (crashed) are skipped silently: a
        crashed server's sessions were re-admitted under new entries.
        Returns the number of sessions actually retired.
        """
        removed = 0
        while self._departures and self._departures[0][0] <= until:
            t, _, server_id = heapq.heappop(self._departures)
            members = self._servers.get(server_id)
            if members is None:
                continue
            member_id, session = members.pop(0)
            sig = self._signatures[server_id]
            self._unfile(server_id)
            self._version += 1
            if not members:
                del self._servers[server_id]
                del self._signatures[server_id]
                self._ids.remove(server_id)
            else:
                # Drop one occurrence of the departing entry; removal
                # from a sorted tuple keeps it canonical.
                i = sig.index(entry_of(session))
                self._file(server_id, sig[:i] + sig[i + 1 :])
            removed += 1
            if session.degraded:
                self._n_degraded -= 1
            if self.observer is not None:
                self.observer.fleet_departed(server_id, member_id, session, t)
        self._n_live -= removed
        return removed

    def update_resolution(
        self, server_id: int, member_id: int, session: Session
    ) -> None:
        """Swap member ``member_id``'s session for a resolution-changed copy.

        The replacement must be the same session at a different
        resolution (same game, same interval) — this verb changes *how*
        a session is served, never *what* is served or *when* it leaves,
        so departure bookkeeping and member ids stay untouched.  The
        server's signature is re-canonicalized for the one changed
        entry.
        """
        members = self._servers[server_id]
        for pos, (mid, old) in enumerate(members):
            if mid == member_id:
                break
        else:
            raise KeyError(f"member {member_id} not on server {server_id}")
        if (
            session.game != old.game
            or session.arrival != old.arrival
            or session.duration != old.duration
        ):
            raise ValueError(
                "update_resolution may only change the resolution of a session"
            )
        members[pos] = (member_id, session)
        sig = self._signatures[server_id]
        i = sig.index(entry_of(old))
        self._unfile(server_id)
        self._file(server_id, signature_add(sig[:i] + sig[i + 1 :], entry_of(session)))
        self._version += 1
        self._n_degraded += int(session.degraded) - int(old.degraded)
        hook = getattr(self.observer, "fleet_resolution_changed", None)
        if callable(hook):
            hook(server_id, member_id, old, session)

    def crash(self, server_id: int) -> list[Session]:
        """Evict ``server_id`` wholesale, returning its live sessions.

        The evicted sessions are ordered by *member id* (admission
        order), making crash → evict → readmission trajectories a pure
        function of the crash RNG: no dict or member-list iteration
        order can leak into who re-enters admission first.  Stale
        departure entries for the crashed server remain in the heap and
        are skipped by :meth:`pop_departures`.
        """
        members = self._servers.pop(server_id)
        self._unfile(server_id)
        self._version += 1
        del self._signatures[server_id]
        self._ids.remove(server_id)
        self._n_live -= len(members)
        self._n_degraded -= sum(1 for _, s in members if s.degraded)
        ordered = sorted(members, key=lambda m: m[0])
        if self.observer is not None:
            self.observer.fleet_evicted(server_id, ordered)
        return [s for _, s in ordered]
