"""Canonical server signatures and colocation cache keys.

One module owns the canonicalization contract that the whole placement
stack relies on: a server's *signature* is the sorted tuple of its
hosted ``(game, resolution)`` entries, so two servers hosting the same
multiset of games compare equal regardless of arrival order, and a
colocation's *cache key* folds that signature (resolution expanded to
``(width, height)`` for plain-tuple hashing) together with the optional
QoS floor.  Interference predictions are pure functions of the
colocation multiset — the Eq. 5 aggregate is symmetric in the
co-runners — so any permutation of the same entries must map to the same
signature and the same cache line.

Everything placement-shaped builds on these helpers: the
:class:`~repro.placement.fleet.FleetState` bookkeeping, the admission
policies' candidate construction, and the
:class:`~repro.placement.cache.PredictionCache` key schema.

Every policy's candidate scan depends on a server only through its
signature, so policies scan *distinct* signatures:
:func:`signature_groups` lists each one once, at the pool index of its
first server.  A fleet's :meth:`~repro.placement.fleet.FleetState.signatures`
list answers from the fleet's incremental signature index; any other
list is grouped in one pass.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.games.resolution import Resolution

__all__ = [
    "Signature",
    "entry_of",
    "signature_of",
    "signature_add",
    "colocation_key",
    "SignatureGroup",
    "signature_groups",
    "group_plain",
]

#: A server signature: sorted tuple of (game, resolution) entries.
Signature = tuple[tuple[str, Resolution], ...]

#: One distinct signature of a pool: ``(first index, sig id, signature)``.
#: ``first index`` is the position of its first server in the pool list;
#: ``sig id`` is the fleet's interned int id, or ``None`` for a plain list.
SignatureGroup = tuple[int, int | None, Signature]


def entry_of(session) -> tuple[str, Resolution]:
    """The ``(game, resolution)`` entry a session contributes to a server.

    ``session`` is anything with ``game`` and ``resolution`` attributes
    (:class:`repro.placement.fleet.Session`,
    :class:`repro.scheduling.requests.GameRequest`, ...).
    """
    return (session.game, session.resolution)


def signature_of(sessions: Iterable) -> Signature:
    """Canonical signature of the sessions hosted on one server."""
    return tuple(sorted(entry_of(s) for s in sessions))


def signature_add(signature: Signature, entry: tuple[str, Resolution]) -> Signature:
    """The canonical signature after adding one ``(game, resolution)`` entry."""
    return tuple(sorted(signature + (entry,)))


def colocation_key(
    entries: Iterable[tuple[str, Resolution]], qos: float | None = None
) -> tuple:
    """Canonical, order-insensitive cache key for a colocation.

    ``entries`` is any iterable of ``(game, resolution)`` pairs (a
    signature, or :attr:`ColocationSpec.entries`); ``qos`` folds the CM
    floor into the key so verdicts at different floors never collide.
    Permutations of the same multiset map to the same key.
    """
    signature = tuple(
        sorted((name, res.width, res.height) for name, res in entries)
    )
    return (signature, None if qos is None else float(qos))


def signature_groups(
    signatures: list[Signature], max_size: int | None = None
) -> list[SignatureGroup]:
    """Distinct signatures with fewer than ``max_size`` entries, first-index order.

    A list returned by :meth:`repro.placement.fleet.FleetState.signatures`
    answers from the fleet's signature index without touching its
    servers; any other list is grouped here in one pass.  Either way a
    group's index is the position of its first server, so scanning the
    groups in order and keeping the earliest of equals picks the same
    server as scanning every position would.
    """
    indexed = getattr(signatures, "groups", None)
    if indexed is not None:
        return indexed(max_size)
    return group_plain(signatures, max_size)


def group_plain(
    signatures: list[Signature], max_size: int | None = None
) -> list[SignatureGroup]:
    """:func:`signature_groups` for a plain list: one pass, no sig ids."""
    first: dict[Signature, int] = {}
    for idx, sig in enumerate(signatures):
        if (max_size is None or len(sig) < max_size) and sig not in first:
            first[sig] = idx
    return [(idx, None, sig) for sig, idx in first.items()]
