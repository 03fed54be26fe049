"""On-contact replication decisions: routine-weight routing with an importance
fallback, its community-aware variant, centrality bubble routing, and a
flooding baseline.

Routers are pure functions of explicit state snapshots: same inputs, same
decision. All comparisons are strict, so ties never replicate, and delivery
to the destination itself bypasses every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Mapping

from .socialgraph import CentralityTable, CommunityMap
from .workload import Message

ROUTER_NAMES = ("dlife", "dlifecomm", "bubblerap", "epidemic")
# the routers that read `weights` and `importance` of CarrierState and
# PeerSummary; the engine reads the ledgers only for these
LEDGER_ROUTERS = ("dlife", "dlifecomm")
# the routers that read communities and centralities; the engine keeps the
# contact history and recomputes both only for these
COMMUNITY_ROUTERS = ("dlifecomm", "bubblerap")


@dataclass(frozen=True)
class RouterDecision:
    """What to copy to the peer, and which copies the carrier drops after a
    successful transfer."""

    replicate: tuple[str, ...]
    delete_after: tuple[str, ...] = ()


@dataclass(frozen=True)
class CarrierState:
    """The deciding node: its buffered messages in creation-time order, its
    current-sample weights toward known peers, and its importance."""

    node_id: int
    messages: tuple[Message, ...]
    weights: Mapping[int, float]
    importance: float


@dataclass(frozen=True)
class PeerSummary:
    """What the encountered node reports at contact time: weights toward all
    its known peers for the current sample, its importance, and the message
    ids it already holds (only asked, with `in`, about the carrier's
    messages)."""

    node_id: int
    weights: Mapping[int, float]
    importance: float
    buffered: Container[str]


def _candidates(carrier: CarrierState, peer: PeerSummary):
    for m in carrier.messages:
        if m.id in peer.buffered or m.destination == carrier.node_id:
            continue
        yield m


def epidemic_on_contact(carrier: CarrierState, peer: PeerSummary) -> RouterDecision:
    """Flood: copy everything the peer lacks."""
    return RouterDecision(tuple(m.id for m in _candidates(carrier, peer)))


def dlife_on_contact(carrier: CarrierState, peer: PeerSummary) -> RouterDecision:
    """Copy when the peer has a strictly stronger routine tie to the
    destination; otherwise fall back to comparing node importance."""
    replicate = []
    for m in _candidates(carrier, peer):
        if m.destination == peer.node_id:
            replicate.append(m.id)
        elif peer.weights.get(m.destination, 0.0) > carrier.weights.get(m.destination, 0.0):
            replicate.append(m.id)
        elif peer.importance > carrier.importance:
            replicate.append(m.id)
    return RouterDecision(tuple(replicate))


def dlifecomm_on_contact(
    carrier: CarrierState, peer: PeerSummary, communities: CommunityMap
) -> RouterDecision:
    """Community-aware variant: weight comparison toward peers inside the
    destination's community, importance comparison elsewhere. A carrier
    outside the destination's community drops its copy once the message
    reaches a node inside it."""
    replicate, delete_after = [], []
    carrier_comms = communities.communities_of(carrier.node_id)
    peer_comms = communities.communities_of(peer.node_id)
    for m in _candidates(carrier, peer):
        dest_comms = communities.communities_of(m.destination)
        peer_inside = bool(peer_comms & dest_comms)
        if m.destination == peer.node_id:
            send = True
        elif peer_inside:
            send = peer.weights.get(m.destination, 0.0) > carrier.weights.get(m.destination, 0.0)
        else:
            send = peer.importance > carrier.importance
        if send:
            replicate.append(m.id)
            if peer_inside and not (carrier_comms & dest_comms):
                delete_after.append(m.id)
    return RouterDecision(tuple(replicate), tuple(delete_after))


def bubblerap_on_contact(
    carrier: CarrierState,
    peer: PeerSummary,
    communities: CommunityMap,
    centralities: CentralityTable,
) -> RouterDecision:
    """Bubble up on global centrality until the destination's community is
    reached, then bubble up on local centrality inside it; entering the
    community always replicates and the outside carrier drops its copy."""
    replicate, delete_after = [], []
    carrier_comms = communities.communities_of(carrier.node_id)
    peer_comms = communities.communities_of(peer.node_id)
    peer_global = centralities.global_of(peer.node_id)
    carrier_global = centralities.global_of(carrier.node_id)
    for m in _candidates(carrier, peer):
        dest_comms = communities.communities_of(m.destination)
        peer_shared = peer_comms & dest_comms
        carrier_shared = carrier_comms & dest_comms
        if m.destination == peer.node_id:
            send = True
        elif peer_shared:
            if carrier_shared:
                peer_local = max(
                    (centralities.local_of(peer.node_id, c) for c in peer_shared), default=0.0
                )
                carrier_local = max(
                    (centralities.local_of(carrier.node_id, c) for c in carrier_shared),
                    default=0.0,
                )
                send = peer_local > carrier_local
            else:
                send = True
        else:
            send = peer_global > carrier_global
        if send:
            replicate.append(m.id)
            if peer_shared and not carrier_shared:
                delete_after.append(m.id)
    return RouterDecision(tuple(replicate), tuple(delete_after))


def decide(
    router: str,
    carrier: CarrierState,
    peer: PeerSummary,
    communities: CommunityMap | None = None,
    centralities: CentralityTable | None = None,
) -> RouterDecision:
    """Dispatch a routing decision by router name."""
    if router == "epidemic":
        return epidemic_on_contact(carrier, peer)
    if router == "dlife":
        return dlife_on_contact(carrier, peer)
    if router == "dlifecomm":
        return dlifecomm_on_contact(carrier, peer, communities or CommunityMap.empty())
    if router == "bubblerap":
        return bubblerap_on_contact(
            carrier,
            peer,
            communities or CommunityMap.empty(),
            centralities or CentralityTable.empty(),
        )
    raise ValueError(f"unknown router {router!r} (valid: {', '.join(ROUTER_NAMES)})")
