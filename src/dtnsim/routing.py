"""On-contact replication decisions: routine-weight routing with an importance
fallback, its community-aware variant, centrality bubble routing, and a
flooding baseline.

Routers are pure functions of explicit state snapshots: same inputs, same
decision. The caller hands a router only the candidates: messages the
carrier buffers that the peer neither holds, nor was delivered, nor was sent
on this contact. A router decides on each of them and filters nothing. All
comparisons are strict, so ties never replicate, and delivery to the
destination itself bypasses every comparison. Each message is decided on its
own, so a router asked about a subset of the candidates answers for each as
it would in the whole list. The routers read importance only as
`peer.importance > carrier.importance`, so the engine treats that
comparison, not the two values, as a decision input.

A node's `weights` is a sequence indexed by node id: its current-sample
weight toward each node, 0.0 for a peer it does not know (the routers that
read no weights get an empty one).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .socialgraph import CentralityTable, CommunityMap
from .workload import Message

# the routers that read `weights` and `importance` of CarrierState and
# PeerSummary; the engine reads the ledgers only for these
LEDGER_ROUTERS = ("dlife", "dlifecomm")
# the routers that read communities and centralities; the engine keeps the
# contact history and recomputes both only for these
COMMUNITY_ROUTERS = ("dlifecomm", "bubblerap")


class RouterDecision(NamedTuple):
    """The workload rows of the messages to copy to the peer, and of the
    copies the carrier drops after a successful transfer."""

    replicate: tuple[int, ...]
    delete_after: tuple[int, ...] = ()


class CarrierState(NamedTuple):
    """The deciding node: the candidates to decide on, in creation-time
    order (only messages it buffers and the peer lacks; the caller filters
    them), its current-sample weights indexed by node id (0.0 for an
    unknown peer), and its importance."""

    node_id: int
    messages: Sequence[Message]
    weights: Sequence[float]
    importance: float


class PeerSummary(NamedTuple):
    """What the encountered node reports at contact time: its current-sample
    weights indexed by node id (0.0 for an unknown peer) and its importance.
    What it holds is not here: the caller has already left those messages
    out of the carrier's candidates."""

    node_id: int
    weights: Sequence[float]
    importance: float


def epidemic_on_contact(
    carrier: CarrierState,
    peer: PeerSummary,
    communities: CommunityMap,
    centralities: CentralityTable,
) -> RouterDecision:
    """Flood: copy every message handed in (each one the peer lacks)."""
    return RouterDecision(tuple([m.row for m in carrier.messages]))


def dlife_on_contact(
    carrier: CarrierState,
    peer: PeerSummary,
    communities: CommunityMap,
    centralities: CentralityTable,
) -> RouterDecision:
    """Copy when the peer has a strictly stronger routine tie to the
    destination; otherwise fall back to comparing node importance."""
    peer_id, peer_weights, carrier_weights = peer.node_id, peer.weights, carrier.weights
    peer_more_important = peer.importance > carrier.importance
    replicate = []
    for m in carrier.messages:
        dest = m.destination
        if (
            dest == peer_id
            or peer_weights[dest] > carrier_weights[dest]
            or peer_more_important
        ):
            replicate.append(m.row)
    return RouterDecision(tuple(replicate))


def dlifecomm_on_contact(
    carrier: CarrierState,
    peer: PeerSummary,
    communities: CommunityMap,
    centralities: CentralityTable,
) -> RouterDecision:
    """Community-aware variant: weight comparison toward peers inside the
    destination's community, importance comparison elsewhere. A carrier
    outside the destination's community drops its copy once the message
    reaches a node inside it."""
    replicate, delete_after = [], []
    carrier_comms = communities.communities_of(carrier.node_id)
    peer_comms = communities.communities_of(peer.node_id)
    for m in carrier.messages:
        dest_comms = communities.communities_of(m.destination)
        peer_inside = bool(peer_comms & dest_comms)
        if m.destination == peer.node_id:
            send = True
        elif peer_inside:
            send = peer.weights[m.destination] > carrier.weights[m.destination]
        else:
            send = peer.importance > carrier.importance
        if send:
            replicate.append(m.row)
            if peer_inside and not (carrier_comms & dest_comms):
                delete_after.append(m.row)
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
    for m in carrier.messages:
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
            replicate.append(m.row)
            if peer_shared and not carrier_shared:
                delete_after.append(m.row)
    return RouterDecision(tuple(replicate), tuple(delete_after))


# every router takes (carrier, peer, communities, centralities)
ROUTERS = {
    "dlife": dlife_on_contact,
    "dlifecomm": dlifecomm_on_contact,
    "bubblerap": bubblerap_on_contact,
    "epidemic": epidemic_on_contact,
}
ROUTER_NAMES = tuple(ROUTERS)


def decide(
    router: str,
    carrier: CarrierState,
    peer: PeerSummary,
    communities: CommunityMap,
    centralities: CentralityTable,
) -> RouterDecision:
    """Dispatch a routing decision by router name."""
    on_contact = ROUTERS.get(router)
    if on_contact is None:
        raise ValueError(f"unknown router {router!r} (valid: {', '.join(ROUTER_NAMES)})")
    return on_contact(carrier, peer, communities, centralities)
