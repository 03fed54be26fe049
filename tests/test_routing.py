import random

import pytest

from dtnsim import (
    CarrierState,
    CentralityTable,
    CommunityMap,
    Message,
    PeerSummary,
    bubblerap_on_contact,
    decide,
    dlife_on_contact,
    dlifecomm_on_contact,
    epidemic_on_contact,
)


NO_COMMUNITIES = CommunityMap.empty()
NO_CENTRALITIES = CentralityTable.empty()
NODES = 10  # every node id the tests below use is below this


def row(weights):
    """A weight row over NODES nodes, indexed by node id, from a
    `{peer: weight}` dict: 0.0 for every peer the dict leaves out."""
    weights = weights or {}
    return [weights.get(p, 0.0) for p in range(NODES)]


def msg(row, source=0, destination=9, created=0.0, size=1000, ttl=86400.0):
    return Message(row, source, destination, created, ttl, size)


def carrier(messages, weights=None, importance=0.0, node_id=0):
    return CarrierState(node_id, tuple(messages), row(weights), importance)


def peer(node_id=1, weights=None, importance=0.0):
    return PeerSummary(node_id, row(weights), importance)


def epidemic(state, other):
    return epidemic_on_contact(state, other, NO_COMMUNITIES, NO_CENTRALITIES)


def dlife(state, other):
    return dlife_on_contact(state, other, NO_COMMUNITIES, NO_CENTRALITIES)


def test_epidemic_floods_missing():
    # the caller hands in only messages the peer lacks; epidemic copies each
    msgs = [msg(i, destination=5) for i in (1, 2, 4)]
    decision = epidemic(carrier(msgs), peer())
    assert decision.replicate == (1, 2, 4)
    assert decision.delete_after == ()

    assert epidemic(carrier([]), peer()).replicate == ()


def test_dlife_weight_rule():
    m = msg(0, destination=9)
    assert dlife(
        carrier([m], weights={9: 2.0}), peer(weights={9: 5.0})
    ).replicate == (0,)
    assert (
        dlife(carrier([m], weights={9: 5.0}), peer(weights={9: 2.0})).replicate == ()
    )


def test_dlife_tie_falls_back_to_importance_and_keeps_on_tie():
    m = msg(0, destination=9)
    # equal weights (both unknown: 0), equal importance: strict rule keeps
    assert (
        dlife(carrier([m], importance=0.6), peer(importance=0.6)).replicate == ()
    )
    assert dlife(
        carrier([m], importance=0.2), peer(importance=0.3)
    ).replicate == (0,)
    # a *lower* peer weight still falls through to the importance comparison
    assert dlife(
        carrier([m], weights={9: 5.0}, importance=0.2), peer(weights={9: 1.0}, importance=0.9)
    ).replicate == (0,)


def test_delivery_short_circuit_all_routers():
    m = msg(0, destination=1)
    communities = CommunityMap.empty()
    centralities = CentralityTable.empty()
    for name in ("epidemic", "dlife", "dlifecomm", "bubblerap"):
        decision = decide(name, carrier([m], importance=9.9), peer(node_id=1), communities, centralities)
        assert decision.replicate == (0,), name


def test_dlife_decisions_deterministic():
    msgs = [msg(i, destination=4 + i % 3) for i in range(6)]
    state = carrier(msgs, weights={4: 1.0, 5: 0.2}, importance=0.5)
    other = peer(weights={4: 2.0, 6: 0.1}, importance=0.4)
    first = dlife(state, other)
    for _ in range(5):
        assert dlife(state, other) == first


def test_dlifecomm_inside_community_uses_weights():
    communities = CommunityMap((frozenset({1, 9}),))
    m = msg(0, destination=9)
    decision = dlifecomm_on_contact(
        carrier([m], weights={9: 1.0}, node_id=0),
        peer(node_id=1, weights={9: 3.0}),
        communities,
        NO_CENTRALITIES,
    )
    assert decision.replicate == (0,)
    # carrier outside the destination community deletes after the copy lands inside
    assert decision.delete_after == (0,)


def test_dlifecomm_outside_community_uses_importance():
    communities = CommunityMap((frozenset({7, 9}),))
    m = msg(0, destination=9)
    no = dlifecomm_on_contact(
        carrier([m], importance=0.9),
        peer(node_id=1, importance=0.3, weights={9: 99.0}),
        communities,
        NO_CENTRALITIES,
    )
    assert no.replicate == ()  # weight ignored outside the community
    yes = dlifecomm_on_contact(
        carrier([m], importance=0.2), peer(node_id=1, importance=0.9), communities, NO_CENTRALITIES
    )
    assert yes.replicate == (0,)
    assert yes.delete_after == ()


def test_dlifecomm_destination_without_community_uses_importance_everywhere():
    communities = CommunityMap((frozenset({1, 2, 3}),))  # destination 9 in none
    m = msg(0, destination=9)
    decision = dlifecomm_on_contact(
        carrier([m], importance=0.1),
        peer(node_id=1, importance=0.5, weights={9: 10.0}),
        communities,
        NO_CENTRALITIES,
    )
    assert decision.replicate == (0,)
    assert decision.delete_after == ()  # no community to hand the copy to


def test_dlifecomm_carrier_inside_keeps_copy():
    communities = CommunityMap((frozenset({0, 1, 9}),))
    m = msg(0, destination=9)
    decision = dlifecomm_on_contact(
        carrier([m], weights={9: 1.0}, node_id=0),
        peer(node_id=1, weights={9: 2.0}),
        communities,
        NO_CENTRALITIES,
    )
    assert decision.replicate == (0,)
    assert decision.delete_after == ()


def test_bubblerap_global_phase():
    communities = CommunityMap((frozenset({8, 9}),))
    centralities = CentralityTable({0: 3.0, 1: 10.0}, {}, 3600.0, 1)
    m = msg(0, destination=9)
    decision = bubblerap_on_contact(carrier([m]), peer(node_id=1), communities, centralities)
    assert decision.replicate == (0,)
    assert decision.delete_after == ()

    lower = CentralityTable({0: 10.0, 1: 3.0}, {}, 3600.0, 1)
    assert (
        bubblerap_on_contact(carrier([m]), peer(node_id=1), communities, lower).replicate == ()
    )


def test_bubblerap_local_phase_and_entry():
    communities = CommunityMap((frozenset({1, 5, 9}),))
    m = msg(0, destination=9)
    # both inside: local comparison (peer 2 vs carrier 5) keeps the message
    centralities = CentralityTable({}, {(1, 0): 2.0, (5, 0): 5.0}, 3600.0, 1)
    decision = bubblerap_on_contact(
        carrier([m], node_id=5), peer(node_id=1), communities, centralities
    )
    assert decision.replicate == ()
    # carrier outside, peer inside: always replicate and drop own copy
    decision = bubblerap_on_contact(
        carrier([m], node_id=0), peer(node_id=1), communities, centralities
    )
    assert decision.replicate == (0,)
    assert decision.delete_after == (0,)


def test_decide_unknown_router():
    with pytest.raises(ValueError, match="dlife"):
        decide("flooding", carrier([]), peer(), NO_COMMUNITIES, NO_CENTRALITIES)


def test_dlife_invariant_under_weight_scaling():
    rng = random.Random(5)
    for _ in range(300):
        dests = list(range(3, 8))
        msgs = [msg(i, destination=rng.choice(dests)) for i in range(rng.randint(1, 6))]
        cw = {d: rng.choice([0.0, rng.uniform(0, 100)]) for d in dests}
        pw = {d: rng.choice([0.0, rng.uniform(0, 100)]) for d in dests}
        ci, pi = rng.uniform(0, 2), rng.uniform(0, 2)
        scale = rng.uniform(0.01, 50)
        base = dlife(carrier(msgs, cw, ci), peer(weights=pw, importance=pi))
        scaled = dlife(
            carrier(msgs, {d: scale * w for d, w in cw.items()}, ci),
            peer(weights={d: scale * w for d, w in pw.items()}, importance=pi),
        )
        assert base == scaled


def test_router_decision_subset_invariants():
    rng = random.Random(6)
    communities = CommunityMap((frozenset({2, 9}), frozenset({0, 4})))
    centralities = CentralityTable({i: float(i) for i in range(10)}, {(2, 0): 1.0}, 60.0, 1)
    for _ in range(200):
        msgs = [msg(i, destination=rng.randrange(2, 10)) for i in range(rng.randint(0, 5))]
        state = carrier(
            msgs, {d: rng.uniform(0, 5) for d in range(10)}, rng.uniform(0, 2), node_id=0
        )
        other = peer(
            node_id=rng.randrange(1, 10),
            weights={d: rng.uniform(0, 5) for d in range(10)},
            importance=rng.uniform(0, 2),
        )
        for name in ("epidemic", "dlife", "dlifecomm", "bubblerap"):
            decision = decide(name, state, other, communities, centralities)
            assert set(decision.delete_after) <= set(decision.replicate)
            buffered_rows = {m.row for m in msgs}
            assert set(decision.replicate) <= buffered_rows
