"""Random fragment, roll and contact-start sequences through the ledger
table and through one per-node reference ledger per node must keep the same
averages, neighbor sets and weights, and importance equal up to rounding.

Importance is not compared bit for bit. The table reads each pair weight
from its one N x N weight matrix, whose rows round like the reference's
per-node matrix-vector product (`weights_to_all_neighbors`, a dict of the
nonzero weights, against the table's weight row). The reference's
`update_importance` instead takes each weight from `tecd_weight`, a per-pair
dot product that can round the same sum differently in the last bit; the
difference then travels through every importance value exchanged later.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dtnsim import SampleConfig, SocialLedger

from oracles import PerNodeLedger, neighbor_weight_dict, weights_at_strided

duration = st.one_of(
    st.floats(min_value=1e-3, max_value=3600.0),
    st.sampled_from([0.5, 1800.0, 1e150]),  # 1e150 drives importance to inf
)


def same_importance(table_value, model_value):
    if math.isinf(model_value) or math.isinf(table_value):
        return table_value == model_value
    return math.isclose(table_value, model_value, rel_tol=1e-12)


@pytest.mark.parametrize("samples_per_day", [1, 3, 24])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_matches_per_node_ledgers(samples_per_day, data):
    cfg = SampleConfig(samples_per_day, 86400)
    n = data.draw(st.integers(2, 6), label="nodes")
    damping = data.draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]), label="damping")
    table = SocialLedger(n, cfg, damping)
    model = [PerNodeLedger(i, n, cfg, damping) for i in range(n)]
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        step = data.draw(st.sampled_from(["fragment", "roll", "start", "seen"]), label="step")
        clock = table.clock
        if step == "roll":
            for ledger in model:
                ledger.roll_sample()
            table.roll_sample()
            continue
        a, b = data.draw(pair, label="pair")
        if step == "fragment":
            lin = clock - data.draw(st.integers(0, min(clock, 2 * samples_per_day)), label="back")
            d = data.draw(duration, label="duration")
            model[a].record_contact_fragment(b, lin, d)
            model[b].record_contact_fragment(a, lin, d)
            table.record_contact_fragment(a, b, lin, d)
        elif step == "seen":
            model[a].mark_peer_seen(b)
            model[b].mark_peer_seen(a)
            table.mark_met(a, b)
        else:  # a contact comes up: the importance exchange
            model[a].mark_peer_seen(b)
            model[b].mark_peer_seen(a)
            ia = model[a].update_importance()
            ib = model[b].update_importance()
            model[a].record_peer_importance(b, ib)
            model[b].record_peer_importance(a, ia)
            table.meet(a, b)

        for node, ledger in enumerate(model):
            assert table.clock == ledger._clock
            assert (table.tct[node] == ledger._tct).all()
            assert (table.ad[node] == ledger._ad).all()
            assert table.neighbors[node] == ledger.neighbors_in_current_sample()
            row = table.weights_to_all_neighbors(node)
            assert len(row) == n
            assert {p: w for p, w in enumerate(row) if w} == ledger.weights_to_all_neighbors()
            for i in range(samples_per_day):
                assert same_importance(table.importance(node, i), ledger.importance(i))
            for peer in range(n):
                if peer != node:
                    assert same_importance(
                        table._peer_importance[node][peer], ledger._peer_importance[peer]
                    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_weights_match_the_pair_major_gather(data):
    # the sample-major store must give the weights, bit for bit, of the
    # strided gather from a pair-major one, also with fewer nodes than
    # samples, where a plain pair-major gather rounds differently
    n = data.draw(st.integers(2, 7), label="nodes")
    t = data.draw(st.sampled_from([1, 2, 3, 5, 8, 24]), label="samples_per_day")
    ledger = SocialLedger(n, SampleConfig(t, 86400))
    averages = st.one_of(st.just(0.0), st.floats(1e-3, 1e5), st.floats(1e5, 1e12))
    ledger.ad[...] = data.draw(arrays(float, (n, n, t), elements=averages), label="ad")
    pair_major = np.ascontiguousarray(ledger.ad)
    for i in range(t):
        expected = weights_at_strided(pair_major, ledger._coeff, i)
        assert ledger.weights_at(i).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_weight_rows_equal_the_neighbor_dicts(data):
    # a row reads 0.0 exactly where the dict form has no key, and its count
    # of nonzero entries is the dict's length: the charged summary's bytes
    # per known peer, which the pinned charged dlife log rests on
    n = data.draw(st.integers(2, 7), label="nodes")
    t = data.draw(st.sampled_from([1, 2, 3, 24]), label="samples_per_day")
    ledger = SocialLedger(n, SampleConfig(t, 86400))
    for _ in range(data.draw(st.integers(0, 2 * t), label="rolls")):
        ledger.roll_sample()
    averages = st.one_of(st.just(0.0), st.floats(1e-3, 1e5), st.floats(1e5, 1e150))
    ledger.ad[...] = data.draw(arrays(float, (n, n, t), elements=averages), label="ad")
    for node in range(n):
        row = ledger.weights_to_all_neighbors(node)
        old = neighbor_weight_dict(ledger, node)
        assert len(row) == n
        for peer in range(n):
            assert row[peer] == old.get(peer, 0.0)
        assert len(row) - row.count(0.0) == len(old)
