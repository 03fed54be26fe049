"""Random admit/remove sequences through a node buffer and through the
min-scan reference model must evict, hold and order the same messages."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtnsim import NodeRuntime, buffer_admit, messages_from_workload
from dtnsim.workload import WorkloadEntry

from oracles import MinScanBuffer

CAPACITY = 10_000

# few distinct creation times, so ties are common; sizes up to above the capacity
entry = st.builds(
    WorkloadEntry,
    created_at=st.sampled_from([0.0, 1.0, 2.5, 7.0]),
    source=st.just(0),
    destination=st.just(1),
    size=st.integers(1, CAPACITY + 500),
)


@pytest.mark.parametrize("drop_policy", ["oldest_first", "newest_first"])
@given(entries=st.lists(entry, min_size=1, max_size=40), data=st.data())
def test_buffer_matches_min_scan_model(drop_policy, entries, data):
    messages = messages_from_workload(entries, ttl=100.0)
    node = NodeRuntime(0, CAPACITY)
    model = MinScanBuffer(CAPACITY)
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        held = sorted(model.buffer)
        if held and data.draw(st.booleans(), label="remove"):
            row = data.draw(st.sampled_from(held), label="removed")
            assert node.remove(row) == model.remove(row)
        else:
            m = data.draw(st.sampled_from(messages), label="admitted")
            if m.row in model.buffer:
                continue
            ok, evicted = buffer_admit(node, m, drop_policy)
            assert (ok, evicted) == model.admit(m, drop_policy)
        assert node.occupancy == model.occupancy
        assert tuple(node.ordered) == model.messages_by_creation()
        # the bisections read the key list, so it must stay aligned with `ordered`
        assert node.order_keys == [m.order_key for m in node.ordered]
