"""`EventLog.to_csv` must write, byte for byte, what the per-record CSV
reference serializer writes."""

from hypothesis import given
from hypothesis import strategies as st

from dtnsim import EventLog, LogRecord
from dtnsim.engine import (
    EVENT_LOG_CSV_HEADER,
    KIND_ABORTED,
    KIND_CREATED,
    KIND_DELETED_COMMUNITY,
    KIND_DELIVERED,
    KIND_DROPPED,
    KIND_EXPIRED,
    KIND_REPLICATED,
)

from oracles import event_log_csv

KINDS = [
    KIND_CREATED,
    KIND_REPLICATED,
    KIND_DELIVERED,
    KIND_DROPPED,
    KIND_EXPIRED,
    KIND_DELETED_COMMUNITY,
    KIND_ABORTED,
]

optional_int = st.none() | st.integers()
record = st.builds(
    LogRecord,
    time=st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
    kind=st.sampled_from(KINDS),
    # quotes, backslashes, control characters, non-ASCII and lone surrogates
    msg=st.text(st.characters(exclude_categories=())) | st.text('"\\\n\t\x00\x1f\x7fé€😀'),
    node=st.integers(),
    peer=optional_int,
    size=optional_int,
)


@given(st.lists(record, max_size=20))
def test_serializers_match_reference(records):
    assert EventLog(records).to_csv() == event_log_csv(records)


def test_empty_log():
    assert EventLog().to_csv() == EVENT_LOG_CSV_HEADER + "\n" == event_log_csv([])


def test_record_shape():
    r = LogRecord(1.5, KIND_EXPIRED, "m00001", 3)
    assert r._fields == ("time", "kind", "msg", "node", "peer", "size")
    assert EventLog([r]).to_csv() == EVENT_LOG_CSV_HEADER + "\n1.5,expired_ttl,m00001,3,,\n"
