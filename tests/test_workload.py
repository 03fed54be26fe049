import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtnsim import (
    ConfigError,
    Message,
    WorkloadEntry,
    generate_workload,
    messages_from_workload,
    parse_workload,
    serialize_workload,
)


def test_parse_and_serialize_round_trip():
    text = "created_at,source,destination,size_bytes\n10.5,0,3,2048\n20.0,2,1,999\n"
    entries = parse_workload(text)
    assert entries == [WorkloadEntry(10.5, 0, 3, 2048), WorkloadEntry(20.0, 2, 1, 999)]
    assert parse_workload(serialize_workload(entries)) == entries


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_workload("bogus header\n")
    with pytest.raises(ConfigError) as err:
        parse_workload("created_at,source,destination,size_bytes\n1.0,2,2,100\n")
    assert err.value.field == "line 2"
    with pytest.raises(ConfigError):
        parse_workload("created_at,source,destination,size_bytes\n1.0,2,3\n")
    with pytest.raises(ConfigError):
        parse_workload("created_at,source,destination,size_bytes\n1.0,2,3,0\n")


@pytest.mark.parametrize("created_at", ["inf", "nan", "-inf", "1e999"])
def test_parse_rejects_non_finite_created_at(created_at):
    with pytest.raises(ConfigError, match="finite") as err:
        parse_workload(
            f"created_at,source,destination,size_bytes\n1.0,0,1,100\n{created_at},0,1,100\n"
        )
    assert err.value.field == "line 3"


def test_generate_workload_contract():
    entries = generate_workload(200, 30, (0.0, 86400.0), seed=7)
    assert len(entries) == 200
    assert all(0 <= e.source < 30 and 0 <= e.destination < 30 for e in entries)
    assert all(e.source != e.destination for e in entries)
    assert all(1000 <= e.size <= 100000 for e in entries)
    assert all(0.0 <= e.created_at < 86400.0 for e in entries)
    assert [e.created_at for e in entries] == sorted(e.created_at for e in entries)

    again = generate_workload(200, 30, (0.0, 86400.0), seed=7)
    assert serialize_workload(again) == serialize_workload(entries)
    other = generate_workload(200, 30, (0.0, 86400.0), seed=8)
    assert serialize_workload(other) != serialize_workload(entries)


def test_generate_reference_workload_size():
    # the reference scenario volume: 6000 messages, sizes within 1..100 kB
    entries = generate_workload(6000, 36, (0.0, 60 * 86400.0), seed=1)
    assert len(entries) == 6000
    assert all(1000 <= e.size <= 100000 for e in entries)
    assert len(serialize_workload(entries).splitlines()) == 6001


def test_generate_workload_validation():
    with pytest.raises(ValueError):
        generate_workload(5, 1, (0.0, 10.0), seed=0)
    with pytest.raises(ValueError):
        generate_workload(5, 4, (10.0, 0.0), seed=0)
    with pytest.raises(ValueError):
        generate_workload(5, 4, (0.0, 10.0), seed=0, size_range=(0, 10))
    with pytest.raises(ValueError, match="count"):
        generate_workload(-2, 4, (0.0, 10.0), seed=0)
    for window in [(-3600.0, 100.0), (0.0, math.inf), (math.nan, 10.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="window"):
            generate_workload(5, 4, window, seed=0)


_window_ends = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)


@given(
    st.integers(0, 30),
    st.integers(2, 40),
    st.tuples(_window_ends, _window_ends).map(sorted),
    st.integers(0, 2**32),
)
def test_generated_workload_is_a_valid_workload_file(count, node_count, window, seed):
    # whatever the generator accepts, the parser reads back unchanged
    entries = generate_workload(count, node_count, tuple(window), seed)
    assert parse_workload(serialize_workload(entries)) == entries


def test_messages_from_workload():
    entries = [WorkloadEntry(5.0, 1, 2, 100), WorkloadEntry(9.0, 2, 0, 300)]
    msgs = messages_from_workload(entries, ttl=3600.0)
    assert [m.id for m in msgs] == ["m00000", "m00001"]
    assert msgs[0].expires_at == 3605.0
    assert msgs[1].ttl == 3600.0


def test_message_validation():
    with pytest.raises(ValueError):
        Message(0, 1, 1, 0.0, 10.0, 100)
    with pytest.raises(ValueError):
        Message(0, 0, 1, 0.0, 0.0, 100)
    with pytest.raises(ValueError):
        Message(0, 0, 1, 0.0, 10.0, 0)
