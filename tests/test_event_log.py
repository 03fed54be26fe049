"""`EventLog.to_csv`, its chunks, the CSV formatter over any split of a log,
and the `events.csv` that a plan cell streams from the engine's sink must
hold, byte for byte, what the per-record CSV reference serializer writes."""

import dataclasses
import struct

from hypothesis import given
from hypothesis import strategies as st

from dtnsim import CsvFormatter, EventLog, LogRecord, Simulation
from dtnsim import engine
from dtnsim.engine import (
    CSV_CHUNK_RECORDS,
    EVENT_LOG_CSV_HEADER,
    KIND_ABORTED,
    KIND_CREATED,
    KIND_DELETED_COMMUNITY,
    KIND_DELIVERED,
    KIND_DROPPED,
    KIND_EXPIRED,
    KIND_REPLICATED,
)
from dtnsim.experiment import (
    cell_dir_name,
    load_experiment_config,
    materialize_scenario,
    run_experiment,
)

from oracles import event_log_csv, every_split, split_at
from scenarios import DAY, GOLDEN_CAPACITY, desk_sim_config, golden_scenario

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


CHUNK_SIZES = [1, 2, 7, CSV_CHUNK_RECORDS]


@given(st.lists(record, max_size=20), st.sampled_from(CHUNK_SIZES))
def test_chunks_join_to_the_reference(records, chunk_records):
    chunks = list(EventLog(records).csv_chunks(chunk_records))
    assert chunks[0] == EVENT_LOG_CSV_HEADER + "\n"
    # the header, then one chunk per started run of chunk_records records
    assert len(chunks) == 1 + -(-len(records) // chunk_records)
    assert "".join(chunks) == EventLog(records).to_csv() == event_log_csv(records)



def _distinct_copy(t):
    """An object equal to `t` with the same `repr`, but not `t` itself
    (except for the small ints that CPython shares)."""
    if isinstance(t, float):
        return struct.unpack("d", struct.pack("d", t))[0]
    return int(str(t))


# equal times whose `repr`s differ (0.0 and -0.0, 1 and 1.0), so a cache
# keyed by equality, not identity, would write the wrong one
time_value = (
    st.sampled_from([0.0, -0.0, 1, 1.0]) | st.floats() | st.integers(-(2**70), 2**70)
)


@st.composite
def runs_of_times(draw):
    """Plain tuples in `LogRecord` order, in runs of one time value. A shared
    run holds one time object, as the engine's simultaneous records do;
    otherwise each record holds an equal but distinct object."""
    records = []
    runs = draw(st.lists(st.tuples(time_value, st.integers(1, 4), st.booleans()), max_size=8))
    for value, length, shared in runs:
        for i in range(length):
            t = value if shared or i == 0 else _distinct_copy(value)
            records.append((
                t, draw(st.sampled_from(KINDS)), f"m{i:05d}", draw(st.integers(0, 9)),
                draw(optional_int), draw(optional_int),
            ))
    return records


@given(runs_of_times(), st.integers(1, 3))
def test_time_stamp_cache_matches_the_reference(records, chunk_records):
    # chunks of 1-3 records, so that a cached stamp crosses chunk boundaries
    chunks = list(EventLog(records).csv_chunks(chunk_records))
    assert "".join(chunks) == event_log_csv(records)


def formatted(pieces) -> str:
    formatter = CsvFormatter()
    return EVENT_LOG_CSV_HEADER + "\n" + "".join(formatter.rows(p) for p in pieces)


@given(runs_of_times(), st.data())
def test_formatter_over_any_split_matches_the_reference(records, data):
    # cuts anywhere: inside a run that shares one time object, and between
    # equal but distinct times
    cuts = data.draw(st.sets(st.integers(0, len(records))))
    assert formatted(split_at(records, cuts)) == event_log_csv(records)


def test_formatter_over_every_split_of_equal_times():
    one, one_f, zero, neg_zero, shared = 1, 1.0, 0.0, -0.0, 2.5
    times = [zero, neg_zero, zero, shared, shared, shared, one, one_f, neg_zero]
    records = [(t, KIND_CREATED, f"m{i:05d}", i, None, None) for i, t in enumerate(times)]
    expected = event_log_csv(records)
    splits = list(every_split(records))
    assert len(splits) == 2 ** (len(records) - 1)
    for pieces in splits:
        assert formatted(pieces) == expected, [len(p) for p in pieces]


def test_empty_log():
    assert EventLog().to_csv() == EVENT_LOG_CSV_HEADER + "\n" == event_log_csv([])
    for chunk_records in CHUNK_SIZES:
        assert list(EventLog().csv_chunks(chunk_records)) == [EVENT_LOG_CSV_HEADER + "\n"]


def test_plan_cell_writes_to_csv(tmp_path, monkeypatch):
    # small chunks, so that the engine hands the file many pieces
    monkeypatch.setattr(engine, "CSV_CHUNK_RECORDS", 7)
    routine = {
        "node_count": 5,
        "days": 1,
        "samples_per_day": 24,
        "seconds_per_day": 86400,
        "groups": {"work": [i % 2 for i in range(5)]},
        "activities": {
            "work": {"samples": list(range(9, 15)), "probability": 0.7, "duration": 1800},
        },
    }
    raw = {
        "routers": ["epidemic"],
        "ttls": [86400],
        "seeds": [3],
        "trace": {"routine": routine},
        "workload": {"count": 10, "window": [0.0, 43200.0]},
    }
    cfg = load_experiment_config(raw, tmp_path)
    run_experiment(cfg)
    trace, workload = materialize_scenario(cfg, 3)
    log = Simulation(
        dataclasses.replace(cfg.sim, trace=trace, workload=workload, router="epidemic")
    ).run()
    assert len(log) > 7
    written = (cfg.out_dir / cell_dir_name("epidemic", 86400, 3) / "events.csv").read_bytes()
    assert written == log.to_csv().encode() == event_log_csv(log).encode()


def test_record_shape():
    r = LogRecord(1.5, KIND_EXPIRED, "m00001", 3)
    assert r._fields == ("time", "kind", "msg", "node", "peer", "size")
    assert EventLog([r]).to_csv() == EVENT_LOG_CSV_HEADER + "\n1.5,expired_ttl,m00001,3,,\n"


def golden_epidemic_sim() -> Simulation:
    trace, workload = golden_scenario()
    return Simulation(
        desk_sim_config(trace, workload, "epidemic", ttl=DAY, buffer_capacity=GOLDEN_CAPACITY)
    )


def test_sink_receives_the_whole_log_in_order(monkeypatch):
    chunk = 50
    monkeypatch.setattr(engine, "CSV_CHUNK_RECORDS", chunk)
    whole = golden_epidemic_sim().run().records
    pieces = []
    sim = golden_epidemic_sim()
    log = sim.run(lambda records: pieces.append(list(records)))
    assert len(sim.log) == len(log) == 0
    assert [r for p in pieces for r in p] == whole
    assert len(pieces) > 2
    assert all(len(p) >= chunk for p in pieces[:-1])
    assert 0 < len(pieces[-1])
