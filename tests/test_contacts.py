import math
import random

import pytest

from dtnsim import (
    ContactEvent,
    ContactTrace,
    RelationActivity,
    RoutineSpec,
    SampleConfig,
    SampleSlot,
    TraceFormatError,
    generate_routine_trace,
    parse_contact_trace,
    sample_slot_of,
    serialize_contact_trace,
    split_contact_by_samples,
)

CFG24 = SampleConfig(24, 86400)


def test_contact_event_canonical_and_validated():
    ev = ContactEvent(5, 2, 10.0, 20.0)
    assert ev.pair == (2, 5)
    assert ev.duration == 10.0
    with pytest.raises(ValueError):
        ContactEvent(1, 1, 0.0, 10.0)
    with pytest.raises(ValueError):
        ContactEvent(0, 1, 10.0, 10.0)


def test_sample_config_validation():
    assert CFG24.sample_length == 3600
    with pytest.raises(ValueError):
        SampleConfig(0, 86400)
    with pytest.raises(ValueError):
        SampleConfig(7, 86400)  # not divisible


def test_sample_slot_of_examples():
    assert sample_slot_of(0, CFG24) == SampleSlot(0, 0)
    assert sample_slot_of(86400, CFG24) == SampleSlot(1, 0)
    assert sample_slot_of(27000, CFG24) == SampleSlot(0, 7)  # 7.5 h
    with pytest.raises(ValueError):
        sample_slot_of(-1, CFG24)


def test_sample_slot_monotone_and_periodic():
    rng = random.Random(7)
    prev = SampleSlot(0, 0)
    ts = 0.0
    for _ in range(500):
        ts += rng.uniform(0, 7200)
        slot = sample_slot_of(ts, CFG24)
        assert slot >= prev
        prev = slot
        shifted = sample_slot_of(ts + 86400, CFG24)
        assert shifted.sample_index == slot.sample_index
        assert shifted.day_index == slot.day_index + 1


def test_split_examples():
    assert split_contact_by_samples(ContactEvent(0, 1, 0, 3600), CFG24) == [
        (SampleSlot(0, 0), 3600.0)
    ]
    assert split_contact_by_samples(ContactEvent(0, 1, 27000, 30600), CFG24) == [
        (SampleSlot(0, 7), 1800.0),
        (SampleSlot(0, 8), 1800.0),
    ]
    assert split_contact_by_samples(ContactEvent(0, 1, 85800, 87000), CFG24) == [
        (SampleSlot(0, 23), 600.0),
        (SampleSlot(1, 0), 600.0),
    ]


def test_split_is_lossless_and_bounded():
    rng = random.Random(42)
    for _ in range(2000):
        t = rng.choice([1, 2, 3, 4, 6, 8, 12, 24, 48])
        cfg = SampleConfig(t, 86400)
        start = rng.uniform(0, 5 * 86400)
        duration = rng.uniform(1e-3, 2.5 * 86400)
        ev = ContactEvent(0, 1, start, start + duration)
        parts = split_contact_by_samples(ev, cfg)
        total = sum(d for _, d in parts)
        assert math.isclose(total, ev.duration, rel_tol=1e-12)
        assert all(d <= cfg.sample_length + 1e-9 for _, d in parts)
        linear = [slot.linear(cfg) for slot, _ in parts]
        assert linear == list(range(linear[0], linear[0] + len(parts)))


def test_parse_csv_and_haggle():
    csv_text = "a,b,start,end\n1,2,100,200\n"
    trace, id_map = parse_contact_trace(csv_text, "csv")
    assert id_map == {1: 0, 2: 1}
    assert trace.events == [ContactEvent(0, 1, 100.0, 200.0)]
    assert trace.node_count == 2

    haggle = "# comment line\n3 7 50 80\n7 9 60 90\n"
    trace, id_map = parse_contact_trace(haggle, "haggle")
    assert id_map == {3: 0, 7: 1, 9: 2}
    assert trace.events[0] == ContactEvent(0, 1, 50.0, 80.0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceFormatError) as err:
        parse_contact_trace("a,b,start,end\n1,1,100,200\n", "csv")
    assert err.value.line_no == 2
    with pytest.raises(TraceFormatError):
        parse_contact_trace("a,b,start,end\n1,2,300,200\n", "csv")  # start >= end
    with pytest.raises(TraceFormatError):
        parse_contact_trace("a,b,start,end\n1,2,oops,200\n", "csv")
    with pytest.raises(TraceFormatError):
        parse_contact_trace("not,a,header\n", "csv")
    with pytest.raises(TraceFormatError):
        parse_contact_trace("1 2 3\n", "haggle")


@pytest.mark.parametrize("fmt,record", [
    ("csv", "1,2,100,inf"),
    ("csv", "1,2,-inf,200"),
    ("csv", "1,2,nan,200"),
    ("haggle", "1 2 100 1e999"),
])
def test_parse_rejects_non_finite_times(fmt, record):
    header = "a,b,start,end\n" if fmt == "csv" else ""
    with pytest.raises(TraceFormatError, match="non-finite"):
        parse_contact_trace(f"{header}{record}\n", fmt)


def test_serialize_parse_round_trip_exact():
    rng = random.Random(3)
    events = []
    for _ in range(200):
        a = rng.randrange(10)
        b = (a + 1 + rng.randrange(9)) % 10
        start = rng.uniform(0, 1e6)
        events.append(ContactEvent(min(a, b), max(a, b), start, start + rng.uniform(0.001, 5e4)))
    trace = ContactTrace.from_events(events)
    text = serialize_contact_trace(trace)
    reparsed, id_map = parse_contact_trace(text, "csv")
    assert reparsed == trace
    assert id_map == {i: i for i in range(trace.node_count)}
    assert serialize_contact_trace(reparsed) == text


def _two_node_work_spec(probability: float, duration: float) -> RoutineSpec:
    return RoutineSpec(
        node_count=2,
        days=1,
        cfg=SampleConfig(24, 86400),
        home_group=(0, 1),
        work_group=(0, 0),
        social_group=(0, 1),
        work=RelationActivity((9, 10), probability, duration),
    )


def test_generator_zero_probability_empty():
    trace = generate_routine_trace(_two_node_work_spec(0.0, 3600.0), seed=1)
    assert trace.events == []
    assert trace.node_count == 2


def test_generator_deterministic():
    spec = _two_node_work_spec(0.7, 1200.0)
    a = serialize_contact_trace(generate_routine_trace(spec, seed=9))
    b = serialize_contact_trace(generate_routine_trace(spec, seed=9))
    assert a == b
    c = serialize_contact_trace(generate_routine_trace(spec, seed=10))
    assert c != a


def test_generator_full_sample_contact():
    # probability 1 and duration equal to the sample length force the pair's
    # work-sample contact time to be the whole sample
    trace = generate_routine_trace(_two_node_work_spec(1.0, 3600.0), seed=5)
    assert len(trace.events) == 2  # samples 9 and 10
    for ev, sample in zip(trace.events, (9, 10)):
        assert ev.start == sample * 3600.0
        assert ev.duration == 3600.0


def test_generator_group_pairs_meet_more():
    spec = RoutineSpec(
        node_count=6,
        days=2,
        cfg=SampleConfig(24, 86400),
        home_group=(0, 1, 2, 3, 4, 5),
        work_group=(0, 0, 0, 1, 1, 1),
        social_group=(0, 1, 2, 3, 4, 5),
        work=RelationActivity(tuple(range(9, 17)), 0.5, 1800.0),
        background=RelationActivity(tuple(range(24)), 0.02, 300.0),
    )
    same = 0.0
    cross = 0.0
    for seed in range(12):
        trace = generate_routine_trace(spec, seed)
        for ev in trace.events:
            if spec.work_group[ev.node_a] == spec.work_group[ev.node_b]:
                same += ev.duration
            else:
                cross += ev.duration
    same /= 6.0  # pairs per side: 2*C(3,2) vs 3*3
    cross /= 9.0
    assert same > cross


def test_routine_spec_validation():
    with pytest.raises(ValueError):
        RelationActivity((0,), 1.5, 100.0)
    with pytest.raises(ValueError):
        RelationActivity((0,), 0.5, 0.0)
    with pytest.raises(ValueError):
        _two_node_work_spec(0.5, 7200.0)  # duration beyond the 1 h sample
    with pytest.raises(ValueError):
        RoutineSpec(
            node_count=2,
            days=1,
            cfg=CFG24,
            home_group=(0,),  # wrong length
            work_group=(0, 0),
            social_group=(0, 1),
        )
