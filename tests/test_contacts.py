import hashlib
import math
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtnsim import (
    ConfigError,
    ContactEvent,
    ContactTrace,
    RelationActivity,
    RoutineSpec,
    SampleConfig,
    generate_routine_trace,
    parse_contact_trace,
    serialize_contact_trace,
    split_contact_by_samples,
)

from oracles import reference_routine_trace, split_by_day_and_sample
from scenarios import desk_spec

CFG24 = SampleConfig(24, 86400)


def routine_dict():
    return {
        "node_count": 4,
        "days": 2,
        "groups": {"work": [0, 0, 1, 1]},
        "activities": {"work": {"samples": [9, 10], "probability": 0.5, "duration": 1800}},
    }


def test_contact_event_canonical_and_validated():
    ev = ContactEvent(5, 2, 10.0, 20.0)
    assert ev.pair == (2, 5)
    assert ev.duration == 10.0
    with pytest.raises(ValueError):
        ContactEvent(1, 1, 0.0, 10.0)
    with pytest.raises(ValueError):
        ContactEvent(0, 1, 10.0, 10.0)


def test_config_error_survives_a_pickle_round_trip():
    # a plan cell's error comes back from a worker process pickled
    sent = ConfigError("workload row 3", "size 9 exceeds buffer capacity")
    err = pickle.loads(pickle.dumps(sent))
    assert isinstance(err, ConfigError)
    assert (err.field, err.reason) == ("workload row 3", "size 9 exceeds buffer capacity")
    assert str(err) == "workload row 3: size 9 exceeds buffer capacity"


def test_sample_config_validation():
    assert CFG24.sample_length == 3600
    with pytest.raises(ConfigError) as err:
        SampleConfig(0, 86400)
    assert err.value.field == "samples_per_day"
    with pytest.raises(ConfigError) as err:
        SampleConfig(7, 86400)  # not divisible
    assert err.value.field == "seconds_per_day"


def test_sample_slot_monotone_and_periodic():
    # a fragment's slot never falls as its start grows, and one day later it
    # is the same sample of the next day
    rng = random.Random(7)
    prev = 0
    ts = 0.0
    for _ in range(500):
        ts += rng.uniform(0, 7200)
        lin = split_contact_by_samples(ts, ts + 1.0, 3600)[0][0]
        assert lin >= prev
        prev = lin
        assert split_contact_by_samples(ts + 86400, ts + 86401, 3600)[0][0] == lin + 24


def test_split_examples():
    assert split_contact_by_samples(0.0, 3600.0, 3600) == [(0, 3600.0)]
    assert split_contact_by_samples(27000.0, 30600.0, 3600) == [(7, 1800.0), (8, 1800.0)]
    assert split_contact_by_samples(85800.0, 87000.0, 3600) == [(23, 600.0), (24, 600.0)]


def test_split_is_lossless_and_bounded():
    rng = random.Random(42)
    for _ in range(2000):
        t = rng.choice([1, 2, 3, 4, 6, 8, 12, 24, 48])
        length = SampleConfig(t, 86400).sample_length
        start = rng.uniform(0, 5 * 86400)
        end = start + rng.uniform(1e-3, 2.5 * 86400)
        parts = split_contact_by_samples(start, end, length)
        total = sum(d for _, d in parts)
        assert math.isclose(total, end - start, rel_tol=1e-12)
        assert all(d <= length + 1e-9 for _, d in parts)
        linear = [lin for lin, _ in parts]
        assert linear == list(range(linear[0], linear[0] + len(parts)))


@pytest.mark.parametrize("samples_per_day", [1, 3, 24])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
@example(data=None)
def test_split_matches_day_and_sample_oracle(samples_per_day, data):
    # the linear slot of each fragment is the one that the day, then the
    # sample within the day, name: boundary-aligned starts and ends, and
    # times up to 1.6e12 s, where a float second is no longer exact
    cfg = SampleConfig(samples_per_day, 86400)
    length = cfg.sample_length
    if data is None:
        start, end = 1.6e12 - 1.6e12 % length, 1.6e12 + length  # a boundary, far out
    else:
        boundary = st.integers(0, int(1.6e12) // length).map(lambda k: float(k * length))
        start = data.draw(st.one_of(st.floats(0.0, 1.6e12), boundary), label="start")
        end = data.draw(
            st.one_of(
                st.floats(1e-3, 3.0 * 86400).map(lambda d: start + d),
                st.integers(1, 3 * samples_per_day).map(lambda k: float((start // length + k) * length)),
            ),
            label="end",
        )
        assume(start < end)
    assert split_contact_by_samples(start, end, length) == split_by_day_and_sample(start, end, cfg)


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
    with pytest.raises(ConfigError) as err:
        parse_contact_trace("a,b,start,end\n1,1,100,200\n", "csv")
    assert err.value.field == "line 2"
    with pytest.raises(ConfigError):
        parse_contact_trace("a,b,start,end\n1,2,300,200\n", "csv")  # start >= end
    with pytest.raises(ConfigError):
        parse_contact_trace("a,b,start,end\n1,2,oops,200\n", "csv")
    with pytest.raises(ConfigError):
        parse_contact_trace("not,a,header\n", "csv")
    with pytest.raises(ConfigError):
        parse_contact_trace("1 2 3\n", "haggle")


@pytest.mark.parametrize("fmt,record", [
    ("csv", "1,2,100,inf"),
    ("csv", "1,2,-inf,200"),
    ("csv", "1,2,nan,200"),
    ("haggle", "1 2 100 1e999"),
])
def test_parse_rejects_non_finite_times(fmt, record):
    header = "a,b,start,end\n" if fmt == "csv" else ""
    with pytest.raises(ConfigError, match="non-finite"):
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


def test_routine_spec_from_dict_keeps_integral_values():
    raw = routine_dict()
    raw.update(node_count=4.0, days=2.0, samples_per_day=24.0)
    raw["activities"]["work"].update(samples=[9.0, 10], probability=1, duration=1800)
    spec = RoutineSpec.from_dict(raw)
    assert (spec.node_count, spec.days, spec.cfg) == (4, 2, CFG24)
    assert spec.work == RelationActivity((9, 10), 1.0, 1800.0)
    assert type(spec.node_count) is int and type(spec.work.samples[0]) is int
    assert type(spec.work.probability) is float and type(spec.work.duration) is float


FROM_DICT_ERRORS = [
    (lambda d: d.update(node_count=4.7), "node_count"),
    (lambda d: d.update(node_count=True), "node_count"),
    (lambda d: d.update(days=2.5), "days"),
    (lambda d: d.update(samples_per_day=24.5), "samples_per_day"),
    (lambda d: d.update(seconds_per_day="86400"), "seconds_per_day"),
    (lambda d: d["groups"].update(work=[0, 0.5, 1, 1]), "groups.work[1]"),
    (lambda d: d["activities"]["work"].update(samples=[0, 1.5]), "activities.work.samples[1]"),
    (lambda d: d["activities"]["work"].update(probability=True), "activities.work.probability"),
    (lambda d: d["activities"]["work"].update(duration="1800"), "activities.work.duration"),
]


@pytest.mark.parametrize("edit,key", FROM_DICT_ERRORS, ids=[key for _, key in FROM_DICT_ERRORS])
def test_routine_spec_from_dict_rejects_non_integral_and_boolean_values(edit, key):
    raw = routine_dict()
    edit(raw)
    with pytest.raises(ConfigError) as err:
        RoutineSpec.from_dict(raw)
    assert str(err.value).startswith(f"{key}: expected ")


def test_routine_spec_validation():
    with pytest.raises(ConfigError, match="probability: 1.5 outside"):
        RelationActivity((0,), 1.5, 100.0)
    for duration in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="duration: must be finite and > 0"):
            RelationActivity((0,), 0.5, duration)
    with pytest.raises(ConfigError, match="work: duration 7200.0 exceeds sample length"):
        _two_node_work_spec(0.5, 7200.0)  # duration beyond the 1 h sample
    with pytest.raises(ConfigError, match="home_group: must list one group per node"):
        RoutineSpec(
            node_count=2,
            days=1,
            cfg=CFG24,
            home_group=(0,),  # wrong length
            work_group=(0, 0),
            social_group=(0, 1),
        )


# SHA-256 of the serialized trace of each (nodes, days, seed) desk spec: the
# 30- and 90-node desk weeks and the 45-node, 14-day history of the
# community_bw benchmark workload
TRACE_DIGESTS = {
    (30, 7, 1): "15cc484af682b2a53aec78aae73b0cbaea37397321fdfc1e73160b6dd76d7b5d",
    (30, 7, 9973): "3e58a2aa361e686af2a02a24519ba832814c36e3e4c385a6b0449e37ba50259a",
    (90, 7, 1): "5809751d577f308060360182673b7134441ad1111e7e065cee9f7b48017827bf",
    (90, 7, 9973): "cf60e297537fbe4d52363ffdda381eeb580ac068a18239375eb20dec6f539bd5",
    (45, 14, 1): "a5586aa694c3de115dd84c1b2b65a8ff8e7b81b5626a1759db420ed0d7f7357a",
    (45, 14, 9973): "b7d7f1566fd71cea49162a1a98ac5f94cd23186674a6d70afee84486b14a9328",
}


@pytest.mark.parametrize("nodes,days,seed", sorted(TRACE_DIGESTS))
def test_generator_trace_digest(nodes, days, seed):
    text = serialize_contact_trace(generate_routine_trace(desk_spec(nodes, days), seed))
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_DIGESTS[(nodes, days, seed)]


@st.composite
def routine_specs(draw):
    """Small routine specs over the corners of the generator: missing
    activities, one activity shared by two relations, repeated sample
    indices, probability 0 and 1, durations of 50 ms and of a whole sample,
    and 0 or 1 nodes and 0 days."""
    samples_per_day = draw(st.integers(1, 6))
    length = draw(st.sampled_from([1, 60, 3600]))
    node_count = draw(st.integers(0, 7))

    def activity():
        return st.none() | st.builds(
            RelationActivity,
            st.lists(st.integers(0, samples_per_day - 1), max_size=2 * samples_per_day).map(tuple),
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
            st.sampled_from([0.05, float(length)]) | st.floats(0.05, float(length)),
        )

    acts = [draw(activity()) for _ in range(4)]
    if draw(st.booleans()):
        src, dst = draw(st.permutations(range(4)))[:2]
        acts[dst] = acts[src]
    groups = [
        tuple(draw(st.lists(st.integers(0, 2), min_size=node_count, max_size=node_count)))
        for _ in range(3)
    ]
    return RoutineSpec(
        node_count=node_count,
        days=draw(st.integers(0, 3)),
        cfg=SampleConfig(samples_per_day, samples_per_day * length),
        home_group=groups[0],
        work_group=groups[1],
        social_group=groups[2],
        home=acts[0],
        work=acts[1],
        social=acts[2],
        background=acts[3],
    )


@settings(max_examples=300, deadline=None)
@given(spec=routine_specs(), seed=st.integers(0, 2**32))
@example(spec=desk_spec(12, 2), seed=3)
@example(spec=desk_spec(0, 1), seed=1)
@example(spec=desk_spec(1, 2), seed=1)
@example(spec=desk_spec(5, 0), seed=1)
def test_generator_matches_reference(spec, seed):
    assert generate_routine_trace(spec, seed) == reference_routine_trace(spec, seed)
