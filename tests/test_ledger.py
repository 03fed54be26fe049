import math
import random

import pytest

from dtnsim import LedgerOrderingError, SampleConfig, SocialLedger
from dtnsim.ledger import decay_coefficients, dump_ledgers_csv

from oracles import cumulative_average, pair_weight

CFG4 = SampleConfig(4, 86400)


def _ledger(node_count=4, cfg=CFG4, damping=0.8):
    return SocialLedger(node_count, cfg, damping)


def seed_ad(ledger: SocialLedger, ad: dict[int, list[float]]) -> None:
    """Drive one full day through the public API so node 0's per-day
    averages end up exactly at the requested values (first fold: average ==
    the value)."""
    t = ledger.cfg.samples_per_day
    for i in range(t):
        for peer, row in ad.items():
            if row[i] > 0:
                ledger.record_contact_fragment(0, peer, i, row[i])
        ledger.roll_sample()


def weight(ledger: SocialLedger, peer: int, sample: int | None = None) -> float:
    """Node 0's weight toward the peer at the sample (default: now)."""
    return float(ledger.weights_at(ledger.current_sample if sample is None else sample)[0, peer])


def test_fragments_accumulate():
    led = _ledger()
    led.record_contact_fragment(0, 1, 0, 100.0)
    led.record_contact_fragment(0, 1, 0, 200.0)
    assert led.tct[0, 1, 0] == 300.0
    with pytest.raises(ValueError):
        led.record_contact_fragment(0, 1, 0, 0.0)


def test_fragments_per_sample_independent():
    led = SocialLedger(3, SampleConfig(24, 86400))
    for i in range(8):
        led.roll_sample()
    led.record_contact_fragment(0, 1, 7, 50.0)  # past slot: accepted
    led.record_contact_fragment(0, 1, 8, 70.0)
    assert led.tct[0, 1, 7] == 50.0
    assert led.tct[0, 1, 8] == 70.0


def test_future_and_negative_fragments_rejected():
    led = _ledger()
    with pytest.raises(LedgerOrderingError):
        led.record_contact_fragment(0, 1, 1, 10.0)
    led.roll_sample()
    led.record_contact_fragment(0, 1, 1, 10.0)  # now the open slot
    with pytest.raises(LedgerOrderingError):
        led.record_contact_fragment(0, 1, 2, 10.0)
    with pytest.raises(ValueError):
        led.record_contact_fragment(0, 1, -1, 10.0)


def test_roll_examples():
    led = _ledger()
    led.record_contact_fragment(0, 1, 0, 100.0)
    led.roll_sample()
    assert led.ad[0, 1, 0] == 100.0  # (100 + 0) / 1
    for i in range(1, 4):
        led.roll_sample()
    led.record_contact_fragment(0, 1, 4, 200.0)
    led.roll_sample()
    assert led.ad[0, 1, 0] == 150.0  # (200 + 1*100) / 2
    assert led.clock == 5


def test_zero_contact_days_decay_and_zero_fixed_point():
    led = _ledger()
    led.record_contact_fragment(0, 1, 0, 400.0)
    for day in range(4):
        for i in range(4):
            led.roll_sample()
    # three zero-contact days still advance the average: 400 over 4 days
    assert led.ad[0, 1, 0] == pytest.approx(100.0, rel=1e-12)
    assert led.clock == 16
    assert led.ad[0, 2, 0] == 0.0  # never met: zero forever


def test_constant_tct_is_fixed_point():
    led = _ledger(cfg=SampleConfig(2, 86400))
    for day in range(6):
        for i in range(2):
            led.record_contact_fragment(0, 1, 2 * day + i, 1800.0)
            led.roll_sample()
    assert led.ad[0, 1, 0] == 1800.0
    assert led.ad[0, 1, 1] == 1800.0


def test_decay_coefficients_shape():
    coeff = decay_coefficients(24)
    assert coeff[0] == 1.0
    assert math.isclose(coeff[-1], 24 / 47)
    assert all(coeff[i] > coeff[i + 1] for i in range(23))


def test_weight_examples():
    led = SocialLedger(2, SampleConfig(24, 86400))
    assert weight(led, 1) == 0.0  # unknown peer
    seed_ad(led, {1: [3600.0 if i == 5 else 0.0 for i in range(24)]})
    assert weight(led, 1, 5) == 3600.0  # coefficient at the own sample is 1

    led4 = _ledger()
    seed_ad(led4, {1: [100.0, 200.0, 0.0, 400.0]})
    expected = 100.0 + 4 / 5 * 200.0 + 0.0 + 4 / 7 * 400.0
    assert math.isclose(weight(led4, 1, 0), expected, rel_tol=1e-12)
    assert math.isclose(expected, 488.5714285714286, rel_tol=1e-12)


def test_weight_linearity_and_monotonicity():
    rng = random.Random(11)
    for _ in range(200):
        t = rng.choice([2, 4, 6, 8, 12, 24])
        cfg = SampleConfig(t, 86400)
        base = [rng.uniform(0, 3600) for _ in range(t)]
        bigger = [v + rng.uniform(0, 100) for v in base]
        bigger[rng.randrange(t)] += 1.0  # strict somewhere
        scale = rng.uniform(0.1, 10)
        led = SocialLedger(4, cfg)
        seed_ad(led, {1: base, 2: bigger, 3: [scale * v for v in base]})
        i = rng.randrange(t)
        w1 = weight(led, 1, i)
        w2 = weight(led, 2, i)
        w3 = weight(led, 3, i)
        assert w2 > w1
        assert math.isclose(w3, scale * w1, rel_tol=1e-9)


def test_weight_ranking_invariant_under_scaling():
    rng = random.Random(13)
    led_a = SocialLedger(5, CFG4)
    led_b = SocialLedger(5, CFG4)
    rows = {p: [rng.uniform(0, 1000) for _ in range(4)] for p in (1, 2, 3, 4)}
    seed_ad(led_a, rows)
    seed_ad(led_b, {p: [7.5 * v for v in row] for p, row in rows.items()})
    for i in range(4):
        rank_a = sorted((1, 2, 3, 4), key=lambda p: weight(led_a, p, i))
        rank_b = sorted((1, 2, 3, 4), key=lambda p: weight(led_b, p, i))
        assert rank_a == rank_b


def test_importance_examples():
    led = SocialLedger(3, CFG4, damping=0.0)
    led.mark_met(0, 1)
    assert led.update_importance(0) == 1.0  # no damping: constant 1

    led = SocialLedger(3, CFG4, damping=0.8)
    assert led.update_importance(0) == pytest.approx(0.2)  # empty neighbor set

    led = SocialLedger(3, CFG4, damping=0.8)
    seed_ad(led, {1: [0.5, 0.0, 0.0, 0.0]})  # weight 0.5 at sample 0
    led.mark_met(0, 1)
    led._peer_importance[0][1] = 1.0
    assert math.isclose(led.update_importance(0), 0.6, rel_tol=1e-12)


def test_importance_bounds_and_cache():
    rng = random.Random(17)
    for _ in range(100):
        d = rng.uniform(0, 1)
        led = SocialLedger(6, CFG4, damping=d)
        rows = {p: [rng.uniform(0, 2000) for _ in range(4)] for p in range(1, 6)}
        seed_ad(led, rows)
        neighbors = [p for p in range(1, 6) if rng.random() < 0.6]
        imps = {}
        for p in neighbors:
            led.mark_met(0, p)
            imps[p] = rng.uniform(1 - d, 3.0)
            led._peer_importance[0][p] = imps[p]
        value = led.update_importance(0)
        assert value >= (1 - d) - 1e-12
        if neighbors:
            w_max = max(weight(led, p) for p in neighbors)
            i_max = max(imps.values())
            assert value <= (1 - d) + d * w_max * i_max + 1e-9
        assert led.importance(0) == value
    # cached neighbor importance defaults to the base value before any exchange
    led = SocialLedger(2, CFG4, damping=0.8)
    assert led._peer_importance[0][1] == pytest.approx(0.2)


def test_neighbor_set_resets_on_roll():
    led = _ledger()
    led.mark_met(0, 1)
    led.record_contact_fragment(0, 2, 0, 5.0)
    assert led.neighbors[0] == {1, 2}
    led.roll_sample()
    assert led.neighbors[0] == set()


def test_ledger_dump_csv():
    led = _ledger()
    seed_ad(led, {1: [100.0, 0.0, 0.0, 0.0]})
    pair_csv, imp_csv = dump_ledgers_csv(led)
    assert pair_csv.splitlines()[0] == "node,peer,sample,ad,weight"
    assert imp_csv.splitlines()[0] == "node,sample,importance"
    assert any(line.startswith("0,1,0,100.0") for line in pair_csv.splitlines())
    assert len(imp_csv.splitlines()) == 1 + 4 * led.node_count  # every node's samples


def test_against_formula_oracles_small():
    rng = random.Random(23)
    for _ in range(50):
        t = rng.choice([2, 3, 4, 6])
        cfg = SampleConfig(t, 86400)
        led = SocialLedger(3, cfg)
        days = rng.randint(1, 5)
        history = {i: [] for i in range(t)}
        for day in range(days):
            for i in range(t):
                tct = rng.choice([0.0, rng.uniform(1, 3600)])
                if tct:
                    led.record_contact_fragment(0, 1, day * t + i, tct)
                history[i].append(tct)
                led.roll_sample()
        ad_row = [cumulative_average(history[i]) for i in range(t)]
        for i in range(t):
            assert math.isclose(led.ad[0, 1, i], ad_row[i], rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(
                weight(led, 1, i), pair_weight(ad_row, i, t), rel_tol=1e-9, abs_tol=1e-12
            )


def test_fragment_lands_on_both_sides_and_checks_the_pair():
    led = _ledger()
    led.record_contact_fragment(2, 3, 0, 60.0)
    assert led.tct[2, 3, 0] == led.tct[3, 2, 0] == 60.0
    assert led.neighbors[2] == {3} and led.neighbors[3] == {2}
    for a, b in ((1, 1), (0, 4), (-1, 2)):
        with pytest.raises(ValueError):
            led.record_contact_fragment(a, b, 0, 1.0)
