import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scistats

from seedbank.blockcount import (
    BlockCountState,
    bc_transition_rates,
    expected_branch_lengths_first_step,
    expected_tmrca_first_step,
)
from seedbank.coalescent import (
    ACTIVE,
    DORMANT,
    Genealogy,
    GenealogyEvent,
    MarkedPartition,
    branch_lengths,
    mark_segments,
    partition_transition_rates,
    simulate_coalescent,
    tmrca,
)
from seedbank.measures import ModelParams, SwitchingMeasure
from seedbank.mutation_stats import drop_mutations

P11 = ModelParams(c=1.0, K=1.0)
PMIX = ModelParams(
    c=0.7, K=1.4,
    lambda_ad=SwitchingMeasure.atom(0.4, 0.5),
    lambda_da=SwitchingMeasure.atom(0.8, 0.3),
)


def test_partition_validation():
    MarkedPartition.singletons(3, 2).validate()
    with pytest.raises(ValueError):
        MarkedPartition(blocks=((frozenset(), ACTIVE),)).validate()
    with pytest.raises(ValueError):
        MarkedPartition(
            blocks=((frozenset([1, 2]), ACTIVE), (frozenset([2]), DORMANT))
        ).validate()
    with pytest.raises(ValueError):
        MarkedPartition(blocks=((frozenset([2]), ACTIVE),)).validate()


def test_transition_rate_examples():
    rates = partition_transition_rates(MarkedPartition.singletons(2, 0), P11)
    assert rates[("merge",)] == 1.0
    assert rates[("to_dormant", 1)] == 2.0
    assert rates[("to_dormant", 2)] == 0.0
    assert ("to_active", 1) not in rates

    rates = partition_transition_rates(MarkedPartition.singletons(1, 0), PMIX)
    assert rates[("merge",)] == 0.0

    p = ModelParams(c=0.0, lambda_ad=SwitchingMeasure.atom(0.5, 0.4))
    rates = partition_transition_rates(MarkedPartition.singletons(3, 0), p)
    assert rates[("to_dormant", 2)] == pytest.approx(0.3, abs=1e-15)
    assert rates[("to_dormant", 1)] == pytest.approx(0.3, abs=1e-15)
    assert rates[("to_dormant", 3)] == pytest.approx(0.1, abs=1e-15)
    total = sum(r for k, r in rates.items() if k[0] == "to_dormant")
    assert total == pytest.approx(0.8 * (1 - 0.5**3), rel=1e-12)


def test_trivial_sample():
    g = simulate_coalescent(1, 0, P11, seed=0)
    assert g.events == [] and g.reached_mrca and tmrca(g) == 0.0
    assert branch_lengths(g) == (0.0, 0.0)


def test_simulation_matches_first_step_oracle():
    rng = np.random.default_rng(1)
    ts, las, lds = [], [], []
    for _ in range(15_000):
        g = simulate_coalescent(2, 0, P11, seed=rng)
        ts.append(tmrca(g))
        la, ld = branch_lengths(g)
        las.append(la)
        lds.append(ld)
    for vals, want in ((ts, 4.0), (las, 4.0), (lds, 4.0)):
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - want) <= 3.5 * se


def test_replay_validates_and_reaches_mrca():
    for seed in range(30):
        g = simulate_coalescent(6, 3, PMIX, seed=seed)
        assert g.reached_mrca
        last = None
        for _, part in g.replay():
            last = part
        assert len(last.blocks) == 1
        # merges never touch dormant blocks: replay would have raised


def test_no_multi_flips_without_measures():
    for seed in range(20):
        g = simulate_coalescent(5, 2, P11, seed=seed)
        assert all(len(ev.blocks) == 1 for ev in g.events if ev.kind != "merge")


def test_multi_flips_happen_with_measures():
    heavy = ModelParams(c=0.1, K=1.0, lambda_ad=SwitchingMeasure.atom(0.9, 3.0))
    sizes = Counter()
    for seed in range(40):
        g = simulate_coalescent(6, 0, heavy, horizon=2.0, seed=seed)
        for ev in g.events:
            if ev.kind == "to_dormant":
                sizes[len(ev.blocks)] += 1
    assert any(k >= 2 for k in sizes)


def test_determinism():
    a = simulate_coalescent(4, 1, PMIX, seed=42)
    b = simulate_coalescent(4, 1, PMIX, seed=42)
    assert a == b


def test_exchangeability_first_merge_pair():
    # with four active singletons every pair is equally likely to merge first
    p = ModelParams(c=0.5, K=1.0)
    counts = Counter()
    rng = np.random.default_rng(3)
    for _ in range(6_000):
        g = simulate_coalescent(4, 0, p, seed=rng)
        first = next(ev for ev in g.events if ev.kind == "merge")
        counts[first.blocks] += 1
    freq = np.array([counts[pair] for pair in sorted(counts)])
    assert len(freq) == 6
    stat = ((freq - freq.mean()) ** 2 / freq.mean()).sum()
    assert scistats.chi2.sf(stat, df=5) > 0.001


@pytest.mark.parametrize("k", [2, 3])
def test_exchangeability_first_flip_subset(k):
    # a heavy atom makes a k-block deactivation a likely first event out of
    # five active singletons; each of the ten k-subsets is then equally likely
    p = ModelParams(c=0.5, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 40.0))
    counts = Counter()
    rng = np.random.default_rng(10 + k)
    for _ in range(10_000):
        g = simulate_coalescent(5, 0, p, horizon=0.05, seed=rng)
        if g.events and g.events[0].kind == "to_dormant" and len(g.events[0].blocks) == k:
            counts[g.events[0].blocks] += 1
    freq = np.array([counts[subset] for subset in itertools.combinations(range(1, 6), k)])
    assert sum(counts.values()) == freq.sum() > 2_000
    stat = ((freq - freq.mean()) ** 2 / freq.mean()).sum()
    assert scistats.chi2.sf(stat, df=9) > 0.001


def test_projection_consistency():
    # per-transition event counts match block-count rates times exposure
    p = ModelParams(c=0.8, K=1.2, lambda_ad=SwitchingMeasure.atom(0.5, 0.6))
    exposure: Counter = Counter()
    counts: Counter = Counter()
    rng = np.random.default_rng(4)
    for _ in range(4_000):
        g = simulate_coalescent(3, 1, p, seed=rng)
        state = BlockCountState(3, 1)
        t_prev = 0.0
        for ev in g.events:
            exposure[state] += ev.time - t_prev
            t_prev = ev.time
            if ev.kind == "merge":
                state = BlockCountState(state.n - 1, state.m)
            elif ev.kind == "to_dormant":
                j = len(ev.blocks)
                counts[(state, BlockCountState(state.n - j, state.m + j))] += 1
                state = BlockCountState(state.n - j, state.m + j)
            else:
                j = len(ev.blocks)
                counts[(state, BlockCountState(state.n + j, state.m - j))] += 1
                state = BlockCountState(state.n + j, state.m - j)
    stat = 0.0
    dof = 0
    for s, exp_time in exposure.items():
        for target, rate in bc_transition_rates(s, p):
            if target.n + target.m == s.n + s.m - 1:
                continue  # merges were not tallied above
            expected = rate * exp_time
            if expected >= 10:
                observed = counts[(s, target)]
                stat += (observed - expected) ** 2 / expected
                dof += 1
    assert dof >= 4
    assert scistats.chi2.sf(stat, df=dof) > 0.001


def test_branch_lengths_hand_example():
    g = Genealogy(n_active=2, m_dormant=0, end_time=1.2, reached_mrca=True)
    g.events.append(GenealogyEvent(time=1.2, kind="merge", blocks=(1, 2)))
    assert branch_lengths(g) == (pytest.approx(2.4), 0.0)
    assert tmrca(g) == 1.2


def test_branch_lengths_oracle_with_dormancy():
    want = expected_branch_lengths_first_step(BlockCountState(3, 1), P11)
    rng = np.random.default_rng(5)
    las, lds = [], []
    for _ in range(10_000):
        g = simulate_coalescent(3, 1, P11, seed=rng)
        la, ld = branch_lengths(g)
        las.append(la)
        lds.append(ld)
    for vals, target in ((las, want[0]), (lds, want[1])):
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - target) <= 3.5 * se


def test_horizon_stop():
    g = simulate_coalescent(5, 0, ModelParams(c=0.0), horizon=0.01, seed=1)
    assert not g.reached_mrca
    assert tmrca(g) is None
    assert g.end_time == 0.01


def test_stranded_raises_without_horizon():
    with pytest.raises(ValueError):
        simulate_coalescent(3, 2, ModelParams(c=0.0), seed=0)
    # but a horizon run is fine
    g = simulate_coalescent(3, 2, ModelParams(c=0.0), horizon=5.0, seed=0)
    assert {m for _, m in g.final_partition().blocks} >= {DORMANT}


def test_segments_match_branch_lengths():
    stopped = 0  # genealogies cut at the horizon, whose open blocks end there
    for seed, horizon in itertools.product(range(10), (None, 0.3)):
        g = simulate_coalescent(5, 2, PMIX, horizon=horizon, seed=seed)
        stopped += not g.reached_mrca
        segs = mark_segments(g)
        sa = sum(t1 - t0 for _, _, mk, t0, t1 in segs if mk == ACTIVE)
        sd = sum(t1 - t0 for _, _, mk, t0, t1 in segs if mk == DORMANT)
        la, ld = branch_lengths(g)
        assert sa == pytest.approx(la, rel=1e-9)
        assert sd == pytest.approx(ld, rel=1e-9)
    assert stopped


def test_jsonl_round_trip():
    g = simulate_coalescent(4, 1, PMIX, seed=11)
    assert Genealogy.from_jsonl(g.to_jsonl()) == g


def test_newick():
    g = Genealogy(n_active=2, m_dormant=0, end_time=0.7, reached_mrca=True)
    g.events.append(GenealogyEvent(time=0.7, kind="merge", blocks=(1, 2)))
    assert g.to_newick() == "# marks (active/dormant) omitted\n(1:0.7,2:0.7);\n"
    partial = simulate_coalescent(4, 0, P11, horizon=1e-6, seed=2)
    with pytest.raises(ValueError):
        partial.to_newick()


# hand-built corrupt logs: (n_active, m_dormant, events, end_time, reached_mrca)
CORRUPT_LOGS = {
    "merge of a dormant block": (1, 1, [(0.5, "merge", (1, 2))], 0.5, True),
    "wrong-mark flip": (2, 0, [(0.3, "to_active", (1,)), (1.0, "merge", (1, 2))], 1.0, True),
    "flip repeating a block": (
        2, 0, [(0.2, "to_dormant", (1, 1)), (0.4, "to_active", (1,)), (1.0, "merge", (1, 2))],
        1.0, True,
    ),
    "equal event times": (3, 0, [(0.5, "merge", (1, 2)), (0.5, "merge", (1, 3))], 0.5, True),
    "flagged at the MRCA with 2 blocks left": (3, 0, [(0.4, "merge", (1, 2))], 0.4, True),
    "end time before the last event": (2, 0, [(1.0, "merge", (1, 2))], 0.5, True),
}


def test_replay_rejects_corrupt_logs():
    for name, (n, m, events, end_time, reached) in CORRUPT_LOGS.items():
        g = Genealogy(n_active=n, m_dormant=m, end_time=end_time, reached_mrca=reached,
                      events=[GenealogyEvent(*ev) for ev in events])
        consumers = [lambda: list(g.replay()), lambda: branch_lengths(g), lambda: tmrca(g),
                     lambda: mark_segments(g), lambda: drop_mutations(g, 1.0, 1.0, seed=0)]
        if reached:
            consumers.append(g.to_newick)
        for consume in consumers:
            try:
                consume()
            except ValueError:
                continue
            pytest.fail(f"{name}: accepted by {consume}")
