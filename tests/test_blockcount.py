import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ks_2samp

from seedbank import blockcount
from seedbank.blockcount import (
    MERGE,
    TO_ACTIVE,
    TO_DORMANT,
    BlockCountState,
    _categories,
    _generator,
    _move_table,
    _moves,
    bc_transition_rates,
    blockcount_ensemble,
    coming_down_scan,
    duality_rhs,
    expected_branch_lengths_first_step,
    expected_tmrca_first_step,
    mrca_reachable,
    simulate_blockcount,
    tmrca_loglog_scan,
)
from seedbank.coalescent import simulate_coalescent
from seedbank.measures import ModelParams, SwitchingMeasure
from test_properties import _rate_table_lattice

P11 = ModelParams(c=1.0, K=1.0)
ATOM = SwitchingMeasure.atom(0.5, 0.4)


def test_rate_table_spontaneous():
    p = ModelParams(c=2.0, K=0.5)
    got = dict(bc_transition_rates(BlockCountState(3, 2), p))
    assert got == {
        BlockCountState(2, 2): 3.0,
        BlockCountState(2, 3): 6.0,
        BlockCountState(4, 1): 2.0,
    }


def test_rate_table_absorbed_state():
    assert bc_transition_rates(BlockCountState(1, 0), ModelParams(c=0.0)) == []


def test_rate_table_with_atom():
    p = ModelParams(c=0.0, lambda_ad=ATOM)
    got = dict(bc_transition_rates(BlockCountState(3, 0), p))
    want = {
        BlockCountState(2, 0): 3.0,
        BlockCountState(2, 1): 0.3,
        BlockCountState(1, 2): 0.3,
        BlockCountState(0, 3): 0.1,
    }
    assert set(got) == set(want)
    for s, r in want.items():
        assert got[s] == pytest.approx(r, abs=1e-15)


def test_pick_never_returns_a_zero_rate_category():
    # u = 0.0 with a leading zero-rate merge (one active line)
    cats = _categories(1, 2, P11)
    assert cats[0] == (MERGE, 2, 0.0)
    moves = _moves(1, 2, P11)
    assert moves.pick(0.0) == (TO_DORMANT, 1, (0, 3))
    # u past the left-to-right running sum with a trailing zero-rate category
    assert cats[-1] == (TO_ACTIVE, 2, 0.0)
    acc = 0.0
    for _, _, r in cats:
        acc += r
    assert moves.pick(math.nextafter(acc, math.inf)) == (TO_ACTIVE, 1, (2, 1))


def test_move_table_keeps_only_small_states():
    p = ModelParams(c=1.0, K=1.0, lambda_ad=ATOM)
    table = _move_table(p)
    assert _move_table(ModelParams(c=1.0, K=1.0, lambda_ad=ATOM)) is table
    small = (blockcount._CACHED_LINES - 1, 1)
    large = (blockcount._CACHED_LINES, 1)
    assert table[small] is table[small]
    assert table[large] == _moves(*large, p) and large not in table


class _ZeroUniform(np.random.Generator):
    """A generator whose category draw is always the lower end, u = 0.0."""

    def random(self, *args, **kwargs):
        return 0.0


def test_simulators_skip_a_zero_rate_merge_at_u_zero():
    for sim in (
        lambda rng: [s for _, s in simulate_blockcount(BlockCountState(1, 2), P11, horizon=2.0, seed=rng)],
        lambda rng: [ev.kind for ev in simulate_coalescent(1, 2, P11, horizon=2.0, seed=rng).events],
    ):
        steps = sim(_ZeroUniform(np.random.PCG64(0)))
        assert len(steps) > 1 and MERGE not in steps


# subnormal c: the holding times overflow the clock or fall below its resolution
SUBNORMAL_C = ModelParams(c=1.1125369292536007e-308, K=1.0)
# c = 1e-300 with this atom: each return of both lines to the seed bank
# costs about 1/c of clock time, after which unit holding times are lost
TINY_C = ModelParams(c=1e-300, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 1.0))


@pytest.mark.parametrize("params", [SUBNORMAL_C, TINY_C])
def test_event_times_must_advance(params):
    for seed in range(3):
        with pytest.raises(ValueError, match="does not advance the clock"):
            simulate_blockcount(BlockCountState(0, 2), params, seed=seed)
        with pytest.raises(ValueError, match="does not advance the clock"):
            simulate_coalescent(0, 2, params, seed=seed)


def test_event_budget_stops_a_runaway_run(monkeypatch):
    long_path = simulate_blockcount(BlockCountState(2, 0), P11, horizon=2000.0, seed=0)
    monkeypatch.setattr(blockcount, "MAX_EVENTS", 1000)
    # c = 1e-6: both lines are active together about once per 1e6 flips
    slow = ModelParams(c=1e-6, K=1.0, lambda_ad=ATOM)
    with pytest.raises(ValueError, match=r"event budget of 1000 events.*horizon"):
        simulate_blockcount(BlockCountState(0, 2), slow, seed=0)
    with pytest.raises(ValueError, match=r"event budget of 1000 events.*horizon"):
        simulate_coalescent(0, 2, slow, seed=0)
    # a run of exactly the budget is allowed
    path = long_path[:1001]
    assert simulate_blockcount(BlockCountState(2, 0), P11, horizon=path[-1][0], seed=0) == path


def test_first_step_examples():
    assert expected_tmrca_first_step(BlockCountState(1, 0), P11) == 0.0
    assert expected_tmrca_first_step(BlockCountState(2, 0), ModelParams(c=0.0)) == pytest.approx(1.0, abs=1e-12)
    assert expected_tmrca_first_step(BlockCountState(2, 0), P11) == pytest.approx(4.0, abs=1e-10)


def test_first_step_branch_lengths():
    assert expected_branch_lengths_first_step(BlockCountState(1, 0), P11) == (0.0, 0.0)
    la, ld = expected_branch_lengths_first_step(BlockCountState(2, 0), ModelParams(c=0.0))
    assert (la, ld) == (pytest.approx(2.0, abs=1e-12), 0.0)
    # hand-solved 3x3 reward systems for c = K = 1
    la, ld = expected_branch_lengths_first_step(BlockCountState(2, 0), P11)
    assert la == pytest.approx(4.0, abs=1e-10)
    assert ld == pytest.approx(4.0, abs=1e-10)


def test_unreachable_mrca_raises():
    stranded = ModelParams(c=0.0)
    assert not mrca_reachable(BlockCountState(2, 1), stranded)
    with pytest.raises(ValueError):
        expected_tmrca_first_step(BlockCountState(2, 1), stranded)
    with pytest.raises(ValueError):
        simulate_blockcount(BlockCountState(2, 1), stranded)
    # a deactivation measure with no way back also strands lines
    one_way = ModelParams(c=0.0, lambda_ad=ATOM)
    with pytest.raises(ValueError):
        expected_tmrca_first_step(BlockCountState(3, 0), one_way)
    # a horizon is None or finite and nonnegative, and so is the duality time
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be None or finite and nonnegative"):
            simulate_blockcount(BlockCountState(2, 0), P11, horizon=bad, seed=0)
        with pytest.raises(ValueError, match="horizon must be None or finite and nonnegative"):
            simulate_coalescent(2, 0, P11, horizon=bad, seed=0)
        with pytest.raises(ValueError, match="horizon must be None or finite and nonnegative"):
            blockcount_ensemble(BlockCountState(2, 0), P11, 10, horizon=bad, stop_at_total_one=False, seed=0)
        for method in ("exact", "mc"):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                duality_rhs(1, 0, 0.5, 0.5, P11, bad, method=method, reps=10, seed=0)


def test_simulate_blockcount_paths():
    path = simulate_blockcount(BlockCountState(1, 0), ModelParams(c=0.0), seed=0)
    assert path == [(0.0, BlockCountState(1, 0))]
    p = ModelParams(c=1.3, K=0.7, lambda_ad=ATOM, lambda_da=SwitchingMeasure.atom(0.8, 0.2))
    for seed in range(5):
        path = simulate_blockcount(BlockCountState(4, 2), p, seed=seed)
        totals = [s.n + s.m for _, s in path]
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        assert totals[-1] == 1
        times = [t for t, _ in path]
        assert all(a < b for a, b in zip(times, times[1:]))
    assert simulate_blockcount(BlockCountState(4, 2), p, seed=9) == simulate_blockcount(
        BlockCountState(4, 2), p, seed=9
    )


def test_ensemble_matches_first_step():
    res = blockcount_ensemble(BlockCountState(2, 0), P11, 50_000, seed=1)
    mean = res.absorption_time.mean()
    se = res.absorption_time.std(ddof=1) / math.sqrt(50_000)
    assert abs(mean - 4.0) <= 3 * se


def test_ensemble_matches_first_step_with_atoms():
    p = ModelParams(c=0.6, K=1.4, lambda_ad=ATOM, lambda_da=SwitchingMeasure.atom(0.9, 0.3))
    for s0 in (BlockCountState(3, 0), BlockCountState(2, 2)):
        want = expected_tmrca_first_step(s0, p)
        res = blockcount_ensemble(s0, p, 30_000, seed=2)
        mean = res.absorption_time.mean()
        se = res.absorption_time.std(ddof=1) / math.sqrt(30_000)
        assert abs(mean - want) <= 3.5 * se


BETA_MODELS = [
    # the README model: an atom and a Beta(2, 2) component to dormancy
    ModelParams(
        c=1.0,
        K=2.0,
        lambda_ad=SwitchingMeasure(atoms=((0.5, 0.4),), beta_components=((2.0, 2.0, 0.6),)),
        lambda_da=SwitchingMeasure.atom(0.3, 0.5),
    ),
    # alpha <= 1 on both sides and no spontaneous switching
    ModelParams(
        c=0.0,
        K=1.0,
        lambda_ad=SwitchingMeasure(beta_components=((0.5, 2.0, 0.8),)),
        lambda_da=SwitchingMeasure(beta_components=((0.3, 0.7, 1.0),)),
    ),
    # five components: eight rate categories, where numpy's row sum turns pairwise
    ModelParams(
        c=1.0,
        K=2.0,
        lambda_ad=SwitchingMeasure(atoms=((0.5, 0.4), (0.2, 0.3)), beta_components=((2.0, 2.0, 0.6),)),
        lambda_da=SwitchingMeasure(atoms=((0.3, 0.5),), beta_components=((1.5, 3.0, 0.4),)),
    ),
]


@pytest.mark.parametrize("p", BETA_MODELS)
def test_ensemble_matches_first_step_with_beta(p):
    for s0 in (BlockCountState(4, 1), BlockCountState(2, 2)):
        want = expected_tmrca_first_step(s0, p)
        res = blockcount_ensemble(s0, p, 20_000, seed=9)
        mean = res.absorption_time.mean()
        se = res.absorption_time.std(ddof=1) / math.sqrt(20_000)
        assert abs(mean - want) <= 3.5 * se


@pytest.mark.parametrize("p", BETA_MODELS)
def test_ensemble_horizon_matches_exact_duality_with_beta(p):
    exact, _ = duality_rhs(3, 2, 0.4, 0.7, p, 0.6)
    mc, se = duality_rhs(3, 2, 0.4, 0.7, p, 0.6, method="mc", reps=40_000, seed=10)
    assert abs(mc - exact) <= 3.5 * se


def test_duality_exact_at_zero_and_one():
    for n, m, x, y in [(2, 1, 0.3, 0.8), (1, 0, 0.0, 0.5), (0, 2, 0.7, 0.2)]:
        val, se = duality_rhs(n, m, x, y, P11, 0.0)
        assert val == x**n * y**m and se == 0.0
    for t in (0.3, 2.0):
        val, _ = duality_rhs(2, 2, 1.0, 1.0, P11, t)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_duality_two_state_closed_form():
    t = math.log(2) / 2
    val, _ = duality_rhs(1, 0, 0.4, 0.8, P11, t)
    assert val == pytest.approx(0.75 * 0.4 + 0.25 * 0.8, abs=1e-10)


def test_duality_against_matrix_exponential():
    p = ModelParams(c=1.2, K=0.7, lambda_ad=ATOM, lambda_da=SwitchingMeasure.atom(0.9, 0.2))
    s0 = BlockCountState(2, 1)
    moves = _rate_table_lattice(s0, p)
    states = sorted(moves)
    idx = {s: i for i, s in enumerate(states)}
    Q = np.zeros((len(states), len(states)))
    for s, i in idx.items():
        for tgt, r in moves[s]:
            Q[i, idx[tgt]] += r
            Q[i, i] -= r
    x, y, t = 0.3, 0.9, 1.7
    f = np.array([x**s.n * y**s.m for s in states])
    want = (expm(Q * t) @ f)[idx[s0]]
    got, _ = duality_rhs(2, 1, x, y, p, t)
    assert got == pytest.approx(want, abs=1e-10)


def test_generator_keeps_only_reachable_states():
    # a Kingman start only merges: 50 of the 1,326 states of its triangle
    a, d, i0, Q = _generator(BlockCountState(50, 0), ModelParams(c=0.0))
    assert a.tolist() == list(range(1, 51)) and d.tolist() == [0] * 50
    assert i0 == 49 and Q.shape == (50, 50)


def test_lattice_budget_stops_a_large_oracle(monkeypatch):
    # a billion lines: refused after the first rows, before any state array
    with pytest.raises(ValueError, match=r"has at least \d+ moves, past the lattice budget of 3000000"):
        duality_rhs(10**9, 0, 0.5, 0.5, P11, 1.0)
    # from (n, 0) at c = K = 1: C(n, 2) merges and n(n + 1) single flips
    monkeypatch.setattr(blockcount, "MAX_LATTICE_MOVES", 155)
    a, _, _, Q = _generator(BlockCountState(10, 0), P11)
    assert Q.nnz == 155 + a.size  # a start of exactly the budget builds
    past = r"lattice from \(11, 0\) has at least 157 moves, past the lattice budget of 155 moves"
    with pytest.raises(ValueError, match=past):
        expected_tmrca_first_step(BlockCountState(11, 0), P11)
    with pytest.raises(ValueError, match=past):
        duality_rhs(11, 0, 0.5, 0.5, P11, 1.0)


def test_duality_long_time_limit():
    for K in (1.0, 2.0):
        p = ModelParams(c=1.0, K=K)
        x, y = 0.2, 0.8
        want = (y + x * K) / (1.0 + K)
        for n, m in [(1, 0), (2, 2), (0, 3)]:
            got, _ = duality_rhs(n, m, x, y, p, 100.0)
            assert got == pytest.approx(want, abs=1e-6)


def test_duality_mc_agrees_with_exact():
    p = ModelParams(c=1.2, K=0.7, lambda_ad=ATOM, lambda_da=SwitchingMeasure.atom(0.9, 0.2))
    exact, _ = duality_rhs(2, 1, 0.3, 0.9, p, 1.7)
    mc, se = duality_rhs(2, 1, 0.3, 0.9, p, 1.7, method="mc", reps=40_000, seed=3)
    assert abs(mc - exact) <= 3 * se


def test_duality_mc_beta_fallback():
    p = ModelParams(c=1.0, K=1.0, lambda_ad=SwitchingMeasure(beta_components=((2.0, 2.0, 0.5),)))
    exact, _ = duality_rhs(2, 0, 0.4, 0.6, p, 0.8)
    mc, se = duality_rhs(2, 0, 0.4, 0.6, p, 0.8, method="mc", reps=2_000, seed=4)
    assert abs(mc - exact) <= 3 * se + 0.01


def test_scans():
    rows = tmrca_loglog_scan(P11, [16, 64], 400, seed=5)
    assert [r.n for r in rows] == [16, 64]
    assert all(r.mean > 0 and r.stderr > 0 and r.ratio > 0 for r in rows)
    with pytest.raises(ValueError):
        tmrca_loglog_scan(P11, [8], 10, seed=0)

    p = ModelParams(c=0.0, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 1.0))
    rows = coming_down_scan(p, [32, 64], 0.1, 400, seed=6)
    assert math.isnan(rows[0].ratio)
    assert rows[1].ratio == pytest.approx(rows[1].mean / rows[0].mean)
    with pytest.raises(ValueError):
        coming_down_scan(p, [32], 0.0, 10)


def test_kingman_mean_tmrca():
    # 2 (1 - 1/n) for the plain coalescent
    res = blockcount_ensemble(BlockCountState(30, 0), ModelParams(c=0.0), 20_000, seed=7)
    mean = res.absorption_time.mean()
    se = res.absorption_time.std(ddof=1) / math.sqrt(20_000)
    assert abs(mean - 2 * (1 - 1 / 30)) <= 3 * se


def test_ensemble_horizon_keeps_mark_flips():
    # at total 1 the last line keeps flipping; both (1,0) and (0,1) must occur,
    # also from a one-line start
    for s0 in (BlockCountState(2, 0), BlockCountState(1, 0)):
        res = blockcount_ensemble(s0, P11, 4_000, horizon=80.0, stop_at_total_one=False, seed=8)
        done = res.total == 1
        assert done.mean() > 0.995  # stragglers past t=80 are vanishingly rare
        frac_active = (res.n[done] == 1).mean()
        # stationary split of the flip chain is K/(1+K) active = 1/2
        assert abs(frac_active - 0.5) <= 3.5 * math.sqrt(0.25 / done.sum())
    assert (res.absorption_time == 0.0).all()  # the one-line start is at total 1 from t = 0


def test_ensemble_stops_lanes_with_no_move():
    # two dormant lines with c = 0 and no measure: no move has a positive rate
    res = blockcount_ensemble(BlockCountState(0, 2), ModelParams(c=0.0), 5, horizon=1.0, seed=0)
    assert res.n.tolist() == [0] * 5 and res.m.tolist() == [2] * 5
    assert np.isnan(res.absorption_time).all()


@pytest.mark.parametrize("reps", [0, -1])
def test_ensemble_refuses_fewer_than_one_lane(reps):
    with pytest.raises(ValueError, match=f"reps must be at least 1, got {reps}"):
        blockcount_ensemble(BlockCountState(2, 0), P11, reps, seed=0)


# --- the block ensemble against the scalar loop -----------------------------
#
# blockcount_ensemble moves each lane by blocks of merges; these tests hold
# its laws to the one-event scalar loop, at the widths its cost rule picks
# and at a forced width of 16 steps, which puts blocks on every state.

SPONTANEOUS = ModelParams(c=1.0, K=1.0)
README_MODEL = BETA_MODELS[0]
# criterion 09's model that comes down from infinity: no way back from dormancy
COMING_DOWN = ModelParams(c=0.0, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 1.0))
KS_LEVEL = 1e-3

ABSORPTION_CASES = {
    "1000-0-spontaneous": (BlockCountState(1000, 0), SPONTANEOUS, 60, 500),
    "200-0-readme": (BlockCountState(200, 0), README_MODEL, 300, 500),
    "6-2-readme": (BlockCountState(6, 2), README_MODEL, 2000, 1000),
    # every move a merge: blocks walk down to two lines, and no rate but the
    # merges' may be divided by
    "30-0-kingman": (BlockCountState(30, 0), ModelParams(c=0.0), 2000, 500),
}


@pytest.fixture(params=[None, 16], ids=["chosen-width", "width-16"])
def width(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(blockcount, "_block_width", lambda merged, waiting: request.param)
    return request.param


@pytest.fixture(scope="module")
def scalar_absorption():
    cache = {}

    def get(case):
        if case not in cache:
            s0, p, runs, _ = ABSORPTION_CASES[case]
            rng = np.random.default_rng(20)
            cache[case] = np.array([simulate_blockcount(s0, p, seed=rng)[-1][0] for _ in range(runs)])
        return cache[case]

    return get


@pytest.mark.parametrize("case", sorted(ABSORPTION_CASES))
def test_ensemble_absorption_law_matches_scalar_loop(case, width, scalar_absorption):
    s0, p, _, lanes = ABSORPTION_CASES[case]
    res = blockcount_ensemble(s0, p, lanes, seed=21)
    assert (res.total == 1).all() and np.isfinite(res.absorption_time).all()
    assert ks_2samp(res.absorption_time, scalar_absorption(case)).pvalue > KS_LEVEL


def _final_states(s0, p, horizon, runs, seed):
    rng = np.random.default_rng(seed)
    states = [simulate_blockcount(s0, p, horizon=horizon, seed=rng)[-1][1] for _ in range(runs)]
    return np.array(states).T


def test_ensemble_horizon_law_matches_scalar_loop(width):
    # blocks cut at t = 0.3, lanes kept running past total 1
    s0, horizon = BlockCountState(50, 10), 0.3
    n_ref, m_ref = _final_states(s0, README_MODEL, horizon, 1000, seed=22)
    res = blockcount_ensemble(s0, README_MODEL, 1000, horizon=horizon, stop_at_total_one=False, seed=23)
    assert ks_2samp(res.n, n_ref).pvalue > KS_LEVEL
    assert ks_2samp(res.m, m_ref).pvalue > KS_LEVEL


def test_ensemble_horizon_law_matches_plain_steps(width, monkeypatch):
    # criterion 09's probe: 1000 lines cut at t = 0.05, near 40 lines left;
    # the reference is the same ensemble at width 1, plain Gillespie steps
    s0, horizon = BlockCountState(1000, 0), 0.05
    res = blockcount_ensemble(s0, COMING_DOWN, 1000, horizon=horizon, seed=24)
    monkeypatch.setattr(blockcount, "_block_width", lambda merged, waiting: 1)
    ref = blockcount_ensemble(s0, COMING_DOWN, 1000, horizon=horizon, seed=25)
    assert ks_2samp(res.n, ref.n).pvalue > KS_LEVEL
    assert ks_2samp(res.m, ref.m).pvalue > KS_LEVEL
    assert abs(res.total.mean() - ref.total.mean()) <= 3.5 * math.hypot(
        res.total.std(ddof=1), ref.total.std(ddof=1)) / math.sqrt(1000)


def test_tmrca_scan_matches_first_step():
    rows = tmrca_loglog_scan(SPONTANEOUS, [100, 400], 1000, seed=26)
    for row in rows:
        want = expected_tmrca_first_step(BlockCountState(row.n, 0), SPONTANEOUS)
        assert abs(row.mean - want) <= 3.5 * row.stderr


def test_block_width_rule():
    def width(merges, lanes, waiting=0):
        merged = np.arange(lanes) < merges
        return blockcount._block_width(merged, np.arange(lanes) >= lanes - waiting if waiting else None)

    # every lane merged: the widest block the budget allows
    assert width(300, 300) == blockcount._BLOCK_ELEMENTS // 300
    # few lines, or thousands of lanes: plain steps
    assert width(100, 300) == 1
    assert width(4000, 4000) == width(4000 - 1, 4000) == 1
    # many lines in few lanes: a wide block
    assert width(299, 300) > 16
    # the share counts only lanes that drew afresh
    assert width(300, 300, waiting=200) == width(100, 300, waiting=200) > width(100, 300) == 1
    # one lane that merged once is no evidence for a block
    assert width(1, 1) == 1
