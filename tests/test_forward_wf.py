import math

import numpy as np
import pytest
from scipy import stats as scistats

from seedbank.forward_wf import (
    SimSwitching,
    WFConfig,
    WFState,
    run_trajectory,
    wf_ensemble,
    wf_step,
)
from seedbank.measures import ModelParams, SwitchingMeasure


def test_config_validation():
    with pytest.raises(ValueError):
        WFConfig(N=0)
    with pytest.raises(ValueError):
        WFConfig(N=100, K=0.0)
    with pytest.raises(ValueError):
        WFConfig(N=100, c=1.5, exchange_mode="fixed")
    with pytest.raises(ValueError):
        WFConfig(N=10, K=1.0, c=20, exchange_mode="fixed")
    with pytest.raises(ValueError):
        WFConfig(N=10, K=20.0)  # empty seed bank
    with pytest.raises(ValueError):
        WFConfig(N=10, sim_switching=SimSwitching(rate_f=20.0, mu_f=SwitchingMeasure.atom(0.5, 1.0)))
    assert WFConfig(N=100, K=3.0).M == 33
    for bad in (50.5, 50.0, math.inf, math.nan, -3):
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            WFConfig(N=bad)
    assert WFConfig(N=np.int64(50)).M == 50
    # nan and inf are refused, as ModelParams refuses them
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be finite and nonnegative"):
            WFConfig(N=50, c=bad)
        with pytest.raises(ValueError, match="K must be finite and positive"):
            WFConfig(N=50, K=bad)
        half = SwitchingMeasure.atom(0.5, 1.0)
        for rates in ({"rate_f": bad}, {"rate_d": bad}):
            with pytest.raises(ValueError, match="event rates must be finite and nonnegative"):
                SimSwitching(**rates, mu_f=half, mu_d=half)
    # both runners check the start by one rule
    for start in ((1.5, 0.5), (0.5, -0.1), (math.nan, 0.5)):
        with pytest.raises(ValueError, match=r"initial frequencies must lie in \[0, 1\]"):
            wf_ensemble(WFConfig(N=10), *start, 5, 10, seed=0)
        with pytest.raises(ValueError, match=r"initial frequencies must lie in \[0, 1\]"):
            run_trajectory(WFConfig(N=10), *start, 10, seed=0)


def test_ensemble_refuses_coordinated_events():
    events = SimSwitching(rate_f=1.0, mu_f=SwitchingMeasure.atom(0.5, 1.0))
    with pytest.raises(ValueError, match="only covers the spontaneous model"):
        wf_ensemble(WFConfig(N=50, sim_switching=events), 0.5, 0.5, 5, 10, seed=0)
    # zero event rates are the spontaneous model
    assert wf_ensemble(WFConfig(N=50, sim_switching=SimSwitching()), 0.5, 0.5, 5, 10, seed=0).fixation.reps == 5


def test_sim_switching_needs_probability_measures():
    with pytest.raises(ValueError):
        SimSwitching(rate_f=1.0, mu_f=SwitchingMeasure.atom(0.5, 2.0))
    SimSwitching(rate_f=1.0, mu_f=SwitchingMeasure.atom(0.5, 1.0))


def test_absorbing_states():
    cfg = WFConfig(N=50, K=1.0, c=2.0, exchange_mode="fixed")
    rng = np.random.default_rng(0)
    s = WFState(i=50, j=50, generation=0)
    for _ in range(200):
        s = wf_step(s, cfg, rng)
        assert (s.i, s.j) == (50, 50)
    s = WFState(i=0, j=0, generation=0)
    for _ in range(200):
        s = wf_step(s, cfg, rng)
        assert (s.i, s.j) == (0, 0)


def test_zero_exchange_freezes_seed_bank():
    cfg = WFConfig(N=40, K=1.0, c=0.0, exchange_mode="fixed")
    rng = np.random.default_rng(1)
    s = WFState(i=13, j=17, generation=0)
    for _ in range(300):
        s = wf_step(s, cfg, rng)
        assert s.j == 17
        assert 0 <= s.i <= 40


def test_one_step_mean():
    # fixed exchange: E[i'] = (N - c) i/N + c j/M
    cfg = WFConfig(N=60, K=2.0, c=3.0, exchange_mode="fixed")
    rng = np.random.default_rng(2)
    s = WFState(i=24, j=9, generation=0)
    want = (60 - 3) * 24 / 60 + 3 * 9 / 30
    draws = np.array([wf_step(s, cfg, rng).i for _ in range(20_000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - want) <= 3.5 * se


def test_clamp_counter():
    # N=12, K=12 -> M=1; binomial(12, 5/12) routinely exceeds min(N, M) = 1
    cfg = WFConfig(N=12, K=12.0, c=5.0, exchange_mode="binomial")
    rng = np.random.default_rng(3)
    stats: dict = {}
    s = WFState(i=6, j=1, generation=0)
    for _ in range(400):
        s = wf_step(s, cfg, rng, stats)
    assert stats.get("clamped_exchanges", 0) > 0
    # at desk scale the clamp never fires
    res = wf_ensemble(WFConfig(N=100, K=1.0, c=1.0), 0.4, 0.6, 200, 500, seed=4)
    assert res.clamped_exchanges == 0


def test_trajectory_determinism_and_recording():
    cfg = WFConfig(N=80, K=1.0, c=1.0)
    a = run_trajectory(cfg, 0.25, 0.75, 600, record_every=50, seed=9)
    b = run_trajectory(cfg, 0.25, 0.75, 600, record_every=50, seed=9)
    assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j)
    assert a.generations[-1] == 600 and len(a.generations) == 13
    zero = run_trajectory(cfg, 0.0, 0.0, 100, seed=1)
    assert zero.i.max() == 0 and zero.j.max() == 0
    assert zero.fixation_generation == 0  # starts absorbed


def test_martingale_proxy_flat():
    cfg = WFConfig(N=100, K=2.0, c=1.0)
    res = wf_ensemble(cfg, 0.3, 0.7, 4_000, 300, seed=5)
    vals = 2.0 * res.i / 100 + res.j / cfg.M
    target = 2.0 * 0.3 + 0.7
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.5 * se


def test_fixation_probability_small_case():
    cfg = WFConfig(N=50, K=1.0, c=1.0)
    fix = wf_ensemble(cfg, 0.4, 0.6, 4_000, 12_000, seed=6).fixation
    assert fix.unfixed == 0 and fix.reps == 4_000
    target = (0.6 + 0.4) / 2
    assert abs(fix.frac_11 - target) <= 3 * fix.se_11() + 0.02


def test_sim_step_without_events_matches_wf_step_in_law():
    # a configured event component with rate 0 changes the stream (one
    # uniform per generation) but not the law of a generation
    sw = SimSwitching()
    cfg = WFConfig(N=60, K=1.0, c=1.0, sim_switching=sw)
    cfg_plain = WFConfig(N=60, K=1.0, c=1.0)
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(8)
    xs1, xs2 = [], []
    for _ in range(3_000):
        s1 = WFState(i=20, j=30, generation=0)
        s2 = WFState(i=20, j=30, generation=0)
        for _ in range(10):
            s1 = wf_step(s1, cfg, rng1)
            s2 = wf_step(s2, cfg_plain, rng2)
        xs1.append(s1.i)
        xs2.append(s2.i)
    assert scistats.ks_2samp(xs1, xs2).pvalue > 0.001


def test_forced_flood_from_seed_bank():
    # z = 1 flood: the whole active generation is drawn from the seed bank
    sw = SimSwitching(rate_f=200.0, mu_f=SwitchingMeasure.atom(1.0, 1.0))
    cfg = WFConfig(N=200, K=1.0, c=0.0, sim_switching=sw)
    s = wf_step(WFState(i=0, j=200, generation=0), cfg, np.random.default_rng(9))
    assert s.i == 200 and s.j == 200


def test_event_rate_matches_scaling_target():
    # D events at probability r/N per generation; with mu = delta_z and
    # target measure = atom (z, w), r = w/z gives w/z events per unit
    # rescaled time
    z, w = 0.5, 0.5
    sw = SimSwitching(rate_d=w / z, mu_d=SwitchingMeasure.atom(z, 1.0))
    cfg = WFConfig(N=200, K=2.0, c=1.0, sim_switching=sw)
    rng = np.random.default_rng(10)
    stats: dict = {}
    s = WFState(i=60, j=50, generation=0)
    gens = 120_000  # 600 rescaled time units
    for _ in range(gens):
        s = wf_step(s, cfg, rng, stats)
    expected = gens / 200 * (w / z)
    got = stats.get("d_events", 0)
    assert abs(got - expected) <= 3.5 * math.sqrt(expected)


def test_scaling_toward_diffusion_law():
    # the law of X at rescaled time 0.2 approaches the diffusion marginal
    from seedbank.diffusion import IntegratorSettings, batch_paths

    p = ModelParams(c=1.0, K=1.0)
    ref = batch_paths(
        p, 0.3, 0.7, IntegratorSettings(horizon=0.2, dt=2e-4), 20_000, seed=11,
        snapshot_times=[0.2],
    ).snapshots[0][1]
    dists = []
    for N in (25, 50, 200):
        cfg = WFConfig(N=N, K=1.0, c=1.0)
        res = wf_ensemble(cfg, 0.3, 0.7, 20_000, int(0.2 * N), seed=12)
        dists.append(scistats.ks_2samp(res.i / N, ref).statistic)
    assert dists[2] < dists[0]
    assert dists[2] < 0.05


def test_empty_and_whole_pool_draws_consume_no_random_numbers():
    # the generation rule draws a hypergeometric of size 0 or of the whole
    # pool and a Binomial(0, p) for every kind of generation; numpy returns
    # 0, ngood and 0 for them without touching the stream
    rng = np.random.default_rng(15)
    before = rng.bit_generator.state
    assert rng.hypergeometric(7, 5, 0) == 0
    assert rng.hypergeometric(7, 5, 12) == 7
    assert rng.hypergeometric(300, 200, 500) == 300
    assert rng.binomial(0, 0.4) == 0 and rng.binomial(0, 0.9) == 0
    good = np.array([0, 7, 300, 12])
    bad = np.array([9, 5, 200, 0])
    assert rng.hypergeometric(good, bad, np.zeros(4, dtype=np.int64)).tolist() == [0, 0, 0, 0]
    assert rng.hypergeometric(good, bad, good + bad).tolist() == good.tolist()
    assert rng.binomial(np.zeros(3, dtype=np.int64), np.array([0.0, 0.3, 1.0])).tolist() == [0, 0, 0]
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("reps", [0, -1])
def test_ensemble_refuses_fewer_than_one_lane(reps):
    with pytest.raises(ValueError, match=f"reps must be at least 1, got {reps}"):
        wf_ensemble(WFConfig(N=10), 0.5, 0.5, reps, 10, seed=0)
