import math

import numpy as np
import pytest
from scipy import special, stats as scistats

from seedbank import diffusion
from seedbank.blockcount import duality_rhs
from seedbank.diffusion import (
    DiffusionState,
    IntegratorSettings,
    Trajectory,
    _beta_clock,
    _knots,
    _schedule,
    batch_paths,
    boundary_hitting_stats,
    delay_residual,
    duality_lhs_grid,
    fixation_stats,
    integrate,
    martingale_drift,
)
from seedbank.measures import ModelParams, SwitchingMeasure

P11 = ModelParams(c=1.0, K=1.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(horizon=0.0)
    with pytest.raises(ValueError, match="finite"):
        IntegratorSettings(horizon=math.inf, dt=0.01)
    with pytest.raises(ValueError):
        IntegratorSettings(horizon=1.0, dt=2.0)
    # below twice the knot merge spacing, grid points would merge into knots
    with pytest.raises(ValueError, match="need 2e-12 <= dt <= horizon"):
        IntegratorSettings(horizon=1e-6, dt=1e-12)
    assert len(_knots(1e-6, 2e-12, ())[0]) == 500_000
    # a snapshot that close to 0 would be a first step of more binomial
    # trials than an int64 holds
    with pytest.raises(ValueError, match=r"snapshot time 1e-20 outside \[2e-12, horizon\]"):
        _knots(0.1, 0.01, (1e-20, 0.1))
    assert _knots(0.1, 0.01, (2e-12,))[1] == {0: [2e-12]}
    with pytest.raises(ValueError):
        IntegratorSettings(horizon=1.0, jump_cutoff=1.5)
    for tol in (-0.1, 0.5, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 0\.5\)"):
            IntegratorSettings(horizon=1.0, boundary_tol=tol)
    with pytest.raises(ValueError):
        IntegratorSettings(horizon=1.0, noise_model="exact")
    with pytest.raises(ValueError):
        DiffusionState(1.2, 0.0)
    # every engine checks its start by the DiffusionState rule
    st = IntegratorSettings(horizon=1.0, dt=0.1)
    for bad in ((1.5, 0.5), (0.3, 1.7), (-0.1, 0.5), (math.nan, 0.5)):
        for run in (
            lambda: batch_paths(P11, *bad, st, 10, seed=0),
            lambda: fixation_stats(P11, bad, 1.0, 10, seed=0),
            lambda: duality_lhs_grid(P11, *bad, [(1, 0)], [0.0, 0.5], 10, seed=0),
            lambda: duality_lhs_grid(P11, *bad, [(1, 0)], [0.0], 10, seed=0),
            lambda: integrate(P11, bad, st, seed=0),
        ):
            with pytest.raises(ValueError, match="unit square"):
                run()


def test_absorbing_corner_is_constant():
    st = IntegratorSettings(horizon=2.0, dt=1e-3)
    tr = integrate(P11, DiffusionState(0.0, 0.0), st, seed=0)
    assert tr.x.max() == 0.0 and tr.y.max() == 0.0
    assert tr.hit_00 and not tr.ran_to_horizon


def test_no_noise_matches_linear_ode():
    # eigenvalues 0 and -2 for c = K = 1: x(t) = 1/2 + e^{-2t}/2 from (1, 0)
    # all-zero normals drop the Brownian term
    st = IntegratorSettings(horizon=2.0, dt=1e-4, noise_model="gaussian")
    tr = integrate(P11, DiffusionState(1.0, 0.0), st, normals=np.zeros(20_000))
    ref_x = 0.5 + 0.5 * np.exp(-2 * tr.times)
    ref_y = 0.5 - 0.5 * np.exp(-2 * tr.times)
    assert np.abs(tr.x - ref_x).max() <= 5e-4
    assert np.abs(tr.y - ref_y).max() <= 5e-4


def test_state_stays_in_unit_square():
    p = ModelParams(c=2.0, K=0.5, u1=0.4, u2=0.4, u1p=0.2, u2p=0.2,
                    lambda_ad=SwitchingMeasure.atom(0.6, 0.5))
    res = batch_paths(p, 0.9, 0.1, IntegratorSettings(horizon=1.0, dt=1e-3), 2_000,
                      seed=1, snapshot_times=[0.5, 1.0])
    for _, xs, ys in res.snapshots:
        assert xs.min() >= 0.0 and xs.max() <= 1.0
        assert ys.min() >= 0.0 and ys.max() <= 1.0


def test_duality_lhs_at_zero_and_at_one():
    grid = duality_lhs_grid(P11, 0.4, 0.8, [(1, 0), (2, 1)], [0.0], 100, seed=2)
    assert grid[(1, 0, 0.0)] == (0.4, 0.0)
    assert grid[(2, 1, 0.0)] == (pytest.approx(0.4**2 * 0.8), 0.0)
    mean, se = duality_lhs_grid(P11, 1.0, 1.0, [(2, 2)], [0.7], 500, seed=3,
                                settings=IntegratorSettings(horizon=0.7, dt=1e-3))[(2, 2, 0.7)]
    assert mean == 1.0 and se == 0.0


def test_duality_two_state_closed_form():
    t = math.log(2) / 2
    want = 0.75 * 0.4 + 0.25 * 0.8
    mean, se = duality_lhs_grid(P11, 0.4, 0.8, [(1, 0)], [t], 20_000, seed=4,
                                settings=IntegratorSettings(horizon=t, dt=1e-3))[(1, 0, t)]
    assert abs(mean - want) <= 3 * se + 0.005


def test_duality_against_exact_rhs_with_moments():
    st = IntegratorSettings(horizon=1.0, dt=1e-3)
    grid = duality_lhs_grid(P11, 0.2, 0.8, [(2, 0), (1, 1), (0, 2)], [0.4, 1.0],
                            20_000, seed=5, settings=st)
    for (n, m, t), (mean, se) in grid.items():
        rhs, _ = duality_rhs(n, m, 0.2, 0.8, P11, t)
        assert abs(mean - rhs) <= 3 * se + 0.005


def test_duality_grid_runs_to_its_largest_time():
    lam = SwitchingMeasure.atom(0.5, 0.5)
    p = ModelParams(c=1.0, K=1.0, lambda_ad=lam, lambda_da=lam)
    grids = [
        duality_lhs_grid(p, 0.2, 0.8, [(1, 0), (2, 1)], [0.0, 0.5], 500, seed=1,
                         settings=IntegratorSettings(horizon=horizon, dt=1e-3))
        for horizon in (0.5, 2.0, 0.25)
    ]
    assert grids[1] == grids[0] and grids[2] == grids[0]


def test_martingale_exact_corners():
    rows = martingale_drift(P11, (0.0, 0.0), 2.0, [1.0, 2.0], 200, seed=6)
    assert all(mn == 0.0 for _, mn, _ in rows)
    p2 = ModelParams(c=1.0, K=2.0)
    rows = martingale_drift(p2, (1.0, 1.0), 2.0, [1.0, 2.0], 200, seed=7)
    assert all(mn == pytest.approx(3.0) for _, mn, _ in rows)


def test_martingale_interior():
    rows = martingale_drift(P11, (0.3, 0.7), 5.0, [1.0, 5.0], 6_000, seed=8,
                            settings=IntegratorSettings(horizon=5.0, dt=1e-3))
    for _, mn, se in rows:
        assert abs(mn - 1.0) <= 3.5 * se


def test_experiments_run_to_their_own_horizon():
    st = IntegratorSettings(horizon=1.0, dt=2e-3)
    rows = martingale_drift(P11, (0.3, 0.7), 2.0, [1.0, 2.0], 50, seed=9, settings=st)
    assert [t for t, _, _ in rows] == [1.0, 2.0]
    out = boundary_hitting_stats(P11, (0.05, 0.05), 2.0, 50, seed=9, settings=st)
    assert out == boundary_hitting_stats(P11, (0.05, 0.05), 2.0, 50, seed=9,
                                         settings=IntegratorSettings(horizon=2.0, dt=2e-3))
    fs = fixation_stats(P11, (0.1, 0.1), 10.0, 50, seed=9, settings=st, corner_tol=0.05)
    assert fs == fixation_stats(P11, (0.1, 0.1), 10.0, 50, seed=9, corner_tol=0.05,
                                settings=IntegratorSettings(horizon=10.0, dt=2e-3))


def test_martingale_rejects_mutation():
    with pytest.raises(ValueError):
        martingale_drift(ModelParams(c=1.0, K=1.0, u1=0.1), (0.3, 0.7), 1.0, [1.0], 10)


def test_jump_rate_and_log():
    lam = SwitchingMeasure.atom(0.5, 0.5)
    p = ModelParams(c=1.0, K=1.0, lambda_ad=lam, lambda_da=lam)
    reps, T = 3_000, 2.0
    res = batch_paths(p, 0.4, 0.8, IntegratorSettings(horizon=T, dt=1e-3), reps, seed=9)
    expected = 0.5 / 0.5 * T * reps  # rate w/z per unit time per lane
    for kind in ("F", "D"):
        got = res.jump_counts[kind]
        assert abs(got - expected) <= 3.5 * math.sqrt(expected)
    tr = integrate(p, DiffusionState(0.4, 0.8), IntegratorSettings(horizon=5.0, dt=1e-3), seed=10)
    times = [t for t, _, _ in tr.jumps]
    assert times == sorted(times)
    assert all(z == 0.5 for _, _, z in tr.jumps)
    assert all(k in ("F", "D") for _, k, _ in tr.jumps)


def test_beta_component_jump_sizes():
    p = ModelParams(c=1.0, K=1.0,
                    lambda_ad=SwitchingMeasure(beta_components=((2.0, 2.0, 1.0),)))
    tr = integrate(p, DiffusionState(0.5, 0.5),
                   IntegratorSettings(horizon=40.0, dt=1e-3, jump_cutoff=0.05), seed=11)
    zs = np.array([z for _, k, z in tr.jumps if k == "F"])
    assert zs.size > 20
    assert zs.min() >= 0.05 and zs.max() <= 1.0
    # sizes follow density ~ 6 z (1-z) / z = 6 (1-z) restricted to [eps, 1]
    from scipy.integrate import quad
    norm = quad(lambda z: 6 * (1 - z), 0.05, 1.0)[0]
    cdf = lambda z: quad(lambda s: 6 * (1 - s) / norm, 0.05, z)[0]
    assert scistats.kstest(zs, np.vectorize(cdf)).pvalue > 0.001


def test_beta_model_is_deterministic():
    p = ModelParams(c=1.0, K=1.0,
                    lambda_da=SwitchingMeasure(beta_components=((0.7, 1.3, 0.4),)))
    st = IntegratorSettings(horizon=5.0, dt=1e-2, jump_cutoff=0.05)
    first = integrate(p, DiffusionState(0.3, 0.6), st, seed=1)
    again = integrate(p, DiffusionState(0.3, 0.6), st, seed=1)
    assert first.jumps
    assert np.array_equal(first.x, again.x) and first.jumps == again.jumps


# rate of jumps of size >= eps of mass x Beta(alpha, beta), that is
# mass/B(alpha, beta) times the integral of z^(alpha-2) (1-z)^(beta-1) over
# [eps, 1]; computed with mpmath at 50 digits
BETA_RATES = {
    (2.0, 2.0, 1.0, 0.05): 2.7075,
    (5.0, 0.3, 0.6, 0.05): 0.64499948836110052,
    (5.0, 0.3, 1.0, 1e-3): 1.0749999999998673,
    (3.0, 7.0, 0.4, 1e-3): 1.799949801222403,
    (1.5, 0.4, 1.0, 0.05): 1.5789581580124453,
    (2.5, 2.5, 1.0, 0.3): 1.5581657272052658,
    (1.0 + 1e-12, 2.0, 1.0, 0.05): 4.091464547106745,
    (1.0, 2.0, 1.0, 0.05): 4.0914645471079819,
    (1.0 - 1e-12, 2.0, 1.0, 0.05): 4.0914645471092186,
    (1.0, 1.0, 1.0, 0.05): 2.9957322735539909,
    (0.9, 0.3, 1.0, 0.7): 0.72955209638268075,
    (0.7, 1.3, 0.4, 0.05): 1.4963482264248228,
    (0.5, 20.0, 1.0, 0.05): 2.0107198617133349,
    (0.3, 0.4, 1.0, 1e-3): 35.559919290436059,
    (0.2, 0.2, 1.0, 0.05): 1.9622266949694311,
}


def _beta_jumps(a, b, mass, eps, exposure, seed):
    """Jump sizes of one F-type Beta component over ``exposure`` lane-time."""
    p = ModelParams(c=1.0, K=1.0,
                    lambda_ad=SwitchingMeasure(beta_components=((a, b, mass),)))
    _, _, z, is_f = _schedule(p, eps, exposure / 10, 10, np.random.default_rng(seed))
    assert is_f.all()
    return z


def test_beta_clock_rate_is_closed_form_above_alpha_one():
    for (a, b, mass, eps), want in BETA_RATES.items():
        if a > 1.0:
            assert _beta_clock(a, b, mass, eps)[0] == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("a, b, mass, eps", list(BETA_RATES))
def test_beta_clock_keeps_jumps_at_the_exact_rate(a, b, mass, eps):
    # for alpha <= 1 the clock thins a bounding intensity; what it keeps must
    # arrive at the exact rate
    z = _beta_jumps(a, b, mass, eps, exposure=2e5 / BETA_RATES[(a, b, mass, eps)], seed=21)
    assert abs(z.size - 2e5) <= 4.0 * math.sqrt(2e5)
    assert z.min() >= eps and z.max() <= 1.0


def test_beta_clock_is_continuous_across_alpha_one():
    # at alpha = 1 the lower piece's mass is a logarithm; its expm1 form must
    # not lose the digits that the power form h^p - eps^p loses as p -> 0
    below, at, above = (_beta_clock(a, 2.0, 1.0, 0.05)[0] for a in (1 - 1e-12, 1.0, 1 + 1e-12))
    assert below == pytest.approx(at, rel=1e-11)
    assert above == pytest.approx(2.0 * (math.log(20.0) - 0.95), rel=1e-11)


# integral of z^(alpha-2) (1-z)^(beta-1) over [z, 1], up to a constant factor
SIZE_TAILS = {
    (0.5, 0.5): lambda z: np.sqrt((1.0 - z) / z),
    (0.5, 3.0): lambda z: -16.0 / 3.0 + 2.0 / np.sqrt(z) + 4.0 * np.sqrt(z) - 2.0 / 3.0 * z**1.5,
    (1.0, 2.0): lambda z: -np.log(z) - 1.0 + z,
    (5.0, 0.3): lambda z: special.betaincc(4.0, 0.3, z),
}


@pytest.mark.parametrize("a, b, eps", [
    (0.5, 0.5, 0.05), (0.5, 0.5, 1e-3), (0.5, 0.5, 0.7), (0.5, 3.0, 0.05),
    (1.0, 2.0, 1e-3), (5.0, 0.3, 0.05),
])
def test_beta_jump_sizes_follow_the_exact_law(a, b, eps):
    tail = SIZE_TAILS[(a, b)]
    z = _beta_jumps(a, b, 1.0, eps, exposure=2e4 / _beta_clock(a, b, 1.0, eps)[0], seed=22)
    assert scistats.kstest(z, lambda v: 1.0 - tail(v) / tail(eps)).pvalue > 0.001


def _multi_jump_share(p, st, reps, seed):
    """Share of the (lane, window) pairs holding a jump that hold two or more.

    Reads the schedule that a batch run seeded with ``seed`` draws first.
    """
    t, lane, _, _ = _schedule(p, st.jump_cutoff, st.horizon, reps, np.random.default_rng(seed))
    window = np.searchsorted(_knots(st.horizon, st.dt, ())[0], t)
    _, per_pair = np.unique(window * reps + lane, return_counts=True)
    return float(np.mean(per_pair >= 2))


@pytest.mark.parametrize("p, dt, min_share", [
    (ModelParams(c=1.0, K=1.0,
                 lambda_ad=SwitchingMeasure(beta_components=((0.3, 0.4, 0.5),)),
                 lambda_da=SwitchingMeasure(beta_components=((2.0, 2.0, 0.5),))), 1e-3, 0.0),
    # 40 jumps per lane and unit time: at dt = 0.02 about a third of the
    # lane windows that hold a jump hold two or more, one per round
    (ModelParams(c=1.0, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 10.0),
                 lambda_da=SwitchingMeasure.atom(0.5, 10.0)), 2e-2, 0.2),
], ids=["beta", "atoms-in-rounds"])
def test_beta_duality_against_exact_rhs(p, dt, min_share):
    st = IntegratorSettings(horizon=1.0, dt=dt, jump_cutoff=0.05)
    assert _multi_jump_share(p, st, 20_000, 23) >= min_share
    grid = duality_lhs_grid(p, 0.2, 0.8, [(1, 0), (0, 1), (1, 1), (2, 0)], [0.5, 1.0],
                            20_000, seed=23, settings=st)
    for (n, m, t), (mean, se) in grid.items():
        rhs, _ = duality_rhs(n, m, 0.2, 0.8, p, t)
        assert abs(mean - rhs) <= 3.5 * se + 0.01


def test_allele_relabeling_symmetry():
    p = ModelParams(c=1.0, K=1.0, u1=0.3, u2=0.1, u1p=0.2, u2p=0.05)
    q = ModelParams(c=1.0, K=1.0, u1=0.1, u2=0.3, u1p=0.05, u2p=0.2)
    st = IntegratorSettings(horizon=1.0, dt=1e-3)
    a = batch_paths(p, 0.3, 0.6, st, 4_000, seed=12, snapshot_times=[1.0]).snapshots[0][1]
    b = batch_paths(q, 0.7, 0.4, st, 4_000, seed=13, snapshot_times=[1.0]).snapshots[0][1]
    assert scistats.ks_2samp(a, 1.0 - b).pvalue > 0.001


def test_strong_order_with_shared_noise():
    # coupled refinement: coarse increments are pair sums of fine ones
    rng = np.random.default_rng(14)
    T, dt0 = 1.0, 4e-3
    n_fine = int(T / (dt0 / 4))
    diffs_01, diffs_12 = [], []
    for _ in range(60):
        fine = rng.standard_normal(n_fine)
        mid = (fine[0::2] + fine[1::2]) / math.sqrt(2)
        coarse = (mid[0::2] + mid[1::2]) / math.sqrt(2)
        xs = {}
        for dt, normals in ((dt0, coarse), (dt0 / 2, mid), (dt0 / 4, fine)):
            st = IntegratorSettings(horizon=T, dt=dt, noise_model="gaussian")
            tr = integrate(P11, DiffusionState(0.4, 0.6), st, normals=normals)
            xs[dt] = tr.x[-1]
        diffs_01.append(abs(xs[dt0] - xs[dt0 / 2]))
        diffs_12.append(abs(xs[dt0 / 2] - xs[dt0 / 4]))
    assert np.mean(diffs_12) < np.mean(diffs_01)


def test_batch_paths_with_every_lane_frozen_at_the_start():
    p = ModelParams(c=1.0, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 1.0))
    st = IntegratorSettings(horizon=2.0, dt=0.01)
    res = batch_paths(p, 0.0, 0.0, st, 20, seed=0, snapshot_times=[0.5, 1.0, 2.0],
                      freeze_corner_tol=1e-9)
    assert (res.frozen_at == 0.0).all()
    assert [t for t, _, _ in res.snapshots] == [0.5, 1.0, 2.0]
    assert all((x == 0.0).all() and (y == 0.0).all() for _, x, y in res.snapshots)
    assert (res.final_x == 0.0).all() and sum(res.jump_counts.values()) == 0


def test_step_budget_stops_a_grid_before_it_is_built(monkeypatch):
    monkeypatch.setattr(diffusion, "MAX_STEPS", 1000)
    at_budget = IntegratorSettings(horizon=1.0, dt=1e-3)
    past_budget = IntegratorSettings(horizon=1.0, dt=5e-4)
    assert len(integrate(P11, DiffusionState(0.5, 0.5), at_budget, seed=0).times) == 1001
    assert batch_paths(P11, 0.5, 0.5, at_budget, 3, seed=0).final_x.shape == (3,)
    for run in (
        lambda: integrate(P11, DiffusionState(0.5, 0.5), past_budget, seed=0),
        lambda: batch_paths(P11, 0.5, 0.5, past_budget, 3, seed=0),
    ):
        with pytest.raises(ValueError, match=r"T / dt = 2000 steps is past the step budget of 1000 steps"):
            run()
    # 10^18 steps: refused before the grid is built
    with pytest.raises(ValueError, match=r"1e\+18 steps"):
        integrate(P11, DiffusionState(0.5, 0.5), IntegratorSettings(horizon=1e9, dt=1e-9), seed=0)


def test_normals_need_gaussian_model():
    st = IntegratorSettings(horizon=0.1, dt=1e-2)
    with pytest.raises(ValueError):
        integrate(P11, DiffusionState(0.5, 0.5), st, normals=np.zeros(100))


def test_delay_residual_constant_path():
    times = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    q = 0.37
    tr = Trajectory(times=times, x=np.full(times.size, q), y=np.full(times.size, q),
                    jumps=[], hit_00=False, hit_11=False, ran_to_horizon=True)
    assert delay_residual(tr, P11) <= 1e-6
    single = Trajectory(times=np.array([0.0]), x=np.array([q]), y=np.array([q]),
                        jumps=[], hit_00=False, hit_11=False, ran_to_horizon=True)
    assert delay_residual(single, P11) == 0.0


def test_delay_residual_scale_and_guards():
    st = IntegratorSettings(horizon=5.0, dt=1e-4)
    tr = integrate(P11, DiffusionState(0.3, 0.7), st, seed=15)
    res = delay_residual(tr, P11)
    assert res <= 5 * 1e-4 * 1.0 * 5.0  # documented bound 5 dt c K T
    with pytest.raises(ValueError):
        delay_residual(tr, ModelParams(c=1.0, K=1.0, u1=0.2))
    with pytest.raises(ValueError):
        delay_residual(tr, ModelParams(c=1.0, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 1.0)))


def test_boundary_stats_smoke():
    out = boundary_hitting_stats(P11, (0.05, 0.05), 10.0, 400, seed=16,
                                 settings=IntegratorSettings(horizon=10.0, dt=2e-3))
    assert set(out) == {2e-3, 1e-3}
    assert out[2e-3]["x0"] > 0.0
    assert out[2e-3]["y0"] == 0.0 and out[2e-3]["y1"] == 0.0
    with pytest.raises(ValueError):
        boundary_hitting_stats(P11, (0.0, 0.5), 1.0, 10, seed=0)


def test_fixation_quick():
    fs = fixation_stats(P11, (0.3, 0.7), 150.0, 2_000, seed=17,
                        settings=IntegratorSettings(horizon=150.0, dt=2e-3))
    assert fs.unfixed <= 10
    assert abs(fs.frac_11 - 0.5) <= 3 * fs.se_11() + 0.02
    with pytest.raises(ValueError):
        fixation_stats(ModelParams(c=1.0, K=1.0, u2=0.1), (0.3, 0.7), 1.0, 10)
    # a corner tolerance from 1/2 up puts a state near both corners
    for tol in (-0.1, 0.5, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 0\.5\)"):
            fixation_stats(P11, (0.3, 0.7), 1.0, 10, seed=0, corner_tol=tol)
        with pytest.raises(ValueError, match=r"\[0, 0\.5\)"):
            batch_paths(P11, 0.3, 0.7, IntegratorSettings(horizon=1.0, dt=0.1), 10, seed=0,
                        freeze_corner_tol=tol)


def test_integrate_determinism():
    st = IntegratorSettings(horizon=1.0, dt=1e-3)
    lam = SwitchingMeasure.atom(0.5, 0.5)
    p = ModelParams(c=1.0, K=1.0, lambda_ad=lam)
    a = integrate(p, DiffusionState(0.4, 0.8), st, seed=18)
    b = integrate(p, DiffusionState(0.4, 0.8), st, seed=18)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and a.jumps == b.jumps


@pytest.mark.parametrize("noise_model", ["binomial", "gaussian"])
def test_integrate_lands_on_jumps_at_zero_on_a_knot_and_together(monkeypatch, noise_model):
    dt = 1e-2
    at_knot = 3 * dt  # _knots builds the grid as k * dt
    schedule = [(0.0, True, 0.5), (at_knot, False, 0.3), (0.0537, True, 0.2), (0.0537, False, 0.9)]

    def fixed_schedule(params, eps, horizon, reps, rng):
        t, is_f, z = (np.array(col) for col in zip(*schedule))
        return t, np.zeros(t.size, dtype=np.int64), z, is_f

    monkeypatch.setattr(diffusion, "_schedule", fixed_schedule)
    st = IntegratorSettings(horizon=0.1, dt=dt, noise_model=noise_model)
    tr = integrate(P11, DiffusionState(0.3, 0.7), st, seed=4)
    assert at_knot in tr.times.tolist()
    assert tr.jumps == [(t, "F" if is_f else "D", z) for t, is_f, z in schedule]
    res = batch_paths(P11, 0.3, 0.7, st, 1, seed=4)
    assert res.jump_counts == {"F": 2, "D": 2}
    assert (float(res.final_x[0]), float(res.final_y[0])) == (float(tr.x[-1]), float(tr.y[-1]))


@pytest.mark.parametrize("reps", [0, -1])
def test_batch_runs_refuse_fewer_than_one_lane(reps):
    p = ModelParams(c=1.0, K=1.0)
    st = IntegratorSettings(horizon=0.1, dt=0.01)
    runs = [
        lambda: batch_paths(p, 0.3, 0.7, st, reps, seed=0),
        lambda: fixation_stats(p, (0.3, 0.7), 0.1, reps, seed=0, settings=st),
        lambda: duality_lhs_grid(p, 0.3, 0.7, [(1, 0)], [0.1], reps, seed=0, settings=st),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=f"reps must be at least 1, got {reps}"):
            run()
