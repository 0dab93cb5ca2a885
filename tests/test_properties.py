"""Invariants over random finite measures: switching rates, the block-count
generator and move table, simulated genealogies and their log, the agreement of the scalar
and batch diffusion integrators, of the batch engine with its gather/scatter reference
loop and of their knot grid with its list builder, of the scalar and vectorised
Wright-Fisher loops, and the config round trip."""

import itertools
import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seedbank.blockcount import (
    BlockCountState,
    _after,
    _categories,
    _generator,
    _move_table,
    bc_transition_rates,
    duality_rhs,
    mrca_reachable,
    simulate_blockcount,
)
from seedbank.coalescent import (
    MERGE,
    TO_ACTIVE,
    TO_DORMANT,
    Genealogy,
    MarkedPartition,
    partition_transition_rates,
    simulate_coalescent,
)
from seedbank.config import EXPERIMENTS, ExperimentConfig, parse_config, serialize_config
from seedbank.diffusion import (
    D_TYPE,
    F_TYPE,
    MAX_STEPS,
    _KNOT_MERGE_TOL,
    BatchResult,
    IntegratorSettings,
    _as_pair,
    _corner_absorbing,
    _drift_coefficients,
    _knots,
    _near_corners,
    _schedule,
    batch_paths,
    integrate,
)
from seedbank.forward_wf import WFConfig, run_trajectory, wf_ensemble
from seedbank.measures import (
    ModelParams,
    SwitchingMeasure,
    group_switch_rate,
    total_flip_rate,
    total_mass,
)
from seedbank.streams import as_rng

weights = st.floats(0.01, 2.0)
atoms = st.lists(st.tuples(st.floats(0.01, 1.0), weights), max_size=2)
betas = st.lists(st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), weights), max_size=2)
measures = st.builds(
    lambda a, b: SwitchingMeasure(atoms=tuple(a), beta_components=tuple(b)), atoms, betas
)
models = st.builds(
    lambda c, K, ad, da: ModelParams(c=c, K=K, lambda_ad=ad, lambda_da=da),
    st.floats(0.0, 3.0),
    st.floats(0.1, 5.0),
    measures,
    measures,
)
small_states = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda s: sum(s) >= 1)
unit = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(measures, st.integers(1, 40))
def test_switch_rates_sum_to_total_flip_rate(measure, b):
    row = group_switch_rate(measure, b, np.arange(1, b + 1))
    assert row.tolist() == [group_switch_rate(measure, b, k) for k in range(1, b + 1)]
    assert math.fsum(row) == pytest.approx(total_flip_rate(measure, b), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(models, small_states)
def test_chain_and_partition_rates_agree(params, s):
    a, d = s
    chain = dict(bc_transition_rates(BlockCountState(a, d), params))
    part = partition_transition_rates(MarkedPartition.singletons(a, d), params)
    moved = {}
    for key, r in part.items():
        if r > 0.0:
            if key == ("merge",):
                target = (a - 1, d)
            elif key[0] == TO_DORMANT:
                target = (a - key[1], d + key[1])
            else:
                assert key[0] == TO_ACTIVE
                target = (a + key[1], d - key[1])
            moved[BlockCountState(*target)] = r
    assert moved == chain


@settings(max_examples=40, deadline=None)
@given(models, small_states)
def test_generator_rows_are_conservative(params, s0):
    _, _, _, Q = _generator(BlockCountState(*s0), params)
    dense = Q.toarray()
    off = dense - np.diag(np.diag(dense))
    assert (off >= 0.0).all()
    scale = np.abs(dense).sum(axis=1)
    assert np.all(np.abs(dense.sum(axis=1)) <= 1e-12 * np.maximum(scale, 1.0))


def _rate_table_lattice(s0, params):
    """{state: its positive-rate moves} over the states reachable from s0,
    by breadth-first search over ``bc_transition_rates``."""
    moves, frontier = {}, [s0]
    while frontier:
        fresh = [s for s in frontier if s not in moves]
        moves.update((s, bc_transition_rates(s, params)) for s in fresh)
        frontier = [target for s in fresh for target, _ in moves[s]]
    return moves


@settings(max_examples=60, deadline=None)
@given(models, st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda s: 1 <= sum(s) <= 6))
def test_generator_is_the_rate_table_lattice(params, s0):
    s0 = BlockCountState(*s0)
    moves = _rate_table_lattice(s0, params)
    states = sorted(moves)
    a, d, i0, Q = _generator(s0, params)
    assert list(zip(a.tolist(), d.tolist())) == states
    assert states[i0] == s0
    # no two moves out of one state share a target, so no entry is a sum
    index = {s: i for i, s in enumerate(states)}
    want = np.zeros(Q.shape)
    for s, out in moves.items():
        for target, r in out:
            want[index[s], index[target]] = r
    got = Q.toarray()
    np.fill_diagonal(got, 0.0)
    assert (got == want).all()


def _pick_by_running_sum(cats, u):
    """The first positive-rate category whose left-to-right running sum
    reaches u; the last positive-rate one if u is above every sum."""
    acc, pick = 0.0, None
    for kind, k, r in cats:
        if r > 0.0:
            acc += r
            pick = (kind, k)
            if u <= acc:
                break
    return pick


@settings(max_examples=80, deadline=None)
@given(models, st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda s: sum(s) >= 1), unit)
def test_move_table_pick_is_the_running_sum_rule(params, s, fraction):
    a, d = s
    cats = _categories(a, d, params)
    moves = _move_table(params)[a, d]
    positive = [(kind, k, r) for kind, k, r in cats if r > 0.0]
    sums = list(itertools.accumulate(r for _, _, r in positive))
    total = math.fsum(r for _, _, r in cats)
    assert moves == ([(kind, k, _after(a, d, kind, k)) for kind, k, _ in positive], sums, total)
    assume(positive)
    probes = [0.0, total, math.nextafter(total, math.inf), total * (1.0 + 1e-9), fraction * total]
    for acc in sums:
        probes += [acc, math.nextafter(acc, 0.0), math.nextafter(acc, math.inf)]
    for u in probes:
        kind, k, after = moves.pick(u)
        assert (kind, k) == _pick_by_running_sum(cats, u)
        assert after == _after(a, d, kind, k)


@settings(max_examples=40, deadline=None)
@given(models, small_states, unit, unit)
def test_duality_at_time_zero_is_the_monomial(params, s0, x, y):
    n, m = s0
    val, se = duality_rhs(n, m, x, y, params, 0.0)
    assert val == x**n * y**m and se == 0.0


# (n, m) with 1 <= n + m <= 4
few_lines = st.integers(1, 4).flatmap(lambda b: st.integers(0, b).map(lambda m: (b - m, m)))


@settings(max_examples=25, deadline=None)
@given(models, few_lines, unit, unit)
def test_duality_tends_to_the_last_line_law(params, s0, x, y):
    # the last line goes dormant at rate r_ad = c + |lambda_ad| and active at
    # r_da = cK + |lambda_da|, so E[x^N y^M] tends to its active share
    # r_da / (r_ad + r_da) times x plus its dormant share times y
    r_ad = params.c + total_mass(params.lambda_ad)
    r_da = params.c * params.K + total_mass(params.lambda_da)
    # r_da > 0 makes the MRCA reachable; rates of at least 1/2 within a factor
    # 2 of each other bring every start within 1e-7 of the limit by t = 200
    assume(min(r_ad, r_da) >= 0.5 and max(r_ad, r_da) <= 2.0 * min(r_ad, r_da))
    got, _ = duality_rhs(*s0, x, y, params, 200.0)
    assert got == pytest.approx((r_da * x + r_ad * y) / (r_ad + r_da), abs=1e-6)


# c is 0 or at least 0.01: without a horizon, a tiny positive c makes a run
# last about 1/c events or stop with an error once holding times fall below
# the resolution of the float clock
genealogy_models = st.builds(
    lambda c, K, ad, da: ModelParams(c=c, K=K, lambda_ad=ad, lambda_da=da),
    st.just(0.0) | st.floats(0.01, 3.0),
    st.floats(0.1, 5.0),
    measures,
    measures,
)
samples = st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda s: 1 <= sum(s) <= 10)
horizons = st.none() | st.floats(0.01, 5.0)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(genealogy_models, samples, horizons, seeds)
def test_simulated_genealogy_replays_and_round_trips(params, s, horizon, seed):
    # every logged event is a valid transition, the run ends in one block
    # exactly when it reports the MRCA, and the JSONL log loses nothing
    n, m = s
    assume(horizon is not None or mrca_reachable(BlockCountState(n, m), params))
    g = simulate_coalescent(n, m, params, horizon=horizon, seed=seed)
    final = g.final_partition()  # replays the log, validating every event
    assert (len(final.blocks) == 1) == g.reached_mrca
    assert Genealogy.from_jsonl(g.to_jsonl()) == g


# atoms on both sides of every cutoff below, so some are simulated as jumps and
# some are folded into the drift
diffusion_atoms = st.lists(st.tuples(st.floats(1e-4, 1.0), weights), max_size=2)
diffusion_measures = st.builds(
    lambda a, b: SwitchingMeasure(atoms=tuple(a), beta_components=tuple(b)),
    diffusion_atoms,
    st.lists(st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), weights), max_size=1),
)
mutation = st.sampled_from([0.0, 0.5])
diffusion_models = st.builds(
    lambda c, K, u1, u2, ad, da: ModelParams(c=c, K=K, u1=u1, u2=u2, lambda_ad=ad, lambda_da=da),
    st.floats(0.0, 3.0),
    st.floats(0.1, 5.0),
    mutation,
    mutation,
    diffusion_measures,
    diffusion_measures,
)
integrator_settings = st.builds(
    lambda horizon, dt, eps, noise: IntegratorSettings(
        horizon=horizon, dt=dt, jump_cutoff=eps, noise_model=noise
    ),
    st.floats(0.05, 0.5),
    st.sampled_from([0.01, 0.02, 0.05]),
    st.sampled_from([1e-3, 0.05, 0.3]),
    st.sampled_from(["binomial", "gaussian"]),
)


@settings(max_examples=60, deadline=None)
@given(models, small_states, st.floats(0.01, 5.0), seeds)
def test_simulated_steps_are_positive_rate_chain_moves(params, s0, horizon, seed):
    # every step of a block-count path and every genealogy event, projected
    # to line counts, is a positive-rate move of the chain at a later time
    path = simulate_blockcount(BlockCountState(*s0), params, horizon=horizon, seed=seed)
    counts = [(0.0, BlockCountState(*s0))]
    for ev in simulate_coalescent(*s0, params, horizon=horizon, seed=seed).events:
        a, d = counts[-1][1]
        k = len(ev.blocks)
        if ev.kind == MERGE:
            a -= 1
        elif ev.kind == TO_DORMANT:
            a, d = a - k, d + k
        else:
            a, d = a + k, d - k
        counts.append((ev.time, BlockCountState(a, d)))
    for steps in (path, counts):
        for (t0, s), (t1, target) in zip(steps, steps[1:]):
            assert t1 > t0
            assert dict(bc_transition_rates(s, params)).get(target, 0.0) > 0.0


@settings(max_examples=30, deadline=None)
@given(diffusion_models, unit, unit, integrator_settings, seeds)
def test_integrate_is_a_one_lane_batch(params, x0, y0, st_, seed):
    # one schedule, one scalar step and one jump interleave: a single batch
    # lane consumes the stream exactly like the scalar integrator
    tr = integrate(params, (x0, y0), st_, seed=seed)
    res = batch_paths(params, x0, y0, st_, 1, seed=seed)
    assert (float(res.final_x[0]), float(res.final_y[0])) == (float(tr.x[-1]), float(tr.y[-1]))



# the gather/scatter loop that the compacted batch engine replaced, kept as its
# reference: every live lane is read from and written back to the full-width
# arrays through one index array at each step
def _euler_step_reference(x, y, lanes, h, coeffs, binomial, rng):
    u1, u2, u1p, u2p, pull_f, pull_d = coeffs
    xl, yl = x[lanes], y[lanes]
    xn = xl + (-u1 * xl + u2 * (1.0 - xl) + pull_f * (yl - xl)) * h
    if binomial:
        n_eff = np.maximum(np.rint(1.0 / h), 1.0).astype(np.int64)
        xn = rng.binomial(n_eff, np.clip(xn, 0.0, 1.0)) / n_eff
    else:
        xn = xn + np.sqrt(np.maximum(xl * (1.0 - xl), 0.0)) * np.sqrt(h) * rng.standard_normal(xl.size)
    yn = yl + (-u1p * yl + u2p * (1.0 - yl) + pull_d * (xl - yl)) * h
    x[lanes] = np.clip(xn, 0.0, 1.0)
    y[lanes] = np.clip(yn, 0.0, 1.0)


def _batch_paths_reference(params, x0, y0, settings, reps, seed=None, *,
                           snapshot_times=(), track_hits=False, freeze_corner_tol=None):
    x0, y0 = _as_pair((x0, y0))
    rng = as_rng(seed)
    eps = settings.jump_cutoff
    ev_t, ev_lane, ev_z, ev_isf = _schedule(params, eps, settings.horizon, reps, rng)
    coeffs = _drift_coefficients(params, eps)
    binomial = settings.noise_model == "binomial"
    absorbing = _corner_absorbing(params)

    x = np.full(reps, x0)
    y = np.full(reps, y0)
    frozen_at = np.full(reps, np.nan)
    hits = {name: np.zeros(reps, dtype=bool) for name in ("x0", "x1", "y0", "y1")} if track_hits else None
    jump_counts = {F_TYPE: 0, D_TYPE: 0}

    def record_hits(idx):
        if hits is None:
            return
        hits["x0"][idx] |= x[idx] == 0.0
        hits["x1"][idx] |= x[idx] == 1.0
        hits["y0"][idx] |= y[idx] == 0.0
        hits["y1"][idx] |= y[idx] == 1.0

    def freeze(idx, t):
        if freeze_corner_tol is None:
            return idx
        for corner in (0, 1):
            if absorbing[corner]:
                near = _near_corners(x[idx], y[idx], freeze_corner_tol)[corner]
                sel, idx = idx[near], idx[~near]
                x[sel] = y[sel] = corner
                frozen_at[sel] = t
        return idx

    record_hits(np.arange(reps))
    live = freeze(np.arange(reps), 0.0)

    times, snap_map = _knots(settings.horizon, settings.dt, snapshot_times)
    snapshots = []
    ev_pos = 0
    t_prev = 0.0
    for knot_i, t_cur in enumerate(times):
        if t_cur > t_prev and live.size:
            ev_end = int(np.searchsorted(ev_t, t_cur, side="right"))
            pending = ev_pos + np.flatnonzero(np.isnan(frozen_at[ev_lane[ev_pos:ev_end]]))
            ev_pos = ev_end
            n_f = int(np.count_nonzero(ev_isf[pending]))
            jump_counts[F_TYPE] += n_f
            jump_counts[D_TYPE] += pending.size - n_f
            move, h = live, t_cur - t_prev
            if pending.size:
                clock = np.full(reps, t_prev)
                while pending.size:
                    _, first = np.unique(ev_lane[pending], return_index=True)
                    ev, pending = pending[first], np.delete(pending, first)
                    lane, t = ev_lane[ev], ev_t[ev]
                    h = t - clock[lane]
                    _euler_step_reference(x, y, lane[h > 0.0], h[h > 0.0], coeffs, binomial, rng)
                    clock[lane] = t
                    xl, yl, z, is_f = x[lane], y[lane], ev_z[ev], ev_isf[ev]
                    x[lane] = np.where(is_f, np.clip(xl + z * (yl - xl), 0.0, 1.0), xl)
                    y[lane] = np.where(is_f, yl, np.clip(yl + z * (xl - yl), 0.0, 1.0))
                h = t_cur - clock[live]
                move, h = live[h > 0.0], h[h > 0.0]
            _euler_step_reference(x, y, move, h, coeffs, binomial, rng)
            record_hits(live)
            live = freeze(live, t_cur)
        if knot_i in snap_map:
            for s in snap_map[knot_i]:
                snapshots.append((s, x.copy(), y.copy()))
        t_prev = t_cur

    return BatchResult(snapshots=snapshots, final_x=x, final_y=y, hits=hits,
                       frozen_at=frozen_at, jump_counts=jump_counts)


@st.composite
def batch_runs(draw):
    """Arguments of a batch run: a model and both noise models, corner
    tolerances of None, 0 and small values, snapshot lists with duplicates
    and the horizon, hit tracking on and off, and 1-50 lanes."""
    st_ = draw(integrator_settings)
    h = st_.horizon
    times = draw(st.lists(st.floats(0.0, h, exclude_min=True) | st.just(h), max_size=4))
    times += draw(st.lists(st.sampled_from(times), max_size=2)) if times else []
    # starts near a corner make lanes freeze inside the short horizons
    near_corner = st.sampled_from([(0.0, 0.0), (0.02, 0.01), (0.1, 0.05), (0.97, 0.99), (1.0, 1.0)])
    x0, y0 = draw(st.tuples(unit, unit) | near_corner)
    return dict(
        params=draw(diffusion_models),
        x0=x0,
        y0=y0,
        settings=st_,
        reps=draw(st.integers(1, 50)),
        seed=draw(seeds),
        snapshot_times=times,
        track_hits=draw(st.booleans()),
        freeze_corner_tol=draw(st.sampled_from([None, 0.0, 1e-3, 0.05, 0.2])),
    )


def _outcome(run_batch, run):
    try:
        return run_batch(**run)
    except ValueError as err:
        return err


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(batch_runs())
def test_batch_paths_match_the_gather_scatter_loop(run):
    # both loops refuse what _knots refuses, a snapshot time below 2e-12
    # among them; a jump within about 1e-19 after a knot would still be a
    # step too short for the binomial model
    with np.errstate(invalid="ignore"):
        got, ref = (_outcome(run_batch, run) for run_batch in (batch_paths, _batch_paths_reference))
    if isinstance(ref, ValueError):
        assert isinstance(got, ValueError)
        return
    assert _same_bytes(got.final_x, ref.final_x) and _same_bytes(got.final_y, ref.final_y)
    assert _same_bytes(got.frozen_at, ref.frozen_at)  # nan included
    assert [s for s, _, _ in got.snapshots] == [s for s, _, _ in ref.snapshots]
    for (_, gx, gy), (_, rx, ry) in zip(got.snapshots, ref.snapshots):
        assert _same_bytes(gx, rx) and _same_bytes(gy, ry)
    if ref.hits is None:
        assert got.hits is None
    else:
        assert got.hits.keys() == ref.hits.keys()
        assert all(_same_bytes(got.hits[k], ref.hits[k]) for k in ref.hits)
    assert got.jump_counts == ref.jump_counts


# the list-of-tuples grid builder that ``_knots`` replaced, kept as its reference
def _knots_reference(horizon: float, dt: float, extra: Sequence[float]):
    """Grid times plus exact insertion of the requested snapshot times; a
    point within _KNOT_MERGE_TOL of the point before it joins that point's knot.

    Returns (times, snap_map) where snap_map maps a knot index to the
    requested times that knot serves; both integrators walk this grid.
    Raises ValueError when the grid holds more than MAX_STEPS steps.
    """
    steps = horizon / dt + 1e-9
    if steps >= MAX_STEPS + 1:
        raise ValueError(f"a grid of T / dt = {steps:.6g} steps is past the step budget of "
                         f"{MAX_STEPS} steps (diffusion.MAX_STEPS); raise dt or lower T")
    n_full = int(math.floor(steps))
    pts = [(k * dt, False) for k in range(1, n_full + 1)]
    pts = [(t, s) for t, s in pts if t < horizon - _KNOT_MERGE_TOL]
    pts.append((horizon, False))
    for s in extra:
        s = float(s)
        if not 2 * _KNOT_MERGE_TOL <= s <= horizon + _KNOT_MERGE_TOL:
            raise ValueError(f"snapshot time {s} outside [{2 * _KNOT_MERGE_TOL}, horizon] "
                             "(2 * diffusion._KNOT_MERGE_TOL)")
        pts.append((min(s, horizon), True))
    pts.sort()
    times: list[float] = []
    snap_map: dict[int, list[float]] = {}
    previous = -math.inf
    for t, is_snap in pts:
        if t - previous >= _KNOT_MERGE_TOL:
            times.append(t)
        if is_snap:
            snap_map.setdefault(len(times) - 1, []).append(t)
        previous = t
    return times, snap_map


@st.composite
def knot_grids(draw):
    """(horizon, dt, snapshot times) near the merge tolerance: dt below it or
    not, horizons off a multiple of dt or within 1e-15 relative of one, and
    snapshots on a knot, just off one, at the horizon or out of range."""
    dt = draw(st.one_of(st.floats(1e-14, 0.99 * _KNOT_MERGE_TOL), st.floats(1e-3, 1.0)))
    k = draw(st.integers(1, 300))
    if draw(st.booleans()):
        horizon = k * dt * draw(st.sampled_from([1.0, 1.0 + 1e-15, 1.0 - 1e-15]))
    else:
        horizon = dt * draw(st.floats(1.0, 300.0))
    on_knot = st.builds(
        lambda j, off: j * dt + off,
        st.integers(1, max(1, int(horizon / dt))),
        st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12]),
    )
    special = st.sampled_from([horizon, horizon, horizon + 5e-13, horizon + 2e-12, 0.0, math.nan])
    return horizon, dt, draw(st.lists(st.one_of(on_knot, on_knot, special), max_size=5))


def _grid_or_error(build, horizon, dt, extra):
    try:
        return build(horizon, dt, extra)
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(knot_grids())
@example((1.0, 0.25, (0.5 + 6e-13, 0.5 + 1.2e-12)))  # a run of two sub-tolerance gaps spanning 1.2e-12
def test_knots_match_the_list_builder(grid):
    got = _grid_or_error(_knots, *grid)
    assert got == _grid_or_error(_knots_reference, *grid)
    if not isinstance(got, str):
        assert all(type(t) is float for t in got[0])


@settings(max_examples=300, deadline=None)
@given(knot_grids())
@example((1.0, 0.25, (0.5 + 6e-13, 0.5 + 1.2e-12)))
def test_knots_serve_each_time_from_the_start_of_its_run(grid):
    horizon, dt, extra = grid
    got = _grid_or_error(_knots, horizon, dt, extra)
    if isinstance(got, str):
        return
    times, snap_map = got
    assert all(b - a >= _KNOT_MERGE_TOL for a, b in zip(times, times[1:]))
    steps = int(math.floor(horizon / dt + 1e-9))
    grid_pts = [t for t in (k * dt for k in range(1, steps + 1)) if t < horizon - _KNOT_MERGE_TOL]
    pts = np.sort(np.array(grid_pts + [horizon] + [min(s, horizon) for s in extra]))
    assert sorted(s for served in snap_map.values() for s in served) == sorted(min(s, horizon) for s in extra)
    for k, served in snap_map.items():
        before = pts[pts < times[k]]
        assert before.size == 0 or times[k] - before[-1] >= _KNOT_MERGE_TOL  # the knot starts a run
        for s in served:
            run = pts[(pts >= times[k]) & (pts <= s)]
            assert run[0] == times[k] and (np.diff(run) < _KNOT_MERGE_TOL).all()  # s lies in that run


@st.composite
def wf_configs(draw):
    N = draw(st.integers(1, 60))
    K = draw(st.floats(0.2, float(N)))  # keeps M = floor(N/K) >= 1
    if draw(st.booleans()):
        c = draw(st.integers(0, min(N, int(N / K))))
        return WFConfig(N=N, K=K, c=c, exchange_mode="fixed")
    return WFConfig(N=N, K=K, c=draw(st.floats(0.0, float(N))), exchange_mode="binomial")


@settings(max_examples=60, deadline=None)
@given(wf_configs(), unit, unit, st.integers(0, 300), seeds)
def test_trajectory_is_a_one_lane_ensemble(cfg, x0, y0, generations, seed):
    # one generation rule: the scalar loop and one vectorised lane consume the
    # stream alike and stop at the same fixation
    tr = run_trajectory(cfg, x0, y0, generations, seed=seed)
    res = wf_ensemble(cfg, x0, y0, 1, generations, seed=seed)
    fixed = -1 if tr.fixation_generation is None else tr.fixation_generation
    assert (int(tr.i[-1]), int(tr.j[-1]), fixed) == (
        int(res.i[0]), int(res.j[0]), int(res.fixed_generation[0])
    )


def _config_or_none(dt_and_horizon, **fields):
    try:
        return ExperimentConfig(dt=min(dt_and_horizon), horizon=max(dt_and_horizon), **fields)
    except ValueError:
        return None


finite = st.floats(allow_nan=False)
configs = st.builds(
    _config_or_none,
    st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)),
    seed=st.integers(0, 2**64 - 1),
    out=st.text(max_size=12),
    model=st.builds(
        lambda base, u: ModelParams(
            c=base.c, K=base.K, lambda_ad=base.lambda_ad, lambda_da=base.lambda_da,
            u1=u[0], u2=u[1], u1p=u[2], u2p=u[3], u_active=u[4], u_dormant=u[5],
        ),
        models,
        st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6),
    ),
    experiment=st.sampled_from(EXPERIMENTS),
    n=st.integers(0, 50),
    m=st.integers(0, 50),
    x0=unit,
    y0=unit,
    pop_size=st.integers(1, 10**6),
    generations=st.integers(0, 10**6),
    exchange_mode=st.sampled_from(["fixed", "binomial"]),
    stop=st.sampled_from(["mrca", "horizon"]),
    n_list=st.lists(st.integers(1, 10**6), min_size=1, max_size=4).map(tuple),
    t_probe=finite,
    times=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=4)
    .filter(lambda ts: max(ts) > 0.0)
    .map(tuple),
    xs=st.lists(unit, min_size=1, max_size=4).map(tuple),
    ys=st.lists(unit, min_size=1, max_size=4).map(tuple),
    reps=st.integers(1, 10**7),
    jump_cutoff=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    boundary_tol=st.floats(0.0, 0.5, exclude_max=True),
    noise_model=st.sampled_from(["binomial", "gaussian"]),
    record_every=st.integers(1, 1000),
).filter(lambda cfg: cfg is not None)


@settings(max_examples=200, deadline=None)
@given(configs)
def test_config_text_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
