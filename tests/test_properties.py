"""Invariants over random finite measures: switching rates, the block-count
generator and move table, simulated genealogies and their log, the agreement of the scalar
and batch diffusion integrators and of the scalar and vectorised Wright-Fisher
loops, and the config round trip."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from seedbank.diffusion import IntegratorSettings, batch_paths, integrate
from seedbank.forward_wf import WFConfig, run_trajectory, wf_ensemble
from seedbank.measures import (
    ModelParams,
    SwitchingMeasure,
    group_switch_rate,
    total_flip_rate,
    total_mass,
)

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
    s = math.fsum(group_switch_rate(measure, b, k) for k in range(1, b + 1))
    assert s == pytest.approx(total_flip_rate(measure, b), rel=1e-8)


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
