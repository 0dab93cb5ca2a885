"""Invariants over random finite measures: switching rates, the block-count
generator, simulated genealogies and their log, the agreement of the scalar
and batch diffusion integrators and of the scalar and vectorised Wright-Fisher
loops, and the config round trip."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seedbank.blockcount import (
    BlockCountState,
    _generator,
    bc_transition_rates,
    duality_rhs,
    mrca_reachable,
)
from seedbank.coalescent import (
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
from seedbank.measures import ModelParams, SwitchingMeasure, group_switch_rate, total_flip_rate

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
    _, _, Q = _generator(BlockCountState(*s0), params, absorb_at_total_one=False)
    dense = Q.toarray()
    off = dense - np.diag(np.diag(dense))
    assert (off >= 0.0).all()
    scale = np.abs(dense).sum(axis=1)
    assert np.all(np.abs(dense.sum(axis=1)) <= 1e-12 * np.maximum(scale, 1.0))


@settings(max_examples=40, deadline=None)
@given(models, small_states, unit, unit)
def test_duality_at_time_zero_is_the_monomial(params, s0, x, y):
    n, m = s0
    val, se = duality_rhs(n, m, x, y, params, 0.0)
    assert val == x**n * y**m and se == 0.0


# c is 0 or at least 0.01: with a tiny positive c a run can last about 1/c
# events, and holding times below the resolution of the float clock would log
# two events at one time
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


def _config_or_none(**fields):
    try:
        return ExperimentConfig(**fields)
    except ValueError:
        return None


finite = st.floats(allow_nan=False)
configs = st.builds(
    _config_or_none,
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
    n_list=st.lists(st.integers(-(10**6), 10**6), max_size=4).map(tuple),
    t_probe=finite,
    times=st.lists(finite, max_size=4).map(tuple),
    xs=st.lists(finite, max_size=4).map(tuple),
    ys=st.lists(finite, max_size=4).map(tuple),
    reps=st.integers(1, 10**7),
    dt=st.floats(1e-300, 1e300),
    horizon=st.floats(1e-300, 1e300),
    jump_cutoff=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    boundary_tol=finite,
    noise_model=st.sampled_from(["binomial", "gaussian"]),
    record_every=st.integers(1, 1000),
).filter(lambda cfg: cfg is not None)


@settings(max_examples=200, deadline=None)
@given(configs)
def test_config_text_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
