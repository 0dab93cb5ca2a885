"""Invariants of the switching rates and the block-count generator, over random finite measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedbank.blockcount import BlockCountState, _generator, bc_transition_rates, duality_rhs
from seedbank.coalescent import TO_ACTIVE, TO_DORMANT, MarkedPartition, partition_transition_rates
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
