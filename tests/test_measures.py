import math

import numpy as np
import pytest
from scipy import integrate as sciint

from seedbank.measures import (
    ModelParams,
    SwitchingMeasure,
    group_switch_rate,
    sample_location,
    small_jump_mass,
    total_flip_rate,
    total_mass,
)

ATOM = SwitchingMeasure.atom(0.5, 0.4)
BETA22 = SwitchingMeasure(beta_components=((2.0, 2.0, 1.0),))
MIXED = SwitchingMeasure(atoms=((0.5, 0.4),), beta_components=((2.0, 2.0, 0.6),))


def beta_pdf(z, a, b):
    return math.exp(
        (a - 1) * math.log(z) + (b - 1) * math.log1p(-z)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )


def test_total_mass():
    assert total_mass(SwitchingMeasure.zero()) == 0.0
    assert total_mass(ATOM) == 0.4
    assert total_mass(MIXED) == pytest.approx(1.0, abs=1e-15)


def test_validation():
    with pytest.raises(ValueError):
        SwitchingMeasure(atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        SwitchingMeasure(atoms=((1.5, 1.0),))
    with pytest.raises(ValueError):
        SwitchingMeasure(atoms=((0.5, -1.0),))
    with pytest.raises(ValueError):
        SwitchingMeasure(beta_components=((2.0, 0.0, 1.0),))
    # atoms at 1 are allowed
    SwitchingMeasure.atom(1.0, 2.0)


def test_group_switch_rate_atom_examples():
    assert group_switch_rate(SwitchingMeasure.zero(), 3, 2) == 0.0
    assert group_switch_rate(ATOM, 3, 2) == pytest.approx(0.3, abs=1e-15)
    assert group_switch_rate(ATOM, 3, 1) == pytest.approx(0.3, abs=1e-15)
    assert group_switch_rate(ATOM, 3, 3) == pytest.approx(0.1, abs=1e-15)


def test_group_switch_rate_beta_identity():
    # 2 * B(2, 3) / B(2, 2) = 1
    assert group_switch_rate(BETA22, 2, 1) == pytest.approx(1.0, rel=1e-12)


def test_group_switch_rate_beta_vs_quadrature():
    for b, k in [(2, 1), (5, 3), (7, 7), (6, 1)]:
        want, _ = sciint.quad(
            lambda z: math.comb(b, k) * z ** (k - 1) * (1 - z) ** (b - k) * beta_pdf(z, 2.0, 2.0),
            0.0,
            1.0,
            epsrel=1e-12,
        )
        assert group_switch_rate(BETA22, b, k) == pytest.approx(want, rel=1e-9)


def test_group_switch_rate_range_errors():
    with pytest.raises(ValueError):
        group_switch_rate(ATOM, 3, 0)
    with pytest.raises(ValueError):
        group_switch_rate(ATOM, 3, 4)


def test_group_switch_rate_large_blocks():
    # log-space path: finite, positive, and consistent with the atom formula
    val = group_switch_rate(ATOM, 10_000, 5_000)
    assert 0.0 < val < math.inf
    lo = math.lgamma(10001) - 2 * math.lgamma(5001)
    want = math.exp(lo + 4999 * math.log(0.5) + 5000 * math.log(0.5) + math.log(0.4))
    assert val == pytest.approx(want, rel=1e-12)


def test_atom_at_one_only_flips_everything():
    m = SwitchingMeasure.atom(1.0, 0.7)
    assert group_switch_rate(m, 4, 4) == pytest.approx(0.7)
    for k in (1, 2, 3):
        assert group_switch_rate(m, 4, k) == 0.0


def test_switch_rate_sum_identity():
    # sum over k of the aggregate rates equals the total flip-event rate
    for m in (ATOM, BETA22, MIXED):
        for b in (1, 2, 5, 9):
            s = math.fsum(group_switch_rate(m, b, k) for k in range(1, b + 1))
            assert s == pytest.approx(total_flip_rate(m, b), rel=1e-8)


def test_rates_scale_with_mass():
    doubled = SwitchingMeasure(
        atoms=((0.5, 0.8),), beta_components=((2.0, 2.0, 1.2),)
    )
    for b, k in [(3, 1), (4, 2), (5, 5)]:
        assert group_switch_rate(doubled, b, k) == pytest.approx(
            2 * group_switch_rate(MIXED, b, k), rel=1e-12
        )


def test_small_jump_mass_examples():
    assert small_jump_mass(SwitchingMeasure.zero(), 0.5) == 0.0
    assert small_jump_mass(ATOM, 0.6) == pytest.approx(0.4)
    assert small_jump_mass(ATOM, 0.1) == 0.0
    below, _ = sciint.quad(lambda z: beta_pdf(z, 2.0, 2.0), 0.0, 0.3, epsrel=1e-12)
    assert small_jump_mass(BETA22, 0.3) == pytest.approx(below, rel=1e-9)


def test_small_jump_mass_monotone_and_splits_total():
    for eps in (0.05, 0.2, 0.5, 0.9):
        above = math.fsum(w for z, w in MIXED.atoms if z >= eps)
        above += sciint.quad(lambda z: 0.6 * beta_pdf(z, 2.0, 2.0), eps, 1.0, epsrel=1e-12)[0]
        assert small_jump_mass(MIXED, eps) + above == pytest.approx(total_mass(MIXED), rel=1e-9)
    vals = [small_jump_mass(MIXED, eps) for eps in (0.05, 0.2, 0.5, 0.9)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_sample_location_matches_measure():
    rng = np.random.default_rng(4)
    draws = np.array([sample_location(MIXED, rng) for _ in range(20_000)])
    atom_frac = np.mean(draws == 0.5)
    assert atom_frac == pytest.approx(0.4, abs=0.02)
    rest = draws[draws != 0.5]
    assert rest.mean() == pytest.approx(0.5, abs=0.01)  # Beta(2,2) mean


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(K=0.0)
    with pytest.raises(ValueError):
        ModelParams(c=-1.0)
    with pytest.raises(ValueError):
        ModelParams(u2p=-0.5)
    p = ModelParams()
    assert p.is_spontaneous()
    assert not ModelParams(lambda_ad=ATOM).is_spontaneous()
