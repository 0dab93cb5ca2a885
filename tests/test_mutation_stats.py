import math

import numpy as np
import pytest

import seedbank
from seedbank import mutation_stats
from seedbank.blockcount import BlockCountState, expected_branch_lengths_first_step
from seedbank.coalescent import ACTIVE, Genealogy, GenealogyEvent, simulate_coalescent
from seedbank.measures import ModelParams, SwitchingMeasure
from seedbank.streams import mean_stderr
from seedbank.mutation_stats import (
    SiteFrequencySpectrum,
    drop_mutations,
    fay_wu_h,
    fu_li_d_numerator,
    segregating_sites,
    sfs,
    sfs_ensemble,
    singletons,
    theta_pi,
)

P11 = ModelParams(c=1.0, K=1.0)
# the README model: an atom and a Beta component to dormant, an atom back
README = ModelParams(
    c=1.0, K=2.0, u_active=1.0, u_dormant=0.5,
    lambda_ad=SwitchingMeasure(atoms=((0.5, 0.4),), beta_components=((2.0, 2.0, 0.6),)),
    lambda_da=SwitchingMeasure.atom(0.3, 0.5),
)
# atoms at z = 0.5 both ways, so that flips of several blocks are common
HALF = ModelParams(
    c=0.5, K=1.0, u_active=1.0, u_dormant=0.5,
    lambda_ad=SwitchingMeasure.atom(0.5, 1.0), lambda_da=SwitchingMeasure.atom(0.5, 1.0),
)
LAW_CASES = {"readme-6-2": (README, 6, 2), "half-atoms-4-3": (HALF, 4, 3)}


def two_leaf_tree(t=1.0):
    g = Genealogy(n_active=2, m_dormant=0, end_time=t, reached_mrca=True)
    g.events.append(GenealogyEvent(time=t, kind="merge", blocks=(1, 2)))
    return g


def test_sfs_validation():
    with pytest.raises(ValueError):
        SiteFrequencySpectrum(1, ())
    with pytest.raises(ValueError):
        SiteFrequencySpectrum(4, (1, 2))
    with pytest.raises(ValueError):
        SiteFrequencySpectrum(3, (1, -1))


def test_drop_requires_mrca():
    g = simulate_coalescent(3, 0, P11, horizon=1e-3, seed=0)
    with pytest.raises(ValueError):
        drop_mutations(g, 1.0, 1.0, seed=0)


def test_zero_rates_give_no_mutations():
    g = simulate_coalescent(4, 1, P11, seed=1)
    assert len(drop_mutations(g, 0.0, 0.0, seed=2)) == 0


def test_two_leaf_segregating_sites_mean():
    # rate u/2 = 1 per line, two lines, merge at t=1: E[S] = 2, Var = 2
    rng = np.random.default_rng(3)
    g = two_leaf_tree(1.0)
    counts = [len(drop_mutations(g, 2.0, 0.0, seed=rng)) for _ in range(8_000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 2.0) <= 3.5 * se


def test_dormant_rate_zero_marks():
    heavy_bank = ModelParams(c=2.0, K=0.3)
    rng = np.random.default_rng(4)
    seen_dormant_time = False
    for _ in range(50):
        g = simulate_coalescent(3, 2, heavy_bank, seed=rng)
        muts = drop_mutations(g, 1.0, 0.0, seed=rng)
        assert all(mu.mark == ACTIVE for mu in muts.mutations)
        from seedbank.coalescent import DORMANT, mark_segments

        seen_dormant_time |= any(mk == DORMANT for _, _, mk, _, _ in mark_segments(g))
    assert seen_dormant_time


def test_sfs_histogram():
    g = two_leaf_tree(1.0)
    muts = drop_mutations(g, 0.0, 0.0, seed=0)
    assert sfs(g, muts).counts == (0,)
    rng = np.random.default_rng(5)
    g4 = simulate_coalescent(4, 0, P11, seed=rng)
    muts = drop_mutations(g4, 3.0, 0.0, seed=rng)
    spectrum = sfs(g4, muts)
    assert sum(spectrum.counts) == len(muts)
    assert segregating_sites(spectrum) == len(muts)


def test_counting_statistics():
    assert segregating_sites(SiteFrequencySpectrum(4, (0, 0, 0))) == 0
    assert singletons(SiteFrequencySpectrum(4, (0, 0, 0))) == 0
    s = SiteFrequencySpectrum(4, (3, 0, 0))
    assert (segregating_sites(s), singletons(s)) == (3, 3)
    s = SiteFrequencySpectrum(4, (1, 2, 0))
    assert (segregating_sites(s), singletons(s)) == (3, 1)


def test_fay_wu_hand_values():
    assert fay_wu_h(SiteFrequencySpectrum(4, (0, 0, 0))) == 0.0
    assert fay_wu_h(SiteFrequencySpectrum(4, (3, 0, 0))) == pytest.approx(1.0)
    assert fay_wu_h(SiteFrequencySpectrum(4, (0, 0, 3))) == pytest.approx(-3.0)


def test_fu_li_hand_values():
    assert fu_li_d_numerator(SiteFrequencySpectrum(4, (0, 0, 0))) == 0.0
    assert fu_li_d_numerator(SiteFrequencySpectrum(2, (5,))) == 0.0
    assert fu_li_d_numerator(SiteFrequencySpectrum(4, (3, 0, 0))) == pytest.approx(-2.5)


def test_theta_pi_equals_brute_force_pairwise():
    p = ModelParams(c=1.0, K=1.0, u_active=1.5, u_dormant=0.5)
    rng = np.random.default_rng(6)
    for _ in range(200):
        g = simulate_coalescent(4, 1, p, seed=rng)
        muts = drop_mutations(g, p.u_active, p.u_dormant, seed=rng)
        spectrum = sfs(g, muts)
        nn = g.sample_size
        brute = sum(
            sum(1 for mu in muts.mutations if (i in mu.leaves) != (j in mu.leaves))
            for i in range(1, nn + 1)
            for j in range(i + 1, nn + 1)
        )
        via_sfs = sum(k * (nn - k) * c for k, c in enumerate(spectrum.counts, start=1))
        assert brute == via_sfs
        assert theta_pi(spectrum) == brute / math.comb(nn, 2)


def test_expected_sites_match_length_oracle():
    p = ModelParams(
        c=0.8, K=1.3, u_active=1.0, u_dormant=0.4,
        lambda_ad=SwitchingMeasure.atom(0.5, 0.3),
        lambda_da=SwitchingMeasure.atom(0.7, 0.2),
    )
    ea, ed = expected_branch_lengths_first_step(BlockCountState(3, 1), p)
    oracle = p.u_active / 2 * ea + p.u_dormant / 2 * ed
    rng = np.random.default_rng(7)
    counts = []
    for _ in range(12_000):
        g = simulate_coalescent(3, 1, p, seed=rng)
        counts.append(len(drop_mutations(g, p.u_active, p.u_dormant, seed=rng)))
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - oracle) <= 3.5 * se


def test_doubling_rates_doubles_expected_sites():
    rng = np.random.default_rng(8)
    genealogies = [simulate_coalescent(4, 0, P11, seed=rng) for _ in range(4_000)]
    s1 = [len(drop_mutations(g, 1.0, 0.5, seed=rng)) for g in genealogies]
    s2 = [len(drop_mutations(g, 2.0, 1.0, seed=rng)) for g in genealogies]
    m1, m2 = np.mean(s1), np.mean(s2)
    se = math.hypot(np.std(s1, ddof=1), np.std(s2, ddof=1)) / math.sqrt(len(s1))
    assert abs(m2 - 2 * m1) <= 4 * se


def _scalar_spectra(n, m, p, reps, seed):
    rng = np.random.default_rng(seed)
    return np.array([
        sfs(g, drop_mutations(g, p.u_active, p.u_dormant, seed=rng)).counts
        for g in (simulate_coalescent(n, m, p, seed=rng) for _ in range(reps))
    ])


@pytest.mark.parametrize("case", list(LAW_CASES))
def test_sfs_ensemble_matches_scalar_path_per_class(case):
    p, n, m = LAW_CASES[case]
    lanes = sfs_ensemble(n, m, p, 20_000, seed=21)
    scalar = _scalar_spectra(n, m, p, 5_000, seed=22)
    assert lanes.shape == (20_000, n + m - 1) and lanes.dtype == np.int64
    se = np.sqrt(lanes.var(axis=0, ddof=1) / len(lanes) + scalar.var(axis=0, ddof=1) / len(scalar))
    z = (lanes.mean(axis=0) - scalar.mean(axis=0)) / se
    assert np.all(np.abs(z) <= 3.5), z


@pytest.mark.parametrize("case", list(LAW_CASES))
def test_sfs_ensemble_total_matches_length_oracle(case):
    p, n, m = LAW_CASES[case]
    ea, ed = expected_branch_lengths_first_step(BlockCountState(n, m), p)
    mean, se = mean_stderr(sfs_ensemble(n, m, p, 20_000, seed=23).sum(axis=1))
    assert abs(mean - (p.u_active / 2 * ea + p.u_dormant / 2 * ed)) <= 3.5 * se


def test_sfs_ensemble_kingman_spectrum_is_u_over_i():
    p = ModelParams(c=0.0, K=1.0, u_active=2.0)
    lanes = sfs_ensemble(7, 0, p, 20_000, seed=24)
    se = lanes.std(axis=0, ddof=1) / math.sqrt(len(lanes))
    expected = p.u_active / np.arange(1, 7)
    assert np.all(np.abs(lanes.mean(axis=0) - expected) <= 3.5 * se)


def test_sfs_ensemble_is_deterministic_and_splits_into_chunks(monkeypatch):
    assert seedbank.sfs_ensemble is sfs_ensemble
    first = sfs_ensemble(5, 2, README, 50, seed=25)
    assert np.array_equal(first, sfs_ensemble(5, 2, README, 50, seed=25))
    assert sfs_ensemble(5, 2, README, 1, seed=25).shape == (1, 6)
    # chunks of 3 lanes: another stream, the same law, every row filled
    monkeypatch.setattr(mutation_stats, "_SFS_ELEMENTS", 3 * 2 * 7)
    chunked = sfs_ensemble(5, 2, README, 50, seed=25)
    assert chunked.shape == (50, 6) and chunked.min() >= 0 and not np.array_equal(first, chunked)
    assert np.array_equal(chunked, sfs_ensemble(5, 2, README, 50, seed=25))


def test_sfs_ensemble_refuses_what_the_scalar_path_refuses():
    with pytest.raises(ValueError, match="sample of at least 2"):
        sfs_ensemble(1, 0, README, 10, seed=0)
    with pytest.raises(ValueError, match="at least one line"):
        sfs_ensemble(0, 0, README, 10, seed=0)
    with pytest.raises(ValueError, match="unreachable"):
        sfs_ensemble(2, 1, ModelParams(c=0.0, K=1.0), 10, seed=0)
    for reps in (0, -1):
        with pytest.raises(ValueError, match="reps must be at least 1"):
            sfs_ensemble(3, 0, README, reps, seed=0)


def test_sfs_ensemble_without_mutation_is_zero():
    assert not sfs_ensemble(4, 2, P11, 200, seed=26).any()
