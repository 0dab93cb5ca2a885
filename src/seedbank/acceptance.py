"""The acceptance suite: every shipped claim, checked at its stated tolerance.

Each criterion is a function returning a :class:`CriterionResult` with the
measured numbers in ``detail``; the runner prints one PASS/FAIL line per
criterion.  Tolerances are pinned here, not configurable: 3 standard errors
plus an explicit discretization allowance wherever Monte Carlo meets an
exact oracle.  Criterion 12's step-refinement clause is implemented exactly
as stated even though the measured refinement ratio of boundary hits sits
around 2^-0.3 rather than below 1/2 (see the shipped analysis notes); it is
reported honestly rather than loosened.
"""

from __future__ import annotations

import filecmp
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .blockcount import (
    BlockCountState,
    bc_transition_rates,
    blockcount_ensemble,
    coming_down_scan,
    duality_rhs,
    expected_branch_lengths_first_step,
    expected_tmrca_first_step,
    tmrca_loglog_scan,
)
from .coalescent import simulate_coalescent
from .config import ExperimentConfig
from .diffusion import (
    DiffusionState,
    IntegratorSettings,
    boundary_hitting_stats,
    delay_residual,
    duality_lhs_grid,
    fixation_stats,
    integrate,
    martingale_drift,
)
from .forward_wf import WFConfig, wf_ensemble
from .measures import ModelParams, SwitchingMeasure
from .mutation_stats import (
    SiteFrequencySpectrum,
    drop_mutations,
    fay_wu_h,
    fu_li_d_numerator,
    segregating_sites,
    sfs,
    theta_pi,
)
from .streams import substream

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]

_GRID_EXPONENTS = tuple((n, m) for n in range(3) for m in range(3) if n + m > 0)
_GRID_STARTS = tuple((x, y) for x in (0.2, 0.8) for y in (0.2, 0.8))
_GRID_TIMES = (0.1, 0.5, 2.0)


@dataclass
class CriterionResult:
    ident: str
    name: str
    passed: bool
    detail: dict


def _c01_rate_tables(seed) -> CriterionResult:
    p = ModelParams(c=2.0, K=0.5)
    got = dict(bc_transition_rates(BlockCountState(3, 2), p))
    want = {
        BlockCountState(2, 2): 3.0,
        BlockCountState(2, 3): 6.0,
        BlockCountState(4, 1): 2.0,
    }
    exact_ok = got == want

    p_atom = ModelParams(c=0.0, lambda_ad=SwitchingMeasure.atom(0.5, 0.4))
    got_atom = dict(bc_transition_rates(BlockCountState(3, 0), p_atom))
    want_atom = {
        BlockCountState(2, 0): 3.0,
        BlockCountState(2, 1): 0.3,
        BlockCountState(1, 2): 0.3,
        BlockCountState(0, 3): 0.1,
    }
    atom_err = max(
        abs(got_atom.get(s, 0.0) - r) for s, r in want_atom.items()
    ) if set(got_atom) == set(want_atom) else float("inf")
    return CriterionResult(
        "01",
        "rate-table exactness",
        exact_ok and atom_err <= 1e-12,
        {"spontaneous_exact": exact_ok, "atom_table_max_error": atom_err},
    )


def _c02_first_step(seed) -> CriterionResult:
    p = ModelParams(c=1.0, K=1.0)
    oracle = expected_tmrca_first_step(BlockCountState(2, 0), p)
    res = blockcount_ensemble(
        BlockCountState(2, 0), p, 100_000, seed=substream(seed, 9, 2)
    )
    mc = float(res.absorption_time.mean())
    ok = abs(oracle - 4.0) <= 1e-10 and abs(mc - 4.0) <= 0.02 * 4.0
    return CriterionResult(
        "02",
        "first-step oracle vs Monte Carlo",
        ok,
        {"oracle": oracle, "mc_mean": mc, "mc_relative_error": abs(mc - 4.0) / 4.0},
    )


def _duality_grid_check(params, reps_lhs, rhs_mc_reps, seed, tol_extra):
    worst = {"margin": -math.inf}
    settings = IntegratorSettings(horizon=max(_GRID_TIMES), dt=1e-3)
    for i, (x, y) in enumerate(_GRID_STARTS):
        lhs = duality_lhs_grid(
            params, x, y, _GRID_EXPONENTS, list(_GRID_TIMES), reps_lhs,
            seed=substream(seed, 9, 30, i), settings=settings,
        )
        for n, m in _GRID_EXPONENTS:
            for k, t in enumerate(_GRID_TIMES):
                mean, se = lhs[(n, m, t)]
                if rhs_mc_reps is None:
                    rhs, rhs_se = duality_rhs(n, m, x, y, params, t)
                else:
                    rhs, rhs_se = duality_rhs(
                        n, m, x, y, params, t, method="mc", reps=rhs_mc_reps,
                        seed=substream(seed, 9, 31, i, n, m, k),
                    )
                bound = 3.0 * math.hypot(se, rhs_se) + tol_extra
                margin = abs(mean - rhs) - bound
                if margin > worst["margin"]:
                    worst = {
                        "margin": margin, "n": n, "m": m, "x": x, "y": y, "t": t,
                        "lhs": mean, "rhs": rhs, "bound": bound,
                    }
    return worst


def _c03_duality_spontaneous(seed) -> CriterionResult:
    worst = _duality_grid_check(
        ModelParams(c=1.0, K=1.0), reps_lhs=10_000, rhs_mc_reps=None,
        seed=seed, tol_extra=0.01,
    )
    return CriterionResult(
        "03", "moment duality, spontaneous switching", worst["margin"] <= 0.0, worst
    )


def _c04_duality_simultaneous(seed) -> CriterionResult:
    lam = SwitchingMeasure.atom(0.5, 0.5)
    params = ModelParams(c=1.0, K=1.0, lambda_ad=lam, lambda_da=lam)
    worst = _duality_grid_check(
        params, reps_lhs=10_000, rhs_mc_reps=100_000, seed=seed, tol_extra=0.01
    )
    return CriterionResult(
        "04", "moment duality, simultaneous switching", worst["margin"] <= 0.0, worst
    )


def _c05_fixation_law(seed) -> CriterionResult:
    cases = (
        (0.3, 0.7, 1.0),
        (0.3, 0.7, 2.0),
        (0.5, 0.5, 0.5),
    )
    detail: dict = {}
    ok = True
    settings = IntegratorSettings(horizon=200.0, dt=1e-3)
    for i, (x, y, K) in enumerate(cases):
        target = (y + x * K) / (1.0 + K)
        p = ModelParams(c=1.0, K=K)
        fs = fixation_stats(
            p, (x, y), 200.0, 10_000, seed=substream(seed, 9, 50, i),
            settings=settings, corner_tol=1e-6,
        )
        diff_err = abs(fs.frac_11 - target)
        diff_ok = diff_err <= 3.0 * fs.se_11() + 0.01

        wf = WFConfig(N=100, K=K, c=1.0, exchange_mode="binomial")
        res = wf_ensemble(wf, x, y, 10_000, 20_000, seed=substream(seed, 9, 51, i))
        ones, zeros, unfixed = res.fixation_counts(wf)
        pw = ones / 10_000
        se_w = math.sqrt(pw * (1.0 - pw) / 10_000)
        wf_ok = abs(pw - target) <= 3.0 * se_w + 0.02

        detail[f"x{x}_y{y}_K{K}"] = {
            "target": target,
            "diffusion_freq": fs.frac_11,
            "diffusion_unfixed": fs.unfixed,
            "wf_freq": pw,
            "wf_unfixed": unfixed,
        }
        ok = ok and diff_ok and wf_ok
    return CriterionResult("05", "fixation law, diffusion and forward model", ok, detail)


def _c06_delay(seed) -> CriterionResult:
    p = ModelParams(c=1.0, K=1.0)
    residuals = {}
    for level, dt in enumerate((1e-4, 5e-5)):
        settings = IntegratorSettings(horizon=5.0, dt=dt)
        vals = [
            delay_residual(
                integrate(p, DiffusionState(0.3, 0.7), settings, seed=substream(seed, 9, 60, level, r)),
                p,
            )
            for r in range(100)
        ]
        residuals[dt] = vals
    worst = max(residuals[1e-4])
    med_full = float(np.median(residuals[1e-4]))
    med_half = float(np.median(residuals[5e-5]))
    ok = worst <= 0.01 and med_half <= med_full / 2.0
    return CriterionResult(
        "06",
        "delay representation residual",
        ok,
        {"max_residual": worst, "median": med_full, "median_half_dt": med_half},
    )


def _c07_martingale(seed) -> CriterionResult:
    p = ModelParams(c=1.0, K=1.0)
    rows = martingale_drift(
        p, (0.3, 0.7), 10.0, [1.0, 5.0, 10.0], 10_000,
        seed=substream(seed, 9, 70), settings=IntegratorSettings(horizon=10.0, dt=1e-3),
    )
    target = 1.0 * 0.3 + 0.7
    detail = {f"t{t}": {"mean": mn, "stderr": se} for t, mn, se in rows}
    ok = all(abs(mn - target) <= 3.0 * se for _, mn, se in rows)
    return CriterionResult("07", "conserved mean of K*X + Y", ok, detail)


def _c08_tmrca_scaling(seed) -> CriterionResult:
    p = ModelParams(c=1.0, K=1.0)
    rows = tmrca_loglog_scan(p, [100, 1000, 10_000], 1000, seed=substream(seed, 9, 80))
    means = [r.mean for r in rows]
    ratios = [r.ratio for r in rows]
    ok = means == sorted(means) and means[0] < means[-1] and max(ratios) / min(ratios) < 2.0
    return CriterionResult(
        "08",
        "absorption time grows like log log n",
        ok,
        {"means": means, "ratios": ratios, "ratio_spread": max(ratios) / min(ratios)},
    )


def _c09_coming_down(seed) -> CriterionResult:
    lam = SwitchingMeasure.atom(0.5, 1.0)
    stable = coming_down_scan(
        ModelParams(c=0.0, K=1.0, lambda_ad=lam), [100, 1000, 10_000], 0.05, 2000,
        seed=substream(seed, 9, 90),
    )
    growing = coming_down_scan(
        ModelParams(c=0.5, K=1.0, lambda_ad=lam), [100, 1000, 10_000], 0.05, 2000,
        seed=substream(seed, 9, 91),
    )
    tail_ratio = stable[-1].mean / stable[-2].mean
    grow_means = [r.mean for r in growing]
    ok = 0.8 <= tail_ratio <= 1.25 and grow_means[0] < grow_means[1] < grow_means[2]
    return CriterionResult(
        "09",
        "block counts: collapse vs growth across sample sizes",
        ok,
        {
            "stable_means": [r.mean for r in stable],
            "stable_tail_ratio": tail_ratio,
            "growing_means": grow_means,
        },
    )


def _c10_mutation_oracle(seed) -> CriterionResult:
    p = ModelParams(c=1.0, K=1.0, u_active=1.0, u_dormant=0.5)
    reps = 100_000
    seg = np.empty(reps)
    for r in range(reps):
        rng = substream(seed, 9, 100, r)
        g = simulate_coalescent(4, 0, p, seed=rng)
        muts = drop_mutations(g, p.u_active, p.u_dormant, seed=rng)
        seg[r] = len(muts)
    ea, ed = expected_branch_lengths_first_step(BlockCountState(4, 0), p)
    oracle = p.u_active / 2.0 * ea + p.u_dormant / 2.0 * ed
    mean = float(seg.mean())
    se = float(seg.std(ddof=1) / math.sqrt(reps))
    ok = abs(mean - oracle) <= 3.0 * se
    return CriterionResult(
        "10",
        "segregating sites match the branch-length oracle",
        ok,
        {"mc_mean": mean, "stderr": se, "oracle": oracle},
    )


def _c11_statistics(seed) -> CriterionResult:
    s1 = SiteFrequencySpectrum(4, (3, 0, 0))
    s2 = SiteFrequencySpectrum(4, (0, 0, 3))
    s3 = SiteFrequencySpectrum(4, (1, 2, 0))
    hand_ok = (
        fay_wu_h(s1) == 1.0
        and fay_wu_h(s2) == -3.0
        and fu_li_d_numerator(s1) == 3 - 11.0 / 6.0 * 3
        and segregating_sites(s3) == 3
    )
    p = ModelParams(c=1.0, K=1.0, u_active=1.5, u_dormant=0.5)
    mismatches = 0
    for r in range(1000):
        rng = substream(seed, 9, 110, r)
        g = simulate_coalescent(5, 1, p, seed=rng)
        muts = drop_mutations(g, p.u_active, p.u_dormant, seed=rng)
        spectrum = sfs(g, muts)
        nn = g.sample_size
        # brute-force pairwise differences from per-leaf incidence
        total = 0
        for i in range(1, nn + 1):
            for j in range(i + 1, nn + 1):
                total += sum(1 for mu in muts.mutations if (i in mu.leaves) != (j in mu.leaves))
        via_sfs = sum(
            k * (nn - k) * c for k, c in enumerate(spectrum.counts, start=1)
        )
        if total != via_sfs:
            mismatches += 1
        if theta_pi(spectrum) != via_sfs / math.comb(nn, 2):
            mismatches += 1
    ok = hand_ok and mismatches == 0
    return CriterionResult(
        "11",
        "frequency-spectrum statistics exactness",
        ok,
        {"hand_examples": hand_ok, "pairwise_mismatches": mismatches},
    )


def _c12_boundary_proxy(seed) -> CriterionResult:
    p_mut = ModelParams(c=1.0, K=1.0, u2=0.6)
    settings = IntegratorSettings(horizon=50.0, dt=1e-3)
    out = boundary_hitting_stats(
        p_mut, (0.05, 0.05), 50.0, 3000, seed=substream(seed, 9, 120), settings=settings
    )
    full, half = out[1e-3], out[5e-4]
    halving_ok = half["x0"] <= full["x0"] / 2.0
    y_ok = full["y0"] < 1e-3 and full["y1"] < 1e-3

    p0 = ModelParams(c=1.0, K=1.0)
    out0 = boundary_hitting_stats(
        p0, (0.05, 0.05), 50.0, 1000, seed=substream(seed, 9, 121), settings=settings
    )
    positive_ok = out0[1e-3]["x0"] > 0.0 and out0[1e-3]["x1"] > 0.0
    return CriterionResult(
        "12",
        "boundary classification under step refinement",
        halving_ok and y_ok and positive_ok,
        {
            "x0_freq_dt": full["x0"],
            "x0_freq_half_dt": half["x0"],
            "refinement_ratio": half["x0"] / full["x0"] if full["x0"] > 0 else float("nan"),
            "halving_ok": halving_ok,
            "y_hits_ok": y_ok,
            "no_mutation_positive_hits": positive_ok,
        },
    )


def _c13_determinism(seed) -> CriterionResult:
    from .cli import run_experiment

    base = ExperimentConfig(
        seed=seed,
        reps=200,
        n=3,
        m=1,
        generations=500,
        horizon=0.5,
        times=(0.1, 0.5),
        xs=(0.2,),
        ys=(0.8,),
        n_list=(16, 32),
        model=ModelParams(c=1.0, K=1.0, u_active=1.0, u_dormant=0.5),
    )
    experiments = (
        "coalescent",
        "blockcount",
        "forward-wf",
        "diffusion",
        "duality",
        "tmrca-scan",
        "coming-down-scan",
        "stats",
    )
    mismatched: list[str] = []
    tmp = Path(tempfile.mkdtemp(prefix="seedbank-det-"))
    try:
        for name in experiments:
            outdir = tmp / "work"
            cfg = replace(base, experiment=name, out=str(outdir))
            run_experiment(cfg, workers=1)
            first = _snapshot_dir(outdir)
            shutil.rmtree(outdir)
            run_experiment(cfg, workers=1)
            second = _snapshot_dir(outdir)
            shutil.rmtree(outdir)
            if first != second:
                mismatched.append(name)
            if name == "duality":
                run_experiment(cfg, workers=2)
                third = _snapshot_dir(outdir)
                shutil.rmtree(outdir)
                if first != third:
                    mismatched.append("duality-workers")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return CriterionResult(
        "13",
        "byte-identical reruns and worker-count transparency",
        not mismatched,
        {"experiments": list(experiments), "mismatched": mismatched},
    )


def _snapshot_dir(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


CRITERIA: tuple[Callable, ...] = (
    _c01_rate_tables,
    _c02_first_step,
    _c03_duality_spontaneous,
    _c04_duality_simultaneous,
    _c05_fixation_law,
    _c06_delay,
    _c07_martingale,
    _c08_tmrca_scaling,
    _c09_coming_down,
    _c10_mutation_oracle,
    _c11_statistics,
    _c12_boundary_proxy,
    _c13_determinism,
)


def run_acceptance(seed: int = 0, echo=None, only=None) -> list[CriterionResult]:
    """Run all (or the selected) criteria, echoing one PASS/FAIL line each.

    Each line ends with the criterion's wall seconds; the timing goes only to
    ``echo``, never into the results.
    """
    results = []
    for fn in CRITERIA:
        ident = fn.__name__[2:4]
        if only is not None and ident not in only:
            continue
        start = time.perf_counter()
        res = fn(seed)
        seconds = time.perf_counter() - start
        results.append(res)
        if echo is not None:
            key_bits = ", ".join(
                f"{k}={v:.5g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in list(res.detail.items())[:3]
                if not isinstance(v, (dict, list))
            )
            echo(f"{'PASS' if res.passed else 'FAIL'} {res.ident} {res.name}"
                 + (f" [{key_bits}]" if key_bits else "") + f" ({seconds:.1f} s)")
    return results
