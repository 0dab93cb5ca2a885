"""Command-line entry point: experiment orchestration and file output.

Every experiment is a pure function of (config, seed, package version): the
output files carry a metadata header with the version, the seed and the
full config echo, use '.' decimals, '\\n' line endings and shortest
round-trip float formatting, and are byte-identical across reruns and
worker counts.  Monte Carlo work is seeded through per-task splittable
streams, so fanning tasks out to a process pool cannot change any number.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .blockcount import (
    BlockCountState,
    blockcount_ensemble,
    coming_down_scan,
    duality_rhs,
    expected_branch_lengths_first_step,
    expected_tmrca_first_step,
    mrca_reachable,
    simulate_blockcount,
    tmrca_loglog_scan,
)
from .coalescent import branch_lengths, simulate_coalescent, tmrca
from .config import (
    _DOMAINS, EXPERIMENTS, ConfigError, ExperimentConfig, _text, parse_config, serialize_config,
)
from .diffusion import DUALITY_EXPONENTS, IntegratorSettings, duality_lhs_grid, integrate
from .forward_wf import WFConfig, run_trajectory, wf_ensemble
from .mutation_stats import (
    drop_mutations,
    fay_wu_h,
    fu_li_d_numerator,
    segregating_sites,
    sfs,
    singletons,
    theta_pi,
)
from .streams import mean_stderr, substream

_WORKERS_ENV = "SEEDBANK_WORKERS"


def _header_lines(cfg: ExperimentConfig) -> list[str]:
    lines = [f"seedbank-version = {__version__}", f"master-seed = {cfg.seed}", ""]
    lines += serialize_config(cfg).splitlines()
    return ["# " + ln if ln else "#" for ln in lines]


def write_csv(path: Path, columns, rows, cfg: ExperimentConfig) -> None:
    with open(path, "w", newline="") as f:
        for ln in _header_lines(cfg):
            f.write(ln + "\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_text(v) for v in row) + "\n")


def write_json(path: Path, payload: dict, cfg: ExperimentConfig) -> None:
    body = {
        "seedbank_version": __version__,
        "master_seed": cfg.seed,
        "config": serialize_config(cfg),
    }
    body.update(payload)
    with open(path, "w", newline="") as f:
        f.write(json.dumps(body, sort_keys=True, indent=2))
        f.write("\n")


def _estimate(values, **extra) -> dict:
    """A summary entry: the mean and standard error of ``values``, plus ``extra``."""
    mean, se = mean_stderr(values)
    return {"mean": mean, "stderr": se, **extra}


def _settings(cfg: ExperimentConfig) -> IntegratorSettings:
    return IntegratorSettings(
        horizon=cfg.horizon,
        dt=cfg.dt,
        jump_cutoff=cfg.jump_cutoff,
        boundary_tol=cfg.boundary_tol,
        noise_model=cfg.noise_model,
        record_every=cfg.record_every,
    )


# ---------------------------------------------------------------------------
# experiment runners; each draws its random streams from ``stream(*path)``,
# the run's seed and its experiment's domain bound by ``run_experiment``
# ---------------------------------------------------------------------------


def run_coalescent(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    horizon = cfg.horizon if cfg.stop == "horizon" else None

    def replicate(r: int):
        return simulate_coalescent(cfg.n, cfg.m, cfg.model, horizon=horizon, seed=stream(r))

    first = replicate(0)
    (out / "genealogy.jsonl").write_text(first.to_jsonl())
    if first.reached_mrca and first.sample_size >= 2:
        (out / "genealogy.newick").write_text(first.to_newick())
    t_list, la_list, ld_list, mrca_count = [], [], [], 0
    for r in range(cfg.reps):
        g = first if r == 0 else replicate(r)
        la, ld = branch_lengths(g)
        la_list.append(la)
        ld_list.append(ld)
        t = tmrca(g)
        if t is not None:
            t_list.append(t)
            mrca_count += 1
    payload: dict = {"reps": cfg.reps, "reached_mrca": mrca_count}
    if t_list:
        payload["tmrca"] = _estimate(t_list)
    payload["active_length"] = _estimate(la_list)
    payload["dormant_length"] = _estimate(ld_list)
    write_json(out / "summary.json", payload, cfg)


def run_blockcount(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    s0 = BlockCountState(cfg.n, cfg.m)
    horizon = cfg.horizon if cfg.stop == "horizon" else None
    path = simulate_blockcount(s0, cfg.model, horizon=horizon, seed=stream(0))
    write_csv(out / "path.csv", ("t", "n", "m"), [(t, s.n, s.m) for t, s in path], cfg)
    res = blockcount_ensemble(s0, cfg.model, cfg.reps, horizon=horizon, seed=stream(1))
    payload: dict = {"reps": cfg.reps}
    absorbed = res.absorption_time[np.isfinite(res.absorption_time)]
    if absorbed.size:
        payload["absorption_time"] = _estimate(absorbed, absorbed=int(absorbed.size))
    if horizon is None and mrca_reachable(s0, cfg.model):
        payload["first_step_expected_tmrca"] = expected_tmrca_first_step(s0, cfg.model)
        ea, ed = expected_branch_lengths_first_step(s0, cfg.model)
        payload["first_step_expected_lengths"] = {"active": ea, "dormant": ed}
    write_json(out / "summary.json", payload, cfg)


def run_forward_wf(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    wf = WFConfig(N=cfg.pop_size, K=cfg.model.K, c=cfg.model.c, exchange_mode=cfg.exchange_mode)
    traj = run_trajectory(
        wf, cfg.x0, cfg.y0, cfg.generations, record_every=cfg.record_every,
        seed=stream(0),
    )
    rows = [
        (int(g), int(i), int(j), i / wf.N, j / wf.M)
        for g, i, j in zip(traj.generations, traj.i, traj.j)
    ]
    write_csv(out / "trajectory.csv", ("generation", "i", "j", "x", "y"), rows, cfg)
    res = wf_ensemble(wf, cfg.x0, cfg.y0, cfg.reps, cfg.generations, seed=stream(1))
    fix = res.fixation
    payload = {
        "reps": cfg.reps,
        "fixed_all_type0": fix.fixed_11,
        "fixed_all_type1": fix.fixed_00,
        "unfixed": fix.unfixed,
        "fixation_frequency": fix.frac_11,
        "fixation_stderr": fix.se_11(),
        "target_frequency": (cfg.y0 + cfg.x0 * cfg.model.K) / (1.0 + cfg.model.K),
        "clamped_exchanges": res.clamped_exchanges,
        "trajectory_fixation_generation": traj.fixation_generation,
    }
    write_json(out / "fixation.json", payload, cfg)


def run_diffusion(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    traj = integrate(cfg.model, (cfg.x0, cfg.y0), _settings(cfg), seed=stream(0))
    # streamed to the file: no list of row tuples beside the arrays
    rows = zip(map(float, traj.times), map(float, traj.x), map(float, traj.y))
    write_csv(out / "trajectory.csv", ("t", "x", "y"), rows, cfg)
    write_csv(out / "jumps.csv", ("t", "type", "z"), traj.jumps, cfg)
    write_json(
        out / "summary.json",
        {
            "hit_00": traj.hit_00,
            "hit_11": traj.hit_11,
            "ran_to_horizon": traj.ran_to_horizon,
            "jump_count": len(traj.jumps),
        },
        cfg,
    )


def _duality_task(args) -> list[tuple]:
    cfg, stream, task_idx, x, y = args
    times = [float(t) for t in cfg.times]
    # the run's horizon is the largest requested time, not T
    lhs = duality_lhs_grid(
        cfg.model, x, y, DUALITY_EXPONENTS, times, cfg.reps,
        seed=stream(task_idx, 0), settings=_settings(cfg),
    )
    rows = []
    for n, m in DUALITY_EXPONENTS:
        for t in times:
            mean, se = lhs[(n, m, t)]
            rhs, _ = duality_rhs(n, m, x, y, cfg.model, t)
            rows.append((n, m, x, y, t, mean, rhs, mean - rhs, se))
    return rows


def run_duality(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    # a task is plain values and a partial of a module function, so it pickles
    tasks = [
        (cfg, stream, i, float(x), float(y))
        for i, (x, y) in enumerate((x, y) for x in cfg.xs for y in cfg.ys)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_duality_task, tasks))
    else:
        blocks = [_duality_task(t) for t in tasks]
    rows = [row for block in blocks for row in block]
    write_csv(
        out / "duality.csv",
        ("n", "m", "x", "y", "t", "lhs", "rhs", "diff", "stderr"),
        rows,
        cfg,
    )


def _write_scan(rows, out: Path, cfg: ExperimentConfig) -> None:
    write_csv(
        out / "scan.csv",
        ("n", "mean", "stderr", "ratio"),
        [(r.n, r.mean, r.stderr, r.ratio) for r in rows],
        cfg,
    )


def run_tmrca_scan(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    _write_scan(tmrca_loglog_scan(cfg.model, cfg.n_list, cfg.reps, seed=stream(0)), out, cfg)


def run_coming_down_scan(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    rows = coming_down_scan(cfg.model, cfg.n_list, cfg.t_probe, cfg.reps, seed=stream(0))
    _write_scan(rows, out, cfg)


def run_stats(cfg: ExperimentConfig, stream, out: Path, workers: int) -> None:
    model = cfg.model
    sample = cfg.n + cfg.m
    if sample < 2:
        raise ValueError("the statistics experiment needs a sample of at least 2")
    sfs_rows = []
    seg, sing, tp, h, d = [], [], [], [], []
    for r in range(cfg.reps):
        rng = stream(r)
        g = simulate_coalescent(cfg.n, cfg.m, model, seed=rng)
        muts = drop_mutations(g, model.u_active, model.u_dormant, seed=rng)
        spectrum = sfs(g, muts)
        sfs_rows.append((sample, *spectrum.counts))
        seg.append(segregating_sites(spectrum))
        sing.append(singletons(spectrum))
        tp.append(theta_pi(spectrum))
        h.append(fay_wu_h(spectrum))
        d.append(fu_li_d_numerator(spectrum))
    write_csv(
        out / "sfs.csv",
        ("n", *(f"xi{i}" for i in range(1, sample))),
        sfs_rows,
        cfg,
    )
    payload: dict = {
        "reps": cfg.reps,
        "segregating_sites": _estimate(seg),
        "singletons": _estimate(sing),
        "theta_pi": _estimate(tp),
        "fay_wu_h": _estimate(h),
        "fu_li_d_numerator": _estimate(d),
    }
    s0 = BlockCountState(cfg.n, cfg.m)
    if mrca_reachable(s0, model):
        ea, ed = expected_branch_lengths_first_step(s0, model)
        payload["expected_segregating_sites_oracle"] = (
            model.u_active / 2.0 * ea + model.u_dormant / 2.0 * ed
        )
    write_json(out / "summary.json", payload, cfg)


def run_acceptance_experiment(cfg: ExperimentConfig, out: Path) -> bool:
    from .acceptance import run_acceptance

    results = run_acceptance(seed=cfg.seed, echo=print)
    write_json(
        out / "acceptance.json",
        {
            "criteria": {
                r.ident: {"passed": r.passed, "detail": r.detail} for r in results
            },
            "all_passed": all(r.passed for r in results),
        },
        cfg,
    )
    return all(r.passed for r in results)


_RUNNERS = {
    "coalescent": run_coalescent,
    "blockcount": run_blockcount,
    "forward-wf": run_forward_wf,
    "diffusion": run_diffusion,
    "duality": run_duality,
    "tmrca-scan": run_tmrca_scan,
    "coming-down-scan": run_coming_down_scan,
    "stats": run_stats,
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> int:
    """Dispatch one experiment; returns a process exit status."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.experiment == "acceptance":
        ok = run_acceptance_experiment(cfg, out)
        return 0 if ok else 1
    # looked up now, not at import, so a wrapped substream sees every call
    stream = functools.partial(substream, cfg.seed, _DOMAINS[cfg.experiment])
    try:
        _RUNNERS[cfg.experiment](cfg, stream, out, workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedbank",
        description="Simulate population models with dormancy and verify them against exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help=f"worker processes (default ${_WORKERS_ENV} or 1); never changes results",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.config is not None:
        try:
            cfg = parse_config(Path(args.config).read_text())
        except ConfigError as exc:
            for ln, msg in exc.errors:
                print(f"config error at line {ln}: {msg}", file=sys.stderr)
            return 2
    else:
        cfg = ExperimentConfig()
    overrides: dict = {"experiment": args.command}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    try:
        cfg = dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get(_WORKERS_ENV, "1"))
    return run_experiment(cfg, workers=max(workers, 1))


if __name__ == "__main__":
    sys.exit(main())
