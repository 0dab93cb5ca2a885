"""One benchmark workload, run in a fresh Python process.

The three workloads are fixed sequences of seedbank experiments: CLI
subcommands run through ``seedbank.cli.main`` with ``--workers 1``, plus
library calls where the CLI has no entry point.  This script is started by
``run.py`` with its working directory set to a scratch directory that holds
the generated configs (``configs/``); CLI output goes to ``out/``.  It times
set-up and each experiment, optionally traces the run, checks the outputs
against exact oracles outside the timed regions, and writes everything it
measured to a JSON result file.  With ``--no-checks`` it skips the oracle
checks and the environment record and reports only a digest of its library
results, so that ``run.py`` can compare it with a checked process at the same
seed.

    python3 workload.py --workload genealogy --seed 1 --t0 <monotonic time> \
        --result result.json [--trace] [--no-checks]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

# stream domain of the benchmark's own library calls; the CLI uses 1-9
BENCH_DOMAIN = 100

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

README_MODEL = """\
[model]
c = 1.0
K = 2.0
u_active = 1.0
u_dormant = 0.5

[to-dormant]
atom 0.5 0.4
beta 2.0 2.0 0.6

[to-active]
atom 0.3 0.5
"""

ATOM_MODEL = """\
[model]
c = 1.0
K = 2.0

[to-dormant]
atom 0.5 0.4

[to-active]
atom 0.3 0.5
"""

# the model of acceptance criterion 04
DUALITY_MODEL = """\
[model]
c = 1.0
K = 1.0

[to-dormant]
atom 0.5 0.5

[to-active]
atom 0.5 0.5
"""

SPONTANEOUS_MODEL = """\
[model]
c = 1.0
K = 1.0
"""

# mutation in the active pool keeps both corners open, so the path runs to
# the horizon and its cost does not depend on when it would have fixed
MUTATING_ATOM_MODEL = """\
[model]
c = 1.0
K = 1.0
u1 = 0.5
u2 = 0.5

[to-dormant]
atom 0.5 0.5

[to-active]
atom 0.5 0.5
"""

# name -> (model, [experiment] and [numeric] body); the CLI command is the kind
CONFIGS = {
    "genealogy": {
        "stats": (README_MODEL, "kind = stats\nn = 6\nm = 2\n\n[numeric]\nreps = 1000\n"),
        "blockcount": (README_MODEL, "kind = blockcount\nn = 6\nm = 2\n\n[numeric]\nreps = 1000\n"),
        "tmrca-scan": (ATOM_MODEL, "kind = tmrca-scan\nn_list = 20 100 1000 10000\n\n[numeric]\nreps = 300\n"),
    },
    "duality": {
        "duality": (
            DUALITY_MODEL,
            "kind = duality\nxs = 0.2 0.8\nys = 0.2 0.8\ntimes = 0.1 0.5 2.0\n\n"
            "[numeric]\nreps = 5000\ndt = 0.002\n",
        ),
    },
    "forward": {
        "forward-wf": (
            SPONTANEOUS_MODEL,
            "kind = forward-wf\npop_size = 100\nx0 = 0.3\ny0 = 0.7\ngenerations = 20000\n"
            "exchange_mode = binomial\n\n[numeric]\nreps = 2000\n",
        ),
        "diffusion": (
            MUTATING_ATOM_MODEL,
            "kind = diffusion\nx0 = 0.3\ny0 = 0.7\n\n[numeric]\ndt = 0.001\nT = 100.0\nrecord_every = 1\n",
        ),
    },
}

# duality: exact oracles on lattices of n + m = 40 and 60 lines
ORACLE_STARTS = ((20, 20), (30, 30))
ORACLE_X = ORACLE_Y = 0.9
ORACLE_T = 0.5
ORACLE_CHECK_LANES = 4000

# forward: fixation of the spontaneous model from the forward-wf start
FIXATION_LANES = 2000
FIXATION_T = 30.0
FIXATION_DT = 2e-3


def config_texts(workload: str, seed: int) -> dict[str, str]:
    """The workload's config files, name -> text; the seed is the only input that varies."""
    return {
        name: f"[run]\nseed = {seed}\nout = out/{name}\n\n{model}\n[experiment]\n{body}"
        for name, (model, body) in CONFIGS[workload].items()
    }


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class Context:
    """State one workload process carries from set-up through the checks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.configs: dict = {}
        self.exit_codes: dict[str, int] = {}
        self.values: dict = {}
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, **detail) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _cli(command: str):
    def run(ctx: Context) -> None:
        from seedbank import cli

        ctx.exit_codes[command] = cli.main(
            [command, "--config", f"configs/{command}.ini", "--workers", "1"]
        )

    return run


def _oracle(ctx: Context) -> None:
    from seedbank import blockcount

    params = ctx.configs["duality"].model
    for s in ORACLE_STARTS:
        value, _ = blockcount.duality_rhs(*s, ORACLE_X, ORACLE_Y, params, ORACLE_T)
        tmrca = blockcount.expected_tmrca_first_step(blockcount.BlockCountState(*s), params)
        ctx.values[s] = (value, tmrca)


def _fixation(ctx: Context) -> None:
    from seedbank import diffusion
    from seedbank.streams import substream

    cfg = ctx.configs["forward-wf"]
    settings = diffusion.IntegratorSettings(horizon=FIXATION_T, dt=FIXATION_DT)
    ctx.values["fixation"] = diffusion.fixation_stats(
        cfg.model, (cfg.x0, cfg.y0), FIXATION_T, FIXATION_LANES,
        seed=substream(ctx.seed, BENCH_DOMAIN, 0), settings=settings,
    )


# workload -> [(experiment metric stem, runner)], in run order
EXPERIMENTS = {
    "genealogy": [("stats", _cli("stats")), ("blockcount", _cli("blockcount")), ("tmrca_scan", _cli("tmrca-scan"))],
    "duality": [("duality", _cli("duality")), ("oracle", _oracle)],
    "forward": [("forward_wf", _cli("forward-wf")), ("fixation", _fixation), ("diffusion", _cli("diffusion"))],
}

# ---------------------------------------------------------------------------
# output checks (run after the timed experiments)
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _mean_se(values) -> tuple[float, float]:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _check_genealogy(ctx: Context) -> None:
    from seedbank.blockcount import BlockCountState, expected_tmrca_first_step

    summary = _read_json("out/stats/summary.json")
    seg = summary["segregating_sites"]
    oracle = summary["expected_segregating_sites_oracle"]
    ctx.check("stats: segregating sites within 4 se of the branch-length oracle",
              abs(seg["mean"] - oracle) <= 4.0 * seg["stderr"], mean=seg["mean"], se=seg["stderr"], oracle=oracle)

    summary = _read_json("out/blockcount/summary.json")
    absorption = summary["absorption_time"]
    oracle = summary["first_step_expected_tmrca"]
    ctx.check("blockcount: absorption time within 4 se of the first-step oracle",
              abs(absorption["mean"] - oracle) <= 4.0 * absorption["stderr"],
              mean=absorption["mean"], se=absorption["stderr"], oracle=oracle)

    row = next(r for r in _read_csv("out/tmrca-scan/scan.csv") if int(r["n"]) == 20)
    oracle = expected_tmrca_first_step(BlockCountState(20, 0), ctx.configs["tmrca-scan"].model)
    mean, se = float(row["mean"]), float(row["stderr"])
    ctx.check("tmrca-scan: n=20 row within 4 se of the first-step oracle",
              abs(mean - oracle) <= 4.0 * se, mean=mean, se=se, oracle=oracle)


def _check_duality(ctx: Context) -> None:
    import numpy as np
    from seedbank.blockcount import BlockCountState, blockcount_ensemble
    from seedbank.streams import substream

    # the criterion-04 rule, row by row
    for r in _read_csv("out/duality/duality.csv"):
        diff, se = float(r["diff"]), float(r["stderr"])
        ctx.check(f"duality: n={r['n']} m={r['m']} x={r['x']} y={r['y']} t={r['t']}: |diff| <= 3 se + 0.01",
                  abs(diff) <= 3.0 * se + 0.01, diff=diff, se=se)

    params = ctx.configs["duality"].model
    for i, s in enumerate(ORACLE_STARTS):
        value, tmrca = ctx.values[s]
        res = blockcount_ensemble(BlockCountState(*s), params, ORACLE_CHECK_LANES, horizon=ORACLE_T,
                                  stop_at_total_one=False, seed=substream(ctx.seed, BENCH_DOMAIN, 1, i))
        mean, se = _mean_se(np.power(ORACLE_X, res.n) * np.power(ORACLE_Y, res.m))
        ctx.check(f"oracle: exact duality at {s} within 4 se of the ensemble",
                  abs(value - mean) <= 4.0 * se, exact=value, mean=mean, se=se)
        res = blockcount_ensemble(BlockCountState(*s), params, ORACLE_CHECK_LANES,
                                  seed=substream(ctx.seed, BENCH_DOMAIN, 2, i))
        mean, se = _mean_se(res.absorption_time)
        ctx.check(f"oracle: first-step absorption time at {s} within 4 se of the ensemble",
                  abs(tmrca - mean) <= 4.0 * se, exact=tmrca, mean=mean, se=se)


def _check_forward(ctx: Context) -> None:
    cfg = ctx.configs["forward-wf"]
    target = (cfg.y0 + cfg.x0 * cfg.model.K) / (1.0 + cfg.model.K)

    fixation = _read_json("out/forward-wf/fixation.json")
    p, se = fixation["fixation_frequency"], fixation["fixation_stderr"]
    ctx.check("forward-wf: fixation frequency within 3 se + 0.02 of (y0 + x0 K)/(1 + K)",
              abs(p - target) <= 3.0 * se + 0.02, freq=p, se=se, target=target)

    fs = ctx.values["fixation"]
    ctx.check("fixation: diffusion frequency within 3 se + 0.01 of (y0 + x0 K)/(1 + K)",
              abs(fs.frac_11 - target) <= 3.0 * fs.se_11() + 0.01,
              freq=fs.frac_11, se=fs.se_11(), target=target, unfixed=fs.unfixed)

    rows = _read_csv("out/diffusion/trajectory.csv")
    outside = sum(1 for r in rows if not (0.0 <= float(r["x"]) <= 1.0 and 0.0 <= float(r["y"]) <= 1.0))
    ctx.check("diffusion: trajectory stays in [0, 1]^2", bool(rows) and outside == 0,
              rows=len(rows), outside=outside)


CHECKS = {"genealogy": _check_genealogy, "duality": _check_duality, "forward": _check_forward}

# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its own getter."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[os.path.basename(path)] = getter()
                break
    return out


def library_environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, t0: float, traced: bool, checks: bool) -> dict:
    from seedbank import config  # importing the package is the set-up cost a CLI user pays

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer(workload)
        tracer.install()

    ctx = Context(seed)
    for name in CONFIGS[workload]:
        ctx.configs[name] = config.parse_config(Path(f"configs/{name}.ini").read_text())
    setup_s = time.monotonic() - t0
    result: dict = {"workload": workload, "seed": seed, "traced": traced, "setup_s": setup_s}

    experiments = {}
    for name, runner in EXPERIMENTS[workload]:
        if tracer is not None:
            tracer.experiment = name
        start = time.perf_counter()
        runner(ctx)
        experiments[name] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    for command, rc in ctx.exit_codes.items():
        ctx.check(f"{command}: exit status 0", rc == 0, rc=rc)
    # the library results the checks read; equal digests at one seed mean equal results
    values = repr(sorted(ctx.values.items(), key=repr)).encode()
    result.update(
        experiments=experiments,
        wall_s=sum(experiments.values()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        values_digest=hashlib.sha256(values).hexdigest(),
    )
    if checks:
        CHECKS[workload](ctx)
        result["environment"] = library_environment()
    result["checks"] = ctx.checks
    if tracer is not None:
        from tracing import lattice_size, layer_metrics

        oracle_states = sum(lattice_size(kind, s0, params) for kind, s0, params in tracer.oracles)
        result["layers"] = layer_metrics(tracer.aggregates(), oracle_states)
        tracer.write("spans.json.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPERIMENTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-checks", action="store_true", help="skip the oracle checks and the environment record")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.t0, args.trace, not args.no_checks)
    args.result.write_text(json.dumps(result, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
