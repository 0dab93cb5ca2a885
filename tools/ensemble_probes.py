"""Time the block-count ensemble in-process, alternately in two checkouts.

    python3 tools/ensemble_probes.py PARENT CHANGE --pairs N [--out probes.json]

PARENT and CHANGE are the roots of two seedbank checkouts.  Pair i starts
one fresh Python process per checkout (the parent first on even i), each
importing the library from its own ``src`` and timing every probe below
with seed i, best of three; the probes are those of the ``tmrca-scan``
experiment of the benchmark's genealogy workload (its model, n = 20 ...
10^4, 300 lanes), n = 10^5 on 300 lanes, and three wide or short runs.  A
further untimed run per probe counts the loop's iterations: the
exponential draws of one step per lane ("steps") and of a block of steps
per lane ("blocks").  The output file holds every time, the run order and
per probe the change / parent ratios of the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
REPEATS = 3


def probes():
    """name -> (start, model, lanes); imported inside the timing process."""
    from seedbank.blockcount import BlockCountState
    from seedbank.measures import ModelParams, SwitchingMeasure

    atom = ModelParams(c=1.0, K=2.0, lambda_ad=SwitchingMeasure.atom(0.5, 0.4),
                       lambda_da=SwitchingMeasure.atom(0.3, 0.5))
    readme = ModelParams(c=1.0, K=2.0, lambda_da=SwitchingMeasure.atom(0.3, 0.5),
                         lambda_ad=SwitchingMeasure(atoms=((0.5, 0.4),), beta_components=((2.0, 2.0, 0.6),)))
    table = {f"tmrca_scan_n{n}": (BlockCountState(n, 0), atom, 300) for n in (20, 100, 1000, 10_000)}
    table["n100000_300_lanes"] = (BlockCountState(100_000, 0), atom, 300)
    table["n10000_4000_lanes"] = (BlockCountState(10_000, 0), atom, 4000)
    table["c02_2_0_100k_lanes"] = (BlockCountState(2, 0), ModelParams(c=1.0, K=1.0), 100_000)
    table["readme_6_2_1000_lanes"] = (BlockCountState(6, 2), readme, 1000)
    return table


def measure(seed: int) -> dict:
    """Best-of-three seconds and loop iteration counts of every probe."""
    import numpy as np

    from seedbank.blockcount import blockcount_ensemble

    class Counting(np.random.Generator):
        def __init__(self, seed):
            super().__init__(np.random.PCG64(seed))
            self.steps = self.blocks = 0

        def standard_exponential(self, size=None, *args, **kwargs):
            if isinstance(size, tuple) and len(size) == 2:
                self.blocks += 1
            else:
                self.steps += 1
            return super().standard_exponential(size, *args, **kwargs)

    out = {}
    for name, (s0, params, lanes) in probes().items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            blockcount_ensemble(s0, params, lanes, seed=seed)
            times.append(time.perf_counter() - t0)
        rng = Counting(seed)
        blockcount_ensemble(s0, params, lanes, seed=rng)
        out[name] = {"best_s": min(times), "times_s": times, "steps": rng.steps, "blocks": rng.blocks}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path("probes.json"))
    parser.add_argument("--measure", type=int, metavar="SEED", help="time the importable library with SEED")
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0

    order, runs = [], {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            root = (args.parent if side == "parent" else args.change).resolve()
            env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run([sys.executable, __file__, "--measure", str(i)], env=env, cwd=root,
                                  capture_output=True, text=True, check=True)
            order.append(f"probes-{i}-{side} {time.strftime('%H:%M:%S')}")
            runs[side].append({"seed": i, "probes": json.loads(proc.stdout.splitlines()[-1])})
            print(order[-1], flush=True)

    names = list(runs["parent"][0]["probes"])
    scan = [n for n in names if n.startswith("tmrca_scan_")]
    for side in SIDES:
        for run in runs[side]:
            run["probes"]["tmrca_scan_config"] = {"best_s": sum(run["probes"][n]["best_s"] for n in scan)}
    summary = {}
    for name in names + ["tmrca_scan_config"]:
        best = {side: [r["probes"][name]["best_s"] for r in runs[side]] for side in SIDES}
        ratios = [c / p for p, c in zip(best["parent"], best["change"])]
        summary[name] = {
            "parent_best_s": best["parent"],
            "change_best_s": best["change"],
            "change_over_parent": ratios,
            "median_ratio": statistics.median(ratios),
            "max_ratio": max(ratios),
            "change_faster_pairs": sum(r < 1.0 for r in ratios),
        }
    record = {
        "command": f"python3 tools/ensemble_probes.py PARENT CHANGE --pairs {args.pairs}",
        "run_order": order,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
