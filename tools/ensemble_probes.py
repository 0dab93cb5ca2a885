"""The block-count ensemble probes, timed in-process on the importable library.

    python3 tools/ensemble_probes.py --measure SEED

prints one JSON line: per probe the best of three seconds, every time and
the loop's iterations, counted in a further untimed run: the exponential
draws of one step per lane ("steps") and of a block of steps per lane
("blocks").  The probes are those of the ``tmrca-scan`` experiment of the
benchmark's genealogy workload (its model, n = 20 ... 10^4, 300 lanes),
n = 10^5 on 300 lanes, and three wide or short runs; ``tmrca_scan_config``
is the sum of the scan's best seconds.  ``tools/bench_pair.py PARENT CHANGE
--workload ensemble --pairs N`` runs this alternately on two checkouts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

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
    """Best-of-three seconds and loop iteration counts of every probe, and the tmrca-scan total."""
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
    out["tmrca_scan_config"] = {"best_s": sum(p["best_s"] for n, p in out.items() if n.startswith("tmrca_scan_"))}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--measure", type=int, metavar="SEED", required=True,
                        help="time the importable library with SEED")
    print(json.dumps(measure(parser.parse_args(argv).measure)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
