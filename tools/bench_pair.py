"""Run the benchmark alternately in two checkouts and keep every result.

    python3 tools/bench_pair.py PARENT CHANGE --workload W --pairs N \
        [--seed0 S] [--seconds 40] [--out pairs.json]

PARENT and CHANGE are the roots of two seedbank checkouts.  Pair i runs
``python3 perfbench/run.py --workload W --seed S0+i --seconds X --trace 0``
in both, from each root, one process at a time: the parent first on even i,
the change first on odd i, so a slow spell of the shared host falls on both
sides alike.  The output file holds the run order, the machine record the
first run printed, each run's last stdout line (the result line) and the
summary of its report, and per side the values and quartiles of every
end-to-end metric, with the number of pairs the change wins.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # each one: lower is better


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark invocation in ``root``: its result line, machine record and report summary."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), None)
    report = json.loads((root / ".perfbench_out" / workload / "report.json").read_text())
    return {"result_line": json.loads(lines[-1]), "machine": machine, "summary": report["summary"]}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values * (2 if len(values) == 1 else 1), n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, default=Path("pairs.json"))
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    order, runs, machine = [], {side: [] for side in SIDES}, None
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = run_once(roots[side], args.workload, seed, args.seconds)
            machine = machine or run.pop("machine")
            run.pop("machine", None)
            order.append(f"{args.workload}-{seed}-{side} {time.strftime('%H:%M:%S')}")
            runs[side].append({"seed": seed, **run})
            print(order[-1], json.dumps(run["result_line"]["metrics"]), flush=True)

    values = {side: {name: [r["result_line"]["metrics"][name]["value"] for r in runs[side]]
                     for name in METRICS} for side in SIDES}
    summary = {side: {name: {"values": v, **quartiles(v)} for name, v in values[side].items()}
               for side in SIDES}
    summary["change_wins"] = {name: sum(c < p for p, c in zip(values["parent"][name], values["change"][name]))
                              for name in METRICS}
    summary["failed_checks"] = {side: sum(r["result_line"]["failed"] for r in runs[side]) for side in SIDES}
    record = {
        "command": " ".join(["python3", "tools/bench_pair.py", "PARENT", "CHANGE", "--workload", args.workload,
                             "--pairs", str(args.pairs), "--seed0", str(args.seed0),
                             "--seconds", repr(args.seconds)]),
        "machine": machine,
        "run_order": order,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
