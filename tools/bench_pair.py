"""Run one workload alternately in two checkouts and keep every result.

    python3 tools/bench_pair.py PARENT CHANGE --workload W --pairs N \
        [--seed0 S] [--seconds 40] [--out pairs.json]

PARENT and CHANGE are the roots of two seedbank checkouts.  Pair i runs W
with seed S0+i in both, one process at a time: the parent first on even i,
the change first on odd i, so a slow spell of the shared host falls on both
sides alike.  W is a benchmark workload or ``ensemble``:

- ``genealogy``, ``duality`` and ``forward`` run ``python3 perfbench/run.py
  --workload W --seed S0+i --seconds X --trace 0`` from each root.  The
  timed values are the end-to-end metrics.  Each run keeps its last stdout
  line (the result line), its machine record, the summary of its report and
  the names of its failed checks, read before the next run overwrites the
  report.
- ``ensemble`` runs this checkout's ``tools/ensemble_probes.py --measure
  S0+i`` in a fresh process from each root, with that root's ``src`` on
  PYTHONPATH.  The timed values are the best-of-three seconds of every
  probe and of the tmrca-scan config (their sum over its n).

The output file holds the run order, the machine record (``perfbench/run.py``'s
``machine_record``, with the git commit of both roots added), every
run, the failed check names per side, and per timed value each side's values
and quartiles, the number of pairs the change wins (lower is better for every
value), the change / parent ratio of every pair with its median and maximum,
and the verdict of the claim rule: the change wins at least nine tenths of
all pairs, a tie counting for neither side, and its median lies below the
parent's by more than the parent's interquartile range.
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
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
PROBES = Path(__file__).resolve().with_name("ensemble_probes.py")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark invocation in ``root``: its end-to-end metrics, result
    line, machine record, report summary and failed check names."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), None)
    report = json.loads((root / ".perfbench_out" / workload / "report.json").read_text())
    result = json.loads(lines[-1])
    return {"values": {name: result["metrics"][name]["value"] for name in METRICS},
            "result_line": result, "machine": machine, "summary": report["summary"],
            "failed_checks": [check["name"] for check in report["failed_checks"]]}


def run_ensemble(root: Path, seed: int) -> dict:
    """One probe process on ``root``'s library: the best seconds and the record of every probe."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PROBES), "--measure", str(seed)], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    probes = json.loads(proc.stdout.splitlines()[-1])
    return {"values": {name: probe["best_s"] for name, probe in probes.items()}, "probes": probes}


def machine(roots: dict) -> dict:
    """``perfbench/run.py``'s machine record of this host, with the git
    record (commit and dirty flag) of every root under ``roots``."""
    # run.py imports its sibling workload.py, so it is imported from its own directory
    code = ("import json, pathlib, sys, run; roots = [pathlib.Path(a) for a in sys.argv[1:]]; "
            "print(json.dumps([run.machine_record(roots[0]), [run._git_record(r) for r in roots]]))")
    proc = subprocess.run([sys.executable, "-B", "-c", code, *map(str, roots.values())], cwd=PERFBENCH,
                          capture_output=True, text=True, check=True)
    record, commits = json.loads(proc.stdout)
    return {**record, "roots": dict(zip(roots, commits))}


def alternate(run, label: str, pairs: int, seed0: int) -> tuple[list[str], dict]:
    """Call ``run(side, seed)`` for both sides of each pair, the parent first
    on even pairs; returns the run order and each side's runs in pair order."""
    order, runs = [], {side: [] for side in SIDES}
    for i in range(pairs):
        seed = seed0 + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run(side, seed)
            order.append(f"{label}-{seed}-{side} {time.strftime('%H:%M:%S')}")
            runs[side].append({"seed": seed, **result})
            print(order[-1], json.dumps(result["values"]), flush=True)
    return order, runs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values * (2 if len(values) == 1 else 1), n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def claim(parent: dict, change: dict, wins: int) -> dict:
    """The claim rule for a lower-is-better value, from each side's quartiles
    and the pairs the change won: at least nine tenths of all pairs won (a
    tie is no win for either side), and the parent's median above the
    change's by more than the parent's interquartile range."""
    pairs = len(parent["values"])
    gap = parent["median"] - change["median"]
    wins_ok, gap_ok = 10 * wins >= 9 * pairs, gap > parent["iqr"]
    return {"wins": wins, "pairs": pairs, "wins_ok": wins_ok, "median_gap": gap,
            "parent_iqr": parent["iqr"], "gap_ok": gap_ok, "met": wins_ok and gap_ok}


def summarize(runs: dict) -> dict:
    """Per timed value: each side's values and quartiles, the pairs the
    change wins, the change / parent ratio of each pair and the claim rule's
    verdict."""
    summary = {}
    for name in runs["parent"][0]["values"]:
        values = {side: [run["values"][name] for run in runs[side]] for side in SIDES}
        sides = {side: {"values": values[side], **quartiles(values[side])} for side in SIDES}
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            **sides,
            "change_wins": wins,
            "change_over_parent": ratios,
            "median_ratio": statistics.median(ratios),
            "max_ratio": max(ratios),
            "claim": claim(sides["parent"], sides["change"], wins),
        }
    return summary


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

    if args.workload == "ensemble":
        def run(side, seed):
            return run_ensemble(roots[side], seed)
    else:
        def run(side, seed):
            return run_perfbench(roots[side], args.workload, seed, args.seconds)
    order, runs = alternate(run, args.workload, args.pairs, args.seed0)

    record = {
        "command": " ".join(["python3", "tools/bench_pair.py", "PARENT", "CHANGE", "--workload", args.workload,
                             "--pairs", str(args.pairs), "--seed0", str(args.seed0),
                             "--seconds", repr(args.seconds)]),
        "machine": machine(roots),
        "run_order": order,
        "summary": summarize(runs),
    }
    if args.workload != "ensemble":
        record["failed_checks"] = {side: [r.pop("failed_checks") for r in runs[side]] for side in SIDES}
    record["runs"] = runs
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
