"""seedbank benchmark: one workload per invocation, every metric by name and unit.

Run from the root of a seedbank checkout:

    python3 perfbench/run.py --workload genealogy --seed 1 --seconds 40 --trace 0

Each workload (genealogy, duality, forward; see perfbench/README.md) runs in
fresh Python processes with the library's default thread settings, so every
process pays import, first-call and BLAS start-up costs the way a CLI user
does.

``--trace 0`` repeats the workload in new processes for ``--seconds`` (at
least three processes) and reports the medians of the end-to-end metrics;
the first process checks the outputs, and every later one must reproduce
its output files and library results exactly.
``--trace 1`` runs the workload once untraced and once traced, compares the
SHA-256 of every CLI output file of the two runs, and reports the per-layer
metrics of the traced run plus the tracing overhead.  Both modes check the outputs against exact
oracles.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every experiment's time and every ratio's base.
Everything is also written under ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches
from workload import EXPERIMENTS, config_texts  # noqa: E402

HERE = Path(__file__).resolve().parent

MIN_PROCESSES = 3
DEADLINE_S = 170.0  # the whole invocation ends well inside 180 s
OUT_DIR = ".perfbench_out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def machine_record(root: Path) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache_per_cpu0": caches,
        "platform": platform.platform(),
        "git": _git_record(root),
    }


def _git_record(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True, check=True).stdout

    try:
        return {"commit": git("rev-parse", "HEAD").strip(), "dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"commit": None, "dirty": None, "note": f"git failed: {exc}"}


# ---------------------------------------------------------------------------
# workload processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts workload processes in their own directories under one base directory."""

    def __init__(self, root: Path, workload: str, seed: int, start: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = start + DEADLINE_S
        self.base = root / OUT_DIR / workload
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

    def launch(self, label: str, *, traced: bool = False, checks: bool = True) -> dict:
        cwd = self.base / label
        (cwd / "configs").mkdir(parents=True)
        for name, text in config_texts(self.workload, self.seed).items():
            (cwd / "configs" / f"{name}.ini").write_text(text)
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--result", "result.json"]
        if traced:
            cmd.append("--trace")
        if not checks:
            cmd.append("--no-checks")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting " + label)
        with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=cwd, env=self.env,
                                      stdout=out, stderr=err, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{label} did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = (cwd / "stderr.txt").read_text()[-2000:]
            raise BenchError(f"{label} exited with status {proc.returncode}:\n{tail}")
        result = json.loads((cwd / "result.json").read_text())
        result["process_s"] = time.monotonic() - t0
        return result

    def outputs(self, label: str) -> dict[str, bytes]:
        """SHA-256 of every CLI output file of one process, by relative path."""
        out = self.base / label / "out"
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).digest()
                for p in sorted(out.rglob("*")) if p.is_file()}


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[dict]]:
    results: list[dict] = []
    begin = time.monotonic()
    while True:
        k = len(results)
        # only the first process runs the oracle checks; the rest are timed
        # runs whose outputs must equal the first one's
        results.append(runner.launch(f"proc{k}", checks=k == 0))
        elapsed = time.monotonic() - begin
        # start another process only if it should end within the measuring time
        if len(results) >= MIN_PROCESSES and elapsed + results[-1]["process_s"] > seconds:
            break
        if runner.deadline - time.monotonic() < 1.5 * results[-1]["process_s"]:
            if len(results) >= MIN_PROCESSES:
                break
            raise BenchError(f"a workload process takes too long for {MIN_PROCESSES} to fit the time limit")
    # determinism: the same seed gives the same CLI output files and library
    # results in every process
    reference = runner.outputs("proc0")
    extra = [
        {"name": f"determinism: proc{k} output files and library results identical to proc0",
         "ok": runner.outputs(f"proc{k}") == reference
         and results[k]["values_digest"] == results[0]["values_digest"], "detail": {}}
        for k in range(1, len(results))
    ]
    experiments = {
        f"{name}_s": statistics.median(r["experiments"][name] for r in results)
        for name, _ in EXPERIMENTS[runner.workload]
    }
    summary = {
        # each experiment's median over the processes, summed: a burst of
        # contention on the shared host slows one experiment of one process,
        # and a per-experiment median drops it
        "wall_s": sum(experiments.values()),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "experiments": experiments,
        "processes": len(results),
        "wall_samples": [r["wall_s"] for r in results],
    }
    return summary, results, extra


def run_traced(runner: Runner) -> tuple[dict, list[dict], list[dict]]:
    plain = runner.launch("untraced")
    traced = runner.launch("traced", traced=True)
    a, b = runner.outputs("untraced"), runner.outputs("traced")
    extra = [
        {"name": f"trace: {name} byte-identical traced vs untraced",
         "ok": name in a and a.get(name) == b.get(name), "detail": {}}
        for name in sorted(a.keys() | b.keys())
    ]
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s", "basis": "wall_s of the traced process"}
    layers["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s",
                                  "basis": "traced wall_s minus untraced wall_s, same seed"}
    summary = {"layers": layers, "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
               "spans_file": str((runner.base / "traced" / "spans.json.gz").relative_to(runner.root))}
    return summary, [plain, traced], extra


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="seedbank benchmark (run from the repository root)")
    parser.add_argument("--workload", required=True, choices=sorted(EXPERIMENTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "seedbank" / "__init__.py").is_file():
        print("error: run from the root of a seedbank checkout (src/seedbank not found)", file=sys.stderr)
        return 2
    seed = args.seed % 2**63  # SeedSequence takes nonnegative seeds
    runner = Runner(root, args.workload, seed, start)
    try:
        if args.trace:
            summary, results, extra = run_traced(runner)
        else:
            summary, results, extra = run_untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [c for r in results for c in r["checks"]] + extra
    attempted, failures = len(checks), [c for c in checks if not c["ok"]]
    if args.trace:
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in summary["layers"].items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}
    report = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "machine": machine_record(root),
        "library": results[0]["environment"],
        "summary": summary,
        "check_fail_frac": len(failures) / attempted,
        "failed_checks": failures,
        "metrics": metrics,
    }
    (runner.base / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  ({time.monotonic() - start:.1f} s)")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print("library " + json.dumps(report["library"], sort_keys=True))
    if args.trace:
        for name, m in summary["layers"].items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} {m['basis']}")
    else:
        n = summary["processes"]
        how = {"wall_s": f"sum of the experiments' medians over {n} processes"}
        for name, unit in END_TO_END.items():
            print(f"  {name:40s} {summary[name]:>16.6g} {unit:6s} {how.get(name, f'median of {n} processes')}")
        for name, value in summary["experiments"].items():
            print(f"  {name:40s} {value:>16.6g} s      median of {summary['processes']} processes")
        print(f"  {'wall_s samples':40s} {json.dumps(summary['wall_samples'])}")
    print(f"  {'check_fail_frac':40s} {report['check_fail_frac']:>16.6g} ratio  "
          f"{len(failures)} of {attempted} checks failed")
    for c in failures:
        print(f"  FAILED {c['name']}: {json.dumps(c['detail'])}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
