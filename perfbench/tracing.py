"""Span tracing around seedbank's module boundaries, installed from outside the library.

A :class:`Tracer` replaces the module attributes that callers resolve at call
time (``seedbank.cli.simulate_coalescent``, ``seedbank.blockcount.group_switch_rate``,
...) with timing wrappers, so calls made inside the library show up as child
spans without any change to library code.  Every call is one span
(name, start, end, parent, experiment), kept in compact arrays and written to
disk when the run ends.  Self time -- a span's duration minus the time its
direct child spans cover -- and unit counts read from the returned objects
are aggregated per span name as the calls happen.

:func:`layer_metrics` turns those aggregates into the per-layer metrics of
the benchmark, each ratio next to its numerator and denominator, and each
unit count labelled as observed (read from a returned object) or computed
(derived by the benchmark).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time
from array import array
from collections import defaultdict

# span name -> the module attributes (relative to the ``seedbank`` package)
# that hold the function; every location must hold the same function object
BOUNDARIES = {
    "cli.main": ("cli.main",),
    "config.parse_config": ("config.parse_config", "cli.parse_config"),
    "cli.write_csv": ("cli.write_csv",),
    "cli.write_json": ("cli.write_json",),
    "streams.substream": ("cli.substream",),
    "coalescent.simulate_coalescent": ("cli.simulate_coalescent",),
    "measures.group_switch_rate": ("blockcount.group_switch_rate", "coalescent.group_switch_rate"),
    "mutation_stats.drop_mutations": ("cli.drop_mutations",),
    "mutation_stats.sfs": ("cli.sfs",),
    "blockcount.bc_transition_rates": ("blockcount.bc_transition_rates",),
    "blockcount.simulate_blockcount": ("cli.simulate_blockcount", "blockcount.simulate_blockcount"),
    "blockcount.blockcount_ensemble": ("cli.blockcount_ensemble", "blockcount.blockcount_ensemble"),
    "blockcount.tmrca_loglog_scan": ("cli.tmrca_loglog_scan",),
    "blockcount.expected_tmrca_first_step": (
        "cli.expected_tmrca_first_step",
        "blockcount.expected_tmrca_first_step",
    ),
    "blockcount.expected_branch_lengths_first_step": (
        "cli.expected_branch_lengths_first_step",
        "blockcount.expected_branch_lengths_first_step",
    ),
    "blockcount.duality_rhs": ("cli.duality_rhs", "blockcount.duality_rhs"),
    "diffusion.duality_lhs_grid": ("cli.duality_lhs_grid",),
    "diffusion.batch_paths": ("diffusion.batch_paths",),
    "diffusion.fixation_stats": ("diffusion.fixation_stats",),
    "diffusion.integrate": ("cli.integrate", "diffusion.integrate"),
    "forward_wf.run_trajectory": ("cli.run_trajectory",),
    "forward_wf.wf_ensemble": ("cli.wf_ensemble",),
}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_genealogy(fn, result, args, kwargs, counts, oracles):
    counts["events"] += len(result.events)


def _count_path(fn, result, args, kwargs, counts, oracles):
    counts["events"] += len(result) - 1


def _count_lanes(fn, result, args, kwargs, counts, oracles):
    counts["lanes"] += int(result.n.size)


def _count_mutations(fn, result, args, kwargs, counts, oracles):
    counts["mutations"] += len(result)


def _count_batch(fn, result, args, kwargs, counts, oracles):
    a = _bound(fn, args, kwargs)
    settings = a["settings"]
    frozen = result.frozen_at
    # a lane steps until it freezes; the loop stops once every lane is frozen
    lane_end = [settings.horizon if math.isnan(f) else f for f in frozen.tolist()]
    run_end = max(lane_end) if lane_end else 0.0
    counts["steps"] += round(run_end / settings.dt)
    counts["lane_steps"] += sum(round(t / settings.dt) for t in lane_end)
    counts["jumps"] += sum(result.jump_counts.values())


def _count_integrate(fn, result, args, kwargs, counts, oracles):
    # the workloads record every grid step, so the recorded times are the steps
    counts["steps"] += len(result.times) - 1


def _count_lane_generations(fn, result, args, kwargs, counts, oracles):
    generations = _bound(fn, args, kwargs)["generations"]
    fixed = result.fixed_generation
    counts["lane_generations"] += int(sum(g if g >= 0 else generations for g in fixed.tolist()))


def _note_first_step(fn, result, args, kwargs, counts, oracles):
    a = _bound(fn, args, kwargs)
    oracles.append(("first_step", tuple(a["s0"]), a["params"]))


def _note_duality_rhs(fn, result, args, kwargs, counts, oracles):
    a = _bound(fn, args, kwargs)
    if a["method"] == "exact":
        oracles.append(("uniformization", (a["n"], a["m"]), a["params"]))


HOOKS = {
    "coalescent.simulate_coalescent": _count_genealogy,
    "mutation_stats.drop_mutations": _count_mutations,
    "blockcount.simulate_blockcount": _count_path,
    "blockcount.blockcount_ensemble": _count_lanes,
    "blockcount.expected_tmrca_first_step": _note_first_step,
    "blockcount.expected_branch_lengths_first_step": _note_first_step,
    "blockcount.duality_rhs": _note_duality_rhs,
    "diffusion.batch_paths": _count_batch,
    "diffusion.integrate": _count_integrate,
    "forward_wf.wf_ensemble": _count_lane_generations,
}


class Tracer:
    """Records one span per call through the wrapped boundaries."""

    def __init__(self, workload: str):
        self.workload = workload
        self.experiment = "setup"
        self._experiments: list[str] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span
        self._span_name = array("H")
        self._span_exp = array("H")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        # open spans: index and time covered by their children so far
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.oracles: list[tuple] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, locations in BOUNDARIES.items():
            modules = [importlib.import_module("seedbank." + loc.rsplit(".", 1)[0]) for loc in locations]
            attrs = [loc.rsplit(".", 1)[1] for loc in locations]
            fn = getattr(modules[0], attrs[0])
            for mod, attr in zip(modules, attrs):
                if getattr(mod, attr) is not fn:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not the function traced as {name}")
            wrapper = self._wrap(fn, name)
            for mod, attr in zip(modules, attrs):
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        split_by_method = name == "blockcount.duality_rhs"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the exact and Monte Carlo right-hand sides are different layers
            span = f"{name}[{kwargs.get('method', 'exact')}]" if split_by_method else name
            idx = self._open(span)
            t0 = perf_counter()
            self._span_start[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(span, idx, t1 - t0, t1)
            if hook is not None:
                hook(fn, result, args, kwargs, self.counts[name], self.oracles)
            return result

        return wrapper

    def _open(self, span: str) -> int:
        nid = self._name_ids.get(span)
        if nid is None:
            nid = self._name_ids[span] = len(self._names)
            self._names.append(span)
        if not self._experiments or self._experiments[-1] != self.experiment:
            self._experiments.append(self.experiment)
        idx = len(self._span_start)
        self._span_name.append(nid)
        self._span_exp.append(len(self._experiments) - 1)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        self._stack.append(idx)
        self._child_time.append(0.0)
        return idx

    def _close(self, span: str, idx: int, duration: float, end: float) -> None:
        self._span_end[idx] = end
        self._stack.pop()
        covered = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration
        self.calls[span] += 1
        self.total_s[span] += duration
        self.self_s[span] += duration - covered

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one gzipped JSON document: a name table plus columns."""
        doc = {
            "workload": self.workload,
            "experiments": self._experiments,
            "names": self._names,
            "columns": ["name", "experiment", "parent", "start_s", "end_s"],
            "spans": {
                "name": self._span_name.tolist(),
                "experiment": self._span_exp.tolist(),
                "parent": self._span_parent.tolist(),
                "start_s": self._span_start.tolist(),
                "end_s": self._span_end.tolist(),
            },
        }
        with gzip.open(path, "wt") as f:
            json.dump(doc, f, separators=(",", ":"))

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "spans": len(self._span_start),
        }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def lattice_size(kind: str, s0, params) -> int:
    """States of the lattice an exact oracle works on, by BFS over bc_transition_rates.

    The first-step solve absorbs at total count 1 and solves over the states
    of total above 1; uniformization absorbs nowhere and keeps every state.
    """
    from seedbank.blockcount import BlockCountState, bc_transition_rates

    start = BlockCountState(*s0)
    seen = {start}
    frontier = [start]
    absorb = kind == "first_step"
    while frontier:
        nxt = []
        for s in frontier:
            if absorb and s.n + s.m <= 1:
                continue
            for target, _ in bc_transition_rates(s, params):
                if target not in seen:
                    seen.add(target)
                    nxt.append(target)
        frontier = nxt
    if absorb:
        return sum(1 for s in seen if s.n + s.m > 1)
    return len(seen)


def layer_metrics(agg: dict, oracle_states: int) -> dict:
    """Per-layer metrics from a tracer's aggregates.

    Returns name -> {"value", "unit", "basis"}.  A ratio's basis names its
    numerator and denominator; a count's basis says whether it was observed
    in a returned object or computed by the benchmark.  A ratio whose
    denominator is 0 (the layer did no work) reads 0.
    """
    calls, total, self_s, counts = agg["calls"], agg["total_s"], agg["self_s"], agg["counts"]

    def c(span):
        return calls.get(span, 0)

    def t(span):
        return total.get(span, 0.0)

    def s(span):
        return self_s.get(span, 0.0)

    def n(span, key):
        return counts.get(span, {}).get(key, 0)

    out: dict = {}

    def put(name, value, unit, basis):
        out[name] = {"value": value, "unit": unit, "basis": basis}

    def ratio(name, num_name, den_name, scale, unit):
        num, den = out[num_name]["value"], out[den_name]["value"]
        put(name, num / den * scale if den else 0.0, unit, f"ratio: {num_name} / {den_name}")

    put("config.parse_s", t("config.parse_config"), "s", "span total: config.parse_config")
    put("cli.write_s", t("cli.write_csv") + t("cli.write_json"), "s",
        "span total: cli.write_csv + cli.write_json")
    put("cli.self_s", s("cli.main"), "s", "self time: cli.main")

    put("streams.substream_calls", c("streams.substream"), "count", "observed: calls")
    put("streams.substream_s", t("streams.substream"), "s", "span total: streams.substream")

    span = "coalescent.simulate_coalescent"
    put("coalescent.calls", c(span), "count", "observed: calls")
    put("coalescent.events", n(span, "events"), "count", "observed: sum of len(Genealogy.events)")
    put("coalescent.self_s", s(span), "s", f"self time: {span}")
    put("coalescent.total_s", t(span), "s", f"span total: {span}")
    ratio("coalescent.us_per_event", "coalescent.total_s", "coalescent.events", 1e6, "us")

    span = "measures.group_switch_rate"
    put("measures.group_switch_rate_calls", c(span), "count", "observed: calls")
    put("measures.group_switch_rate_s", t(span), "s", f"span total: {span}")

    put("mutation_stats.drop_s", t("mutation_stats.drop_mutations"), "s",
        "span total: mutation_stats.drop_mutations")
    put("mutation_stats.sfs_s", t("mutation_stats.sfs"), "s", "span total: mutation_stats.sfs")
    put("mutation_stats.mutations", n("mutation_stats.drop_mutations", "mutations"), "count",
        "observed: sum of len(MutationSet)")
    ratio("mutation_stats.us_per_mutation", "mutation_stats.drop_s", "mutation_stats.mutations", 1e6, "us")

    span = "blockcount.simulate_blockcount"
    put("blockcount.simulate_calls", c(span), "count", "observed: calls")
    put("blockcount.simulate_events", n(span, "events"), "count", "observed: sum of len(path) - 1")
    put("blockcount.simulate_s", t(span), "s", f"span total: {span}")
    ratio("blockcount.simulate_us_per_event", "blockcount.simulate_s", "blockcount.simulate_events", 1e6, "us")
    span = "blockcount.bc_transition_rates"
    put("blockcount.transition_rates_calls", c(span), "count", "observed: calls")
    put("blockcount.transition_rates_s", t(span), "s", f"span total: {span}")

    span = "blockcount.blockcount_ensemble"
    put("blockcount.ensemble_calls", c(span), "count", "observed: calls")
    put("blockcount.ensemble_lanes", n(span, "lanes"), "count", "observed: sum of EnsembleResult.n.size")
    put("blockcount.ensemble_self_s", s(span), "s", f"self time: {span}")
    ratio("blockcount.ensemble_us_per_lane", "blockcount.ensemble_self_s", "blockcount.ensemble_lanes", 1e6, "us")

    put("blockcount.first_step_s",
        t("blockcount.expected_tmrca_first_step") + t("blockcount.expected_branch_lengths_first_step"), "s",
        "span total: expected_tmrca_first_step + expected_branch_lengths_first_step")
    put("blockcount.uniformization_s", t("blockcount.duality_rhs[exact]"), "s",
        "span total: duality_rhs(method='exact')")
    put("blockcount.oracle_states", oracle_states, "count",
        "computed: BFS over bc_transition_rates, summed over exact oracle calls")

    span = "diffusion.batch_paths"
    put("diffusion.batch_calls", c(span), "count", "observed: calls")
    put("diffusion.batch_self_s", s(span), "s", f"self time: {span}")
    put("diffusion.batch_steps", n(span, "steps"), "count",
        "computed: grid steps to the last lane's freeze time or the horizon, over dt")
    put("diffusion.batch_lane_steps", n(span, "lane_steps"), "count",
        "computed: live lane-steps from BatchResult.frozen_at, over dt")
    ratio("diffusion.batch_us_per_step", "diffusion.batch_self_s", "diffusion.batch_steps", 1e6, "us")
    ratio("diffusion.batch_ns_per_lane_step", "diffusion.batch_self_s", "diffusion.batch_lane_steps", 1e9, "ns")
    put("diffusion.jumps", n(span, "jumps"), "count", "observed: sum of BatchResult.jump_counts")

    span = "diffusion.integrate"
    put("diffusion.integrate_s", t(span), "s", f"span total: {span}")
    put("diffusion.integrate_steps", n(span, "steps"), "count", "observed: len(Trajectory.times) - 1")
    ratio("diffusion.integrate_us_per_step", "diffusion.integrate_s", "diffusion.integrate_steps", 1e6, "us")

    span = "forward_wf.wf_ensemble"
    put("forward_wf.ensemble_s", t(span), "s", f"span total: {span}")
    put("forward_wf.lane_generations", n(span, "lane_generations"), "count",
        "observed: WFEnsembleResult.fixed_generation, unfixed lanes at the horizon")
    ratio("forward_wf.ns_per_lane_generation", "forward_wf.ensemble_s", "forward_wf.lane_generations", 1e9, "ns")
    put("forward_wf.trajectory_s", t("forward_wf.run_trajectory"), "s", "span total: forward_wf.run_trajectory")

    put("trace.spans", agg["spans"], "count", "observed: spans recorded")
    return out
