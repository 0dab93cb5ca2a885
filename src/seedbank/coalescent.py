"""Exact simulation of the dormancy coalescent on marked partitions.

Blocks of a partition of the sample carry an "active" or "dormant" mark.
Active pairs merge at rate 1, marks flip spontaneously at per-block rates c
(to dormant) and c*K (to active), and the switching measures add coordinated
flips of j blocks at once.  Dormant blocks never merge.

A simulation run produces a :class:`Genealogy`: the initial sample
configuration plus a timestamped event log that can be replayed, validated,
integrated for branch lengths, serialized to line-delimited JSON, and
exported to Newick once the most recent common ancestor has been reached.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .blockcount import BlockCountState, _switch_row, mrca_reachable
from .measures import ModelParams
from .measures import group_switch_rate  # noqa: F401  kept bound: perfbench/tracing.py wraps it here
from .streams import as_rng

__all__ = [
    "ACTIVE",
    "DORMANT",
    "MarkedPartition",
    "GenealogyEvent",
    "Genealogy",
    "partition_transition_rates",
    "simulate_coalescent",
    "tmrca",
    "branch_lengths",
    "mark_segments",
]

ACTIVE = "active"
DORMANT = "dormant"

MERGE = "merge"
TO_DORMANT = "to_dormant"
TO_ACTIVE = "to_active"


@dataclass(frozen=True)
class MarkedPartition:
    """Partition blocks with marks: tuple of (frozen leaf set, mark)."""

    blocks: tuple[tuple[frozenset[int], str], ...]

    def validate(self) -> None:
        seen: set[int] = set()
        for leaves, mark in self.blocks:
            if not leaves:
                raise ValueError("empty block")
            if mark not in (ACTIVE, DORMANT):
                raise ValueError(f"unknown mark {mark!r}")
            if seen & leaves:
                raise ValueError("blocks are not disjoint")
            seen |= leaves
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must partition 1..k")

    @classmethod
    def singletons(cls, n_active: int, m_dormant: int) -> "MarkedPartition":
        blocks = tuple((frozenset([i]), ACTIVE) for i in range(1, n_active + 1))
        blocks += tuple(
            (frozenset([i]), DORMANT) for i in range(n_active + 1, n_active + m_dormant + 1)
        )
        return cls(blocks=blocks)

    def counts(self) -> tuple[int, int]:
        a = sum(1 for _, mark in self.blocks if mark == ACTIVE)
        return a, len(self.blocks) - a


@dataclass(frozen=True)
class GenealogyEvent:
    """One transition of the coalescent.

    time    event time
    kind    "merge", "to_dormant" or "to_active"
    blocks  block ids involved; a block id is the smallest leaf label of the
            block, kept stable through merges (the merged block takes the
            smaller of the two ids)
    """

    time: float
    kind: str
    blocks: tuple[int, ...]


@dataclass
class Genealogy:
    """Initial configuration plus the time-ordered event log of one run."""

    n_active: int
    m_dormant: int
    events: list[GenealogyEvent] = field(default_factory=list)
    end_time: float = 0.0
    reached_mrca: bool = False

    @property
    def sample_size(self) -> int:
        return self.n_active + self.m_dormant

    def initial_partition(self) -> MarkedPartition:
        return MarkedPartition.singletons(self.n_active, self.m_dormant)

    def replay(self) -> Iterator[tuple[float, MarkedPartition]]:
        """Apply the event log step by step, validating every transition.

        Yields (event time, partition after the event).  Raises ValueError on
        any structurally invalid event (merge of non-active or identical
        blocks, flips of the wrong mark, non-increasing times).
        """
        state: dict[int, tuple[frozenset[int], str]] = {}
        for leaves, mark in self.initial_partition().blocks:
            state[min(leaves)] = (leaves, mark)
        prev_t = 0.0
        for ev in self.events:
            if ev.time <= prev_t:
                raise ValueError(f"event times must strictly increase, got {ev.time}")
            prev_t = ev.time
            if ev.kind == MERGE:
                i, j = ev.blocks
                if i == j:
                    raise ValueError("merge needs two distinct blocks")
                for b in (i, j):
                    if b not in state:
                        raise ValueError(f"merge references unknown block {b}")
                    if state[b][1] != ACTIVE:
                        raise ValueError(f"merge references dormant block {b}")
                leaves = state.pop(i)[0] | state.pop(j)[0]
                state[min(i, j)] = (leaves, ACTIVE)
            elif ev.kind in (TO_DORMANT, TO_ACTIVE):
                if not ev.blocks:
                    raise ValueError("mark flip with no blocks")
                want = ACTIVE if ev.kind == TO_DORMANT else DORMANT
                new = DORMANT if ev.kind == TO_DORMANT else ACTIVE
                for b in ev.blocks:
                    if b not in state:
                        raise ValueError(f"flip references unknown block {b}")
                    if state[b][1] != want:
                        raise ValueError(f"flip of block {b} with mark {state[b][1]!r}")
                for b in ev.blocks:
                    state[b] = (state[b][0], new)
            else:
                raise ValueError(f"unknown event kind {ev.kind!r}")
            part = MarkedPartition(blocks=tuple(state.values()))
            part.validate()
            yield ev.time, part

    def final_partition(self) -> MarkedPartition:
        part = self.initial_partition()
        for _, part in self.replay():
            pass
        return part

    # -- serialization ------------------------------------------------------

    def to_jsonl(self) -> str:
        """Line-delimited JSON: an init record, one record per event, an end record."""
        out = io.StringIO()
        out.write(
            json.dumps(
                {"record": "init", "n_active": self.n_active, "m_dormant": self.m_dormant}
            )
            + "\n"
        )
        for ev in self.events:
            out.write(
                json.dumps(
                    {
                        "record": "event",
                        "time": ev.time,
                        "kind": ev.kind,
                        "blocks": list(ev.blocks),
                    }
                )
                + "\n"
            )
        out.write(
            json.dumps(
                {"record": "end", "time": self.end_time, "reached_mrca": self.reached_mrca}
            )
            + "\n"
        )
        return out.getvalue()

    @classmethod
    def from_jsonl(cls, text: str) -> "Genealogy":
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not lines or lines[0].get("record") != "init":
            raise ValueError("genealogy log must start with an init record")
        g = cls(n_active=lines[0]["n_active"], m_dormant=lines[0]["m_dormant"])
        for rec in lines[1:]:
            if rec["record"] == "event":
                g.events.append(
                    GenealogyEvent(
                        time=rec["time"], kind=rec["kind"], blocks=tuple(rec["blocks"])
                    )
                )
            elif rec["record"] == "end":
                g.end_time = rec["time"]
                g.reached_mrca = rec["reached_mrca"]
            else:
                raise ValueError(f"unknown record type {rec['record']!r}")
        return g

    def to_newick(self) -> str:
        """Newick topology with branch lengths.

        Marks are omitted (noted in the header comment line); mark flips do
        not change the tree shape.  Requires a run that reached the MRCA.
        """
        if not self.reached_mrca:
            raise ValueError("Newick export needs a genealogy that reached the MRCA")
        node: dict[int, str] = {}
        born: dict[int, float] = {}
        for leaves, _ in self.initial_partition().blocks:
            b = min(leaves)
            node[b] = str(b)
            born[b] = 0.0
        root = min(born)
        for ev in self.events:
            if ev.kind != MERGE:
                continue
            i, j = ev.blocks
            li = ev.time - born[i]
            lj = ev.time - born[j]
            keep = min(i, j)
            node[keep] = f"({node[i]}:{li!r},{node[j]}:{lj!r})"
            born[keep] = ev.time
            root = keep
            for b in (i, j):
                if b != keep:
                    del node[b], born[b]
        return "# marks (active/dormant) omitted\n" + node[root] + ";\n"


def _categories(a: int, d: int, params: ModelParams) -> list[tuple[str, int, float]]:
    """(kind, size, rate) for merge, deactivations by size, activations by size."""
    cats = [(MERGE, 0, a * (a - 1) / 2.0)]
    cats += [(TO_DORMANT, j, r) for j, r in enumerate(_switch_row(params.lambda_ad, a, params.c), 1)]
    cats += [
        (TO_ACTIVE, j, r)
        for j, r in enumerate(_switch_row(params.lambda_da, d, params.c * params.K), 1)
    ]
    return cats


def partition_transition_rates(state: MarkedPartition, params: ModelParams) -> dict:
    """Total rate per event kind out of a marked partition.

    Keys are ("merge",), ("to_dormant", j) and ("to_active", j).  The merge
    entry aggregates over all active pairs; flip entries aggregate over all
    j-subsets of the eligible blocks (the simulator picks the subset
    uniformly afterwards, which matches the per-subset rates by symmetry).
    """
    return {
        (kind,) if kind == MERGE else (kind, j): r
        for kind, j, r in _categories(*state.counts(), params)
    }


def simulate_coalescent(
    n: int,
    m: int,
    params: ModelParams,
    *,
    horizon: Optional[float] = None,
    seed=None,
) -> Genealogy:
    """Run the coalescent from n active and m dormant singleton blocks.

    Standard Gillespie loop: exponential holding time at the total rate, one
    uniform draw selects the event category in the fixed order (merge, then
    deactivations by size, then activations by size), then the specific pair
    or j-subset is drawn uniformly.  Stops at the MRCA, or at ``horizon`` if
    given (the partial genealogy is returned and reached_mrca stays False
    unless the MRCA happened earlier).  Deterministic given the seed.
    """
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError("need at least one sampled line")
    if horizon is None and not mrca_reachable(BlockCountState(n, m), params):
        raise ValueError(
            "the most recent common ancestor is unreachable: dormant lines can "
            "never reactivate with c = 0 and a zero dormant-to-active measure"
        )
    rng = as_rng(seed)
    active = list(range(1, n + 1))
    dormant = list(range(n + 1, n + m + 1))
    g = Genealogy(n_active=n, m_dormant=m)
    t = 0.0
    while len(active) + len(dormant) > 1:
        cats = _categories(len(active), len(dormant), params)
        total = math.fsum(r for _, _, r in cats)
        if total <= 0.0:
            break  # stranded; only reachable under a horizon
        t_next = t + rng.exponential(1.0 / total)
        if horizon is not None and t_next > horizon:
            break
        u = rng.uniform(0.0, total)
        acc = 0.0
        kind, size = cats[-1][0], cats[-1][1]
        for k_, j_, r in cats:
            acc += r
            if u <= acc:
                kind, size = k_, j_
                break
        t = t_next
        if kind == MERGE:
            i1, i2 = rng.choice(len(active), size=2, replace=False)
            b1, b2 = active[int(i1)], active[int(i2)]
            lo, hi = min(b1, b2), max(b1, b2)
            active.remove(hi)
            g.events.append(GenealogyEvent(time=t, kind=MERGE, blocks=(lo, hi)))
        elif kind == TO_DORMANT:
            picked = sorted(
                active[int(i)] for i in rng.choice(len(active), size=size, replace=False)
            )
            for b in picked:
                active.remove(b)
            dormant.extend(picked)
            dormant.sort()
            g.events.append(GenealogyEvent(time=t, kind=TO_DORMANT, blocks=tuple(picked)))
        else:
            picked = sorted(
                dormant[int(i)] for i in rng.choice(len(dormant), size=size, replace=False)
            )
            for b in picked:
                dormant.remove(b)
            active.extend(picked)
            active.sort()
            g.events.append(GenealogyEvent(time=t, kind=TO_ACTIVE, blocks=tuple(picked)))
    g.reached_mrca = len(active) + len(dormant) == 1
    g.end_time = horizon if (horizon is not None and not g.reached_mrca) else t
    return g


def tmrca(g: Genealogy) -> Optional[float]:
    """Time of the most recent common ancestor, or None if the run stopped early."""
    if not g.reached_mrca:
        return None
    for ev in reversed(g.events):
        if ev.kind == MERGE:
            return ev.time
    return 0.0  # sample of size one


def branch_lengths(g: Genealogy) -> tuple[float, float]:
    """Total line-time spent active and dormant over the whole genealogy.

    Sums (number of blocks with each mark) x (holding time) over the
    inter-event intervals from 0 to end_time.
    """
    a, d = g.n_active, g.m_dormant
    t_prev = 0.0
    acc_a = []
    acc_d = []
    for ev in g.events:
        dt = ev.time - t_prev
        acc_a.append(a * dt)
        acc_d.append(d * dt)
        t_prev = ev.time
        if ev.kind == MERGE:
            a -= 1
        elif ev.kind == TO_DORMANT:
            a -= len(ev.blocks)
            d += len(ev.blocks)
        else:
            a += len(ev.blocks)
            d -= len(ev.blocks)
    dt = g.end_time - t_prev
    acc_a.append(a * dt)
    acc_d.append(d * dt)
    return math.fsum(acc_a), math.fsum(acc_d)


def mark_segments(g: Genealogy) -> list[tuple[int, frozenset[int], str, float, float]]:
    """Maximal constant-mark lifetime segments of every block.

    Returns (block id, leaves, mark, start, end) tuples with end > start.
    The root block created by the final merge has no segment.  This is the
    substrate for dropping mutations on the genealogy.
    """
    state: dict[int, tuple[frozenset[int], str, float]] = {}
    for leaves, mark in g.initial_partition().blocks:
        state[min(leaves)] = (leaves, mark, 0.0)
    segments = []

    def close(b: int, t: float):
        leaves, mark, t0 = state[b]
        if t > t0:
            segments.append((b, leaves, mark, t0, t))

    for ev in g.events:
        if ev.kind == MERGE:
            i, j = ev.blocks
            close(i, ev.time)
            close(j, ev.time)
            leaves = state.pop(i)[0] | state.pop(j)[0]
            state[min(i, j)] = (leaves, ACTIVE, ev.time)
        else:
            new = DORMANT if ev.kind == TO_DORMANT else ACTIVE
            for b in ev.blocks:
                close(b, ev.time)
                state[b] = (state[b][0], new, ev.time)
    if not g.reached_mrca:
        for b in state:
            close(b, g.end_time)
    return segments
