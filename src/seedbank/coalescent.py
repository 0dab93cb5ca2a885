"""Exact simulation of the dormancy coalescent on marked partitions.

Blocks of a partition of the sample carry an "active" or "dormant" mark.
Active pairs merge at rate 1, marks flip spontaneously at per-block rates c
(to dormant) and c*K (to active), and the switching measures add coordinated
flips of j blocks at once.  Dormant blocks never merge.

The simulator runs on the Gillespie loop of the block-counting chain
(:mod:`seedbank.blockcount`, whose event kinds it re-exports), which gives
each event's time, kind and block count; this module draws the blocks.

A simulation run produces a :class:`Genealogy`: the initial sample
configuration plus a timestamped event log that can be replayed, validated,
integrated for branch lengths, serialized to line-delimited JSON, and
exported to Newick once the most recent common ancestor has been reached.
One validated walk of the log (``Genealogy._walk``) is the only code that
applies events to blocks; replay, Newick export, TMRCA, branch lengths and
mark segments all consume it, so each rejects a corrupt log the same way.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .blockcount import MERGE, TO_ACTIVE, TO_DORMANT, _after, _categories, _check_horizon, _jumps, _start
from .measures import ModelParams
from .measures import group_switch_rate  # noqa: F401  kept bound: perfbench/tracing.py wraps it here
from .streams import as_rng

__all__ = [
    "ACTIVE",
    "DORMANT",
    "MERGE",
    "TO_DORMANT",
    "TO_ACTIVE",
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
# event kind -> (mark its blocks must carry, mark they carry afterwards)
_MARKS = {MERGE: (ACTIVE, ACTIVE), TO_DORMANT: (ACTIVE, DORMANT), TO_ACTIVE: (DORMANT, ACTIVE)}


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

    def _walk(self, state: dict) -> Iterator[tuple[GenealogyEvent, list]]:
        """Apply the event log to ``state``, the one place events move blocks.

        Fills ``state`` with the sample's singletons as block id -> (leaves,
        mark, since), where since is the time the block took its current
        mark, and updates it in place.  Yields (event, ended) per event,
        ended listing the (id, leaves, mark, since) entries the event
        replaced.  Raises ValueError on a non-increasing time, an unknown
        kind or block, a repeated block, a merge of anything but two distinct
        active blocks, a flip of the wrong mark, and, after the last event,
        on a log flagged at the MRCA that does not end at one block or an
        end_time before the last event.
        """
        for leaves, mark in self.initial_partition().blocks:
            state[min(leaves)] = (leaves, mark, 0.0)
        t_prev = 0.0
        for ev in self.events:
            t, kind, blocks = ev.time, ev.kind, ev.blocks
            if not t > t_prev:
                raise ValueError(f"event times must strictly increase, got {t}")
            t_prev = t
            if kind not in _MARKS:
                raise ValueError(f"unknown event kind {kind!r}")
            want, new = _MARKS[kind]
            if (len(blocks) != 2 if kind == MERGE else not blocks) or len(set(blocks)) < len(blocks):
                raise ValueError(f"{kind} needs distinct blocks (two for a merge), got {blocks}")
            ended = []
            for b in blocks:
                if b not in state:
                    raise ValueError(f"{kind} references unknown block {b}")
                leaves, mark, since = state[b]
                if mark != want:
                    raise ValueError(f"{kind} of block {b} with mark {mark!r}")
                ended.append((b, leaves, mark, since))
            if kind == MERGE:
                for b in blocks:
                    state.pop(b)
                # the merged block keeps the smaller id
                state[min(blocks)] = (ended[0][1] | ended[1][1], new, t)
            else:
                for b, leaves, _, _ in ended:
                    state[b] = (leaves, new, t)
            yield ev, ended
        if self.reached_mrca and len(state) != 1:
            raise ValueError(f"genealogy flagged at the MRCA ends with {len(state)} blocks")
        if not self.end_time >= t_prev:
            raise ValueError(f"end time {self.end_time} precedes the last event at {t_prev}")

    def replay(self) -> Iterator[tuple[float, MarkedPartition]]:
        """Apply the event log step by step, validating every transition.

        Yields (event time, partition after the event).  Raises ValueError on
        any structurally invalid log (see ``_walk``).
        """
        state: dict = {}
        for ev, _ in self._walk(state):
            part = MarkedPartition(tuple((leaves, mark) for leaves, mark, _ in state.values()))
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
        node = {b: str(b) for b in range(1, self.sample_size + 1)}
        born = dict.fromkeys(node, 0.0)
        for ev, _ in self._walk({}):
            if ev.kind == MERGE:
                subtrees = ",".join(f"{node.pop(b)}:{ev.time - born.pop(b)!r}" for b in ev.blocks)
                node[min(ev.blocks)] = f"({subtrees})"
                born[min(ev.blocks)] = ev.time
        (tree,) = node.values()
        return "# marks (active/dormant) omitted\n" + tree + ";\n"


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


def _uniform_pair(pool: list[int], rng) -> tuple[int, int]:
    """Two distinct entries of pool, each ordered pair equally likely, from one draw."""
    size = len(pool)
    i, j = divmod(int(rng.integers(size * (size - 1))), size - 1)
    return pool[i], pool[j + (j >= i)]


def _uniform_subset(pool: list[int], k: int, rng) -> list[int]:
    """k distinct entries of pool, each k-subset equally likely: the first k
    steps of a Fisher-Yates shuffle, one draw each."""
    pool = list(pool)
    size = len(pool)
    for r in range(k):
        s = r + int(rng.integers(size - r))
        pool[r], pool[s] = pool[s], pool[r]
    return pool[:k]


def simulate_coalescent(
    n: int,
    m: int,
    params: ModelParams,
    *,
    horizon: Optional[float] = None,
    seed=None,
) -> Genealogy:
    """Run the coalescent from n active and m dormant singleton blocks.

    The block-count chain's Gillespie loop gives each event's time, kind and
    number of blocks; the specific pair or j-subset is then drawn uniformly
    from the same generator with ``rng.integers``: one draw per pair, one per
    block of a subset.  Stops at the MRCA without drawing further, or
    at ``horizon`` if given (the partial genealogy is returned and
    reached_mrca stays False unless the MRCA happened earlier).  Raises
    ValueError past ``blockcount.MAX_EVENTS`` events or when the clock
    cannot advance.  Deterministic given the seed.
    """
    s0 = _start((n, m), params, need_mrca=horizon is None)
    _check_horizon(horizon)
    rng = as_rng(seed)
    active = list(range(1, n + 1))
    dormant = list(range(n + 1, n + m + 1))
    g = Genealogy(n_active=n, m_dormant=m)
    t = 0.0
    for t, kind, k, _ in _jumps(s0, params, rng, horizon=horizon, stop_at_total_one=True):
        pool, other = (dormant, active) if kind == TO_ACTIVE else (active, dormant)
        picked = sorted(_uniform_pair(pool, rng) if kind == MERGE else _uniform_subset(pool, k, rng))
        if kind == MERGE:
            active.remove(picked[1])  # the merged block keeps the smaller id
        else:
            for b in picked:
                pool.remove(b)
            other.extend(picked)
            other.sort()
        g.events.append(GenealogyEvent(time=t, kind=kind, blocks=tuple(picked)))
    g.reached_mrca = len(active) + len(dormant) == 1
    g.end_time = horizon if (horizon is not None and not g.reached_mrca) else t
    return g


def tmrca(g: Genealogy) -> Optional[float]:
    """Time of the last merge (0.0 for a sample of one), or None if the run stopped early."""
    if not g.reached_mrca:
        return None
    # the walk checks that times increase, so the largest merge time is the last
    return max((ev.time for ev, _ in g._walk({}) if ev.kind == MERGE), default=0.0)


def branch_lengths(g: Genealogy) -> tuple[float, float]:
    """Total line-time spent active and dormant over the whole genealogy.

    Sums (number of blocks with each mark) x (holding time) over the
    inter-event intervals from 0 to end_time.
    """
    a, d = g.n_active, g.m_dormant
    t_prev = 0.0
    acc_a = []
    acc_d = []
    for ev, _ in g._walk({}):
        dt = ev.time - t_prev
        acc_a.append(a * dt)
        acc_d.append(d * dt)
        t_prev = ev.time
        a, d = _after(a, d, ev.kind, len(ev.blocks))
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
    state: dict = {}
    segments = []
    for ev, ended in g._walk(state):
        for b, leaves, mark, t0 in ended:
            segments.append((b, leaves, mark, t0, ev.time))
    if not g.reached_mrca:
        segments.extend(
            (b, leaves, mark, t0, g.end_time)
            for b, (leaves, mark, t0) in state.items()
            if g.end_time > t0
        )
    return segments
