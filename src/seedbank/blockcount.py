"""The block-counting chain (active lines, dormant lines) and its exact oracles.

The pair (N_t, M_t) of active and dormant line counts is a continuous-time
Markov chain on the lattice {(n, m): n + m >= 1}: active pairs merge at rate
C(n, 2), single lines switch state at rates c*n and c*K*m, and coordinated
switching events move k lines at once at the rates supplied by the switching
measures.  The total count never increases, so every computation lives on a
finite triangle of states.  Note that total count 1 is absorbing only for
the total: the last line keeps flipping between active and dormant.

Three independent routes through this chain back the verification story:

* a Gillespie simulator: one scalar loop (``_jumps``), which the
  marked-partition coalescent also runs on, and a vectorized ensemble,
* first-step analysis: sparse linear solves for expected absorption time and
  expected active/dormant branch lengths,
* the sparse matrix exponential of the generator: exact transient
  expectations, used as the right-hand side of the moment duality check.

The scalar loop and the oracles read the chain's switching rates from one
cached rate row per (measure, eligible count, single-line rate), one
``group_switch_rate`` call each, and their targets from ``_after``: the
scalar loop through one category list (``_categories``), the oracles through
one lattice (``_generator``), tested against the rate table.  The ensemble
reads no rows: it runs the spontaneous moves at their per-line rates and each
atom and Beta component on its own event clock, which reproduce the rows'
aggregate rates in law.

The scalar loop pays for its random draws and little else: a move table per
model (``_move_table``) keeps, for each state of at most ``_CACHED_LINES``
lines, the positive-rate moves, their running rate sums and the total, and
one ``bisect`` on the sums picks a move.  The ensemble keeps its live lanes
in compacted arrays in lane order, builds the running rate sums one category
at a time and drops lanes only when some stop.

Lanes in lockstep pay an iteration's fixed cost once per event of the
busiest lane, and a sample of n lines merges n - 1 times.  So the ensemble
moves each lane by a block per iteration: one event of any kind, then a walk
down the merge path (a, d), (a - 1, d), ... that applies merges until the
first drawn step that is not one.  That step is kept, drawn time and
uniform, as the lane's next event, so every draw is used once and the law is
the one-event loop's.  The block's width follows the live lanes' merge share
and the measured cost of an iteration, and is 1 (no walk) where blocks do
not pay: with few lines, where merges are rare, or with thousands of lanes,
where the walk's per-lane work outweighs the fixed cost it saves.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse as _sparse
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import expm_multiply, spsolve

from .measures import ModelParams, SwitchingMeasure, group_switch_rate, total_mass
from .streams import as_rng, check_reps, mean_stderr

__all__ = [
    "BlockCountState",
    "bc_transition_rates",
    "simulate_blockcount",
    "blockcount_ensemble",
    "EnsembleResult",
    "expected_tmrca_first_step",
    "expected_branch_lengths_first_step",
    "duality_rhs",
    "tmrca_loglog_scan",
    "coming_down_scan",
    "ScanRow",
    "mrca_reachable",
]

class BlockCountState(NamedTuple):
    n: int  # active lines
    m: int  # dormant lines


# bounded because a row holds b floats and a scalar run visits every count once
@lru_cache(maxsize=1024)
def _switch_row(measure: SwitchingMeasure, b: int, single_rate: float) -> tuple[float, ...]:
    """Aggregate rates of flipping k = 1..b of b eligible lines, k-1 indexed.

    Entry k-1 is group_switch_rate(measure, b, k), with the spontaneous
    single-line rate ``single_rate * b`` added at k = 1.  This is the only
    place the coordinated-switching rates of the chain are assembled.
    """
    row = group_switch_rate(measure, b, np.arange(1, b + 1))
    row[:1] += single_rate * b
    return tuple(row.tolist())


MERGE = "merge"
TO_DORMANT = "to_dormant"
TO_ACTIVE = "to_active"

# a scalar run stores every event (about 180 bytes each in a genealogy); past
# this many it stops with an error instead of growing without bound
MAX_EVENTS = 1_000_000


def _categories(a: int, d: int, params: ModelParams) -> list[tuple[str, int, float]]:
    """(kind, lines, rate) out of a active and d dormant lines, zero rates included.

    The order is fixed: the merge (of 2 lines), then deactivations of 1..a
    lines, then activations of 1..d lines.  This is the only list of the
    chain's moves; every rate view and both simulators read it.
    """
    to_dormant = _switch_row(params.lambda_ad, a, params.c)
    to_active = _switch_row(params.lambda_da, d, params.c * params.K)
    return (
        [(MERGE, 2, a * (a - 1) / 2.0)]
        + [(TO_DORMANT, k, r) for k, r in enumerate(to_dormant, 1)]
        + [(TO_ACTIVE, k, r) for k, r in enumerate(to_active, 1)]
    )


def _after(a: int, d: int, kind: str, k: int) -> tuple[int, int]:
    """The line counts (active, dormant) after a move of kind on k lines."""
    if kind == MERGE:
        return a - 1, d
    if kind == TO_DORMANT:
        return a - k, d + k
    return a + k, d - k


def bc_transition_rates(s: BlockCountState, params: ModelParams) -> list[tuple[BlockCountState, float]]:
    """All positive-rate transitions out of state s.

    (n-1, m)    at C(n, 2)
    (n-k, m+k)  at the aggregate k-deactivation rate, plus c*n when k = 1
    (n+l, m-l)  at the aggregate l-activation rate, plus c*K*m when l = 1
    """
    n, m = _start(s, params, need_mrca=False)
    return [
        (BlockCountState(*_after(n, m, kind, k)), r)
        for kind, k, r in _categories(n, m, params)
        if r > 0.0
    ]


def mrca_reachable(s0: BlockCountState, params: ModelParams) -> bool:
    """Whether every dormant line can eventually reactivate and merge."""
    if params.c > 0.0 or total_mass(params.lambda_da) > 0.0:
        return True
    # no way back from the seed bank: must never enter it
    return s0.m == 0 and total_mass(params.lambda_ad) == 0.0


def _start(s0, params: ModelParams, *, need_mrca: bool) -> BlockCountState:
    """s0 as a state, checked to hold a line and, with need_mrca, to reach the MRCA."""
    s0 = BlockCountState(*s0)
    if s0.n < 0 or s0.m < 0 or s0.n + s0.m < 1:
        raise ValueError(f"need at least one line, got {tuple(s0)}")
    if need_mrca and not mrca_reachable(s0, params):
        raise ValueError(
            "the most recent common ancestor is unreachable: dormant lines can "
            "never reactivate with c = 0 and a zero dormant-to-active measure"
        )
    return s0


def _check_horizon(horizon: Optional[float]) -> None:
    """Raise unless a simulator's horizon is None or finite and nonnegative."""
    if horizon is not None and not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be None or finite and nonnegative, got {horizon}")


class _Moves(NamedTuple):
    """The positive-rate moves out of one state, as the scalar loop reads them.

    moves  (kind, lines, (active, dormant) after) per positive-rate category,
           in ``_categories`` order
    sums   their running rate sums, added left to right
    total  the ``math.fsum`` of every rate
    """

    moves: list[tuple[str, int, tuple[int, int]]]
    sums: list[float]
    total: float

    def pick(self, u: float) -> tuple[str, int, tuple[int, int]]:
        """The first move whose running rate sum reaches u.

        If rounding leaves u above every sum, the last move; a zero-rate
        category is never a move.
        """
        i = bisect_left(self.sums, u)
        return self.moves[i] if i < len(self.moves) else self.moves[-1]


def _moves(a: int, d: int, params: ModelParams) -> _Moves:
    cats = _categories(a, d, params)
    moves, sums, acc = [], [], 0.0
    for kind, k, r in cats:
        if r > 0.0:
            acc += r
            moves.append((kind, k, _after(a, d, kind, k)))
            sums.append(acc)
    return _Moves(moves, sums, math.fsum(r for _, _, r in cats))


# a state of a + d lines has up to a + d + 1 moves (about 3,800 for an atom at
# a = 10^4), so only states of at most this many lines keep their moves
_CACHED_LINES = 32


class _MoveTable(dict):
    """(active, dormant) -> ``_Moves`` for one model, built on first lookup."""

    def __init__(self, params: ModelParams):
        super().__init__()
        self.params = params

    def __missing__(self, state: tuple[int, int]) -> _Moves:
        moves = _moves(*state, self.params)
        if sum(state) <= _CACHED_LINES:
            self[state] = moves
        return moves


# one lookup per run, so the model is hashed once per run, not per event; a
# full table holds 560 states, about 2 MB with an atom and a Beta component
@lru_cache(maxsize=8)
def _move_table(params: ModelParams) -> _MoveTable:
    return _MoveTable(params)


def _jumps(s0: BlockCountState, params: ModelParams, rng, *, horizon, stop_at_total_one: bool):
    """The scalar Gillespie loop: yields (time, kind, lines, (active, dormant) after).

    Each event draws one exponential holding time at the total rate and,
    unless it falls past ``horizon``, one uniform that picks the category.
    Stops before drawing anything once the total count is 1 (if
    ``stop_at_total_one``), when no move has a positive rate, or at the
    horizon.  Raises ValueError when the clock cannot advance or past
    MAX_EVENTS events.
    """
    table = _move_table(params)
    a, d = s0
    t = 0.0
    events = 0
    while not (stop_at_total_one and a + d <= 1):
        moves = table[a, d]
        total = moves.total
        if total <= 0.0:
            return  # nothing can happen anymore
        t_next = t + rng.exponential(1.0 / total)
        if horizon is not None and t_next > horizon:
            return
        if not t < t_next < math.inf:
            raise ValueError(f"event time {t_next!r} does not advance the clock from {t!r} "
                             f"at total rate {total!r}")
        events += 1
        if events > MAX_EVENTS:
            raise ValueError(f"stopped at the event budget of {MAX_EVENTS} events "
                             "(blockcount.MAX_EVENTS); pass a horizon to bound the run")
        # rng.random() * total is the double rng.uniform(0.0, total) draws, at a third of its cost
        kind, k, counts = moves.pick(rng.random() * total)
        t = t_next
        a, d = counts
        yield t, kind, k, counts


def simulate_blockcount(
    s0: BlockCountState,
    params: ModelParams,
    *,
    horizon: Optional[float] = None,
    seed=None,
) -> list[tuple[float, BlockCountState]]:
    """Gillespie path of the block-counting chain, one replicate.

    With ``horizon=None`` the run stops when the total count reaches 1; with
    a horizon it runs to that time (mark flips of the last line included).
    Returns the jump path [(time, state), ...] starting at (0, s0); the state
    holds between consecutive entries.  Raises ValueError past MAX_EVENTS
    events or when the clock cannot advance.  Deterministic given the seed.
    """
    s0 = _start(s0, params, need_mrca=horizon is None)
    _check_horizon(horizon)
    events = _jumps(s0, params, as_rng(seed), horizon=horizon, stop_at_total_one=horizon is None)
    return [(0.0, s0)] + [(t, BlockCountState(*s)) for t, _, _, s in events]


@dataclass
class EnsembleResult:
    """Per-replicate terminal data from a vectorized batch of chain runs."""

    n: np.ndarray  # active counts at the stopping time
    m: np.ndarray  # dormant counts at the stopping time
    absorption_time: np.ndarray  # time the total first hit 1; nan where it did not

    @property
    def total(self) -> np.ndarray:
        return self.n + self.m


# The cost of one iteration, in units of one block step of one lane (timed
# with numpy 2.4 on a 2-core x86-64 host): _STEP_COST + lanes * _LANE_COST
# for step 0, and _BLOCK_COST + lanes * (w - 1) more for a block of w > 1
# steps.  A block holds at most _BLOCK_ELEMENTS lane-steps, so a wide
# ensemble keeps its memory flat.
_STEP_COST = 1000.0
_LANE_COST = 0.5
_BLOCK_COST = 1200.0
_BLOCK_ELEMENTS = 1 << 14


def _block_width(merged: np.ndarray, waiting: Optional[np.ndarray]) -> int:
    """Steps per block that maximise events per unit of work; 1 where blocks do not pay.

    ``merged`` marks the live lanes whose last step was a merge.  Of the k
    lanes that drew that step afresh (``waiting`` marks the others, which
    kept a step that is a merge less often), j merged; the merge share is
    taken as p = (j + 1) / (k + 2), so that a few lanes that all merged by
    chance do not call for the widest block.  A block of w steps moves a
    lane (1 - p^w) / (1 - p) events at a cost of A + w block steps per lane,
    against ``one`` for a plain step.  For small q = 1 - p the best w lies
    near sqrt(A^2 + 2A/q) - A; it is capped at _BLOCK_ELEMENTS / lanes and
    kept only if it beats plain steps.
    """
    lanes = merged.size
    one = _STEP_COST / lanes + _LANE_COST
    cap = _BLOCK_ELEMENTS // lanes
    if cap < 2 or one <= 1.0:
        return 1  # a block step costs a lane as much as a plain step
    if waiting is not None:
        lanes -= int(np.count_nonzero(waiting))
        merged = merged & ~waiting
    q = 1.0 - (int(np.count_nonzero(merged)) + 1.0) / (lanes + 2.0)  # Python floats are cheaper
    a = (_STEP_COST + _BLOCK_COST) / merged.size + _LANE_COST - 1.0
    if q * (a + 2.0) >= one:
        return 1  # even an endless block, 1 / q events, would not pay
    width = min(cap, max(2, round(math.sqrt(a * a + 2.0 * a / q) - a)))
    return width if (1.0 - (1.0 - q) ** width) / q * one > a + width else 1


def blockcount_ensemble(
    s0: BlockCountState,
    params: ModelParams,
    reps: int,
    *,
    horizon: Optional[float] = None,
    stop_at_total_one: bool = True,
    seed=None,
) -> EnsembleResult:
    """Simulate many independent block-count paths in lockstep.

    Vectorizes the Gillespie loop across replicates.  Coordinated switching
    runs on constant-rate or per-line event clocks that reproduce the
    aggregate per-size rates exactly:

    * an atom (z, w) fires at rate w/z and flips a Binomial(count, z) set of
      lines (a draw of 0 is a silent no-op);
    * a Beta(alpha, beta) component of mass w fires at rate w * count, draws
      z ~ Beta(alpha, beta) and k = 1 + Binomial(count - 1, z), and flips k
      lines with probability 1/k (a rejection is a silent no-op).  Each
      specific k-subset then switches at rate integral z^(k-1) (1-z)^(count-k)
      of the measure, for every alpha > 0.

    Each iteration moves every live lane by a block of up to w events.  Step
    0 is one Gillespie step of any kind.  Steps 1 to w - 1 walk the merge
    path from the state it leaves, (a, d), (a - 1, d), ..., one holding time
    and one uniform each; a lane applies the merges up to its first step
    that is not a merge, falls past the horizon or starts from two active
    lines (so the merge that brings the total to 1 is always a step 0).
    That step, drawn at the state the lane is now in, is kept with its time
    and uniform as the lane's next step 0.  Every draw is fresh and the end
    is a stopping time, so dropping the draws after it keeps the law of the
    one-step loop.  w is set each iteration from the merge share of the
    lanes' step 0 against the cost of an iteration (``_block_width``): about
    1 / (1 - share) while the fixed cost of an iteration dominates, at most
    _BLOCK_ELEMENTS / lanes, and 1, with no block at all, where blocks do
    not pay: with few lines or thousands of lanes.

    ``stop_at_total_one=False`` keeps lanes running to the horizon so that
    the active/dormant split of the last line stays distributed correctly.
    """
    check_reps(reps)
    s0 = _start(s0, params, need_mrca=stop_at_total_one and horizon is None)
    _check_horizon(horizon)
    if not stop_at_total_one and horizon is None:
        raise ValueError("running past total 1 requires a horizon")

    rng = as_rng(seed)
    n = np.full(reps, s0.n, dtype=np.int64)
    m = np.full(reps, s0.m, dtype=np.int64)
    absorbed_at = np.full(reps, np.nan)
    if s0.n + s0.m == 1:
        absorbed_at[:] = 0.0
        if stop_at_total_one:
            return EnsembleResult(n=n, m=m, absorption_time=absorbed_at)

    # (to_dormant, ...) per clock; the Beta columns come after every atom
    # column, so the random draws of an atom-only model do not depend on them
    atoms = [(True, z, w / z) for z, w in params.lambda_ad.atoms]
    atoms += [(False, z, w / z) for z, w in params.lambda_da.atoms]
    betas = [(True, a, b, w) for a, b, w in params.lambda_ad.beta_components]
    betas += [(False, a, b, w) for a, b, w in params.lambda_da.beta_components]
    c, K = params.c, params.K

    def rate_sums(na, ma):
        # running rate sums over the categories (merge, single deactivation,
        # single activation, atom clocks, Beta clocks), added left to right;
        # the last one is the total rate
        sums = [na * (na - 1) / 2.0]
        for rate in (c * na, c * K * ma, *(r for _, _, r in atoms),
                     *(w * (na if to_dormant else ma) for to_dormant, _, _, w in betas)):
            sums.append(sums[-1] + rate)
        return sums

    # the live lanes in lane order: ids, counts, clocks and, where waiting,
    # the step kept from the last block (its time and u * total); a lane
    # leaves these arrays, its counts going back to n and m, only when it stops
    lane = np.arange(reps)
    na, ma = n.copy(), m.copy()
    t = np.zeros(reps)
    waiting, t_kept, x_kept = None, None, None  # None: no lane is waiting

    def stop(stopped):
        nonlocal lane, na, ma, t, waiting, t_kept, x_kept
        n[lane[stopped]] = na[stopped]
        m[lane[stopped]] = ma[stopped]
        keep = ~stopped
        lane, na, ma, t = lane[keep], na[keep], ma[keep], t[keep]
        if waiting is not None:
            waiting, t_kept, x_kept = waiting[keep], t_kept[keep], x_kept[keep]
        return keep

    def flip(sel, k, to_dormant):
        if to_dormant:
            na[sel] -= k
            ma[sel] += k
        else:
            na[sel] += k
            ma[sel] -= k

    while lane.size:
        sums = rate_sums(na, ma)
        stuck = sums[-1] <= 0.0
        if np.count_nonzero(stuck):
            keep = stop(stuck)
            sums = [s[keep] for s in sums]

        # step 0: an exponential holding time at the total rate, or the
        # time a waiting lane kept
        t_next = t + rng.standard_exponential(lane.size) / sums[-1]
        if waiting is not None:
            np.copyto(t_next, t_kept, where=waiting)
        if horizon is not None:
            crossed = t_next > horizon
            if np.count_nonzero(crossed):
                keep = stop(crossed)
                sums, t_next = [s[keep] for s in sums], t_next[keep]
        t = t_next

        # a lane takes the first category whose running sum exceeds x; the
        # sums never decrease, so each mask of lanes below a sum holds the
        # one before it, and a zero-rate category (its sum equals the one
        # before) is never taken
        x = rng.random(lane.size)
        x *= sums[-1]
        if waiting is not None:
            np.copyto(x, x_kept, where=waiting)
        below = [x < s for s in sums[:-1]]
        taken = [below[0], *(b ^ a for a, b in zip(below, below[1:])), ~below[-1]]
        merged, deactivated, activated, *clocks = taken
        width = _block_width(merged, waiting) if lane.size else 1
        na -= merged
        na -= deactivated
        ma += deactivated
        na += activated
        ma -= activated
        for (to_dormant, z, _), sel in zip(atoms, clocks):
            if np.count_nonzero(sel):
                flip(sel, rng.binomial(na[sel] if to_dormant else ma[sel], z), to_dormant)
        for (to_dormant, a, b, _), sel in zip(betas, clocks[len(atoms):]):
            if np.count_nonzero(sel):
                count = na[sel] if to_dormant else ma[sel]
                z = rng.beta(a, b, size=count.size)
                k = 1 + rng.binomial(count - 1, z)
                k[rng.random(count.size) * k >= 1.0] = 0  # accept with probability 1/k
                flip(sel, k, to_dormant)

        at_one = na + ma == 1
        if np.count_nonzero(at_one):
            hit = lane[at_one]
            fresh = np.isnan(absorbed_at[hit])
            absorbed_at[hit[fresh]] = t[at_one][fresh]
            if stop_at_total_one:
                stop(at_one)

        waiting = None
        if width > 1 and lane.size:
            # steps 1 to w - 1, one row each: j merges from (a, d), held at
            # two active lines (a stand-in state where a < 2); the rows are
            # floats, and their rates equal step 0's integer ones bit for bit
            # (a(a - 1) is exact in int64 and rounds once either way)
            steps, size = width - 1, lane.size
            row = np.maximum(na - np.arange(steps)[:, None], 2.0)
            sums = rate_sums(row, ma)
            times = rng.standard_exponential(row.shape)
            times /= sums[-1]
            times[0] += t
            np.add.accumulate(times, axis=0, out=times)
            x = rng.random(row.shape)
            x *= sums[-1]
            # a lane applies the merges before its first step that is not a
            # merge, falls past the horizon or starts from two active lines,
            # and keeps that step; a full block keeps nothing
            ends = np.empty((steps + 1, size), dtype=bool)
            np.greater_equal(x, sums[0], out=ends[:-1])
            ends[-1] = True
            if horizon is not None:
                ends[:-1] |= times > horizon
            end = np.minimum(ends.argmax(axis=0), np.maximum(na - 2, 0))
            lanes = np.arange(size)
            at = np.minimum(end, steps - 1) * size + lanes
            t_kept, x_kept = times.ravel()[at], x.ravel()[at]
            waiting = (end < steps) & (na >= 2)
            t = np.where(end > 0, times.ravel()[np.maximum(end - 1, 0) * size + lanes], t)
            na -= end

    return EnsembleResult(n=n, m=m, absorption_time=absorbed_at)


# ---------------------------------------------------------------------------
# exact finite-state oracles
# ---------------------------------------------------------------------------


# the oracles refuse a lattice of more moves than this; the spontaneous start
# (1000, 0) has 1.5M, and its first-step solve peaks near 0.8 GB
MAX_LATTICE_MOVES = 3_000_000


def _generator(s0: BlockCountState, params: ModelParams):
    """(a, d, i0, Q): the states s0 reaches, s0's position and the CSR generator.

    No move raises a + d, so each state lies on the triangle a + d <= L, at
    index first[a] + d (sorted order).  For each count b, rate rows give the
    moves of the states with b active (merge, to_dormant) or b dormant
    (to_active) lines, and ``_after`` their targets.  Raises ValueError past
    MAX_LATTICE_MOVES moves, counted from the rows before any state array.
    """
    L = s0.n + s0.m
    moves, rows = 0, []  # rows: (kind, b, lines k, rates), one per kind and b
    for b in range(1, L + 1):
        if moves > MAX_LATTICE_MOVES:
            break  # the merges alone stop a huge start within a few rows
        # the merge row: its one entry takes 2 of the b active lines
        for kind, row in ((MERGE, (0.0, b * (b - 1) / 2.0)),
                          (TO_DORMANT, _switch_row(params.lambda_ad, b, params.c)),
                          (TO_ACTIVE, _switch_row(params.lambda_da, b, params.c * params.K))):
            row = np.array(row)
            k = np.flatnonzero(row > 0.0) + 1
            rows.append((kind, b, k, row[k - 1]))
            moves += (L - b + 1) * k.size
    if moves > MAX_LATTICE_MOVES:
        raise ValueError(f"the lattice from {tuple(s0)} has at least {moves} moves, past the lattice "
                         f"budget of {MAX_LATTICE_MOVES} moves (blockcount.MAX_LATTICE_MOVES)")
    first = np.concatenate(([0], np.cumsum(np.arange(L + 1, 0, -1))))  # index of (a, 0)
    a = np.repeat(np.arange(L + 1), np.diff(first))
    d = np.arange(a.size) - first[a]
    parts = []
    for kind, b, k, r in rows:
        i = (first[: L - b + 1] + b if kind == TO_ACTIVE else np.arange(first[b], first[b + 1]))[:, None]
        ta, td = _after(a[i], d[i], kind, k)
        parts.append([v.ravel() for v in np.broadcast_arrays(r, i, first[ta] + td)])
    rate, src, dst = map(np.concatenate, zip(*parts))
    off = _sparse.csr_matrix((rate, (src, dst)), shape=(a.size, a.size))
    start = first[s0.n] + s0.m
    keep = np.sort(breadth_first_order(off, start, return_predecessors=False))
    off = off[keep][:, keep]
    return a[keep], d[keep], int(np.searchsorted(keep, start)), off - _sparse.diags(off.sum(axis=1).A1)


def expected_tmrca_first_step(s0: BlockCountState, params: ModelParams) -> float:
    """Expected time for the total count to reach 1, by first-step analysis.

    Solves -Q_TT v = 1 over the transient states T (total above 1) of the
    reachable lattice, as one sparse linear system.
    """
    return _first_step_solve(s0, params)[0]


def expected_branch_lengths_first_step(
    s0: BlockCountState, params: ModelParams
) -> tuple[float, float]:
    """Expected total active and dormant line-time accumulated before the MRCA.

    Same linear system as the absorption time but with per-state rewards
    n and m in place of 1.
    """
    _, active, dormant = _first_step_solve(s0, params)
    return active, dormant


def _first_step_solve(s0, params) -> tuple[float, float, float]:
    """Expected (absorption time, active length, dormant length) from s0, over
    the transient states (total above 1) of the lattice both oracles read."""
    s0 = _start(s0, params, need_mrca=True)
    if s0.n + s0.m == 1:
        return 0.0, 0.0, 0.0

    a, d, i0, Q = _generator(s0, params)
    transient = np.flatnonzero(a + d > 1)
    Q_TT = Q[transient][:, transient]
    stuck = transient[Q_TT.diagonal() >= 0.0]
    if stuck.size:
        raise ValueError(f"state {(int(a[stuck[0]]), int(d[stuck[0]]))} has no positive exit "
                         "rate; it never reaches total 1")
    rewards = np.column_stack((np.ones(transient.size), a[transient], d[transient]))
    sol = spsolve((-Q_TT).tocsc(), rewards)
    return tuple(float(v) for v in sol[np.searchsorted(transient, i0)])


def duality_rhs(
    n: int,
    m: int,
    x: float,
    y: float,
    params: ModelParams,
    t: float,
    *,
    method: str = "exact",
    reps: int = 100_000,
    seed=None,
) -> tuple[float, float]:
    """E[x^{N_t} y^{M_t}] for the chain started at (n, m), as (value, stderr).

    method="exact" applies the matrix exponential of the sparse generator
    on the lattice (n, m) reaches (no state absorbs; the last line keeps
    flipping marks) to the vector x^a y^d with scipy's ``expm_multiply``;
    stderr is 0.  Past MAX_LATTICE_MOVES moves it raises ValueError.

    method="mc" averages x^{N_t} y^{M_t} over ``reps`` simulated paths.
    """
    s0 = _start((n, m), params, need_mrca=False)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if method == "exact":
        return _duality_expm(s0, x, y, params, t), 0.0
    if method == "mc":
        res = blockcount_ensemble(
            s0, params, reps, horizon=t, stop_at_total_one=False, seed=seed
        )
        return mean_stderr(np.power(float(x), res.n) * np.power(float(y), res.m))
    raise ValueError(f"unknown method {method!r}")


def _duality_expm(s0, x, y, params, t) -> float:
    a, d, i0, Q = _generator(s0, params)
    # Python powers by line count: np.power can differ from ** in the last bit
    px, py = (np.array([float(z) ** k for k in range(s0.n + s0.m + 1)]) for z in (x, y))
    return float(expm_multiply(Q * t, px[a] * py[d])[i0])


# ---------------------------------------------------------------------------
# desk-scale scans for the asymptotic statements
# ---------------------------------------------------------------------------


@dataclass
class ScanRow:
    n: int
    mean: float
    stderr: float
    ratio: float  # mean / log log n for the absorption-time scan;
    # consecutive-mean ratio for the coming-down scan (nan on the first row)


def tmrca_loglog_scan(params: ModelParams, n_list, reps: int, seed=None) -> list[ScanRow]:
    """Monte Carlo mean time to the MRCA across sample sizes, over log log n.

    Qualitative finite-n probe of the slow (iterated-logarithm) growth of the
    expected coalescence time.  Starts all lines active.
    """
    rows = []
    rng = as_rng(seed)
    for n in n_list:
        if n < 16:
            raise ValueError(f"scan needs n >= 16 for a stable log log n, got {n}")
        res = blockcount_ensemble(BlockCountState(n, 0), params, reps, seed=rng)
        mean, se = mean_stderr(res.absorption_time)
        rows.append(ScanRow(n=n, mean=mean, stderr=se, ratio=mean / math.log(math.log(n))))
    return rows


def coming_down_scan(
    params: ModelParams, n_list, t_probe: float, reps: int, seed=None
) -> list[ScanRow]:
    """Mean surviving block count at a small probe time, across sample sizes.

    Finite-n proxy for the trichotomy between coming down from infinity and
    staying infinite: stabilizing means indicate the former, means growing
    with n the latter.  Output is a qualitative diagnostic, not a limit claim.
    """
    if t_probe <= 0.0:
        raise ValueError("t_probe must be positive")
    rows = []
    rng = as_rng(seed)
    for n in n_list:
        res = blockcount_ensemble(
            BlockCountState(n, 0), params, reps, horizon=t_probe, seed=rng
        )
        mean, se = mean_stderr(res.total)
        ratio = mean / rows[-1].mean if rows and rows[-1].mean > 0 else float("nan")
        rows.append(ScanRow(n=n, mean=mean, stderr=se, ratio=ratio))
    return rows
