"""The block-counting chain (active lines, dormant lines) and its exact oracles.

The pair (N_t, M_t) of active and dormant line counts is a continuous-time
Markov chain on the lattice {(n, m): n + m >= 1}: active pairs merge at rate
C(n, 2), single lines switch state at rates c*n and c*K*m, and coordinated
switching events move k lines at once at the rates supplied by the switching
measures.  The total count never increases, so every computation lives on a
finite triangle of states.  Note that total count 1 is absorbing only for
the total: the last line keeps flipping between active and dormant.

Three independent routes through this chain back the verification story:

* a Gillespie simulator (scalar and vectorized-ensemble variants),
* first-step analysis: sparse linear solves for expected absorption time and
  expected active/dormant branch lengths,
* the sparse matrix exponential of the generator: exact transient
  expectations, used as the right-hand side of the moment duality check.

Every consumer of the chain reads its switching rates from one cached rate
row per (measure, eligible count, single-line rate), so the simulators and
the oracles cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse as _sparse
from scipy.sparse.linalg import expm_multiply, spsolve

from .measures import ModelParams, SwitchingMeasure, group_switch_rate, total_mass
from .streams import as_rng

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
    zero = measure.is_zero()
    row = []
    for k in range(1, b + 1):
        rate = 0.0 if zero else group_switch_rate(measure, b, k)
        if k == 1:
            rate += single_rate * b
        row.append(rate)
    return tuple(row)


def bc_transition_rates(s: BlockCountState, params: ModelParams) -> list[tuple[BlockCountState, float]]:
    """All positive-rate transitions out of state s.

    (n-1, m)    at C(n, 2)
    (n-k, m+k)  at the aggregate k-deactivation rate, plus c*n when k = 1
    (n+l, m-l)  at the aggregate l-activation rate, plus c*K*m when l = 1
    """
    n, m = s
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"invalid block-count state {s}")
    out: list[tuple[BlockCountState, float]] = []
    if n >= 2:
        out.append((BlockCountState(n - 1, m), n * (n - 1) / 2.0))
    for k, rate in enumerate(_switch_row(params.lambda_ad, n, params.c), start=1):
        if rate > 0.0:
            out.append((BlockCountState(n - k, m + k), rate))
    for l, rate in enumerate(_switch_row(params.lambda_da, m, params.c * params.K), start=1):
        if rate > 0.0:
            out.append((BlockCountState(n + l, m - l), rate))
    return out


def mrca_reachable(s0: BlockCountState, params: ModelParams) -> bool:
    """Whether every dormant line can eventually reactivate and merge."""
    if params.c > 0.0 or total_mass(params.lambda_da) > 0.0:
        return True
    # no way back from the seed bank: must never enter it
    return s0.m == 0 and total_mass(params.lambda_ad) == 0.0


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
    holds between consecutive entries.  Deterministic given the seed.
    """
    s0 = BlockCountState(*s0)
    if s0.n + s0.m < 1:
        raise ValueError("need at least one line")
    if horizon is None and not mrca_reachable(s0, params):
        raise ValueError(
            "the most recent common ancestor is unreachable: dormant lines can "
            "never reactivate with c = 0 and a zero dormant-to-active measure"
        )
    rng = as_rng(seed)
    t = 0.0
    state = s0
    path = [(t, state)]
    while True:
        if horizon is None and state.n + state.m <= 1:
            break
        transitions = bc_transition_rates(state, params)
        rates = [r for _, r in transitions]
        total = math.fsum(rates)
        if total <= 0.0:
            break  # nothing can happen anymore
        t_next = t + rng.exponential(1.0 / total)
        if horizon is not None and t_next > horizon:
            break
        u = rng.uniform(0.0, total)
        acc = 0.0
        target = transitions[-1][0]
        for st, r in transitions:
            acc += r
            if u <= acc:
                target = st
                break
        t = t_next
        state = target
        path.append((t, state))
    return path


@dataclass
class EnsembleResult:
    """Per-replicate terminal data from a vectorized batch of chain runs."""

    n: np.ndarray  # active counts at the stopping time
    m: np.ndarray  # dormant counts at the stopping time
    absorption_time: np.ndarray  # time the total first hit 1; nan where it did not

    @property
    def total(self) -> np.ndarray:
        return self.n + self.m


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

    ``stop_at_total_one=False`` keeps lanes running to the horizon so that
    the active/dormant split of the last line stays distributed correctly.
    """
    s0 = BlockCountState(*s0)
    if s0.n + s0.m < 1:
        raise ValueError("need at least one line")
    if stop_at_total_one and horizon is None and not mrca_reachable(s0, params):
        raise ValueError(
            "the most recent common ancestor is unreachable: dormant lines can "
            "never reactivate with c = 0 and a zero dormant-to-active measure"
        )
    if not stop_at_total_one and horizon is None:
        raise ValueError("running past total 1 requires a horizon")

    rng = as_rng(seed)
    n = np.full(reps, s0.n, dtype=np.int64)
    m = np.full(reps, s0.m, dtype=np.int64)
    t = np.zeros(reps)
    absorbed_at = np.full(reps, np.nan)
    if s0.n + s0.m == 1:
        absorbed_at[:] = 0.0
        if stop_at_total_one:
            return EnsembleResult(n=n, m=m, absorption_time=absorbed_at)
    alive = np.ones(reps, dtype=bool)
    if stop_at_total_one and s0.n + s0.m == 1:
        alive[:] = False

    # (to_dormant, ...) per clock; the Beta columns come after every atom
    # column, so the random draws of an atom-only model do not depend on them
    atoms = [(True, z, w / z) for z, w in params.lambda_ad.atoms]
    atoms += [(False, z, w / z) for z, w in params.lambda_da.atoms]
    betas = [(True, a, b, w) for a, b, w in params.lambda_ad.beta_components]
    betas += [(False, a, b, w) for a, b, w in params.lambda_da.beta_components]
    # category order: merge, single deact, single act, atom clocks, Beta clocks
    ncat = 3 + len(atoms) + len(betas)
    c, K = params.c, params.K

    def flip(lanes, k, to_dormant):
        if to_dormant:
            n[lanes] -= k
            m[lanes] += k
        else:
            n[lanes] += k
            m[lanes] -= k

    while alive.any():
        idx = np.flatnonzero(alive)
        na, ma = n[idx], m[idx]
        rates = np.empty((idx.size, ncat))
        rates[:, 0] = na * (na - 1) / 2.0
        rates[:, 1] = c * na
        rates[:, 2] = c * K * ma
        col = 3
        for _, _, rate in atoms:
            rates[:, col] = rate
            col += 1
        for to_dormant, _, _, w in betas:
            rates[:, col] = w * (na if to_dormant else ma)
            col += 1
        total = rates.sum(axis=1)

        stuck = total <= 0.0
        if stuck.any():
            alive[idx[stuck]] = False
            keep = ~stuck
            idx, rates, total = idx[keep], rates[keep], total[keep]
            if idx.size == 0:
                continue

        t_next = t[idx] + rng.exponential(1.0 / total)
        if horizon is not None:
            crossed = t_next > horizon
            if crossed.any():
                alive[idx[crossed]] = False
                keep = ~crossed
                idx, rates, total, t_next = idx[keep], rates[keep], total[keep], t_next[keep]
                if idx.size == 0:
                    continue
        t[idx] = t_next

        u = rng.random(idx.size) * total
        cat = (u[:, None] >= np.cumsum(rates, axis=1)).sum(axis=1)
        cat = np.minimum(cat, ncat - 1)

        sel = cat == 0
        if sel.any():
            n[idx[sel]] -= 1
        sel = cat == 1
        if sel.any():
            flip(idx[sel], 1, True)
        sel = cat == 2
        if sel.any():
            flip(idx[sel], 1, False)
        col = 3
        for to_dormant, z, _ in atoms:
            sel = cat == col
            if sel.any():
                lanes = idx[sel]
                flip(lanes, rng.binomial(n[lanes] if to_dormant else m[lanes], z), to_dormant)
            col += 1
        for to_dormant, a, b, _ in betas:
            sel = cat == col
            if sel.any():
                lanes = idx[sel]
                count = n[lanes] if to_dormant else m[lanes]
                z = rng.beta(a, b, size=lanes.size)
                k = 1 + rng.binomial(np.maximum(count - 1, 0), z)
                k[rng.random(lanes.size) * k >= 1.0] = 0  # accept with probability 1/k
                # the category clamp can pick an empty column by rounding; it flips nothing
                flip(lanes, np.minimum(k, count), to_dormant)
            col += 1

        at_one = (n[idx] + m[idx]) == 1
        if at_one.any():
            hit = idx[at_one]
            fresh = np.isnan(absorbed_at[hit])
            absorbed_at[hit[fresh]] = t[hit[fresh]]
            if stop_at_total_one:
                alive[hit] = False

    return EnsembleResult(n=n, m=m, absorption_time=absorbed_at)


# ---------------------------------------------------------------------------
# exact finite-state oracles
# ---------------------------------------------------------------------------


def _reachable_states(s0: BlockCountState, params: ModelParams, *, absorb_at_total_one: bool):
    """Breadth-first enumeration of the reachable lattice.

    Returns {state: transitions out of it} in sorted state order; with
    ``absorb_at_total_one`` states of total 1 have no transitions.
    """
    moves = {}
    frontier = [s0]
    while frontier:
        nxt = []
        for s in frontier:
            if s in moves:
                continue
            absorbed = absorb_at_total_one and s.n + s.m <= 1
            moves[s] = [] if absorbed else bc_transition_rates(s, params)
            nxt += [target for target, _ in moves[s] if target not in moves]
        frontier = nxt
    return {s: moves[s] for s in sorted(moves)}


def _generator(s0: BlockCountState, params: ModelParams, *, absorb_at_total_one: bool):
    """(states, index, Q): the reachable lattice and its CSR generator."""
    moves = _reachable_states(s0, params, absorb_at_total_one=absorb_at_total_one)
    states = list(moves)
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    for s, i in index.items():
        for target, r in moves[s]:
            rows += (i, i)
            cols += (index[target], i)
            vals += (r, -r)
    dim = len(states)
    Q = _sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return states, index, Q


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
    """Expected (absorption time, active length, dormant length) from s0."""
    s0 = BlockCountState(*s0)
    if s0.n + s0.m < 1:
        raise ValueError("need at least one line")
    if not mrca_reachable(s0, params):
        raise ValueError(
            "first-step analysis needs every state to reach total 1; with c = 0 "
            "and a zero dormant-to-active measure, dormant lines are stranded"
        )
    if s0.n + s0.m == 1:
        return 0.0, 0.0, 0.0

    states, index, Q = _generator(s0, params, absorb_at_total_one=True)
    transient = [i for i, s in enumerate(states) if s.n + s.m > 1]
    Q_TT = Q[transient][:, transient]
    for i, q in zip(transient, Q_TT.diagonal()):
        if q >= 0.0:
            raise ValueError(f"state {states[i]} is stranded; the MRCA is unreachable")
    rewards = np.array([(1.0, states[i].n, states[i].m) for i in transient])
    sol = spsolve((-Q_TT).tocsc(), rewards)
    i0 = transient.index(index[s0])
    return tuple(float(v) for v in sol[i0])


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
    over the finite reachable lattice to the vector x^n y^m (no state is
    absorbing for this computation; the last line keeps flipping marks),
    with scipy's ``expm_multiply`` at double precision; stderr is 0.

    method="mc" averages x^{N_t} y^{M_t} over ``reps`` simulated paths.
    """
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError("need at least one line")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    s0 = BlockCountState(n, m)
    if method == "exact":
        return _duality_expm(s0, x, y, params, t), 0.0
    if method == "mc":
        res = blockcount_ensemble(
            s0, params, reps, horizon=t, stop_at_total_one=False, seed=seed
        )
        vals = np.power(float(x), res.n) * np.power(float(y), res.m)
        se = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        return float(vals.mean()), se
    raise ValueError(f"unknown method {method!r}")


def _duality_expm(s0, x, y, params, t) -> float:
    states, index, Q = _generator(s0, params, absorb_at_total_one=False)
    f = np.array([float(x) ** s.n * float(y) ** s.m for s in states])
    return float(expm_multiply(Q * t, f)[index[s0]])


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
        times = res.absorption_time
        mean = float(times.mean())
        se = float(times.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
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
        totals = res.total.astype(float)
        mean = float(totals.mean())
        se = float(totals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        ratio = mean / rows[-1].mean if rows and rows[-1].mean > 0 else float("nan")
        rows.append(ScanRow(n=n, mean=mean, stderr=se, ratio=ratio))
    return rows
