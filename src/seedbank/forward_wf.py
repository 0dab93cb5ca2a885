"""Discrete-generation Wright-Fisher models with a strong seed bank.

A population of N active individuals sits next to a dormant pool of
M = floor(N/K) individuals of the same order of magnitude.  Every generation
refills a of the N active slots with types drawn without replacement from
the seed bank and the rest with multinomial offspring of the active pool,
while the seed bank keeps M - d uniformly chosen survivors and takes d
active offspring.  An ordinary generation exchanges a = d = c* individuals
(c* a fixed integer, or a Binomial(N, c/N) draw).  With ``sim_switching``
configured, rare coordinated events replace a fraction z of one pool with
types from the other: an F flood refills a = round(zN) active slots from the
seed bank (d = 0), a D event refills d = round(zM) dormant slots from active
offspring (a = 0).  Time rescaled by N turns the two type-0 frequencies into
the dormancy diffusion; the events add its jump component.

Two-allele bookkeeping only: states count type-0 individuals per pool.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .diffusion import FixationStats
from .measures import SwitchingMeasure, sample_location, total_mass
from .streams import as_rng, check_reps

__all__ = [
    "SimSwitching",
    "WFConfig",
    "WFState",
    "wf_step",
    "run_trajectory",
    "WFTrajectory",
    "wf_ensemble",
    "WFEnsembleResult",
]


@dataclass(frozen=True)
class SimSwitching:
    """Rare coordinated replacement events.

    Per generation, with probability rate_f / N a fraction z ~ mu_f of the
    active pool is refilled from the seed bank; with probability rate_d / N a
    fraction z ~ mu_d of the seed bank is refilled from active offspring.
    Both measures must be normalized to probability distributions.
    """

    rate_f: float = 0.0
    rate_d: float = 0.0
    mu_f: SwitchingMeasure = SwitchingMeasure()
    mu_d: SwitchingMeasure = SwitchingMeasure()

    def __post_init__(self):
        if not (0.0 <= self.rate_f < math.inf and 0.0 <= self.rate_d < math.inf):
            raise ValueError(
                f"event rates must be finite and nonnegative, got {self.rate_f} and {self.rate_d}"
            )
        if self.rate_f > 0.0 and not math.isclose(total_mass(self.mu_f), 1.0, rel_tol=1e-9):
            raise ValueError("mu_f must be normalized to a probability measure")
        if self.rate_d > 0.0 and not math.isclose(total_mass(self.mu_d), 1.0, rel_tol=1e-9):
            raise ValueError("mu_d must be normalized to a probability measure")


@dataclass(frozen=True)
class WFConfig:
    """Population sizes and exchange mechanism.

    N              active population size
    K              size ratio; the seed bank holds M = floor(N/K) individuals
    c              expected number of individuals exchanged per generation
    exchange_mode  "fixed" (c must be an integer <= min(N, M)) or "binomial"
                   (Binomial(N, c/N) individuals per generation, clamped to
                   min(N, M) in the vanishing-probability overflow case)
    sim_switching  optional rare-event component
    """

    N: int
    K: float = 1.0
    c: float = 1.0
    exchange_mode: str = "binomial"
    sim_switching: Optional[SimSwitching] = None

    def __post_init__(self):
        if not (isinstance(self.N, numbers.Integral) and self.N >= 1):
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"K must be finite and positive, got {self.K}")
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and nonnegative, got {self.c}")
        if self.exchange_mode not in ("fixed", "binomial"):
            raise ValueError(f"unknown exchange mode {self.exchange_mode!r}")
        if self.M < 1:
            raise ValueError(f"seed bank is empty: floor({self.N}/{self.K}) < 1")
        if self.exchange_mode == "fixed":
            if self.c != int(self.c):
                raise ValueError("fixed exchange mode needs an integer c")
            if self.c > min(self.N, self.M):
                raise ValueError("fixed exchange count exceeds a pool size")
        if self.sim_switching is not None:
            total = self.sim_switching.rate_f + self.sim_switching.rate_d
            if total / self.N > 1.0:
                raise ValueError("(rate_f + rate_d)/N must not exceed 1")

    @property
    def M(self) -> int:
        return int(self.N / self.K)


class WFState(NamedTuple):
    i: int  # type-0 count among the N active
    j: int  # type-0 count among the M dormant
    generation: int


def _tally(stats: Optional[dict], key: str, n: int = 1) -> None:
    if stats is not None and n:
        stats[key] = stats.get(key, 0) + n


def _exchange(cfg: WFConfig, rng, size=None):
    """(c*, number clamped) for one generation, or for ``size`` lanes at once.

    A Binomial(N, c/N) draw above min(N, M) is clamped to it.
    """
    if cfg.exchange_mode == "fixed":
        return (int(cfg.c) if size is None else np.full(size, int(cfg.c), dtype=np.int64)), 0
    cap = min(cfg.N, cfg.M)
    c_star = rng.binomial(cfg.N, cfg.c / cfg.N, size=size)
    clamped = int(np.count_nonzero(c_star > cap))
    return (min(c_star, cap) if size is None else np.minimum(c_star, cap)), clamped


def _generation(i, j, refill_active, refill_bank, N, M, rng):
    """Type-0 counts after one generation from (i, j), for ints or per-lane arrays.

    a = refill_active of the N active slots take types drawn without
    replacement from the seed bank and the other N - a are offspring of the
    active pool; independently, the seed bank keeps M - d uniformly chosen
    survivors and takes d = refill_bank active offspring.  A hypergeometric
    sample of size 0 or of the whole pool and a Binomial(0, p) consume no
    random numbers, so each kind of generation draws only what it needs.
    """
    p0 = i / N
    new_i = rng.binomial(N - refill_active, p0) + rng.hypergeometric(j, M - j, refill_active)
    new_j = rng.hypergeometric(j, M - j, M - refill_bank) + rng.binomial(refill_bank, p0)
    return new_i, new_j


def wf_step(s: WFState, cfg: WFConfig, rng, stats: Optional[dict] = None) -> WFState:
    """One generation, with the rare coordinated events if ``cfg.sim_switching`` is set.

    With probability rate_f/N an F flood refills round(zN) active slots,
    z ~ mu_f, from the seed bank (capped at M, counted in
    ``stats["capped_floods"]``; events in ``stats["f_events"]``).  With
    probability rate_d/N a D event replaces round(zM) of the seed bank,
    z ~ mu_d, by active offspring (``stats["d_events"]``).  Otherwise an
    ordinary generation exchanges c* individuals each way (clamps in
    ``stats["clamped_exchanges"]``).
    """
    N, M = cfg.N, cfg.M
    sw = cfg.sim_switching
    refill = None
    if sw is not None:
        u = rng.random()
        p_f = sw.rate_f / N
        if u < p_f:
            k = int(round(sample_location(sw.mu_f, rng) * N))
            _tally(stats, "capped_floods", int(k > M))
            _tally(stats, "f_events")
            refill = (min(k, M), 0)
        elif u < p_f + sw.rate_d / N:
            _tally(stats, "d_events")
            refill = (0, int(round(sample_location(sw.mu_d, rng) * M)))
    if refill is None:
        c_star, clamped = _exchange(cfg, rng)
        _tally(stats, "clamped_exchanges", clamped)
        refill = (c_star, c_star)
    new_i, new_j = _generation(s.i, s.j, *refill, N, M, rng)
    return WFState(i=int(new_i), j=int(new_j), generation=s.generation + 1)


@dataclass
class WFTrajectory:
    """Recorded frequency path of one forward run."""

    cfg: WFConfig
    generations: np.ndarray  # recorded generation numbers
    i: np.ndarray
    j: np.ndarray
    fixation_generation: Optional[int]  # first generation with both pools monochrome
    stats: dict

    @property
    def x(self) -> np.ndarray:
        return self.i / self.cfg.N

    @property
    def y(self) -> np.ndarray:
        return self.j / self.cfg.M


def _start_counts(cfg: WFConfig, x0: float, y0: float) -> tuple[int, int]:
    """The type-0 counts of the nearest representable start i/N, j/M."""
    if not (0.0 <= x0 <= 1.0 and 0.0 <= y0 <= 1.0):
        raise ValueError("initial frequencies must lie in [0, 1]")
    return int(round(x0 * cfg.N)), int(round(y0 * cfg.M))


def _fixed(i, j, N, M):
    """Whether both pools are monochrome for one type; for ints or per-lane arrays."""
    return ((i == 0) & (j == 0)) | ((i == N) & (j == M))


def run_trajectory(
    cfg: WFConfig,
    x0: float,
    y0: float,
    generations: int,
    record_every: int = 1,
    seed=None,
) -> WFTrajectory:
    """Run one forward trajectory, recording every ``record_every`` generations.

    Initial counts are the nearest representable i/N and j/M.  After both
    pools become monochrome for the same type the remaining records are
    filled with the absorbed state.  Bit-identical rerun for a fixed seed.
    """
    i0, j0 = _start_counts(cfg, x0, y0)
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    rng = as_rng(seed)
    N, M = cfg.N, cfg.M
    state = WFState(i=i0, j=j0, generation=0)
    stats: dict = {}
    rec_g = [0]
    rec_i = [state.i]
    rec_j = [state.j]
    fixation = 0 if _fixed(i0, j0, N, M) else None
    for g in range(1, generations + 1):
        if fixation is None:
            state = wf_step(state, cfg, rng, stats)
            if _fixed(state.i, state.j, N, M):
                fixation = state.generation
        else:
            state = WFState(i=state.i, j=state.j, generation=g)
        if g % record_every == 0:
            rec_g.append(g)
            rec_i.append(state.i)
            rec_j.append(state.j)
    return WFTrajectory(
        cfg=cfg,
        generations=np.array(rec_g, dtype=np.int64),
        i=np.array(rec_i, dtype=np.int64),
        j=np.array(rec_j, dtype=np.int64),
        fixation_generation=fixation,
        stats=stats,
    )


@dataclass
class WFEnsembleResult:
    """Terminal states of a vectorized batch of spontaneous-model runs."""

    i: np.ndarray
    j: np.ndarray
    fixed_generation: np.ndarray  # -1 where the run did not fix
    clamped_exchanges: int
    fixation: FixationStats  # fixed_11: all type 0 (x = y = 1); fixed_00: all type 1


def wf_ensemble(
    cfg: WFConfig,
    x0: float,
    y0: float,
    reps: int,
    generations: int,
    seed=None,
) -> WFEnsembleResult:
    """Run many spontaneous-model replicates in lockstep (vectorized).

    A lane stops drawing once it fixes; its corner is a fixed point of the
    generation, so stopping changes the stream but not the law.  Rare
    coordinated events are not supported here; use run_trajectory.
    """
    check_reps(reps)
    if cfg.sim_switching is not None and (
        cfg.sim_switching.rate_f > 0 or cfg.sim_switching.rate_d > 0
    ):
        raise ValueError("the vectorized ensemble only covers the spontaneous model")
    i0, j0 = _start_counts(cfg, x0, y0)
    rng = as_rng(seed)
    N, M = cfg.N, cfg.M
    i = np.full(reps, i0, dtype=np.int64)
    j = np.full(reps, j0, dtype=np.int64)
    fixed_gen = np.where(_fixed(i, j, N, M), 0, -1)
    clamped = 0
    # the live lanes in lane order: ids and counts; a lane leaves these
    # arrays, its counts going back to i and j, only when it fixes
    lane = np.flatnonzero(fixed_gen < 0)
    li, lj = i[lane], j[lane]
    for g in range(1, generations + 1):
        if lane.size == 0:
            break
        c_star, n_clamped = _exchange(cfg, rng, lane.size)
        clamped += n_clamped
        li, lj = _generation(li, lj, c_star, c_star, N, M, rng)
        hit = _fixed(li, lj, N, M)
        if hit.any():
            i[lane[hit]], j[lane[hit]], fixed_gen[lane[hit]] = li[hit], lj[hit], g
            lane, li, lj = lane[~hit], li[~hit], lj[~hit]
    i[lane], j[lane] = li, lj
    fixed = fixed_gen >= 0
    return WFEnsembleResult(
        i=i, j=j, fixed_generation=fixed_gen, clamped_exchanges=clamped,
        fixation=FixationStats(reps=reps, fixed_11=int(np.count_nonzero(fixed & (i == N))),
                               fixed_00=int(np.count_nonzero(fixed & (i == 0)))),
    )
