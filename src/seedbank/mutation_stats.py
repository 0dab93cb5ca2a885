"""Infinite-sites mutations on genealogies and frequency-spectrum statistics.

Mutations fall on the genealogy as a Poisson process along each line, at
rate u_active/2 while the line is active and u_dormant/2 while it is
dormant.  Every mutation hits a fresh site, so it is carried by exactly the
leaves below the block it landed on; tabulating those leaf counts gives the
site frequency spectrum, from which the detection statistics are computed.

A spectrum depends on the genealogy only through the branch length carried
by blocks of each size and mark, so ``sfs_ensemble`` draws many spectra at
once from the marked block-size chain: every lane keeps its count of blocks
per (size, mark), moves by the ensembles' one-event rule and picks the
blocks an event moves uniformly among those of the right mark.

The difference statistics are implemented in unnormalized numerator form
(theta_pi - theta_H and S - a_n * xi_1); the variance denominators belong to
the wider inference literature and are out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blockcount
from .blockcount import _Clocks, _over_budget, _stalled, _start
from .coalescent import ACTIVE, DORMANT, Genealogy, mark_segments
from .measures import ModelParams
from .streams import as_rng, check_reps

__all__ = [
    "Mutation",
    "MutationSet",
    "SiteFrequencySpectrum",
    "drop_mutations",
    "sfs",
    "sfs_ensemble",
    "segregating_sites",
    "singletons",
    "theta_pi",
    "fay_wu_h",
    "fu_li_d_numerator",
]


@dataclass(frozen=True)
class Mutation:
    block: int  # block id the mutation landed on
    time: float
    mark: str  # mark of the block at placement time
    leaves: frozenset[int]  # sample members below the block


@dataclass
class MutationSet:
    sample_size: int
    mutations: list[Mutation]

    def __len__(self) -> int:
        return len(self.mutations)


@dataclass(frozen=True)
class SiteFrequencySpectrum:
    """Counts xi_1 .. xi_{n-1}: mutations carried by exactly i sampled leaves."""

    sample_size: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.sample_size < 2:
            raise ValueError("the frequency spectrum needs a sample of at least 2")
        if len(self.counts) != self.sample_size - 1:
            raise ValueError(
                f"need {self.sample_size - 1} frequency classes, got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("negative mutation count")


def drop_mutations(g: Genealogy, u_active: float, u_dormant: float, seed=None) -> MutationSet:
    """Place infinite-sites mutations on a completed genealogy.

    Each maximal constant-mark segment of each block's lifetime receives a
    Poisson(rate/2 x length) number of mutations, with the rate picked by the
    segment's mark.  Mutations on the root line are never generated (they
    would not segregate).
    """
    if not g.reached_mrca:
        raise ValueError("mutation dropping needs a genealogy that reached the MRCA")
    if u_active < 0.0 or u_dormant < 0.0:
        raise ValueError("mutation rates must be nonnegative")
    rng = as_rng(seed)
    muts: list[Mutation] = []
    for block, leaves, mark, t0, t1 in mark_segments(g):
        rate = (u_active if mark == ACTIVE else u_dormant) / 2.0
        if rate <= 0.0:
            continue
        count = rng.poisson(rate * (t1 - t0))
        for _ in range(count):
            muts.append(
                Mutation(block=block, time=float(rng.uniform(t0, t1)), mark=mark, leaves=leaves)
            )
    return MutationSet(sample_size=g.sample_size, mutations=muts)


def sfs(g: Genealogy, muts: MutationSet) -> SiteFrequencySpectrum:
    """Histogram of subtended leaf counts."""
    n = g.sample_size
    if muts.sample_size != n:
        raise ValueError("mutation set does not belong to this genealogy")
    counts = [0] * (n - 1)
    for mu in muts.mutations:
        size = len(mu.leaves)
        if not 1 <= size <= n - 1:
            raise ValueError(f"mutation subtends {size} of {n} leaves; not a segregating site")
        counts[size - 1] += 1
    return SiteFrequencySpectrum(sample_size=n, counts=tuple(counts))


# a chunk of lanes holds at most this many block counts, (lane, mark, size)
# entries, so that the state arrays do not grow with the number of replicates
_SFS_ELEMENTS = 1 << 16


def sfs_ensemble(n: int, m: int, params: ModelParams, reps: int, *, seed=None) -> np.ndarray:
    """Site frequency spectra of ``reps`` independent genealogies, as a
    (reps, n + m - 1) int64 array of the counts xi_1 .. xi_{n+m-1}.

    The genealogies start from n active and m dormant singletons and run in
    lockstep on the marked block-size chain, in chunks of about
    ``_SFS_ELEMENTS`` block counts.  Each lane adds count x holding time to
    its branch length per (block size, mark) before every event, until one
    block is left; the root line carries nothing.  xi_i is then one
    Poisson draw of mean u_active/2 x (active length of size-i blocks) +
    u_dormant/2 x (dormant length of size-i blocks), the law of the sum of
    ``drop_mutations``' per-segment counts given the genealogy.

    Raises ValueError for a sample below 2, an unreachable MRCA, reps below
    1, an event time that does not advance the clock and past
    ``blockcount.MAX_EVENTS`` events in a chunk.  Deterministic given the seed.
    """
    s0 = _start((n, m), params, need_mrca=True)
    sample = s0.n + s0.m
    if sample < 2:
        raise ValueError("the frequency spectrum needs a sample of at least 2")
    check_reps(reps)
    rng = as_rng(seed)
    clocks = _Clocks(params, idle_atoms=False)
    out = np.empty((reps, sample - 1), dtype=np.int64)
    chunk = max(1, _SFS_ELEMENTS // (2 * sample))
    for lo in range(0, reps, chunk):
        length = _block_lengths(s0, clocks, rng, min(chunk, reps - lo))[:, :, :-1]
        mean = params.u_active / 2.0 * length[:, 0] + params.u_dormant / 2.0 * length[:, 1]
        out[lo:lo + chunk] = rng.poisson(mean)
    return out


def _block_lengths(s0, clocks: _Clocks, rng, reps: int) -> np.ndarray:
    """Line-time by (lane, mark, block size - 1) of ``reps`` runs to one block.

    Mark 0 is active, 1 dormant.  A merge takes two distinct active blocks
    and a flip of k lines takes k blocks of the flipped mark, each pick
    uniform over the remaining blocks (``_take``), so a flip's sizes are a
    multivariate hypergeometric draw over the size classes.
    """
    size = s0.n + s0.m
    counts = np.zeros((reps, 2, size), dtype=np.int64)
    counts[:, 0, 0], counts[:, 1, 0] = s0.n, s0.m
    length = np.zeros(counts.shape)
    done = np.empty(counts.shape)
    # the live lanes in lane order; a lane leaves these arrays at one block
    lane = np.arange(reps)
    t = np.zeros(reps)
    iterations = 0
    while lane.size:
        iterations += 1
        if iterations > blockcount.MAX_EVENTS:
            raise _over_budget()
        na, ma = counts.sum(axis=2).T
        sums = clocks.rate_sums(na, ma)
        # a clock that overflows (an infinite holding time makes an empty
        # class's length nan) is refused below; near the float limit a
        # length can overflow too, which its Poisson draw then refuses
        with np.errstate(over="ignore", invalid="ignore"):
            dt = rng.standard_exponential(lane.size) / sums[-1]
            t_next = t + dt
            length += counts * dt[:, None, None]
        stalled = ~((t < t_next) & (t_next < math.inf))
        if np.count_nonzero(stalled):
            i = int(np.argmax(stalled))
            raise _stalled(float(t[i]), float(t_next[i]), float(sums[-1][i]))
        t = t_next

        x = rng.random(lane.size)
        x *= sums[-1]
        merged, deactivated, activated, flips = clocks.moves(rng, x, sums, na, ma)
        # the lines each lane moves from active to dormant (negative: to active)
        shift = deactivated.astype(np.int64)
        shift -= activated
        for sel, k, to_dormant in flips:
            shift[sel] = k if to_dormant else -k
        (i,) = np.nonzero(merged)
        if i.size:
            first = _take(rng, counts, i, 0, na[i])
            second = _take(rng, counts, i, 0, na[i] - 1)
            counts[i, 0, first + second + 1] += 1  # sizes first + 1 and second + 1
        (i,) = np.nonzero(shift)
        if i.size:
            k = shift[i]
            mark = (k < 0).astype(np.intp)  # the mark the blocks leave
            pool = np.where(mark, ma[i], na[i])
            k = np.abs(k)
            for r in range(int(k.max())):
                sel = k > r
                picked = _take(rng, counts, i[sel], mark[sel], pool[sel] - r)
                counts[i[sel], 1 - mark[sel], picked] += 1

        one = merged & (na + ma == 2)
        if np.count_nonzero(one):
            done[lane[one]] = length[one]
            keep = ~one
            lane, counts, length, t = lane[keep], counts[keep], length[keep], t[keep]
    return done


def _take(rng, counts: np.ndarray, lanes: np.ndarray, mark, pool: np.ndarray) -> np.ndarray:
    """Remove one block of ``mark`` from each of ``lanes``, uniform over its
    ``pool`` blocks of that mark: a categorical draw over the size classes,
    weighted by count.  Returns the size indices taken."""
    below = np.cumsum(counts[lanes, mark], axis=1) <= rng.integers(pool)[:, None]
    taken = below.sum(axis=1)
    counts[lanes, mark, taken] -= 1
    return taken


def segregating_sites(spectrum: SiteFrequencySpectrum) -> int:
    return sum(spectrum.counts)


def singletons(spectrum: SiteFrequencySpectrum) -> int:
    return spectrum.counts[0]


def theta_pi(spectrum: SiteFrequencySpectrum) -> float:
    """Average pairwise difference: sum of i(n-i) xi_i over C(n, 2)."""
    n = spectrum.sample_size
    num = sum(i * (n - i) * c for i, c in enumerate(spectrum.counts, start=1))
    return num / math.comb(n, 2)


def fay_wu_h(spectrum: SiteFrequencySpectrum) -> float:
    """theta_pi minus the homozygosity-weighted estimator (unnormalized).

    Negative values flag an excess of high-frequency derived mutations.
    """
    n = spectrum.sample_size
    theta_h = sum(i * i * c for i, c in enumerate(spectrum.counts, start=1)) / math.comb(n, 2)
    return theta_pi(spectrum) - theta_h


def fu_li_d_numerator(spectrum: SiteFrequencySpectrum) -> float:
    """S - a_n * xi_1 with a_n the (n-1)-th harmonic number (unnormalized)."""
    n = spectrum.sample_size
    a_n = sum(1.0 / i for i in range(1, n))
    return segregating_sites(spectrum) - a_n * singletons(spectrum)
