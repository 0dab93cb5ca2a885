"""Euler-Maruyama integration of the dormancy frequency diffusion.

State is the pair (x, y) of type-0 frequencies in the active and dormant
pools.  Only x carries Wright-Fisher noise:

    dx = [-u1 x + u2 (1-x) + c (y - x)] dt + sqrt(x (1-x)) dB
    dy = [-u1' y + u2' (1-y) + c K (x - y)] dt

plus, when switching measures are present, jumps x -> x + z (y - x) (F type,
driven by the active->dormant measure) and y -> y + z (x - y) (D type) whose
sizes arrive as a Poisson point process with intensity (1/z) measure(dz).
Each atom and Beta component is an exact Poisson clock: Beta sizes are drawn
by inversion or by thinning a bound, never from a table.  Jumps below the
cutoff are folded into the drift through their first moment (the
compensator (y - x) * mass below the cutoff), which is finite because the
measures are finite.  The state is clamped to [0, 1]^2 after every
update; boundary statistics are therefore always reported together with a
dt-refinement so that discretization-induced hits are visible.

A scalar integrator produces full :class:`Trajectory` records (used by the
delay-representation check); a vectorized batch engine drives the Monte
Carlo experiments (duality, martingale, fixation, boundary hitting).  Both
read one set of drift coefficients and one jump schedule, walk one grid of
knots once, and land a step on each jump.  There is one scalar Euler step for
``integrate`` and one vectorized step for every batch lane; ``integrate``
lands on a knot's jumps inside its walk, and the batch engine advances a
window's jumps in rounds, one jump per lane and round.  The batch engine
keeps its live lanes as compacted arrays in lane order, so a step costs in
proportion to the lanes still running; it writes the full-width state only
where lanes freeze, at snapshots and at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy import special as _special

from .measures import ModelParams, small_jump_mass
from .streams import as_rng, check_reps, mean_stderr

__all__ = [
    "IntegratorSettings",
    "DiffusionState",
    "Trajectory",
    "integrate",
    "delay_residual",
    "duality_lhs_grid",
    "martingale_drift",
    "boundary_hitting_stats",
    "fixation_stats",
    "FixationStats",
    "batch_paths",
    "BatchResult",
]

F_TYPE = "F"  # active pool pulled toward the dormant frequency
D_TYPE = "D"  # dormant pool pulled toward the active frequency

_KNOT_MERGE_TOL = 1e-12

# building the grid peaks at about 66 bytes per step (660 MB at this budget,
# against 150k steps for the longest acceptance run), 32 of them for the list
# it returns; past this many steps a run stops before anything is allocated
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class DiffusionState:
    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"state must lie in the unit square, got {(self.x, self.y)}")


@dataclass(frozen=True)
class IntegratorSettings:
    """Step size, horizon, noise model and the two detection thresholds.

    jump_cutoff   jumps of size below this are drift-compensated instead of
                  simulated
    boundary_tol  sup-norm distance to a corner that counts as fixation, in
                  [0, 1/2) so that no state is near both corners; 0 means
                  exact hits only
    noise_model   "binomial": the active frequency moves by a Binomial(1/dt,
                  p) resampling around the post-drift mean, i.e. one
                  generation of the prelimit population model per step.
                  Same drift and variance p(1-p)dt as the Gaussian step, but
                  with the correct sticky behaviour at the boundaries, where
                  a Gaussian step with clamping provably misses the law (the
                  bias does not vanish with dt; see the moment checks in the
                  test suite).
                  "gaussian": classical Euler-Maruyama increment
                  sqrt(max(x(1-x), 0)) sqrt(dt) xi with clamping.
    record_every  keep every k-th grid point in trajectory output
    """

    horizon: float
    dt: float = 1e-4
    jump_cutoff: float = 1e-3
    boundary_tol: float = 0.0
    noise_model: str = "binomial"
    record_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and positive")
        if not 2 * _KNOT_MERGE_TOL <= self.dt <= self.horizon:  # no grid point merges
            raise ValueError(f"need {2 * _KNOT_MERGE_TOL} <= dt <= horizon")
        if not 0.0 < self.jump_cutoff < 1.0:
            raise ValueError("jump cutoff must lie in (0, 1)")
        if not 0.0 <= self.boundary_tol < 0.5:  # from 1/2 up a state is near both corners
            raise ValueError("boundary tolerance must lie in [0, 0.5)")
        if self.noise_model not in ("binomial", "gaussian"):
            raise ValueError(f"unknown noise model {self.noise_model!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass
class Trajectory:
    """One recorded path with its jump log and terminal flags."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    jumps: list[tuple[float, str, float]]  # (time, "F" or "D", z)
    hit_00: bool
    hit_11: bool
    ran_to_horizon: bool


# ---------------------------------------------------------------------------
# jump machinery
# ---------------------------------------------------------------------------


def _beta_clock(alpha, beta, mass, eps):
    """Poisson clock (rate, draw) of one Beta component's jumps of size >= eps.

    Sizes z arrive at intensity mass/B(alpha, beta) z^(alpha-2) (1-z)^(beta-1)
    on [eps, 1].  For alpha > 1 that is a truncated Beta(alpha-1, beta) law,
    so the rate is closed form and ``draw`` inverts its tail.  For alpha <= 1
    the clock runs at the rate of a bounding intensity g, piecewise in
    h = max(eps, 1/2): g = m1 z^(alpha-2) on [eps, h] and m2 (1-z)^(beta-1)
    on [h, 1], each inverted in closed form; ``draw`` keeps a candidate with
    probability intensity/g and returns nan for one it rejects (thinning,
    Lewis & Shedler 1979).
    """
    if alpha > 1.0:
        tail = float(_special.betaincc(alpha - 1.0, beta, eps))
        rate = mass * (alpha + beta - 1.0) / (alpha - 1.0) * tail

        def draw(n, rng):
            return _special.betainccinv(alpha - 1.0, beta, rng.random(n) * tail)

        return rate, draw

    h = max(eps, 0.5)
    p = alpha - 1.0
    span = math.log(h / eps)
    m1 = 2.0 ** max(1.0 - beta, 0.0)  # bounds (1-z)^(beta-1) on [eps, 1/2]
    m2 = h ** (alpha - 2.0)  # bounds z^(alpha-2) on [h, 1]
    # integral of z^(p-1) over [eps, h], in a form that stays accurate as p -> 0
    lower = m1 * eps**p * span * float(_special.exprel(p * span))
    upper = m2 * (1.0 - h) ** beta / beta
    rate = mass * math.exp(-_special.betaln(alpha, beta)) * (lower + upper)

    def draw(n, rng):
        pick, u, keep = rng.random((3, n))
        low = pick * (lower + upper) < lower
        z = 1.0 - (1.0 - h) * u ** (1.0 / beta)
        ratio = (z / h) ** (alpha - 2.0)
        ul = u[low]
        log_z = span * ul if p == 0.0 else np.log1p(ul * math.expm1(p * span)) / p
        z[low] = eps * np.exp(log_z)
        ratio[low] = (1.0 - z[low]) ** (beta - 1.0) / m1
        return np.where(keep < ratio, z, np.nan)

    return rate, draw


def _schedule(params: ModelParams, eps: float, horizon: float, reps: int, rng):
    """Jumps of size >= eps on [0, horizon] for ``reps`` lanes.

    Returns arrays (t, lane, z, is_f) sorted by (t, lane); is_f marks F-type
    jumps (active->dormant measure).  Every atom and Beta component is its own
    Poisson clock, drawn in the order F atoms, F Beta components, D atoms, D
    Beta components; equal (t, lane) pairs keep that order.  A clock's draw
    may reject a candidate (nan size); its row is dropped.
    """
    parts = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=bool))]
    for measure, is_f in ((params.lambda_ad, True), (params.lambda_da, False)):
        clocks = [(w / z, lambda n, rng, z=z: np.full(n, z)) for z, w in measure.atoms if z >= eps]
        clocks += [_beta_clock(a, b, mass, eps) for a, b, mass in measure.beta_components]
        for rate, draw_sizes in clocks:
            counts = rng.poisson(rate * horizon, size=reps)
            tot = int(counts.sum())
            times = rng.random(tot) * horizon
            lanes = np.repeat(np.arange(reps), counts)
            z = draw_sizes(tot, rng)
            kept = ~np.isnan(z)
            parts.append((times[kept], lanes[kept], z[kept], np.full(tot, is_f)[kept]))
    t, lane, z, is_f = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((lane, t))
    return t[order], lane[order], z[order], is_f[order]


# ---------------------------------------------------------------------------
# shared stepping helpers
# ---------------------------------------------------------------------------


def _drift_coefficients(params: ModelParams, eps: float):
    """Plain floats (u1, u2, u1', u2', pull_f, pull_d) of the Euler drift

        dx = -u1 x + u2 (1-x) + pull_f (y - x)
        dy = -u1' y + u2' (1-y) + pull_d (x - y)

    where the pulls add each measure's mass below the cutoff to the
    spontaneous rates c and c K.
    """
    return (
        float(params.u1),
        float(params.u2),
        float(params.u1p),
        float(params.u2p),
        params.c + float(small_jump_mass(params.lambda_ad, eps)),
        params.c * params.K + float(small_jump_mass(params.lambda_da, eps)),
    )


def _euler_scalar(x, y, h, coeffs, binomial, rng):
    """``integrate``'s Euler step of length h from (x, y), clamped to the unit square."""
    u1, u2, u1p, u2p, pull_f, pull_d = coeffs
    xn = x + (-u1 * x + u2 * (1.0 - x) + pull_f * (y - x)) * h
    if binomial:
        n_eff = max(int(round(1.0 / h)), 1)
        xn = float(rng.binomial(n_eff, min(max(xn, 0.0), 1.0))) / n_eff
    else:
        xn += math.sqrt(max(x * (1.0 - x), 0.0)) * math.sqrt(h) * float(rng.standard_normal())
    yn = y + (-u1p * y + u2p * (1.0 - y) + pull_d * (x - y)) * h
    return min(max(xn, 0.0), 1.0), min(max(yn, 0.0), 1.0)


def _euler_batch(x, y, h, coeffs, binomial, rng):
    """Every batch lane's Euler step of length h from the arrays (x, y);
    returns the new pair, clamped to the unit square.

    h is one float or one per lane; the binomial model resamples a lane from
    max(rint(1/h), 1) individuals.  Lane by lane this is :func:`_euler_scalar`.
    """
    u1, u2, u1p, u2p, pull_f, pull_d = coeffs
    xn = x + (-u1 * x + u2 * (1.0 - x) + pull_f * (y - x)) * h
    if binomial:
        n_eff = np.maximum(np.rint(1.0 / h), 1.0).astype(np.int64)
        # Binomial(n, p) / n lies in [0, 1]: no clamp after the division
        xn = rng.binomial(n_eff, np.clip(xn, 0.0, 1.0, out=xn)) / n_eff
    else:
        xn += np.sqrt(np.maximum(x * (1.0 - x), 0.0)) * np.sqrt(h) * rng.standard_normal(x.size)
        np.clip(xn, 0.0, 1.0, out=xn)
    yn = y + (-u1p * y + u2p * (1.0 - y) + pull_d * (x - y)) * h
    return xn, np.clip(yn, 0.0, 1.0, out=yn)


class _Normals:
    """An explicit standard-normal sequence in place of the generator's draws."""

    def __init__(self, values):
        self._values = iter(values)

    def standard_normal(self):
        v = next(self._values, None)
        if v is None:
            raise ValueError("normals array exhausted before the horizon")
        return v


def _knots(horizon: float, dt: float, extra: Sequence[float]):
    """The knots both integrators walk: the grid times k * dt below the
    horizon, the horizon and the snapshot times clipped to it, sorted by time
    (a grid point before a snapshot at the same time) in one ``lexsort``; a
    point within _KNOT_MERGE_TOL of the last kept knot merges into it.

    Returns (times, {knot index: the requested times it serves}); raises
    ValueError past MAX_STEPS steps or for a snapshot outside [2 *
    _KNOT_MERGE_TOL, horizon], the bound on dt (a first step of about 1e-19
    would need more binomial trials than an int64 holds).
    """
    steps = horizon / dt + 1e-9
    if steps >= MAX_STEPS + 1:
        raise ValueError(f"a grid of T / dt = {steps:.6g} steps is past the step budget of "
                         f"{MAX_STEPS} steps (diffusion.MAX_STEPS); raise dt or lower T")
    snaps = np.array(extra, dtype=float)
    outside = ~((2 * _KNOT_MERGE_TOL <= snaps) & (snaps <= horizon + _KNOT_MERGE_TOL))
    if outside.any():
        raise ValueError(f"snapshot time {float(snaps[outside][0])} outside "
                         f"[{2 * _KNOT_MERGE_TOL}, horizon] (2 * diffusion._KNOT_MERGE_TOL)")
    grid = np.arange(1, int(math.floor(steps)) + 1) * dt
    pts = np.concatenate((grid[grid < horizon - _KNOT_MERGE_TOL], [horizon], np.minimum(snaps, horizon)))
    is_snap = np.repeat([False, True], (pts.size - snaps.size, snaps.size))
    order = np.lexsort((is_snap, pts))
    pts, is_snap = pts[order], is_snap[order]
    keep = np.diff(pts, prepend=-math.inf) >= _KNOT_MERGE_TOL
    if (pts - pts[keep][np.cumsum(keep) - 1] >= _KNOT_MERGE_TOL).any():
        # a run of close points spans the tolerance: merge one by one
        last = -math.inf
        for i, t in enumerate(pts.tolist()):
            keep[i] = t - last >= _KNOT_MERGE_TOL
            last = t if keep[i] else last
    snap_map: dict[int, list[float]] = {}
    for k, s in zip((np.cumsum(keep)[is_snap] - 1).tolist(), pts[is_snap].tolist()):
        snap_map.setdefault(k, []).append(s)
    return pts[keep].tolist(), snap_map


def _near_corners(x, y, tol):
    """Whether (x, y) lies within sup-norm distance tol of (0, 0) and of (1, 1)."""
    return np.maximum(x, y) <= tol, np.minimum(x, y) >= 1.0 - tol


def _corner_absorbing(params: ModelParams) -> tuple[bool, bool]:
    # at a monomorphic corner the migration, noise and jump terms all vanish,
    # so only mutation pressure can re-enter the interior
    abs00 = params.u2 == 0.0 and params.u2p == 0.0
    abs11 = params.u1 == 0.0 and params.u1p == 0.0
    return abs00, abs11


# ---------------------------------------------------------------------------
# scalar integrator
# ---------------------------------------------------------------------------


def integrate(
    params: ModelParams,
    s0: DiffusionState,
    settings: IntegratorSettings,
    seed=None,
    *,
    normals: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate one path on [0, horizon] and record it.

    One walk over the grid knots: before stepping to a knot, the walk
    takes the jumps at or before it in time order, shortening the Euler step
    to land on each jump time and applying the jump.  The state is clamped
    to [0, 1]^2 after every update.  Deterministic given the seed.

    ``normals`` feeds an explicit standard-normal sequence instead of the
    generator's (only allowed without jump measures; used for coupled
    step-size comparisons, and all zeros drop the Brownian term).
    """
    x, y = _as_pair(s0)
    rng = as_rng(seed)
    if normals is not None and (not params.is_spontaneous() or settings.noise_model != "gaussian"):
        raise ValueError("explicit normals need the gaussian noise model and no jump measures")
    schedule = _schedule(params, settings.jump_cutoff, settings.horizon, 1, rng)
    ev_t, _, ev_z, ev_f = (a.tolist() for a in schedule)
    ev_t.append(math.inf)  # sentinel: no knot reaches it

    coeffs = _drift_coefficients(params, settings.jump_cutoff)
    binomial = settings.noise_model == "binomial"
    source = rng if normals is None else _Normals(normals)

    abs00, abs11 = _corner_absorbing(params)
    times, _ = _knots(settings.horizon, settings.dt, ())
    rec_t = [0.0]
    rec_x = [x]
    rec_y = [y]
    jumps: list[tuple[float, str, float]] = []
    ev_pos = 0
    clock = 0.0
    frozen = False
    for k, t_cur in enumerate(times, start=1):
        if not frozen:
            while ev_t[ev_pos] <= t_cur:
                t, z, is_f = ev_t[ev_pos], ev_z[ev_pos], ev_f[ev_pos]
                ev_pos += 1
                if t > clock:  # shorten the step to land on the jump
                    x, y = _euler_scalar(x, y, t - clock, coeffs, binomial, source)
                    clock = t
                if is_f:
                    x = min(max(x + z * (y - x), 0.0), 1.0)
                else:
                    y = min(max(y + z * (x - y), 0.0), 1.0)
                jumps.append((t, F_TYPE if is_f else D_TYPE, z))
            if t_cur > clock:
                x, y = _euler_scalar(x, y, t_cur - clock, coeffs, binomial, source)
                clock = t_cur
            if (x == 0.0 and y == 0.0 and abs00) or (x == 1.0 and y == 1.0 and abs11):
                frozen = True  # exact fixed point of every term; path is constant now
        if k % settings.record_every == 0 or t_cur == times[-1]:
            rec_t.append(t_cur)
            rec_x.append(x)
            rec_y.append(y)

    hit_00, hit_11 = map(bool, _near_corners(x, y, settings.boundary_tol))
    return Trajectory(
        times=np.array(rec_t),
        x=np.array(rec_x),
        y=np.array(rec_y),
        jumps=jumps,
        hit_00=hit_00,
        hit_11=hit_11,
        ran_to_horizon=not (hit_00 or hit_11),
    )


def _as_pair(s0) -> tuple[float, float]:
    """(x, y) of a DiffusionState or of a pair, checked to lie in the unit square."""
    s0 = s0 if isinstance(s0, DiffusionState) else DiffusionState(*map(float, s0))
    return s0.x, s0.y


def delay_residual(traj: Trajectory, params: ModelParams) -> float:
    """Largest deviation of the recorded y path from its convolution form.

    Without jumps and mutation, y is a deterministic exponential-kernel
    average of the x history: y(t) = y0 e^{-cKt} + integral of
    cK e^{-cK(t-s)} x(s) ds.  The integral is accumulated by the trapezoid
    rule on the recorded grid, so the residual measures integrator error and
    shrinks linearly with dt.
    """
    if not params.is_spontaneous():
        raise ValueError("the delay identity holds only without jump measures")
    if any(r > 0.0 for r in (params.u1, params.u2, params.u1p, params.u2p)):
        raise ValueError("the delay identity holds only without mutation")
    if traj.jumps:
        raise ValueError("trajectory contains jumps")
    cK = params.c * params.K
    y0 = float(traj.y[0])
    conv = 0.0
    worst = 0.0
    for k in range(1, len(traj.times)):
        h = float(traj.times[k] - traj.times[k - 1])
        decay = math.exp(-cK * h)
        conv = decay * conv + 0.5 * h * cK * (decay * float(traj.x[k - 1]) + float(traj.x[k]))
        ref = y0 * math.exp(-cK * float(traj.times[k])) + conv
        worst = max(worst, abs(float(traj.y[k]) - ref))
    return worst


# ---------------------------------------------------------------------------
# vectorized batch engine
# ---------------------------------------------------------------------------


_HIT_NAMES = ("x0", "x1", "y0", "y1")  # x or y landed on 0 or 1 at some knot


@dataclass
class BatchResult:
    """Snapshots and terminal data of a vectorized run."""

    snapshots: list[tuple[float, np.ndarray, np.ndarray]]  # (time, x copy, y copy)
    final_x: np.ndarray
    final_y: np.ndarray
    hits: Optional[dict[str, np.ndarray]]  # each of _HIT_NAMES -> bool per lane
    frozen_at: np.ndarray  # time a lane froze at an absorbing corner; nan otherwise
    jump_counts: dict[str, int] = field(default_factory=dict)


def batch_paths(
    params: ModelParams,
    x0: float,
    y0: float,
    settings: IntegratorSettings,
    reps: int,
    seed=None,
    *,
    snapshot_times: Sequence[float] = (),
    track_hits: bool = False,
    freeze_corner_tol: Optional[float] = None,
) -> BatchResult:
    """Integrate ``reps`` independent paths in lockstep.

    The live lanes are compacted arrays in lane order: their indices, their
    (x, y) and, with ``track_hits``, their hit flags.  The one vectorized
    Euler step moves the compacted pair and returns it; the full-width
    ``x`` and ``y`` are written only where lanes freeze, at snapshot knots
    and at the end.  A window between two knots that holds jumps advances
    in rounds: round r takes each live lane whose r-th jump in the window
    is pending, steps it from its own clock to that jump time and applies
    the jump; then every live lane steps to the knot.  With
    ``freeze_corner_tol`` in [0, 1/2), lanes within that sup-norm distance
    of an absorbing corner are snapped onto it, frozen (``frozen_at``
    records when) and dropped from the compacted arrays; the corner is an
    exact fixed point, so only the snap distance is an approximation.  A
    knot with no live lane takes no step, and each snapshot is taken at its
    knot.  Deterministic given the seed.
    """
    check_reps(reps)
    if freeze_corner_tol is not None and not 0.0 <= freeze_corner_tol < 0.5:
        raise ValueError("corner tolerance must lie in [0, 0.5)")  # else near both corners
    x0, y0 = _as_pair((x0, y0))
    rng = as_rng(seed)
    eps = settings.jump_cutoff
    ev_t, ev_lane, ev_z, ev_isf = _schedule(params, eps, settings.horizon, reps, rng)
    coeffs = _drift_coefficients(params, eps)
    binomial = settings.noise_model == "binomial"
    abs00, abs11 = _corner_absorbing(params)
    freezing = freeze_corner_tol is not None and (abs00 or abs11)

    x = np.full(reps, x0)
    y = np.full(reps, y0)
    frozen_at = np.full(reps, np.nan)  # nan while a lane is live
    # one row per name in _HIT_NAMES
    hit_rows = np.zeros((len(_HIT_NAMES), reps), dtype=bool) if track_hits else None
    jump_counts = {F_TYPE: 0, D_TYPE: 0}
    # the live lanes in lane order, their state and their hit flags; only
    # freezing shrinks them
    live = np.arange(reps)
    xs, ys = x.copy(), y.copy()
    flags = hit_rows.copy() if track_hits else None

    def record_hits():
        if flags is not None:
            flags[0] |= xs == 0.0
            flags[1] |= xs == 1.0
            flags[2] |= ys == 0.0
            flags[3] |= ys == 1.0

    def freeze(t):
        """Snap and freeze at t the live lanes near an absorbing corner."""
        nonlocal live, xs, ys, flags
        if not freezing:
            return
        near00, near11 = _near_corners(xs, ys, freeze_corner_tol)
        near = (near00 | near11) if abs00 and abs11 else (near00 if abs00 else near11)
        if not near.any():
            return
        gone = live[near]
        x[gone] = y[gone] = near11[near]  # snapped onto its corner
        frozen_at[gone] = t
        if flags is not None:
            hit_rows[:, gone] = flags[:, near]
            flags = flags[:, ~near]
        live, xs, ys = live[~near], xs[~near], ys[~near]

    record_hits()
    freeze(0.0)

    times, snap_map = _knots(settings.horizon, settings.dt, snapshot_times)
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []
    ev_pos = 0
    next_jump = float(ev_t[0]) if ev_t.size else math.inf
    t_prev = 0.0
    for knot_i, t_cur in enumerate(times):
        if xs.size:
            pending = ()
            if next_jump <= t_cur:
                ev_end = int(np.searchsorted(ev_t, t_cur, side="right"))
                # the window's jumps on live lanes, in time order
                pending = ev_pos + np.flatnonzero(np.isnan(frozen_at[ev_lane[ev_pos:ev_end]]))
                ev_pos = ev_end
                next_jump = float(ev_t[ev_pos]) if ev_pos < ev_t.size else math.inf
                n_f = int(np.count_nonzero(ev_isf[pending]))
                jump_counts[F_TYPE] += n_f
                jump_counts[D_TYPE] += pending.size - n_f
            if len(pending):
                clock = np.full(xs.size, t_prev)
                while pending.size:
                    # the earliest pending jump of each lane that has one
                    lanes, first = np.unique(ev_lane[pending], return_index=True)
                    ev, pending = pending[first], np.delete(pending, first)
                    pos, t = np.searchsorted(live, lanes), ev_t[ev]
                    h = t - clock[pos]
                    move = pos[h > 0.0]
                    xs[move], ys[move] = _euler_batch(xs[move], ys[move], h[h > 0.0], coeffs, binomial, rng)
                    clock[pos] = t
                    xl, yl, z, is_f = xs[pos], ys[pos], ev_z[ev], ev_isf[ev]
                    xs[pos] = np.where(is_f, np.clip(xl + z * (yl - xl), 0.0, 1.0), xl)
                    ys[pos] = np.where(is_f, yl, np.clip(yl + z * (xl - yl), 0.0, 1.0))
                h = t_cur - clock
                move = h > 0.0
                xs[move], ys[move] = _euler_batch(xs[move], ys[move], h[move], coeffs, binomial, rng)
            else:
                xs, ys = _euler_batch(xs, ys, t_cur - t_prev, coeffs, binomial, rng)
            record_hits()
            freeze(t_cur)
        if knot_i in snap_map:
            x[live], y[live] = xs, ys
            for s in snap_map[knot_i]:
                snapshots.append((s, x.copy(), y.copy()))
        t_prev = t_cur

    x[live], y[live] = xs, ys
    if flags is not None:
        hit_rows[:, live] = flags
    return BatchResult(
        snapshots=snapshots,
        final_x=x,
        final_y=y,
        hits=dict(zip(_HIT_NAMES, hit_rows)) if track_hits else None,
        frozen_at=frozen_at,
        jump_counts=jump_counts,
    )


# ---------------------------------------------------------------------------
# Monte Carlo experiments on top of the batch engine
# ---------------------------------------------------------------------------


def _run_settings(settings: Optional[IntegratorSettings], T: float) -> IntegratorSettings:
    """The settings of an experiment run to horizon T (dt = 1e-3 by default)."""
    if settings is None:
        return IntegratorSettings(horizon=T, dt=1e-3)
    return replace(settings, horizon=T)


# the moment exponents (n, m) of the duality grid: n, m <= 2, n + m >= 1
DUALITY_EXPONENTS = tuple((n, m) for n in range(3) for m in range(3) if n + m > 0)


def duality_lhs_grid(
    params: ModelParams,
    x: float,
    y: float,
    exponents: Sequence[tuple[int, int]],
    times: Sequence[float],
    reps: int,
    seed=None,
    settings: Optional[IntegratorSettings] = None,
) -> dict[tuple[int, int, float], tuple[float, float]]:
    """All moment estimates over a grid of exponents and times from one batch.

    Each requested t keys its estimates, a positive one through the snapshot
    time ``_knots`` hands back for it.  The run's horizon is the largest
    positive time; ``settings`` gives the rest.
    """
    x, y = _as_pair((x, y))
    for n, m in exponents:
        if n < 0 or m < 0 or n + m < 1:
            raise ValueError(f"invalid moment exponents {(n, m)}")
    out = {}
    run_times = sorted(set(float(t) for t in times if float(t) > 0.0))
    for t in times:
        if float(t) == 0.0:
            for n, m in exponents:
                out[(n, m, t)] = (x**n * y**m, 0.0)
    if not run_times:
        return out
    settings = _run_settings(settings, max(run_times))
    res = batch_paths(params, x, y, settings, reps, seed, snapshot_times=run_times)
    for t_s, xs, ys in res.snapshots:
        for n, m in exponents:
            out[(n, m, t_s)] = mean_stderr(xs**n * ys**m)
    return out


def martingale_drift(
    params: ModelParams,
    s0,
    T: float,
    checkpoints: Sequence[float],
    reps: int,
    seed=None,
    settings: Optional[IntegratorSettings] = None,
) -> list[tuple[float, float, float]]:
    """Mean of K*X_t + Y_t at each checkpoint, with standard errors.

    Without mutation and jumps this quantity is a bounded martingale, so
    every row should sit at K*x0 + y0 up to Monte Carlo noise.  T is the
    horizon of the run; ``settings`` gives the rest.
    """
    if any(r > 0.0 for r in (params.u1, params.u2, params.u1p, params.u2p)):
        raise ValueError("the martingale check needs zero mutation rates")
    if not params.is_spontaneous():
        raise ValueError("the martingale check needs zero switching measures")
    x0, y0 = _as_pair(s0)
    settings = _run_settings(settings, T)
    res = batch_paths(params, x0, y0, settings, reps, seed, snapshot_times=checkpoints)
    rows = []
    for t_s, xs, ys in res.snapshots:
        rows.append((t_s, *mean_stderr(params.K * xs + ys)))
    return rows


def boundary_hitting_stats(
    params: ModelParams,
    s0,
    T: float,
    reps: int,
    seed=None,
    settings: Optional[IntegratorSettings] = None,
) -> dict[float, dict[str, float]]:
    """Frequencies of each coordinate touching each boundary, at dt and dt/2.

    A lane counts as a hit when the coordinate lands exactly on the clamp
    boundary at any step.  The half-step rerun makes discretization-induced
    hits visible: frequencies that collapse under refinement are Euler
    artifacts, not features of the process.  T is the horizon of both runs;
    ``settings`` gives the rest.
    """
    x0, y0 = _as_pair(s0)
    if not (0.0 < x0 < 1.0 and 0.0 < y0 < 1.0):
        raise ValueError("boundary statistics need an interior start")
    settings = _run_settings(settings, T)
    rng = as_rng(seed)
    out = {}
    for dt in (settings.dt, settings.dt / 2.0):
        res = batch_paths(params, x0, y0, replace(settings, dt=dt), reps, rng, track_hits=True)
        out[dt] = {name: float(flags.mean()) for name, flags in res.hits.items()}
    return out


@dataclass
class FixationStats:
    """Corner counts of a batch of runs, from ``fixation_stats`` or ``wf_ensemble``."""

    reps: int
    fixed_11: int
    fixed_00: int

    @property
    def unfixed(self) -> int:
        return self.reps - self.fixed_11 - self.fixed_00

    @property
    def frac_11(self) -> float:
        return self.fixed_11 / self.reps

    @property
    def frac_00(self) -> float:
        return self.fixed_00 / self.reps

    def se_11(self) -> float:
        p = self.frac_11
        return math.sqrt(p * (1.0 - p) / self.reps)


def fixation_stats(
    params: ModelParams,
    s0,
    T: float,
    reps: int,
    seed=None,
    settings: Optional[IntegratorSettings] = None,
    corner_tol: float = 1e-4,
) -> FixationStats:
    """Corner-absorption frequencies over a batch of trajectories.

    Lanes within ``corner_tol`` of an absorbing corner are snapped onto it
    (the dormant coordinate only approaches the corner exponentially, so an
    exact-zero detection would never fire; the snap bias on the fixation
    probability is at most corner_tol).  Unfixed runs are reported in their
    own bucket, never counted as fixed.  T is the horizon of the run;
    ``settings`` gives the rest.
    """
    x0, y0 = _as_pair(s0)
    if any(r > 0.0 for r in (params.u1, params.u2, params.u1p, params.u2p)):
        raise ValueError("fixation statistics need zero mutation rates")
    settings = _run_settings(settings, T)
    res = batch_paths(params, x0, y0, settings, reps, seed, freeze_corner_tol=corner_tol)
    at00, at11 = _near_corners(res.final_x, res.final_y, corner_tol)
    return FixationStats(reps=reps, fixed_11=int(at11.sum()), fixed_00=int(at00.sum()))
