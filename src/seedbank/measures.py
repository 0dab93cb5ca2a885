"""Finite switching measures and the rate integrals built on them.

A :class:`SwitchingMeasure` is a finite measure on (0, 1] represented as a
list of point atoms plus a list of Beta-density components.  Two of them
(one per switching direction) drive the coordinated dormancy events of the
coalescent, the block-counting chain and the jump diffusion.  All rate
integrals the simulators need reduce to closed forms in this class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special

__all__ = [
    "SwitchingMeasure",
    "ModelParams",
    "total_mass",
    "group_switch_rate",
    "small_jump_mass",
    "total_flip_rate",
    "sample_location",
]


@dataclass(frozen=True)
class SwitchingMeasure:
    """Finite measure on (0, 1]: point atoms plus Beta-density components.

    atoms:           tuple of (location, weight), location in (0, 1], weight > 0
    beta_components: tuple of (alpha, beta, mass), all > 0, meaning
                     mass x Beta(alpha, beta) density on (0, 1)
    """

    atoms: tuple[tuple[float, float], ...] = ()
    beta_components: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((float(z), float(w)) for z, w in self.atoms))
        object.__setattr__(
            self,
            "beta_components",
            tuple((float(a), float(b), float(m)) for a, b, m in self.beta_components),
        )
        for z, w in self.atoms:
            if not 0.0 < z <= 1.0:
                raise ValueError(f"atom location must lie in (0, 1], got {z}")
            if not 0.0 < w < math.inf:
                raise ValueError(f"atom weight must be finite and positive, got {w}")
        for a, b, m in self.beta_components:
            if not all(0.0 < v < math.inf for v in (a, b, m)):
                raise ValueError(
                    f"Beta component parameters must be finite and positive, got {(a, b, m)}"
                )

    @classmethod
    def zero(cls) -> "SwitchingMeasure":
        return cls()

    @classmethod
    def atom(cls, z: float, w: float) -> "SwitchingMeasure":
        return cls(atoms=((z, w),))

    def is_zero(self) -> bool:
        return not self.atoms and not self.beta_components


def total_mass(m: SwitchingMeasure) -> float:
    """Total mass of the measure (sum of atom weights and component masses)."""
    return math.fsum(w for _, w in m.atoms) + math.fsum(c[2] for c in m.beta_components)


def group_switch_rate(m: SwitchingMeasure, b: int, k: int | np.ndarray) -> float | np.ndarray:
    """Aggregate rate at which some k-subset of b eligible blocks switches.

    Returns C(b, k) * integral of z^(k-1) (1-z)^(b-k) m(dz), as a float for
    one k or as an array for an integer array of k.  Each atom and each Beta
    component adds the exponential of one log-space term: an atom (z, w)
    gives log C(b, k) + (k-1) log z + (b-k) log(1-z) + log w (``xlogy`` and
    ``xlog1py`` make 0 * log 0 = 0, so an atom at z = 1 flips only k = b), a
    Beta(a, bb) component of mass w gives log C(b, k) + log B(a+k-1, bb+b-k)
    - log B(a, bb) + log w.  The log-space terms lose about 3e-15 * b
    relative.  The rate of a *specific* k-subset is this value divided by
    C(b, k); the simulators sample the subset uniformly after drawing k,
    which is equivalent by exchangeability.
    """
    k = np.asarray(k)
    if np.any((k < 1) | (k > b)):
        raise ValueError(f"flip size k={k} out of range 1..{b}")
    terms = [_special.xlogy(k - 1, z) + _special.xlog1py(b - k, -z) + math.log(w) for z, w in m.atoms]
    terms += [
        _special.betaln(a + k - 1, bb + b - k) - _special.betaln(a, bb) + math.log(mass)
        for a, bb, mass in m.beta_components
    ]
    log_comb = _special.gammaln(b + 1) - _special.gammaln(k + 1) - _special.gammaln(b - k + 1)
    rate = np.exp(log_comb + np.reshape(terms, (len(terms), *k.shape))).sum(axis=0)
    return float(rate) if rate.ndim == 0 else rate


def small_jump_mass(m: SwitchingMeasure, eps: float) -> float:
    """Mass of [0, eps); coefficient of the compensating drift for truncated jumps."""
    _check_eps(eps)
    above = math.fsum(w for z, w in m.atoms if z >= eps)
    for a, b, mass in m.beta_components:
        above += mass * (1.0 - _special.betainc(a, b, eps))
    return max(total_mass(m) - above, 0.0)


def total_flip_rate(m: SwitchingMeasure, b: int) -> float:
    """Sum over k = 1..b of group_switch_rate(m, b, k).

    Equals the integral of (1 - (1-z)^b) / z m(dz), in closed form: for a
    Beta(a, bb) component, (1 - (1-z)^b) / z = sum over j < b of (1-z)^j,
    whose Beta mean is the rising-factorial ratio (bb)_j / (a+bb)_j.
    """
    if b < 1:
        raise ValueError(f"need at least one eligible block, got b={b}")
    out = 0.0
    for z, w in m.atoms:
        out += w * -math.expm1(b * math.log1p(-z)) / z if z < 1.0 else w / z
    for a, bb, mass in m.beta_components:
        moments = [1.0]
        for j in range(b - 1):
            moments.append(moments[-1] * (bb + j) / (a + bb + j))
        out += mass * math.fsum(moments)
    return out


def sample_location(m: SwitchingMeasure, rng) -> float:
    """Draw z from the measure normalized to a probability distribution."""
    tot = total_mass(m)
    if tot <= 0.0:
        raise ValueError("cannot sample from the zero measure")
    u = rng.uniform(0.0, tot)
    acc = 0.0
    for z, w in m.atoms:
        acc += w
        if u <= acc:
            return z
    # u lands past the running sum only by rounding; the last component takes it
    for i, (a, b, mass) in enumerate(m.beta_components, 1):
        acc += mass
        if u <= acc or i == len(m.beta_components):
            return float(rng.beta(a, b))
    return m.atoms[-1][0]


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1), got {eps}")


@dataclass(frozen=True)
class ModelParams:
    """All rates of the dormancy model.

    c          spontaneous switching rate (active -> dormant per line;
               dormant -> active happens at c*K per line)
    K          relative seed bank size; the dormant pool holds N/K individuals
    u1, u2     diffusion mutation rates in the active pool (0->1 and 1->0)
    u1p, u2p   diffusion mutation rates in the dormant pool
    u_active   coalescent mutation rate on active lines (mutations fall at
               rate u_active / 2 per line; same convention for dormant)
    u_dormant  coalescent mutation rate on dormant lines
    lambda_ad  switching measure for coordinated active -> dormant events
    lambda_da  switching measure for coordinated dormant -> active events

    Setting both measures to zero recovers the spontaneous-switching model.
    """

    c: float = 1.0
    K: float = 1.0
    u1: float = 0.0
    u2: float = 0.0
    u1p: float = 0.0
    u2p: float = 0.0
    u_active: float = 0.0
    u_dormant: float = 0.0
    lambda_ad: SwitchingMeasure = field(default_factory=SwitchingMeasure.zero)
    lambda_da: SwitchingMeasure = field(default_factory=SwitchingMeasure.zero)

    def __post_init__(self):
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"relative seed bank size K must be finite and positive, got {self.K}")
        for name in ("c", "u1", "u2", "u1p", "u2p", "u_active", "u_dormant"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"rate {name} must be finite and nonnegative, got {value}")
        if not self.c * self.K < math.inf:
            raise ValueError(
                f"dormant-to-active rate c*K must be finite, got c = {self.c} and K = {self.K}"
            )

    def is_spontaneous(self) -> bool:
        return self.lambda_ad.is_zero() and self.lambda_da.is_zero()
