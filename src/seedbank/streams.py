"""Splittable random streams for reproducible parallel Monte Carlo.

Every stochastic routine in this package takes a ``seed`` argument that is
either a plain integer, a ``numpy.random.SeedSequence`` or an already
constructed ``numpy.random.Generator``.  Replicated experiments derive one
independent child stream per unit of work with :func:`substream`, so that
aggregate results do not depend on scheduling order or on the number of
worker processes.

The mixing function is ``SeedSequence(master_seed, spawn_key=key)``: two
distinct keys yield statistically independent PCG64 streams, and the same
``(master_seed, key)`` pair always yields the same stream.

:func:`mean_stderr` is the one place replicate values become a mean and its
standard error, and :func:`check_reps` the one check on a replicate count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["substream", "as_rng", "check_reps", "mean_stderr"]


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the child generator identified by ``key`` under ``master_seed``.

    ``key`` is any tuple of nonnegative integers below 2**32, by convention
    ``(domain, index, ...)`` where ``domain`` tags the experiment or module
    and ``index`` counts replicates or work blocks.
    """
    if any(k < 0 or k >= 2**32 for k in key):
        raise ValueError(f"stream key components must be uint32, got {key}")
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def as_rng(seed) -> np.random.Generator:
    """Coerce an int, SeedSequence, Generator or None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_reps(reps) -> None:
    """Refuse a replicate count below 1 before anything is drawn."""
    if not reps >= 1:
        raise ValueError(f"reps must be at least 1, got {reps}")


def mean_stderr(values) -> tuple[float, float]:
    """Sample mean and its standard error (ddof = 1; 0 for a single value)."""
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se
