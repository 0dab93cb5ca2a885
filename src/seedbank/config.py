"""Plain-text experiment configuration: parsing, validation, serialization.

The format is sectioned key-value text:

    [run]
    seed = 42
    out = results

    [model]
    c = 1.0
    K = 2.0

    [to-dormant]
    atom 0.5 0.4
    beta 2.0 2.0 0.6

    [experiment]
    kind = duality

    [numeric]
    reps = 10000
    dt = 0.001

``atom z w`` and ``beta alpha beta mass`` lines are only valid inside the
two measure sections ([to-dormant] builds the active-to-dormant measure,
[to-active] the reverse one).  Unknown sections or keys, malformed values
and range violations are all collected and reported with their line
numbers.  Omitted keys take the documented defaults below and are echoed
into every output file, so a result is always reproducible from its own
header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .measures import ModelParams, SwitchingMeasure

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config", "EXPERIMENTS"]

EXPERIMENTS = (
    "coalescent",
    "blockcount",
    "forward-wf",
    "diffusion",
    "duality",
    "tmrca-scan",
    "coming-down-scan",
    "stats",
    "acceptance",
)


class ConfigError(ValueError):
    """Carries every (line number, message) pair found while parsing."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in errors)
        super().__init__(lines)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model rates, experiment choice, numeric knobs, seed, output.

    Every value is range-checked on construction, so a config built from
    text and one changed by a command-line override pass the same checks.
    """

    # [run]
    seed: int = 0
    out: str = "seedbank-out"
    # [model] + measure sections
    model: ModelParams = field(default_factory=ModelParams)
    # [experiment]
    experiment: str = "duality"
    n: int = 4  # sample sizes for the ancestral-side experiments
    m: int = 0
    x0: float = 0.3  # initial frequencies for the forward-side experiments
    y0: float = 0.7
    pop_size: int = 100  # active pool size of the forward model
    generations: int = 20000
    exchange_mode: str = "binomial"
    stop: str = "mrca"  # "mrca" or "horizon"
    n_list: tuple[int, ...] = (100, 1000, 10000)
    t_probe: float = 0.05
    times: tuple[float, ...] = (0.1, 0.5, 2.0)  # duality time grid
    xs: tuple[float, ...] = (0.2, 0.8)  # duality initial-frequency grid
    ys: tuple[float, ...] = (0.2, 0.8)
    # [numeric]
    reps: int = 10000
    dt: float = 1e-3
    horizon: float = 2.0
    jump_cutoff: float = 1e-3
    boundary_tol: float = 0.0
    noise_model: str = "binomial"
    record_every: int = 1

    def __post_init__(self):
        problems = _range_errors(self)
        if problems:
            raise _RangeError(problems)


class _RangeError(ValueError):
    """Values out of range, as (config key, message) pairs."""

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = problems
        super().__init__("; ".join(msg for _, msg in problems))


_RUN_KEYS = {"seed": int, "out": str}
_MODEL_KEYS = {k: float for k in ("c", "K", "u1", "u2", "u1p", "u2p", "u_active", "u_dormant")}
_EXPERIMENT_KEYS = {
    "kind": str,
    "n": int,
    "m": int,
    "x0": float,
    "y0": float,
    "pop_size": int,
    "generations": int,
    "exchange_mode": str,
    "stop": str,
    "n_list": "int_list",
    "t_probe": float,
    "times": "float_list",
    "xs": "float_list",
    "ys": "float_list",
}
_NUMERIC_KEYS = {
    "reps": int,
    "dt": float,
    "T": float,
    "eps": float,
    "boundary_tol": float,
    "noise_model": str,
    "record_every": int,
}
# config key -> dataclass field where the names differ
_RENAMES = {"T": "horizon", "eps": "jump_cutoff", "kind": "experiment"}

_SECTIONS = {
    "run": _RUN_KEYS,
    "model": _MODEL_KEYS,
    "experiment": _EXPERIMENT_KEYS,
    "numeric": _NUMERIC_KEYS,
    "to-dormant": None,  # measure sections take atom/beta lines
    "to-active": None,
}


def _parse_value(kind, raw: str):
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is str:
        return raw
    if kind == "int_list":
        return tuple(int(v) for v in raw.replace(",", " ").split())
    if kind == "float_list":
        return tuple(float(v) for v in raw.replace(",", " ").split())
    raise AssertionError(kind)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors: list[tuple[int, str]] = []
    values: dict[str, object] = {}  # config keys are unique across sections
    lines: dict[str, int] = {}
    measures = {name: {"atoms": [], "beta_components": []} for name in ("to-dormant", "to-active")}
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append((lineno, f"unknown section [{name}]"))
                section = "__skip__"
            else:
                section = name
            continue
        if section is None:
            errors.append((lineno, "content before the first section header"))
            continue
        if section == "__skip__":
            continue
        if section in measures:
            kind, *nums = line.split()
            field_name, arity = {"atom": ("atoms", 2), "beta": ("beta_components", 3)}.get(
                kind, (None, -1)
            )
            if len(nums) != arity:
                errors.append(
                    (lineno, f"expected 'atom z w' or 'beta alpha beta mass', got {line!r}")
                )
                continue
            try:
                entry = tuple(float(v) for v in nums)
                SwitchingMeasure(**{field_name: (entry,)})  # range check against this line
            except ValueError as exc:
                errors.append((lineno, f"invalid {kind} line {line!r}: {exc}"))
                continue
            measures[section][field_name].append(entry)
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        registry = _SECTIONS[section]
        if key not in registry:
            errors.append((lineno, f"unknown key {key!r} in section [{section}]"))
            continue
        try:
            value = _parse_value(registry[key], raw_val)
        except ValueError:
            errors.append((lineno, f"cannot parse value for {key!r}: {raw_val!r}"))
            continue
        if section == "model":
            try:
                ModelParams(**{key: value})  # range check against this line
            except ValueError as exc:
                errors.append((lineno, str(exc)))
                continue
        values[key] = value
        lines[key] = lineno

    if errors:
        raise ConfigError(errors)

    model = ModelParams(
        lambda_ad=SwitchingMeasure(**measures["to-dormant"]),
        lambda_da=SwitchingMeasure(**measures["to-active"]),
        **{key: v for key, v in values.items() if key in _MODEL_KEYS},
    )
    cfg_kwargs = {_RENAMES.get(key, key): v for key, v in values.items() if key not in _MODEL_KEYS}
    try:
        return ExperimentConfig(model=model, **cfg_kwargs)
    except _RangeError as exc:
        raise ConfigError(sorted((lines.get(key, 1), msg) for key, msg in exc.problems)) from exc


def _range_errors(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """(config key, message) for every value out of range."""
    out_ok = "#" not in cfg.out and cfg.out == cfg.out.strip() and len(cfg.out.splitlines()) <= 1
    checks = (
        ("kind", cfg.experiment in EXPERIMENTS, f"unknown experiment kind {cfg.experiment!r}"),
        ("out", out_ok, f"out must be one line without '#' or surrounding blanks, got {cfg.out!r}"),
        ("reps", cfg.reps >= 1, f"reps must be positive, got {cfg.reps}"),
        ("dt", 0 < cfg.dt < math.inf, f"dt must be finite and positive, got {cfg.dt}"),
        ("T", 0 < cfg.horizon < math.inf, f"T must be finite and positive, got {cfg.horizon}"),
        (
            "dt",
            not (0 < cfg.dt < math.inf and 0 < cfg.horizon < math.inf) or cfg.dt <= cfg.horizon,
            f"dt must not exceed T, got dt = {cfg.dt} and T = {cfg.horizon}",
        ),
        (
            "boundary_tol",
            0 <= cfg.boundary_tol < 0.5,
            f"boundary_tol must lie in [0, 0.5), got {cfg.boundary_tol}",
        ),
        ("eps", 0 < cfg.jump_cutoff < 1, f"eps must lie in (0, 1), got {cfg.jump_cutoff}"),
        ("stop", cfg.stop in ("mrca", "horizon"), f"stop must be 'mrca' or 'horizon', got {cfg.stop!r}"),
        (
            "exchange_mode",
            cfg.exchange_mode in ("fixed", "binomial"),
            f"exchange_mode must be 'fixed' or 'binomial', got {cfg.exchange_mode!r}",
        ),
        (
            "noise_model",
            cfg.noise_model in ("binomial", "gaussian"),
            f"noise_model must be 'binomial' or 'gaussian', got {cfg.noise_model!r}",
        ),
        ("n", cfg.n >= 0, f"n must be nonnegative, got {cfg.n}"),
        ("m", cfg.m >= 0, f"m must be nonnegative, got {cfg.m}"),
        ("n", cfg.n + cfg.m >= 1, "need n + m >= 1 sampled lines"),
        ("x0", 0.0 <= cfg.x0 <= 1.0, f"x0 must lie in [0, 1], got {cfg.x0}"),
        ("y0", 0.0 <= cfg.y0 <= 1.0, f"y0 must lie in [0, 1], got {cfg.y0}"),
        ("pop_size", cfg.pop_size >= 1, f"pop_size must be >= 1, got {cfg.pop_size}"),
        ("generations", cfg.generations >= 0, f"generations must be >= 0, got {cfg.generations}"),
        ("record_every", cfg.record_every >= 1, f"record_every must be >= 1, got {cfg.record_every}"),
        ("t_probe", cfg.t_probe > 0, f"t_probe must be positive, got {cfg.t_probe}"),
        (
            "times",
            all(0.0 <= t < math.inf for t in cfg.times) and any(t > 0.0 for t in cfg.times),
            f"times must be finite and >= 0 with a positive largest entry, got {list(cfg.times)}",
        ),
        *(
            (key, bool(v) and all(0.0 <= f <= 1.0 for f in v),
             f"{key} must be a nonempty list of entries in [0, 1], got {list(v)}")
            for key, v in (("xs", cfg.xs), ("ys", cfg.ys))
        ),
        (
            "n_list",
            bool(cfg.n_list) and all(n >= 1 for n in cfg.n_list),
            f"n_list must be a nonempty list of entries >= 1, got {list(cfg.n_list)}",
        ),
    )
    return [(key, msg) for key, ok, msg in checks if not ok]


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    m = cfg.model
    out = ["[run]", f"seed = {cfg.seed}", f"out = {cfg.out}", "", "[model]"]
    for key in _MODEL_KEYS:
        out.append(f"{key} = {getattr(m, key)!r}")
    for section, measure in (("to-dormant", m.lambda_ad), ("to-active", m.lambda_da)):
        out += ["", f"[{section}]"]
        for z, w in measure.atoms:
            out.append(f"atom {z!r} {w!r}")
        for a, b, mass in measure.beta_components:
            out.append(f"beta {a!r} {b!r} {mass!r}")
    out += ["", "[experiment]", f"kind = {cfg.experiment}"]
    for key, kind in _EXPERIMENT_KEYS.items():
        if key == "kind":
            continue
        val = getattr(cfg, _RENAMES.get(key, key))
        if kind in ("int_list", "float_list"):
            out.append(f"{key} = {' '.join(repr(v) for v in val)}")
        else:
            out.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    out += ["", "[numeric]"]
    for key, kind in _NUMERIC_KEYS.items():
        val = getattr(cfg, _RENAMES.get(key, key))
        out.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    return "\n".join(out) + "\n"
