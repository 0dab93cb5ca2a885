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

Each key is declared once, in ``_KEYS`` (key -> section, field, parser),
which drives both ``parse_config`` and ``serialize_config``; each
experiment kind once, in ``_DOMAINS`` (kind -> stream domain of its run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .diffusion import _KNOT_MERGE_TOL
from .measures import ModelParams, SwitchingMeasure

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config", "EXPERIMENTS"]

# experiment kind -> stream domain tag of its runner, part of the seeding
# contract; the CLI offers the kinds as subcommands in this order
_DOMAINS = {
    "coalescent": 1, "blockcount": 2, "forward-wf": 3, "diffusion": 4, "duality": 5,
    "tmrca-scan": 6, "coming-down-scan": 7, "stats": 8, "acceptance": 9,
}
EXPERIMENTS = tuple(_DOMAINS)


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


def _list_of(item):
    return lambda raw: tuple(item(v) for v in raw.replace(",", " ").split())


# config key -> (section, field, parser) in the order of the text form; a
# [model] field belongs to ModelParams, every other one to ExperimentConfig
_KEYS = {
    "seed": ("run", "seed", int),
    "out": ("run", "out", str),
    **{key: ("model", key, float)
       for key in ("c", "K", "u1", "u2", "u1p", "u2p", "u_active", "u_dormant")},
    "kind": ("experiment", "experiment", str),
    "n": ("experiment", "n", int),
    "m": ("experiment", "m", int),
    "x0": ("experiment", "x0", float),
    "y0": ("experiment", "y0", float),
    "pop_size": ("experiment", "pop_size", int),
    "generations": ("experiment", "generations", int),
    "exchange_mode": ("experiment", "exchange_mode", str),
    "stop": ("experiment", "stop", str),
    "n_list": ("experiment", "n_list", _list_of(int)),
    "t_probe": ("experiment", "t_probe", float),
    "times": ("experiment", "times", _list_of(float)),
    "xs": ("experiment", "xs", _list_of(float)),
    "ys": ("experiment", "ys", _list_of(float)),
    "reps": ("numeric", "reps", int),
    "dt": ("numeric", "dt", float),
    "T": ("numeric", "horizon", float),
    "eps": ("numeric", "jump_cutoff", float),
    "boundary_tol": ("numeric", "boundary_tol", float),
    "noise_model": ("numeric", "noise_model", str),
    "record_every": ("numeric", "record_every", int),
}
# measure section -> ModelParams field; these sections take atom/beta lines
# and are written between [model] and [experiment]
_MEASURES = {"to-dormant": "lambda_ad", "to-active": "lambda_da"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors: list[tuple[int, str]] = []
    model_fields: dict[str, object] = {}
    cfg_fields: dict[str, object] = {}
    lines: dict[str, int] = {}  # config key -> line number
    measures = {name: {"atoms": [], "beta_components": []} for name in _MEASURES}
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _MEASURES and name not in {sec for sec, _, _ in _KEYS.values()}:
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
        key, raw_val = key.strip(), raw_val.strip()
        if _KEYS.get(key, ("",))[0] != section:
            errors.append((lineno, f"unknown key {key!r} in section [{section}]"))
            continue
        _, name, parse = _KEYS[key]
        try:
            value = parse(raw_val)
        except ValueError:
            errors.append((lineno, f"cannot parse value for {key!r}: {raw_val!r}"))
            continue
        if section == "model":
            try:
                ModelParams(**{name: value})  # range check against this line
            except ValueError as exc:
                errors.append((lineno, str(exc)))
                continue
        (model_fields if section == "model" else cfg_fields)[name] = value
        lines[key] = lineno

    if errors:
        raise ConfigError(errors)

    try:
        model = ModelParams(
            **{attr: SwitchingMeasure(**measures[sec]) for sec, attr in _MEASURES.items()},
            **model_fields,
        )
    except ValueError as exc:  # c*K, the one model check across two lines
        raise ConfigError([(max(lines.get("c", 1), lines.get("K", 1)), str(exc))]) from exc
    try:
        return ExperimentConfig(model=model, **cfg_fields)
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
        (
            "dt",  # below this, grid points merge into knots
            not 0 < cfg.dt < 2 * _KNOT_MERGE_TOL,
            f"dt must be at least {2 * _KNOT_MERGE_TOL}, got {cfg.dt}",
        ),
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
        (
            "times",  # the bound on dt: a first step near 1e-19 would overflow the binomial trials
            not any(0.0 < t < 2 * _KNOT_MERGE_TOL for t in cfg.times),
            f"positive times must be at least {2 * _KNOT_MERGE_TOL}, got {list(cfg.times)}",
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


def _text(value) -> str:
    """Text form of a value: shortest round-trip floats (numpy's too, without
    their type name), tuples space-separated."""
    if isinstance(value, tuple):
        return " ".join(_text(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    out: list[str] = []
    section = None
    for key, (key_section, name, _) in _KEYS.items():
        if key_section != section:
            if section == "model":
                for measure_section, measure_name in _MEASURES.items():
                    measure = getattr(cfg.model, measure_name)
                    out += ["", f"[{measure_section}]"]
                    out += [f"atom {_text(atom)}" for atom in measure.atoms]
                    out += [f"beta {_text(comp)}" for comp in measure.beta_components]
            out += ["", f"[{key_section}]"]
            section = key_section
        out.append(f"{key} = {_text(getattr(cfg.model if section == 'model' else cfg, name))}")
    return "\n".join(out[1:]) + "\n"
