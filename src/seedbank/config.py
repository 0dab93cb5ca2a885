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
    """One experiment: model rates, experiment choice, numeric knobs, seed, output."""

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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment kind {self.experiment!r}")


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
    values: dict[str, object] = {}
    measures: dict[str, list] = {"to-dormant": [], "to-active": []}
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
        if section in ("to-dormant", "to-active"):
            parts = line.split()
            if parts[0] == "atom" and len(parts) == 3:
                try:
                    measures[section].append(("atom", float(parts[1]), float(parts[2])))
                except ValueError:
                    errors.append((lineno, f"malformed atom line {line!r}"))
            elif parts[0] == "beta" and len(parts) == 4:
                try:
                    measures[section].append(
                        ("beta", float(parts[1]), float(parts[2]), float(parts[3]))
                    )
                except ValueError:
                    errors.append((lineno, f"malformed beta line {line!r}"))
            else:
                errors.append(
                    (lineno, f"expected 'atom z w' or 'beta alpha beta mass', got {line!r}")
                )
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
            values[(section, key)] = _parse_value(registry[key], raw_val)
        except ValueError:
            errors.append((lineno, f"cannot parse value for {key!r}: {raw_val!r}"))

    def build_measure(name):
        atoms = tuple((e[1], e[2]) for e in measures[name] if e[0] == "atom")
        betas = tuple((e[1], e[2], e[3]) for e in measures[name] if e[0] == "beta")
        return SwitchingMeasure(atoms=atoms, beta_components=betas)

    if errors:
        raise ConfigError(errors)

    model_kwargs = {key: v for (sec, key), v in values.items() if sec == "model"}
    try:
        model = ModelParams(
            lambda_ad=build_measure("to-dormant"),
            lambda_da=build_measure("to-active"),
            **model_kwargs,
        )
    except ValueError as exc:
        line = _line_of(text, "model") or _line_of(text, "to-dormant") or 1
        raise ConfigError([(line, str(exc))]) from exc

    cfg_kwargs: dict = {"model": model}
    for (sec, key), v in values.items():
        if sec == "model":
            continue
        cfg_kwargs[_RENAMES.get(key, key)] = v
    try:
        cfg = ExperimentConfig(**cfg_kwargs)
        _validate_ranges(cfg)
    except ValueError as exc:
        raise ConfigError([(1, str(exc))]) from exc
    return cfg


def _line_of(text: str, section: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() == f"[{section}]":
            return lineno
    return None


def _validate_ranges(cfg: ExperimentConfig) -> None:
    if cfg.reps < 1:
        raise ValueError(f"reps must be positive, got {cfg.reps}")
    if cfg.dt <= 0 or cfg.horizon <= 0:
        raise ValueError("dt and T must be positive")
    if not 0 < cfg.jump_cutoff < 1:
        raise ValueError(f"eps must lie in (0, 1), got {cfg.jump_cutoff}")
    if cfg.stop not in ("mrca", "horizon"):
        raise ValueError(f"stop must be 'mrca' or 'horizon', got {cfg.stop!r}")
    if cfg.exchange_mode not in ("fixed", "binomial"):
        raise ValueError(f"exchange_mode must be 'fixed' or 'binomial', got {cfg.exchange_mode!r}")
    if cfg.noise_model not in ("binomial", "gaussian"):
        raise ValueError(f"noise_model must be 'binomial' or 'gaussian', got {cfg.noise_model!r}")
    if cfg.n < 0 or cfg.m < 0 or cfg.n + cfg.m < 1:
        raise ValueError("need n + m >= 1 sampled lines")
    if not (0.0 <= cfg.x0 <= 1.0 and 0.0 <= cfg.y0 <= 1.0):
        raise ValueError("x0 and y0 must lie in [0, 1]")
    if cfg.pop_size < 1 or cfg.generations < 0:
        raise ValueError("pop_size must be >= 1 and generations >= 0")


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
