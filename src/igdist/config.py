"""Experiment configuration: JSON loading and validation.

A config names exactly one model (explicit P or rank-1 factors), the
two root vertex types (1-based in the file, as in all user-facing
labels), per-stage replicate counts, horizons, and a mandatory master
seed.  Unknown keys are rejected so that typos fail loudly, and integer
fields must be JSON integers, never bools, floats or strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .bpsim import DEFAULT_POP_CAP
from .coincidence import SamplingScheme
from .errors import ConfigError, ValidationError
from .model import ModelParams, Rank1Params, _is_integer, rank1_build

_TOP_KEYS = {
    "model",
    "rank1",
    "k1",
    "k2",
    "reps",
    "horizon",
    "depth",
    "seed",
    "workers",
    "output_dir",
    "scheme",
    "population_cap",
}
# reps key -> ExperimentConfig field
_REP_FIELDS = {"graph": "graph_reps", "pool": "pool_size", "bp": "bp_reps"}
# top-level keys holding an integer >= 1, or null where the field's
# default is None
_INTEGER_KEYS = ("k1", "k2", "horizon", "depth", "workers", "population_cap")


@dataclass
class ExperimentConfig:
    """Validated experiment description; k1/k2 are 0-based internally.
    The defaults here are the config file's defaults."""

    params: ModelParams
    seed: int
    k1: int = 0
    k2: int = 0
    graph_reps: int = 1000
    pool_size: int = 1000
    bp_reps: int = 10000
    horizon: int | None = None
    depth: int = 6
    workers: int = 1
    output_dir: str = "out"
    scheme: SamplingScheme | None = None
    population_cap: int = DEFAULT_POP_CAP
    rank1: Rank1Params | None = None
    raw: dict = field(default_factory=dict, repr=False)


def _block(block, name: str, required: tuple, optional: tuple = ()) -> dict:
    """A config sub-object with every required key and no unknown one."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object")
    extra = set(block) - set(required) - set(optional)
    if extra:
        raise ConfigError(f"unknown {name} keys: {sorted(extra)}")
    for key in required:
        if key not in block:
            raise ConfigError(f"{name} block missing '{key}'")
    return block


def _model_from_block(block) -> ModelParams:
    block = _block(block, "model", ("n", "m", "P"))
    return ModelParams(n=block["n"], m=block["m"], P=block["P"])


def _rank1_from_block(block) -> tuple[ModelParams, Rank1Params]:
    block = _block(block, "rank1", ("alpha", "beta", "n", "m"))
    r = Rank1Params(alpha=block["alpha"], beta=block["beta"])
    params, _, _, _ = rank1_build(r, block["n"], block["m"])
    return params, r


def _scheme_from_block(block) -> SamplingScheme:
    block = _block(block, "scheme", ("w", "zA", "zB"), ("wstar",))
    try:
        s = SamplingScheme(
            w=block["w"], draws_a=block["zA"], draws_b=block["zB"],
            excluded=block.get("wstar"),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid scheme: {e}") from e
    return s


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in doc:
        raise ConfigError("seed required")
    if not _is_integer(doc["seed"]):
        raise ConfigError("seed must be an integer")
    if ("model" in doc) == ("rank1" in doc):
        raise ConfigError("exactly one model block required ('model' or 'rank1')")

    rank1 = None
    if "model" in doc:
        params = _model_from_block(doc["model"])
    else:
        params, rank1 = _rank1_from_block(doc["rank1"])

    reps = doc.get("reps", {})
    if not isinstance(reps, dict) or set(reps) - set(_REP_FIELDS):
        raise ConfigError(
            f"reps must be an object with keys among {sorted(_REP_FIELDS)}"
        )
    for key, v in reps.items():
        if not _is_integer(v) or v < 1:
            raise ConfigError(f"reps.{key} must be a positive integer")
    # a key left out takes the ExperimentConfig default
    opts = {_REP_FIELDS[key]: v for key, v in reps.items()}

    for key in _INTEGER_KEYS:
        if key not in doc:
            continue
        v = doc[key]
        nullable = getattr(ExperimentConfig, key) is None
        if not (v is None and nullable) and not (_is_integer(v) and v >= 1):
            raise ConfigError(f"{key} must be an integer >= 1")
        opts[key] = v
    for key in ("k1", "k2"):
        if key in opts:
            if opts[key] > params.K:
                raise ConfigError(f"k1/k2 must be within 1..{params.K}")
            opts[key] -= 1  # 1-based in the file

    if "output_dir" in doc:
        if not isinstance(doc["output_dir"], str):
            raise ConfigError("output_dir must be a string")
        opts["output_dir"] = doc["output_dir"]
    if "scheme" in doc:
        opts["scheme"] = _scheme_from_block(doc["scheme"])

    return ExperimentConfig(
        params=params, rank1=rank1, seed=doc["seed"], raw=doc, **opts
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"parse error in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    try:
        return config_from_dict(doc)
    except ValidationError as e:
        raise ConfigError(f"invalid model in {path}: {e}") from e
