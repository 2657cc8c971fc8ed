"""Run configuration: a flat JSON file plus command-line overrides.

Relative paths inside a config file are resolved against the file's own
directory so a config can travel with its data. Defaults are the pipeline's
standard operating point: top_k 70/12, truncation 55/9, temperature 0,
top_p 0.8, 512/1024 new tokens.
"""

import math
import os

from .corpus import MalformedInput, read_json
from .keypoints import TEMPLATE_NAMES

_PATH_FIELDS = ("claims_path", "store_dir", "output_path", "mock_script_path")


class ConfigError(ValueError):
    """Run configuration is incomplete or inconsistent."""


class RunConfig:
    """Every setting, declared with its type and default. Fields are keyword
    arguments only; an unknown one is a ``TypeError``."""

    claims_path: str = ""
    store_dir: str = ""
    output_path: str = "predictions.json"
    backend: str = ""  # "http" | "mock"
    base_url: str = ""
    model_name: str = ""
    mock_script_path: str = ""
    claim_top_k: int = 70
    keypoint_top_k: int = 12
    truncate_claim: int = 55
    truncate_keypoint: int = 9
    k1: float = 1.2
    b: float = 0.75
    temperature: float = 0.0
    top_p: float = 0.8
    max_tokens_keypoints: int = 512
    max_tokens_prediction: int = 1024
    workers: int = 4
    max_attempts: int = 5
    prompt_budget: int = 8000
    prompt_overrides: dict  # each instance gets its own, empty unless given

    def __init__(self, **values):
        for name in values:
            if name not in self.__annotations__:
                raise TypeError(f"RunConfig() got an unknown keyword argument {name!r}")
        self.prompt_overrides = {}
        self.__dict__.update(values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        data = read_json(path)
        if not isinstance(data, dict):
            raise MalformedInput(f"{path}: config must be a JSON object")

        types = cls.__annotations__
        for key, value in data.items():
            if key not in types:
                raise ConfigError(f"unknown config field {key!r} in {path}")
            expected = types[key]
            accepted = (int, float) if expected is float else expected
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"config field {key!r} must be {expected.__name__}")
        cfg = cls(**data)
        for key, val in cfg.prompt_overrides.items():
            if not isinstance(val, str):
                raise ConfigError(f"prompt override {key!r} must be str (a template path)")

        base = os.path.dirname(os.path.abspath(path))
        for name in _PATH_FIELDS:
            value = getattr(cfg, name)
            if value and not os.path.isabs(value):
                setattr(cfg, name, os.path.join(base, value))
        cfg.prompt_overrides = {
            key: val if os.path.isabs(val) else os.path.join(base, val)
            for key, val in cfg.prompt_overrides.items()
        }
        return cfg

    def validate(self, require_backend: bool = True) -> None:
        if not self.claims_path:
            raise ConfigError("claims_path is required")
        if not self.store_dir:
            raise ConfigError("store_dir is required")
        if require_backend:
            if self.backend not in ("http", "mock"):
                raise ConfigError("backend must be 'http' or 'mock'")
            if self.backend == "http" and (not self.base_url or not self.model_name):
                raise ConfigError("backend=http requires base_url and model_name")
            if self.backend == "mock" and not self.mock_script_path:
                raise ConfigError("backend=mock requires mock_script_path")
        if self.claim_top_k < 0 or self.keypoint_top_k < 0:
            raise ConfigError("claim_top_k and keypoint_top_k must be >= 0")
        if self.truncate_claim > self.claim_top_k:
            raise ConfigError(
                f"truncate_claim ({self.truncate_claim}) must not exceed "
                f"claim_top_k ({self.claim_top_k})"
            )
        if self.truncate_keypoint > self.keypoint_top_k:
            raise ConfigError(
                f"truncate_keypoint ({self.truncate_keypoint}) must not exceed "
                f"keypoint_top_k ({self.keypoint_top_k})"
            )
        if self.truncate_claim < 1 or self.truncate_keypoint < 1:
            raise ConfigError("truncate_claim and truncate_keypoint must be >= 1")
        if not self.k1 >= 0:  # NaN too, which JSON allows
            raise ConfigError("k1 must be >= 0")
        if not math.isfinite(self.k1):  # and Infinity
            raise ConfigError("k1 must be finite")
        if not 0 <= self.b <= 1:
            raise ConfigError("b must be in [0, 1]")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if not math.isfinite(self.temperature):
            raise ConfigError("temperature must be finite")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.max_tokens_keypoints <= 0 or self.max_tokens_prediction <= 0:
            raise ConfigError("max token limits must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.prompt_budget < 0:
            raise ConfigError("prompt_budget must be >= 0 (0 turns the guard off)")
        for key in self.prompt_overrides:
            if key not in TEMPLATE_NAMES:
                raise ConfigError(f"unknown prompt override {key!r}")
