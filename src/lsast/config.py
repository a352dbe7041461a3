"""Runtime configuration: defaults, JSON config file, environment overrides.

Precedence is defaults < config file < LSAST_* environment variables.
Secrets never belong in the file: the API key is read from LSAST_API_KEY
and the report-platform token from LSAST_HACKTIVITY_TOKEN at the point of
use, and any secret-looking key in the config file is rejected outright.
"""

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .annotate import DEFAULT_LINE_BUDGET
from .errors import ConfigurationError
from .index import DEFAULT_DIMENSION, DEFAULT_K
from .prompts import DEFAULT_PROMPT_CHAR_BUDGET
from .sast import DEFAULT_SCANNER_TIMEOUT

ENV_PREFIX = "LSAST_"

# Config keys that smell like credentials. Rejected, not honored: secrets
# are environment-only so they cannot leak via committed config files.
_SECRET_FRAGMENTS = ("api_key", "apikey", "token", "secret", "password")


@dataclass
class Config:
    chat_endpoint: str = "mock:"
    chat_model: str = "gpt-4"
    embed_endpoint: str = ""
    embed_model: str = ""
    embed_dimension: int = DEFAULT_DIMENSION
    scanner_command: str = ""
    scanner_timeout: float = DEFAULT_SCANNER_TIMEOUT
    corpus_dir: str = "corpus"
    index_dir: str = "indexes"
    scan_dir: str = "scans"
    fetch_endpoint: str = ""
    k: int = DEFAULT_K
    temperature: float = 0.0
    max_tokens: int = 2048
    parallelism: int = 1
    line_budget: int = DEFAULT_LINE_BUDGET
    prompt_char_budget: int = DEFAULT_PROMPT_CHAR_BUDGET
    retries: int = 2


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}


def _coerce(name: str, raw, target_type):
    if target_type is str:
        if isinstance(raw, str):
            return raw
        raise ConfigurationError(f"{name} must be a string, got {type(raw).__name__}")
    if target_type in (int, float):
        noun = "an integer" if target_type is int else "a number"
        if isinstance(raw, bool):
            raise ConfigurationError(f"{name} must be {noun}")
        if isinstance(raw, (target_type, int, str)):  # an int field refuses floats
            try:
                return target_type(raw)
            except ValueError:
                raise ConfigurationError(f"{name} must be {noun}, got {raw!r}") from None
        raise ConfigurationError(f"{name} must be {noun}, got {type(raw).__name__}")
    raise ConfigurationError(f"{name} has unsupported type")


def _validate(config: Config) -> Config:
    if config.k < 1:
        raise ConfigurationError("k must be >= 1")
    if config.line_budget < 1:
        raise ConfigurationError("line_budget must be >= 1")
    if config.prompt_char_budget < 1:
        raise ConfigurationError("prompt_char_budget must be >= 1")
    if config.max_tokens < 1:
        raise ConfigurationError("max_tokens must be >= 1")
    if config.parallelism < 1:
        raise ConfigurationError("parallelism must be >= 1")
    if config.temperature < 0:
        raise ConfigurationError("temperature must be >= 0")
    if config.retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if config.embed_dimension < 1:
        raise ConfigurationError("embed_dimension must be >= 1")
    if config.scanner_timeout <= 0:
        raise ConfigurationError("scanner_timeout must be > 0")
    return config


def load_config(path=None, env=None) -> Config:
    """Build a Config from defaults, an optional JSON file, and environment.

    Environment variables are the config field names upper-cased with an
    LSAST_ prefix (LSAST_K, LSAST_CHAT_ENDPOINT, ...) and win over the file.

    Raises:
        ConfigurationError: unreadable or non-object JSON, unknown keys,
            secret-looking keys, uncoercible values, or out-of-range values.
    """
    env = os.environ if env is None else env
    values: dict = {}

    if path is not None:
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config {path} must be a JSON object")
        for key, value in raw.items():
            lowered = str(key).lower()
            if any(fragment in lowered for fragment in _SECRET_FRAGMENTS):
                raise ConfigurationError(
                    f"config key {key!r} looks like a credential; secrets are "
                    "environment-only (LSAST_API_KEY, LSAST_HACKTIVITY_TOKEN)"
                )
            if key not in _FIELDS:
                raise ConfigurationError(f"unknown config key {key!r} in {path}")
            values[key] = _coerce(key, value, _FIELDS[key].type)

    for name in _FIELDS:
        env_name = ENV_PREFIX + name.upper()
        if env_name in env:
            values[name] = _coerce(name, env[env_name], _FIELDS[name].type)

    return _validate(Config(**values))

