"""INI configuration: scenario parameters plus experiment defaults.

All dB/dBm quantities stay in their dB form inside the file and the
ScenarioConfig; conversion to watts and linear ratios happens through the
config properties, never inside solvers.
"""

import configparser
from dataclasses import dataclass, fields

from .channel import ScenarioConfig
from .errors import ConfigError

_SECTIONS = ("scenario", "experiment")


@dataclass(frozen=True)
class Settings:
    """Validated scenario parameters and experiment-scale defaults."""

    scenario: ScenarioConfig
    trials: int = 1000
    error_draws: int = 10_000


def _parse_scalar(section, key, raw, want_int):
    try:
        return int(raw) if want_int else float(raw)
    except ValueError:
        kind = "an integer" if want_int else "a number"
        raise ConfigError(
            f"[{section}] {key} must be {kind}, got {raw!r}") from None


def _read_section(parser, section, schema):
    """{key: value} of one section, each parsed as its dataclass field's
    type; keys outside schema (an iterable of fields) are refused."""
    types = {f.name: f.type for f in schema}
    values = {}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown [{section}] key {key!r}")
            values[key] = _parse_scalar(section, key, raw,
                                        types[key] is int)
    return values


def load_config(path):
    """Read and validate an INI file into Settings."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        loaded = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not loaded:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")

    scenario = ScenarioConfig(
        **_read_section(parser, "scenario", fields(ScenarioConfig)))
    scenario.validate()
    experiment = _read_section(
        parser, "experiment",
        [f for f in fields(Settings) if f.name != "scenario"])
    for key, value in experiment.items():
        if value < 1:
            raise ConfigError(f"[experiment] {key} must be >= 1")
    return Settings(scenario=scenario, **experiment)
