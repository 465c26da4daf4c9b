"""Exception types shared across the library and the CLI exit-code contract."""

from __future__ import annotations


class SepcontError(Exception):
    """Base class for all library errors."""


class ConfigError(SepcontError):
    """Config file failed to parse or validate (CLI exit 2)."""
