"""Exception types shared across the library and the CLI exit-code contract."""

from __future__ import annotations


class SepcontError(Exception):
    """Base class for all library errors."""


class ConfigError(SepcontError):
    """Config file failed to parse or validate (CLI exit 2)."""


class GroupMismatchError(SepcontError):
    """Operands belong to different group instances."""


class NetMaximalityError(SepcontError):
    """No net element within the required radius; enumeration depth too small."""


class CoverConstructionError(SepcontError):
    """A cover cell exceeded its diameter bound."""


class QuantizerConditionError(SepcontError):
    """A quantizer condition failed during the inductive construction."""


class RefinementExhaustedError(SepcontError):
    """Cell refinement hit the depth cap (CLI exit 3)."""

