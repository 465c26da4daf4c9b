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


class QuantizerConditionError(SepcontError):
    """A quantizer condition failed during the inductive construction."""


class RefinementExhaustedError(SepcontError):
    """A stage table paints one cell with two values, so the patches of f
    clash (CLI exit 3); raised only by that clash check."""

