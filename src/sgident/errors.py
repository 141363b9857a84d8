"""Exception hierarchy shared by every module.

Four failure families, kept deliberately coarse: wiring mistakes
(ConfigurationError), arithmetic blowups (NumericError), loss-domain
violations (DomainError) and malformed external data (DataError).
"""

from __future__ import annotations

import math


class SgidentError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SgidentError):
    """Invalid wiring: bad hyperparameters, dimension mismatches, bad configs."""


class NumericError(SgidentError):
    """Non-finite or unstable arithmetic.

    Carries optional ``context`` (step index, regressor, parameters) so a
    failing run can be localised without a debugger.
    """

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = dict(context) if context else {}

    def json_context(self):
        """``context`` as JSON: arrays become lists, non-finite floats strings."""
        return {str(key): _json_safe(value) for key, value in self.context.items()}


def _json_safe(value):
    if hasattr(value, "tolist"):  # numpy array or scalar
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if value is None or isinstance(value, (int, str)):
        return value
    return repr(value)


class DomainError(SgidentError):
    """A loss was evaluated outside its domain (e.g. cross-entropy at x >= 1)."""


class DataError(SgidentError):
    """Malformed external data; carries the offending line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
