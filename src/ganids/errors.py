"""The one line between a user's fault and a bug.

An `InputError` is a failure caused by what the program was given: a file,
a config or schema value, an option, a model file, or numbers that stop
being finite. `ganids` prints one as a single `error:` line. Every other
exception marks a bug in the caller and ends the program with its
traceback. Each class that a user can cause derives from `InputError` and
keeps its builtin base (most are ValueErrors).
"""

from __future__ import annotations

import numpy as np


class InputError(Exception):
    """A failure caused by the program's input, not by its code."""


class ConfigInvalid(InputError, ValueError):
    """A config value or a command-line option that the program cannot
    use; `path` names the key or the option."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class NonFiniteValue(InputError, ArithmeticError):
    """A NaN or Inf showed up where only finite values are allowed."""


class ShapeMismatch(ValueError):
    pass


def check_finite(arr, what="value"):
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"non-finite {what} encountered")
    return arr
