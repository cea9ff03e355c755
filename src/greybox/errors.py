"""Exception types shared across the toolkit."""

from __future__ import annotations

import numbers
import sys


class GreyboxError(Exception):
    """Base class for all toolkit-specific failures."""


class ConfigError(GreyboxError):
    """Invalid configuration, structure description, or CLI input."""


class CsvFormatError(GreyboxError):
    """Malformed CSV content, with the offending location when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        loc = "".join(
            f", {kind} {value}"
            for kind, value in (("row", row), ("column", column))
            if value is not None
        )
        super().__init__(message + loc)
        self.row = row
        self.column = column


class DivergenceError(GreyboxError):
    """A simulated or iterated trajectory left the finite range."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SingularityError(GreyboxError):
    """A linear solve or closed-form expression hit a singular point."""

    def __init__(self, message: str, cond: float | None = None):
        super().__init__(message)
        self.cond = cond


class SelectionError(GreyboxError):
    """No admissible candidate was available to a decision maker."""


# Counts that size what is held whole in memory before the work starts: the
# LM starts (their seeds and parameter vectors), the GA population (two
# population_size x n_params arrays) and the regressor lags (a fixed point
# reads an output lag after a gap in the lags from a ring of as many outputs
# as the largest such lag; a record must be longer than its largest lag).
# Far beyond any useful run, and a larger one is refused before memory is
# taken.
_MAX_HELD_COUNT = 10**6


def _require_count(value, name: str, low: int, high=sys.maxsize) -> int:
    """``value`` as an int in [low, high]: any integer, but never a bool.

    The default ``high`` keeps a count that sizes a buffer or a loop within
    what Python can index; seeds, which numpy takes at any size, pass
    ``math.inf``.  Raises ValueError naming ``name``.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or not low <= value <= high
    ):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _require_number(value, name: str, low: float, high: float) -> float:
    """``value`` as a float in [low, high]: any real number, but never a
    bool, a string, NaN or an integer beyond the float range.  Raises
    ValueError naming ``name``."""
    try:
        ok = (
            not isinstance(value, bool)
            and isinstance(value, numbers.Real)
            and low <= float(value) <= high  # also rejects NaN
        )
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a number in [{low}, {high}], got {value!r}")
    return float(value)


def _check_keys(doc, allowed: tuple[str, ...], where: str) -> None:
    """Refuse a key of the JSON object ``doc`` that is not ``allowed``; a
    ``doc`` that is no object is left to the code that reads it."""
    if isinstance(doc, dict) and (unknown := sorted(set(doc) - set(allowed))):
        raise ConfigError(
            f"unknown {where} key {', '.join(map(repr, unknown))}, expected {', '.join(allowed)}"
        )
