"""Exception types shared across the package."""

from __future__ import annotations


class StoplexError(Exception):
    """Base class for all stoplex errors.

    ``stage`` is filled in by the pipeline runner so callers can tell which
    step failed without parsing messages; it stays None for direct calls.
    """

    stage: str | None = None


class EmptyCorpus(StoplexError):
    """A corpus has no source, or a run's corpus holds no word."""


class DecodeError(StoplexError):
    """A source is not valid UTF-8. Carries the offending source name."""

    def __init__(self, name: str, reason: str = ""):
        self.name = name
        detail = f" ({reason})" if reason else ""
        super().__init__(f"{name}: not valid UTF-8{detail}")


class DomainError(StoplexError):
    """An argument lies outside an operation's domain."""


class AllZeroWeights(StoplexError):
    """Every word occurs in every document, so no word carries weight."""


class DegenerateDistribution(StoplexError):
    """The index distribution has zero variance; skew-based analysis is undefined."""


class NonFinite(StoplexError):
    """A value that must be finite is NaN or infinite."""
