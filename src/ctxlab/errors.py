"""Exception types shared across the toolkit."""

from __future__ import annotations


class CtxlabError(Exception):
    """Base class for all toolkit errors."""


class SpaceMismatchError(CtxlabError):
    """An array does not have the shape its place needs: a ket, stack, matrix or state of
    another shape or dimension, or values that are not one complex array."""


class UnknownLabelError(CtxlabError):
    """An outcome label is not present in the POVM or outcome set."""


class ValidationError(CtxlabError):
    """A structural invariant does not hold within tolerance.

    The violated invariant is named in ``invariant`` so callers (and the CLI)
    can report it without parsing the message.
    """

    def __init__(self, message: str, invariant: str | None = None):
        super().__init__(message)
        self.invariant = invariant


class ScenarioFileError(CtxlabError):
    """A scenario file failed to parse or violates the schema."""
