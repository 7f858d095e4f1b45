"""Shared exception types."""


class BoundsError(ValueError):
    """A query or build exceeds the range a table or window can serve."""
