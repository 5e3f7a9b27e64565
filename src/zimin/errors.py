"""Exception types shared across the package."""

from __future__ import annotations


class ZiminError(Exception):
    """Base class for errors raised by this package."""


class SizeLimitError(ZiminError):
    """An operation would materialize an object above the configured cap."""


class NotAFactorError(ZiminError):
    """The input word is not a factor of any Zimin word."""


class EnumerationLimitError(ZiminError):
    """Enumeration was refused because the solution count 2**l exceeds the limit.

    l is available as ``.free_components`` and the exact count as
    ``.count`` so callers can decide whether to retry with a larger
    limit.  The message gives the count in decimal up to 2**64 and as
    ``2^l`` past it.
    """

    def __init__(self, free_components: int, limit: int):
        shown = 2**free_components if free_components <= 64 else f"2^{free_components}"
        super().__init__(f"{shown} solutions exceed enumeration limit {limit}")
        self.free_components = free_components
        self.limit = limit

    @property
    def count(self) -> int:
        """2**l; SizeLimitError when l is past ``compressed.MAX_EXPONENT``."""
        from .compressed import power_of_two

        return power_of_two(self.free_components)
