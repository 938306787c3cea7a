"""Exception taxonomy.

Domain errors are precondition violations on mathematically meaningful
inputs (a divisor outside the big cone, weights with a common factor).
Parse errors are malformed text.  Unsupported requests are well-formed
synthesis targets that no implemented construction realizes; the message
names the violated bound so callers can surface it.
"""

from __future__ import annotations


class FoliadexError(Exception):
    """Base class for every error raised by this package."""


class ParseError(FoliadexError, ValueError):
    """Malformed textual input (rationals, JSON payloads, CLI values)."""


class DomainError(FoliadexError, ValueError):
    """Structurally valid input outside an operation's mathematical domain."""


class UnsupportedRequest(FoliadexError):
    """A synthesis target outside the realized families.

    Its message is the human-readable bound that failed; the CLI maps
    this to exit code 2.
    """
