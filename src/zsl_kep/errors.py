"""Exception types shared across the package.

Gateway-specific errors (rate limits, context overflow, ...) live in
``llm_gateway``; everything else is here.
"""


class MalformedInput(ValueError):
    """An input file violates the expected schema."""


class UnknownDocRef(LookupError):
    """A document reference does not exist in the knowledge store."""


class ParseFailure(ValueError):
    """An LLM response did not contain the expected structure."""


class EmptyReferenceList(ValueError):
    """Similarity scoring needs at least one reference string."""


class NonFiniteEntry(ValueError):
    """Assignment matrices must contain finite values only."""


class MissingGold(LookupError):
    """A prediction has no usable gold record."""


class ConfigError(ValueError):
    """Run configuration is incomplete or inconsistent."""
