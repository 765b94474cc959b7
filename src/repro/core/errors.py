"""Exception hierarchy for the LagAlyzer core.

All exceptions raised intentionally by this package derive from
:class:`LagAlyzerError`, so callers can catch one type.
"""


class LagAlyzerError(Exception):
    """Base class for all LagAlyzer errors."""


class NestingError(LagAlyzerError):
    """An interval violates the proper-nesting invariant.

    The paper guarantees that the intervals of a given thread are properly
    nested (they either nest or do not overlap at all); this error signals
    input that breaks the guarantee.
    """


class TraceFormatError(LagAlyzerError):
    """A trace file is malformed or uses an unsupported version.

    Ingestion errors carry their provenance as attributes so callers can
    pinpoint the damage without parsing the message: ``path`` is the
    trace file (None for in-memory input), ``line`` the 1-based line
    number for text input, and ``offset`` the byte offset into a `.lilac`
    column file. Either position may be None when the error is not tied
    to a single record (e.g. missing metadata discovered at end of
    input).
    """

    def __init__(
        self,
        message: str = "",
        *,
        path=None,
        line=None,
        offset=None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line = line
        self.offset = offset

    def locate(self) -> str:
        """Human-readable provenance, e.g. ``"t.lila:12"`` (may be ``""``)."""
        parts = []
        if self.path is not None:
            parts.append(str(self.path))
        if self.line is not None:
            parts.append(f"{self.line}")
        elif self.offset is not None:
            parts.append(f"@{self.offset}")
        return ":".join(parts)


class AnalysisError(LagAlyzerError):
    """An analysis was asked to operate on inconsistent inputs."""


class SimulationError(LagAlyzerError):
    """The session simulator was configured inconsistently."""
