"""Exception types shared across the pipeline.

Every error raised by a loader names the offending input (file, line,
column, record id) so CLI stages can surface machine-readable diagnostics.
"""

from __future__ import annotations

from os import PathLike


class ChronicleError(Exception):
    """Base class for all pipeline errors."""


class LocatedError(ChronicleError):
    """Error in an input file: a spec, corpus or other record file. The
    message is ``reason``, prefixed ``path:line:`` (``path:line:column:``
    with a column) when both the path and the line are known; ``path`` is
    kept as a string."""

    def __init__(self, reason: str, path: str | PathLike | None = None,
                 line: int | None = None, column: int | None = None):
        self.path = path = None if path is None else str(path)
        self.line = line
        self.column = column
        if path is not None and line is not None:
            at = f"{path}:{line}:" if column is None else f"{path}:{line}:{column}:"
            reason = f"{at} {reason}"
        super().__init__(reason)


class DslSyntaxError(LocatedError):
    pass


class CycleInTaxonomy(LocatedError):
    pass


class UnknownConcept(LocatedError):
    pass


class UnknownInstance(LocatedError):
    pass


class DuplicateInstance(LocatedError):
    pass


class DuplicateMessageType(LocatedError):
    pass


class UnknownMessageType(LocatedError):
    pass


class UnknownSlot(LocatedError):
    pass


class ScaleRequired(LocatedError):
    """Ordered comparison requested on a concept without an ordered scale."""


class UsageError(ChronicleError):
    """A command line that the argument parser rejects; ``stage`` is the
    subcommand it names, or None when it names none."""

    def __init__(self, message: str, stage: str | None = None):
        self.stage = stage
        super().__init__(message)


class MalformedRecord(LocatedError):
    pass


class DuplicateDocId(LocatedError):
    def __init__(self, doc_id: str, path: str | None = None, line: int | None = None):
        self.doc_id = doc_id
        super().__init__(f"duplicate doc_id {doc_id!r}", path, line)


class UnparsableTimestamp(LocatedError):
    def __init__(self, value: str, path: str | None = None, line: int | None = None):
        self.value = value
        super().__init__(f"unparsable timestamp {value!r}", path, line)


class UnresolvableExpression(ChronicleError):
    """A temporal pattern matched but no resolution rule applies."""

    def __init__(self, raw: str, pattern_id: str):
        self.raw = raw
        self.pattern_id = pattern_id
        super().__init__(f"cannot resolve {raw!r} (pattern {pattern_id})")


class SlotTypeViolation(LocatedError):
    def __init__(self, msg_type: str, slot: str, value: str, expected: str,
                 path: str | None = None, line: int | None = None):
        self.msg_type = msg_type
        self.slot = slot
        self.value = value
        self.expected = expected
        super().__init__(
            f"{msg_type}.{slot}: {value!r} is not an instance of {expected}",
            path, line)


class UnparsableAnchor(LocatedError):
    def __init__(self, value: str, path: str | None = None, line: int | None = None):
        self.value = value
        super().__init__(f"unparsable time anchor {value!r}", path, line)


class EmptyTrainingSet(ChronicleError):
    pass


class TooFewPoints(ChronicleError):
    def __init__(self, got: int, need: int = 3):
        self.got = got
        self.need = need
        super().__init__(f"need at least {need} timestamps, got {got}")


class MissingTemplate(ChronicleError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no template for relation {name!r}")
