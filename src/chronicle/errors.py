"""Exception types shared across the pipeline.

Every error raised by a loader names the offending input (file, line,
column, record id) so CLI stages can surface machine-readable diagnostics.
"""

from __future__ import annotations


class ChronicleError(Exception):
    """Base class for all pipeline errors."""


def _located(reason: str, path: str | None, line: int | None,
             column: int | None = None) -> str:
    """``reason``, prefixed ``path:line:`` (``path:line:column:`` with a
    column) when both the path and the line are known."""
    if path is None or line is None:
        return reason
    at = f"{path}:{line}:" if column is None else f"{path}:{line}:{column}:"
    return f"{at} {reason}"


class SpecError(ChronicleError):
    """Error in an ontology / message / relation spec file."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(_located(message, path, line, column))


class DslSyntaxError(SpecError):
    pass


class CycleInTaxonomy(SpecError):
    pass


class UnknownConcept(SpecError):
    pass


class UnknownInstance(SpecError):
    pass


class DuplicateInstance(SpecError):
    pass


class DuplicateMessageType(SpecError):
    pass


class UnknownMessageType(SpecError):
    pass


class UnknownSlot(SpecError):
    pass


class ScaleRequired(SpecError):
    """Ordered comparison requested on a concept without an ordered scale."""


class UsageError(ChronicleError):
    """A command line that the argument parser rejects; ``stage`` is the
    subcommand it names, or None when it names none."""

    def __init__(self, message: str, stage: str | None = None):
        self.stage = stage
        super().__init__(message)


class CorpusError(ChronicleError):
    """Error in a corpus or other record file, prefixed ``path:line:`` when
    both are known."""

    def __init__(self, reason: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        super().__init__(_located(reason, path, line))


class MalformedRecord(CorpusError):
    pass


class DuplicateDocId(CorpusError):
    def __init__(self, doc_id: str, path: str | None = None, line: int | None = None):
        self.doc_id = doc_id
        super().__init__(f"duplicate doc_id {doc_id!r}", path, line)


class UnparsableTimestamp(CorpusError):
    def __init__(self, value: str, path: str | None = None, line: int | None = None):
        self.value = value
        super().__init__(f"unparsable timestamp {value!r}", path, line)


class UnresolvableExpression(ChronicleError):
    """A temporal pattern matched but no resolution rule applies."""

    def __init__(self, raw: str, pattern_id: str):
        self.raw = raw
        self.pattern_id = pattern_id
        super().__init__(f"cannot resolve {raw!r} (pattern {pattern_id})")


class SlotTypeViolation(CorpusError):
    def __init__(self, msg_type: str, slot: str, value: str, expected: str,
                 path: str | None = None, line: int | None = None):
        self.msg_type = msg_type
        self.slot = slot
        self.value = value
        self.expected = expected
        super().__init__(
            f"{msg_type}.{slot}: {value!r} is not an instance of {expected}",
            path, line)


class UnparsableAnchor(CorpusError):
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
