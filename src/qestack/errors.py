"""Exception types shared across the toolkit.

Everything user-facing derives from :class:`QEStackError`; the CLI maps these
to exit code 1 and genuine I/O failures (``OSError``) to exit code 2.
"""


class QEStackError(Exception):
    """Base class for all toolkit errors."""


class LocatedError(QEStackError):
    """An error that may name the file, and the line in it, it was found in;
    the message then starts with ``file:line:``."""

    def __init__(self, message, *, file=None, line=None):
        self.file = file
        self.line = line
        super().__init__(_located(message, file, line))


class ParseError(LocatedError):
    """A file holds something that cannot be interpreted (bad tag, bad float,
    empty line, malformed alignment pair)."""


class LengthMismatch(LocatedError):
    """Per-line or cross-file length invariants are violated."""


class RangeError(LocatedError, ValueError):
    """A numeric value lies outside its allowed interval."""


class EmptyInput(QEStackError):
    """A metric was asked to score zero tags, or a tagger to tag zero tokens."""


class DegenerateInput(LocatedError):
    """Correlation of a constant or too-short vector is undefined."""


class InconsistentScript(QEStackError):
    """An edit script does not cover the MT sentence it claims to describe."""


class MissingStream(QEStackError):
    """An input lacks a stream a step needs (system stream, source, gold tags, post-edit)."""


class ZeroWeights(LocatedError):
    """An ensemble weight vector sums to zero and cannot be normalized."""


class SingularSystem(QEStackError):
    """The unregularized normal equations are singular."""


class FoldError(QEStackError, ValueError):
    """Items cannot be split into the requested contiguous folds."""


class InvalidInput(LocatedError, ValueError):
    """A value cannot be used as given: an annotation without spans or with
    overlapping spans, inputs that must be parallel and are not (files too:
    weights and a manifest of other systems, doc tables of other documents),
    or an empty row for a file format that forbids empty lines."""


class SpanOutOfBounds(LocatedError):
    """An annotation span is malformed or points outside its sentence."""


def _located(message, file, line):
    if file is not None and line is not None:
        return f"{file}:{line}: {message}"
    if file is not None:
        return f"{file}: {message}"
    return message
