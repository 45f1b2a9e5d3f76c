"""Exception types shared across the package."""


class RulefuseError(Exception):
    """Base class for all rulefuse errors."""


class RegexSyntaxError(RulefuseError):
    """A rule pattern could not be parsed.

    Carries the character offset within the pattern and, when the pattern
    came from a rules file, the 1-based line number.
    """

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        self.message = message
        self.offset = offset
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)


class UnknownLabelError(RulefuseError):
    """A rule names a label that is not a known class label."""

    def __init__(self, label: str, line: int | None = None):
        self.label = label
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown label {label!r}{suffix}")


class CapacityExceededError(RulefuseError):
    """Determinization exceeded the configured state budget."""


class RulesMismatchError(RulefuseError):
    """The rules differ from the ones a checkpoint was trained with."""


class MissingFeaturesError(RulefuseError):
    """A model variant was called without the rule features it requires."""


class DimensionMismatchError(RulefuseError):
    """Tensor or feature shapes do not agree with the model configuration."""


class NumericalError(RulefuseError):
    """A non-finite value appeared during training or loss computation."""


class MalformedLineError(RulefuseError):
    """A dataset line does not follow the label<TAB>text format."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


class EmptyDatasetError(RulefuseError):
    """A dataset file contained no usable samples."""
