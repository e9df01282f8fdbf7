"""Exception types shared across the package."""

import contextlib


class TextuqError(Exception):
    """Base class for all errors raised by textuq."""


class DimensionMismatch(TextuqError):
    """Operands have incompatible shapes or dimensions."""


class NotSymmetric(TextuqError):
    """Matrix expected to be symmetric is not, within tolerance."""


class NotPositiveDefinite(TextuqError):
    """Cholesky factorization failed even after jitter escalation."""


class EmptyInput(TextuqError):
    """An operation requiring at least one element got none."""


class LengthMismatch(TextuqError):
    """Paired sequences have different lengths."""


class TooFewPoints(TextuqError):
    """Fewer data points available than requested."""


class NonFiniteLoss(TextuqError):
    """Training objective became NaN or infinite.

    Carries the optimizer step index at which the value went bad.
    """

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite objective {value!r} at step {step}")


class NonFiniteMatrix(TextuqError, ValueError):
    """A matrix to factor or solve with has NaN or infinite entries. Also a
    ValueError, the type the factorization and solves have always raised."""


class BatchTooSmall(TextuqError):
    """Batch-statistics mode requires at least two examples."""


class MalformedHeader(TextuqError):
    """Embedding file header is not 'vocab_size dimension'."""


class MissingSecondaryLabel(TextuqError):
    """Agreement partitioning needs a secondary label on every example."""


class FractionOverflow(TextuqError):
    """Split fractions outside (0, 1) or summing to >= 1."""


class InconsistentSetEmpty(TextuqError):
    """Test views require at least one labeller-disagreement example."""


class InvalidConfig(TextuqError, ValueError):
    """A configuration value, or a model file's content, is out of range or
    inconsistent. Also a ValueError, the type callers of the validators
    have always caught."""


def check_int(value, name: str, low: int) -> int:
    """``value`` itself if it is an integer >= ``low``; InvalidConfig otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InvalidConfig(f"{name} must be an integer >= {low}, got {value!r}")
    return value


class MalformedRow(TextuqError):
    """A corpus or feature CSV row does not match the documented schema."""


class NotUtf8(TextuqError):
    """A text input file does not decode as UTF-8."""


@contextlib.contextmanager
def utf8_input(path):
    """Turn a UnicodeDecodeError raised inside the block while reading
    ``path`` into NotUtf8 naming the file and its first undecodable line.

    A line is cut at a line-feed byte, which never occurs inside a UTF-8
    multi-byte sequence, so the line named holds the first bad byte.
    """
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fb:
            for lineno, line in enumerate(fb, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise NotUtf8(f"{path} line {lineno}: not UTF-8 text ({exc.reason})") from None
        raise NotUtf8(f"{path}: not UTF-8 text") from None
