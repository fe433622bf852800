"""Exception hierarchy shared by every subsystem.

Each error carries a short machine-parsable ``code`` used by the CLI for
its ``ERROR <CODE>:`` stderr lines. ``DataError`` subclasses map to exit
code 2 (bad input files or content), ``UsageError`` to exit code 1, and
anything else escaping to the CLI is treated as an internal invariant
violation (exit code 3).
"""

import math
import numbers
import os
from contextlib import contextmanager


def read_text(path, error) -> str:
    """The whole of a UTF-8 text file, newlines normalized as text-mode
    reads do; a byte that does not decode raises ``error``, a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """A file object on a temp file next to ``path``, renamed over ``path``
    once the block ends without error. A write that fails or is cut off
    leaves the old file, or none, and no temp file. Text mode is UTF-8."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class AtcadetError(Exception):
    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class UsageError(AtcadetError):
    code = "USAGE"


class OutputExists(UsageError):
    code = "OUTPUT_EXISTS"


class BadConfig(UsageError):
    code = "BAD_CONFIG"


def is_real(value) -> bool:
    """A finite int or float; a bool is not a number here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_fields(fields: dict, ints=(), reals=(), flags=()) -> None:
    """Raise BadConfig unless each named field holds its type: ``ints``
    pairs a name with its least value, ``reals`` must be finite numbers
    and ``flags`` bools."""
    for name, low in ints:
        value = fields[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise BadConfig(f"{name} must be an integer >= {low}, got {value!r}")
    for name in reals:
        if not is_real(fields[name]):
            raise BadConfig(f"{name} must be a finite number, got {fields[name]!r}")
    for name in flags:
        if not isinstance(fields[name], bool):
            raise BadConfig(f"{name} must be true or false, got {fields[name]!r}")


class DataError(AtcadetError):
    code = "DATA"


# dsp_frontend
class NotWav(DataError):
    code = "NOT_WAV"


class UnsupportedFormat(DataError):
    code = "UNSUPPORTED_FORMAT"


class TruncatedFile(DataError):
    code = "TRUNCATED_FILE"


class TooShort(DataError):
    code = "TOO_SHORT"


class BadHeader(DataError):
    code = "BAD_HEADER"


class ShapeMismatch(DataError):
    code = "SHAPE_MISMATCH"


class NonFinite(DataError):
    code = "NON_FINITE"


# text_channel
class BadJson(DataError):
    code = "BAD_JSON"


class DuplicateUtt(DataError):
    code = "DUPLICATE_UTT"


class UnknownStyle(DataError):
    code = "UNKNOWN_STYLE"


class EmptyCaption(DataError):
    code = "EMPTY_CAPTION"


# autodiff_core
class NotScalarLoss(AtcadetError):
    code = "NOT_SCALAR_LOSS"


class DetachedTensor(AtcadetError):
    code = "DETACHED_TENSOR"


# scoring_metrics
class OneClassOnly(DataError):
    code = "ONE_CLASS_ONLY"


class UnknownUtt(DataError):
    code = "UNKNOWN_UTT"


class MissingScore(DataError):
    code = "MISSING_SCORE"


# train_eval
class MissingFeature(DataError):
    code = "MISSING_FEATURE"


class MissingEmbedding(DataError):
    code = "MISSING_EMBEDDING"


class EmptySplit(DataError):
    code = "EMPTY_SPLIT"


# ensemble_stack
class CoverageMismatch(DataError):
    code = "COVERAGE_MISMATCH"


class TooFewExamples(DataError):
    code = "TOO_FEW_EXAMPLES"


class SingularSystem(DataError):
    code = "SINGULAR_SYSTEM"


class DimMismatch(DataError):
    code = "DIM_MISMATCH"


# synth_corpus
class WrongKind(DataError):
    code = "WRONG_KIND"


class InsufficientFamilies(DataError):
    code = "INSUFFICIENT_FAMILIES"


class BadProtocol(DataError):
    code = "BAD_PROTOCOL"
