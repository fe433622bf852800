"""Exception hierarchy and shared readers for every subsystem.

Each error carries a short machine-parsable ``code`` used by the CLI for
its ``ERROR <CODE>:`` stderr lines, and the ``exit_code`` the CLI returns:
2 for a ``DataError`` (bad input files or content), 1 for a
``UsageError``, and 3 for any other error, an internal invariant
violation.

The readers every format shares live here too, so each on-disk encoding
is parsed in one place: the binary magics and heads, the bounded
``read_exact``, the JSON parse, and the atomic writer.
"""

import json
import math
import numbers
import os
import struct
from contextlib import contextmanager

# the binary formats, told apart by their first four bytes
FEATURE_MAGIC = b"ATFX"
CHECKPOINT_MAGIC = b"ATCK"
ENSEMBLE_MAGIC = b"ATEN"
MAGICS = (FEATURE_MAGIC, CHECKPOINT_MAGIC, ENSEMBLE_MAGIC)


def read_text(path, error) -> str:
    """The whole of a UTF-8 text file, newlines normalized as text-mode
    reads do; a byte that does not decode raises ``error``, a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc


def parse_json(text, where, lineno=None):
    """The JSON value in ``text`` (a str, or UTF-8 bytes); text that does
    not parse, however deeply it nests, raises BadJson naming ``where``,
    as ``where:lineno`` when a line number is given."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 faults
        at = where if lineno is None else f"{where}:{lineno}"
        raise BadJson(f"{at}: {exc}") from exc


def read_json(path):
    """The JSON value in a UTF-8 text file; any fault in it is BadJson."""
    return parse_json(read_text(path, BadJson), path)


_LARGE_READ = 1 << 20


def read_exact(fh, n: int, path, what: str) -> bytes:
    """The next ``n`` bytes of binary file ``fh``, or TruncatedFile. A read
    over 1 MiB is checked against the bytes left first, since ``fh.read(n)``
    allocates ``n`` bytes whatever a corrupt length field asks for."""
    if n <= _LARGE_READ or n <= os.fstat(fh.fileno()).st_size - fh.tell():
        data = fh.read(n)
        if len(data) == n:
            return data
    raise truncated(path, what)


def truncated(path, what: str) -> "TruncatedFile":
    """The TruncatedFile of a file that ends while ``what`` is read."""
    return TruncatedFile(f"{path}: unexpected end of file while reading {what}")


def check_head(head: bytes, path, magic: bytes, version: int, what: str) -> None:
    """Check the magic and u32 version a binary file opens with, given its
    first eight bytes, or all it has, as ``head``. Another format's magic
    is WrongKind, any other BadHeader; ``what`` names the expected kind."""
    found = head[:4]
    if found != magic:
        if found in MAGICS:
            raise WrongKind(f"{path}: this is a {found.decode()} file, not {what}")
        raise BadHeader(f"{path}: not {what}")
    if len(head) < 8:
        raise truncated(path, "version")
    (found_version,) = struct.unpack_from("<I", head, 4)
    if found_version != version:
        raise BadHeader(f"{path}: unsupported {what} version {found_version}")


def write_blob(fh, magic: bytes, version: int, blob: bytes) -> None:
    """The head a checkpoint and an ensemble share: magic, u32 version and
    u32 length, then the ``blob`` itself."""
    fh.write(magic + struct.pack("<II", version, len(blob)))
    fh.write(blob)


def read_blob(fh, path, magic: bytes, version: int, what: str) -> bytes:
    """The blob :func:`write_blob` wrote, its head checked."""
    check_head(fh.read(8), path, magic, version, what)
    (length,) = struct.unpack("<I", read_exact(fh, 4, path, "blob length"))
    return read_exact(fh, length, path, f"{what} blob")


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


@contextmanager
def temps_swept_on_error(directory, names):
    """Run the block; if it fails, remove from ``directory`` the temp files
    ``atomic_write`` leaves for any of ``names`` when its process is killed
    mid-write (a forked worker, say), then re-raise."""
    try:
        yield
    except BaseException:
        prefixes = tuple(f".{name}." for name in names)
        for entry in os.listdir(directory):
            if entry.startswith(prefixes) and entry.endswith(".tmp"):
                os.remove(os.path.join(directory, entry))
        raise


class AtcadetError(Exception):
    code = "ERROR"
    exit_code = 3

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class UsageError(AtcadetError):
    code = "USAGE"
    exit_code = 1


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
    exit_code = 2


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
