"""Sectioned binary container shared by the model, dataset and checkpoint files.

Layout: an ASCII magic string (its length is fixed per file kind), then zero
or more sections. Each section is

    [u32 name length][name: ASCII bytes][u8 dtype][u64 element count][payload]

with dtype 0 = little-endian f64, 1 = little-endian i64, 2 = UTF-8 bytes.
Payload length is count*8 bytes for numeric dtypes and count bytes for text.
Sections are written in insertion order and read back in file order, so a
write/read round trip is bit-exact.

``read_container`` returns numeric sections as read-only views on the file's
bytes, so reading a section a loader never uses costs no copy. Loaders read
sections with ``require(sections, name, path, shape)``. With a ``shape``, the
section must hold prod(shape) numbers and is returned reshaped (``()`` gives
a scalar); otherwise, or if the section is missing, ``ValidationError`` names
the file, section, count and shape. ``require`` returns an owned, writable
copy; ``view`` makes the same checks and returns the view itself.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
import struct

import numpy as np

DTYPE_F64 = 0
DTYPE_I64 = 1
DTYPE_STR = 2


class ValidationError(ValueError):
    """A file or data structure violates its documented contract."""


@contextlib.contextmanager
def replacing_open(path, mode: str = "xb", **kwargs):
    """Open a new temporary file beside ``path`` for writing; on a clean exit
    rename it over ``path``.

    A failed or interrupted write never leaves a partial file at ``path``,
    keeps what was there and removes its temporary file. ``mode`` must
    create the file ("x" or "xb"); ``kwargs`` go to ``open``. No fsync: a
    process crash is covered, a power loss is not.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_container(path, magic: str, sections):
    """Write ``sections`` (iterable of (name, value)) under ``magic``.

    Values may be numpy float/int arrays (flattened on disk) or strings.
    The file is replaced whole (``replacing_open``).
    """
    with replacing_open(path) as fh:
        _write_sections(fh, magic, sections)


def _write_sections(fh, magic, sections):
    fh.write(magic.encode("ascii"))
    for name, value in sections:
        name_b = name.encode("ascii")
        if isinstance(value, str):
            payload = value.encode("utf-8")
            dtype, count = DTYPE_STR, len(payload)
        else:
            arr = np.asarray(value)
            if arr.dtype.kind in "iub":
                arr = arr.astype("<i8")
                dtype = DTYPE_I64
            else:
                arr = arr.astype("<f8")
                dtype = DTYPE_F64
            payload = arr.reshape(-1).tobytes()
            count = arr.size
        fh.write(struct.pack("<I", len(name_b)))
        fh.write(name_b)
        fh.write(struct.pack("<B", dtype))
        fh.write(struct.pack("<Q", count))
        fh.write(payload)


_U32 = struct.Struct("<I")
_DTYPE_COUNT = struct.Struct("<BQ")
_NUMERIC = {DTYPE_F64: np.dtype("<f8"), DTYPE_I64: np.dtype("<i8")}


def read_container(path, magic: str):
    """Read all sections into an ordered dict name -> numpy array or str.

    Numeric sections are read-only views on the file's bytes; ``require``
    copies what a loader keeps.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic_b = magic.encode("ascii")
    if not data.startswith(magic_b):
        raise ValidationError(f"{path}: bad magic, expected {magic!r} got {data[:len(magic_b)]!r}")
    sections = {}
    off, end = len(magic_b), len(data)
    while off < end:
        start = off
        if off + _U32.size > end:
            raise _truncated(path, "name length", start)
        (name_len,) = _U32.unpack_from(data, off)
        off += _U32.size
        if off + name_len > end:
            raise _truncated(path, "name", start)
        name = data[off:off + name_len].decode("ascii")
        off += name_len
        if off + _DTYPE_COUNT.size > end:
            what = f"dtype of '{name}'" if off == end else f"element count of '{name}'"
            raise _truncated(path, what, start)
        dtype, count = _DTYPE_COUNT.unpack_from(data, off)
        off += _DTYPE_COUNT.size
        if dtype != DTYPE_STR and dtype not in _NUMERIC:
            raise ValidationError(f"{path}: section '{name}' has unknown dtype code {dtype}")
        size = count if dtype == DTYPE_STR else count * 8
        if off + size > end:
            raise _truncated(path, f"payload of '{name}'", start)
        if dtype == DTYPE_STR:
            sections[name] = data[off:off + size].decode("utf-8")
        else:
            sections[name] = np.frombuffer(data, dtype=_NUMERIC[dtype], count=count, offset=off)
        off += size
    return sections


def _truncated(path, what, start):
    return ValidationError(
        f"{path}: truncated while reading {what} of section starting at offset {start}")


def view(sections, name, path="<container>", shape=None):
    """Section ``name`` checked as ``require`` checks it, but not copied: a
    numeric section stays a read-only view on the file's bytes."""
    if name not in sections:
        raise ValidationError(f"{path}: missing required section '{name}'")
    value = sections[name]
    if shape is None:
        return value
    if isinstance(value, str) or value.size != math.prod(shape):
        found = "text" if isinstance(value, str) else f"{value.size} values"
        raise ValidationError(f"{path}: section '{name}' holds {found}, "
                              f"shape {tuple(shape)} needs {math.prod(shape)}")
    return value.reshape(shape) if shape else value[0]


def require(sections, name, path="<container>", shape=None):
    """Section ``name``, checked against ``shape`` if given (see the module
    docstring); a numeric section comes back as an owned, writable copy."""
    value = view(sections, name, path, shape)
    return np.array(value) if isinstance(value, np.ndarray) else value
