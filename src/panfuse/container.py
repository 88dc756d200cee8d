"""Binary tensor container ("PANC" format).

Layout, all little-endian:

    offset 0   magic  b"PANC"
    offset 4   format version, u16
    offset 6   dtype code, u8   (0 = f32, 1 = f64, 2 = u32)
    offset 7   rank, u8
    offset 8   dims, rank * u32
    then       raw row-major payload

Errors report the byte offset at which parsing failed.

Directories of PANC files (scenes, checkpoints) are described by a JSON
manifest; ``read_manifest`` and ``manifest_value`` check its schema and
name the file and the key path of any fault.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"PANC"
VERSION = 1

_DTYPES = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<u4"),
}
_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<u4"): 2}


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    """Write an array (f32, f64 or u32) to a PANC file."""
    arr = np.asarray(arr)  # not ascontiguousarray, which makes rank 0 rank 1
    dt = arr.dtype.newbyteorder("<")
    if dt not in _CODES:
        raise FormatError(f"unsupported dtype {arr.dtype} for PANC container")
    header = MAGIC + struct.pack("<HBB", VERSION, _CODES[dt], arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype(dt, copy=False).tobytes(order="C"))


@dataclass(frozen=True)
class TensorHeader:
    """What a PANC header says about its payload."""

    dtype: np.dtype
    shape: tuple[int, ...]


def _open(path: str | Path):
    """Open a PANC file unbuffered, so payloads are read straight into arrays."""
    try:
        return open(path, "rb", buffering=0)
    except OSError as e:
        raise FormatError(f"cannot read tensor file {path!s}: {e.strerror}") from e
    except ValueError as e:  # a NUL byte in the name, shown escaped
        raise FormatError(f"cannot read tensor file {str(path)!r}: {e}") from e


def _check_header(fh, path: str | Path) -> TensorHeader:
    """Parse the header of an open PANC file and check the payload size.

    Leaves ``fh`` at the first payload byte. The file size comes from the
    file system, so the payload itself is not read.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(8)
    if head[:4] != MAGIC:
        raise FormatError(f"bad magic in {path!s}", offset=0)
    if size < 8:
        raise FormatError(f"truncated header in {path!s}", offset=size)
    version, dtype_code, rank = struct.unpack_from("<HBB", head, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version} in {path!s}", offset=4)
    if dtype_code not in _DTYPES:
        raise FormatError(f"unknown dtype code {dtype_code} in {path!s}", offset=6)
    dims_end = 8 + 4 * rank
    if size < dims_end:
        raise FormatError(f"truncated dims in {path!s}", offset=size)
    dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    if rank > 0 and min(dims) < 1:
        raise FormatError(f"zero-sized dim {dims} in {path!s}", offset=8)
    dtype = _DTYPES[dtype_code]
    count = math.prod(dims)  # exact: an int64 product of u32 dims can wrap to the file size
    _check_size(path, dims_end + count * dtype.itemsize, size)
    return TensorHeader(dtype=dtype, shape=dims)


def _check_size(path: str | Path, expected: int, got: int) -> None:
    if got != expected:
        raise FormatError(
            f"payload size mismatch in {path!s}: expected {expected} bytes, "
            f"got {got}",
            offset=min(got, expected),
        )


def read_header(path: str | Path) -> TensorHeader:
    """Check a PANC file as ``read_tensor`` does, without reading its payload."""
    with _open(path) as fh:
        return _check_header(fh, path)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a PANC file; raises FormatError with a byte offset on damage."""
    with _open(path) as fh:
        header = _check_header(fh, path)
        arr = np.empty(header.shape, dtype=header.dtype)
        payload = arr.reshape(-1).view(np.uint8)
        got = 0
        while got < payload.size:  # a raw read may return fewer bytes
            n = fh.readinto(payload[got:])
            if not n:  # the file shrank after its size was taken
                start = 8 + 4 * arr.ndim
                _check_size(path, start + payload.size, start + got)
            got += n
    return arr


def read_manifest(path: Path, fmt: str, what: str) -> dict:
    """Parse a JSON manifest that must be an object whose ``format`` is ``fmt``
    and whose ``version``, if present, is 1.

    ``what`` names the manifest kind in errors, with its article.
    """
    if not path.is_file():
        raise FormatError(f"no {path.name} in {path.parent}")
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"unparseable manifest in {path.parent}: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: expected a JSON object, got {_json_kind(manifest)}")
    if manifest.get("format") != fmt:
        raise FormatError(f"{path} is not {what} manifest")
    version = manifest.get("version", 1)
    if type(version) is not int or version != 1:
        raise FormatError(f"{path}: key version must be 1, got {json.dumps(version)}")
    return manifest


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_kind(value) -> str:
    return _KIND_NAMES.get(type(value), type(value).__name__)


def manifest_value(node: dict, key: str, kind: type, source: Path, at: str = "",
                   optional: bool = False):
    """``node[key]``, checked to be of JSON type ``kind``.

    ``at`` is the key path of ``node`` inside the manifest ``source``. A
    ``float`` kind accepts integers; an ``int`` kind does not accept
    booleans. An ``optional`` key may be absent or null, and then gives None.
    """
    value = node.get(key)
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    if value is None and optional:
        return None
    where = f"{at}.{key}" if at else key
    if key not in node:
        raise FormatError(f"{source}: missing key {where}")
    raise FormatError(
        f"{source}: key {where} must be {_KIND_NAMES[kind]}, got {_json_kind(value)}"
    )


def manifest_records(node: dict, key: str, source: Path,
                     at: str = "") -> list[tuple[dict, str]]:
    """The objects of the list ``node[key]``, each with its key path."""
    where = f"{at}.{key}" if at else key
    records = []
    for i, rec in enumerate(manifest_value(node, key, list, source, at)):
        if not isinstance(rec, dict):
            raise FormatError(f"{source}: key {where}[{i}] must be an object")
        records.append((rec, f"{where}[{i}]"))
    return records
