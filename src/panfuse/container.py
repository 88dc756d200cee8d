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
name the file and the key path of any fault. Every output file is written
by ``write_files`` or ``write_json``, after its command has encoded it.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import stat
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


def write_file(path: str | Path, data: bytes | str) -> None:
    """Replace the file ``path`` whole with ``data`` (a str is written as UTF-8).

    The bytes go to a hidden sibling, ``.<name>.<pid>.tmp``, which is renamed
    into place once it holds them all, so a reader or a killed process sees
    the old file, no file or the new one, never a part. The old file is
    unlinked before the rename: on ext4 a rename over an existing file, like
    an overwrite in place, makes the file system allocate and start writing
    the new blocks at once, which costs twice as much or more. Any OSError
    names ``path``, not the sibling.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    view = memoryview(data.encode() if isinstance(data, str) else data)
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None
    try:
        try:
            while view:  # a write may take fewer bytes than it is given
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.rename(tmp, path)
    except BaseException as e:  # an interrupt too leaves no sibling behind
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, path) from None
        raise


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    """Write an array (f32, f64 or u32) to a PANC file."""
    arr = np.asarray(arr)  # not ascontiguousarray, which makes rank 0 rank 1
    dt = arr.dtype.newbyteorder("<")
    if dt not in _CODES:
        raise FormatError(f"unsupported dtype {arr.dtype} for PANC container")
    header = MAGIC + struct.pack("<HBB", VERSION, _CODES[dt], arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    write_file(path, header + arr.astype(dt, copy=False).tobytes(order="C"))


def write_json(path: str | Path, obj) -> None:
    """Write a JSON file in the one style of every output file."""
    write_file(path, json.dumps(obj, indent=2, sort_keys=True))


def write_files(root: str | Path, files: dict) -> None:
    """Make the directory ``root`` with its parents, then write each of
    ``files`` (name -> array or JSON object) in order: an array as a PANC
    tensor, anything else as JSON."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, value in files.items():
        if isinstance(value, np.ndarray):
            write_tensor(root / name, value)
        else:
            write_json(root / name, value)


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


def _read_text(path: Path) -> str:
    """The text of ``path``, as ``Path.read_text`` reads it in UTF-8, from one
    open and one stat. Where ``Path.is_file`` would be False it raises
    FormatError; other OSErrors, such as a denied permission, go to the caller."""
    try:  # non-blocking, so a FIFO in its place is refused, not waited on
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the name
        if isinstance(e, OSError) and e.errno not in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
            raise
        raise FormatError(f"no {path.name} in {path.parent}") from None
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise FormatError(f"no {path.name} in {path.parent}")
        chunks = []  # read to the end, as the file may have grown since the stat
        while chunk := os.read(fd, st.st_size + 1):
            chunks.append(chunk)
    finally:
        os.close(fd)
    text = b"".join(chunks).decode()
    # Universal newlines, as in text mode, so a JSON error gives the same offset.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_manifest(path: Path, fmt: str, what: str) -> dict:
    """Parse a JSON manifest that must be an object whose ``format`` is ``fmt``
    and whose ``version``, if present, is 1.

    ``what`` names the manifest kind in errors, with its article.
    """
    try:
        manifest = json.loads(_read_text(path))
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
