"""The one binary framing behind ``.mmss`` datasets and ``.mmck`` checkpoints.

A file is 4 magic bytes, a u32 format version, a u32 header length, the
header, each array's C-order bytes in the header's order, then a u32
``zlib.crc32`` of every byte before it; integers are little-endian. The
header is UTF-8 JSON: the owner's ``meta`` object and an ``arrays`` table
that lists each array as ``[name, dtype, shape]``, dtype one of ``DTYPES``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

DTYPES = ("<f8", "<f4", "|u1")
_FIXED = struct.Struct("<4sII")  # magic, version, header length


@contextmanager
def atomic_target(path):
    """Yield a temp path beside ``path``; rename it over ``path`` when the
    block succeeds, delete it when the block fails, so a failed write leaves
    the previous file whole and no temp file behind. There is no fsync: this
    guards against a failed write or a crashed process, not power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path, magic: bytes, version: int, meta: dict, arrays) -> None:
    """Write ``meta`` and ``(name, dtype, array)`` triples atomically. An array
    of its dtype in C order is written and checksummed from its own buffer."""
    arrays = [(name, np.ascontiguousarray(a, dtype=dtype)) for name, dtype, a in arrays]
    table = [[name, a.dtype.str, list(a.shape)] for name, a in arrays]
    header = json.dumps({"meta": meta, "arrays": table}).encode("utf-8")
    head = _FIXED.pack(magic, version, len(header)) + header
    crc = zlib.crc32(head)
    with atomic_target(path) as tmp, open(tmp, "wb") as fh:
        fh.write(head)
        for _, a in arrays:
            fh.write(a)
            crc = zlib.crc32(a, crc)
        fh.write(crc.to_bytes(4, "little"))


def read(path, magic: bytes, version: int, errors: tuple, check):
    """Read a container; returns what ``check(meta, table)`` returns and the
    arrays by name. ``errors`` are the owner's classes for a malformed file,
    a wrong magic, a wrong version and a size other than the header promises.
    ``check`` gets the header's ``meta`` and its ``(name, dtype, shape)``
    table after every size is checked against the file's, and before any
    array is allocated. Each array is read straight into one fresh array and
    checksummed from that buffer; none is returned unless the checksum matches.
    """
    malformed, bad_magic, bad_version, truncated = errors
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fixed = fh.read(_FIXED.size)
        if len(fixed) < _FIXED.size:
            raise truncated("file shorter than the fixed header")
        tag, got, length = _FIXED.unpack(fixed)
        if tag != magic:
            raise bad_magic(f"bad magic {tag!r}, expected {magic!r}")
        if got != version:
            raise bad_version(f"format version {got}, reader supports {version}")
        if _FIXED.size + length + 4 > size:
            raise truncated("truncated header")
        raw = fh.read(length)
        try:
            header = json.loads(raw.decode("utf-8"))
            meta = header["meta"]
            table = [(name, dtype, tuple(shape)) for name, dtype, shape in header["arrays"]]
            if not (set(header) == {"meta", "arrays"} and isinstance(meta, dict)
                    and all(isinstance(name, str) and dtype in DTYPES
                            and all(type(d) is int and d >= 0 for d in shape)
                            for name, dtype, shape in table)
                    and len({name for name, _, _ in table}) == len(table)):
                raise ValueError("not a meta object and a table of distinct arrays")
        except (ValueError, TypeError, KeyError, RecursionError) as exc:  # ValueError
            # covers UTF-8 and JSON decoding, RecursionError JSON nested too deep
            raise malformed(f"header is not UTF-8 JSON of a container: {exc!r}") from None
        promised = _FIXED.size + length + 4 + sum(
            math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in table)
        if promised != size:
            raise truncated(f"file is {size} bytes, its header promises {promised}")
        checked = check(meta, table)
        crc = zlib.crc32(raw, zlib.crc32(fixed))
        arrays = {}
        for name, dtype, shape in table:
            arr = np.empty(shape, dtype)
            if fh.readinto(arr) != arr.nbytes:  # the file shrank since fstat
                raise truncated(f"truncated array {name!r}")
            crc = zlib.crc32(arr, crc)
            arrays[name] = arr
        if fh.read() != crc.to_bytes(4, "little"):
            raise malformed("checksum does not match the file's content")
    return checked, arrays
