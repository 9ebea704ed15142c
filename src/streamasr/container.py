"""Single-file binary container: JSON header plus packed float32 tensors.

Layout: 8-byte magic, uint32 header length, UTF-8 JSON header, payload. The
header carries a tensor index (name, shape, dtype "f4", byte offset). The
payload is the little-endian float32 tensors back to back from offset 0, in
index order, with nothing after the last one, so reads and writes
round-trip bit-exactly and files are byte-stable for identical inputs.
load_container accepts exactly that layout.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError, InputFileError

MAGIC = b"SASR0001"


def file_path(path) -> str | os.PathLike:
    """`path` if it is a str or an os.PathLike; InputFileError for anything
    else, before anything is opened (open() takes an int as a file
    descriptor)."""
    if not isinstance(path, (str, os.PathLike)):
        raise InputFileError(f"a file path must be a str or os.PathLike, got {path!r}")
    return path


def save_container(path: str, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    index = []
    blobs = []
    offset = 0
    for name, arr in arrays:
        if arr.dtype != np.float32:
            raise FormatError(f"tensor {name} is {arr.dtype}; containers hold float32 only")
        if any(e["name"] == name for e in index):
            raise FormatError(f"tensor {name} is listed twice")
        blob = arr.astype("<f4").tobytes()
        index.append({"name": name, "shape": list(arr.shape), "dtype": "f4", "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    full_header = dict(header)
    full_header["tensors"] = index
    hjson = json.dumps(full_header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(file_path(path), "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(hjson)))
        f.write(hjson)
        for blob in blobs:
            f.write(blob)


def load_container(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with open(file_path(path), "rb") as f:
            raw = f.read()
    except OSError as ex:
        raise InputFileError(f"cannot read {path}: {ex}") from ex
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise FormatError(f"{path}: not a streamasr container (bad magic)")
    (hlen,) = struct.unpack("<I", raw[8:12])
    if 12 + hlen > len(raw):
        raise FormatError(f"{path}: header of {hlen} bytes runs past the end of the file")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as ex:  # bad UTF-8 or JSON, huge integers, deep nesting
        raise FormatError(f"{path}: corrupt header: {ex}") from ex
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise FormatError(f"{path}: header is not a JSON object with a tensor list")
    body = memoryview(raw)[12 + hlen :]  # a view: a bytes slice would copy the payload
    tensors = {}
    pos = 0
    for ent in header.pop("tensors"):
        # exactly what save_container writes: a new name, float32, the running offset
        if not (isinstance(ent, dict) and isinstance(ent.get("name"), str)
                and ent["name"] not in tensors and ent.get("dtype") == "f4"
                and type(ent.get("offset")) is int and ent["offset"] == pos
                and isinstance(ent.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in ent["shape"])):
            raise FormatError(f"{path}: tensor index entry {ent!r} is not a new float32 "
                              f"tensor at offset {pos}")
        n = math.prod(ent["shape"])
        if pos + 4 * n > len(body):
            raise FormatError(f"{path}: truncated tensor {ent['name']}")
        tensors[ent["name"]] = np.frombuffer(body, "<f4", n, pos).reshape(ent["shape"]).copy()
        pos += 4 * n
    if pos != len(body):
        raise FormatError(f"{path}: {len(body) - pos} bytes after the last tensor")
    return header, tensors
