"""Single-file binary container: JSON header plus packed little-endian blobs.

Layout: 8-byte magic, uint32 header length, UTF-8 JSON header, raw payload.
The header carries a tensor index (name, shape, dtype, element offset), so
reads and writes round-trip bit-exactly and files are byte-stable for
identical inputs.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError, InputFileError

MAGIC = b"SASR0001"

_DTYPES = {"f4": "<f4", "f8": "<f8", "i8": "<i8"}


def save_container(path: str, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    index = []
    blobs = []
    offset = 0
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype == np.float32:
            code = "f4"
        elif arr.dtype == np.float64:
            code = "f8"
        elif arr.dtype == np.int64:
            code = "i8"
        else:
            raise FormatError(f"unsupported dtype {arr.dtype} for tensor {name}")
        blob = arr.astype(_DTYPES[code]).tobytes()
        index.append({"name": name, "shape": list(arr.shape), "dtype": code, "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    full_header = dict(header)
    full_header["tensors"] = index
    hjson = json.dumps(full_header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(hjson)))
        f.write(hjson)
        for blob in blobs:
            f.write(blob)


def load_container(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as ex:
        raise InputFileError(f"cannot read {path}: {ex}") from ex
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise FormatError(f"{path}: not a streamasr container (bad magic)")
    (hlen,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as ex:
        raise FormatError(f"{path}: corrupt header: {ex}") from ex
    if not isinstance(header, dict) or not isinstance(header.get("tensors", []), list):
        raise FormatError(f"{path}: header is not a JSON object with a tensor list")
    body = raw[12 + hlen :]
    tensors = {}
    for ent in header.pop("tensors", []):
        try:
            dt = np.dtype(_DTYPES[ent["dtype"]])
            n = int(np.prod(ent["shape"])) if ent["shape"] else 1
            start = ent["offset"]
            chunk = body[start : start + n * dt.itemsize]
            if len(chunk) != n * dt.itemsize:
                raise FormatError(f"{path}: truncated tensor {ent['name']}")
            tensors[ent["name"]] = np.frombuffer(chunk, dtype=dt).reshape(ent["shape"]).copy()
        except (KeyError, TypeError, ValueError) as ex:
            raise FormatError(f"{path}: bad tensor index entry {ent!r}: {ex!r}") from ex
    return header, tensors
