"""A format-3 archive reader and writer for tests, written apart from ``fnode.serialize``.

A format-3 archive is a magic line, one line of compact JSON (the header) and
a payload of little-endian float64 blocks.  Each array in the header is
``{"offset": <byte offset into the payload>, "shape": [...]}``.

:func:`read` returns the header with every array entry replaced by the
ndarray it points to, and :func:`write` lays such a document out again, its
blocks in the order the document lists its arrays.  :func:`read_raw` and
:func:`write_raw` give the header and the payload as they are, so a test can
corrupt either one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MAGIC = b"fnode-archive\n"


def header_line(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")


def read_raw(path) -> tuple[dict, bytes]:
    data = Path(path).read_bytes()
    assert data.startswith(MAGIC), "not a format-3 archive"
    line, newline, payload = data[len(MAGIC):].partition(b"\n")
    assert newline, "the header line has no end"
    return json.loads(line), payload


def write_raw(path, header: dict, payload: bytes) -> None:
    Path(path).write_bytes(MAGIC + header_line(header) + b"\n" + payload)


def _is_array_entry(node) -> bool:
    return isinstance(node, dict) and set(node) == {"offset", "shape"}


def read(path) -> dict:
    header, payload = read_raw(path)

    def decode(node):
        if _is_array_entry(node):
            count = 1
            for n in node["shape"]:
                count *= n
            start = node["offset"]
            raw = payload[start:start + 8 * count]
            assert len(raw) == 8 * count, "block runs past the payload"
            return np.frombuffer(raw, dtype="<f8").reshape(node["shape"]).copy()
        if isinstance(node, dict):
            return {key: decode(value) for key, value in node.items()}
        return node

    return decode(header)


def write(path, doc: dict) -> None:
    chunks: list[bytes] = []

    def encode(node):
        if isinstance(node, np.ndarray):
            entry = {"offset": sum(len(c) for c in chunks), "shape": list(node.shape)}
            chunks.append(node.astype("<f8").tobytes())
            return entry
        if isinstance(node, dict):
            return {key: encode(value) for key, value in node.items()}
        return node

    header = encode(doc)
    write_raw(path, header, b"".join(chunks))
