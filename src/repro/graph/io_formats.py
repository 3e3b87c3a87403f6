"""Import/export between real filesystem graph formats and the simulator.

Two interchange formats are supported:

* **edge-list text** — one ``u v`` pair per line, ``#`` comments allowed
  (the format of SNAP and of the WEBSPAM-UK2007 distribution);
* **packed binary** — little-endian ``<II`` pairs, the compact on-disk form
  a production deployment would use.

These operate on the *real* filesystem and convert to/from the in-simulator
:class:`~repro.graph.edge_file.EdgeFile`; they let examples persist generated
workloads and let users bring their own graphs.

Node ids are unsigned 4-byte integers, ``[0, 2**32)`` — the width the I/O
accounting charges per id.  The readers reject anything else with an
:class:`~repro.exceptions.EdgeListFormatError` naming the file, the line
(or byte offset) and the bad token.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

from repro.exceptions import EdgeListFormatError
from repro.io.blocks import BlockDevice
from repro.graph.edge_file import EdgeFile

__all__ = [
    "write_edge_text",
    "read_edge_text",
    "write_edge_binary",
    "read_edge_binary",
    "load_edge_file",
    "dump_edge_file",
]

Edge = Tuple[int, int]
PathLike = Union[str, Path]

_EDGE_STRUCT = struct.Struct("<II")

_NODE_ID_LIMIT = 1 << 32  # ids are unsigned 4-byte integers


def write_edge_text(path: PathLike, edges: Iterable[Edge]) -> int:
    """Write edges as ``u v`` lines; returns the number of edges written."""
    count = 0
    with open(path, "w", encoding="ascii") as f:
        for u, v in edges:
            f.write(f"{u} {v}\n")
            count += 1
    return count


def _node_id(token: bytes, path: PathLike, lineno: int) -> int:
    """Parse one node-id token of a text edge list."""
    if token.isdigit():
        node = int(token)
        if node < _NODE_ID_LIMIT:
            return node
    if token.removeprefix(b"-").isdigit():
        problem = "outside [0, 2**32)"
    else:
        problem = "not a non-negative integer"
    text = token.decode("ascii", "backslashreplace")
    raise EdgeListFormatError(f"{path}:{lineno}: node id {text!r} is {problem}")


def read_edge_text(path: PathLike) -> Iterator[Edge]:
    """Stream edges from a ``u v`` text file, skipping blanks and ``#`` lines.

    Raises:
        EdgeListFormatError: a line is not exactly two node ids in
            ``[0, 2**32)`` (non-ASCII bytes included).
    """
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0].startswith(b"#"):
                continue
            if len(parts) != 2:
                text = line.strip().decode("ascii", "backslashreplace")
                raise EdgeListFormatError(
                    f"{path}:{lineno}: expected 'u v', got {text!r}"
                )
            yield _node_id(parts[0], path, lineno), _node_id(parts[1], path, lineno)


def write_edge_binary(path: PathLike, edges: Iterable[Edge]) -> int:
    """Write edges as packed little-endian ``<II`` pairs; returns the count."""
    count = 0
    with open(path, "wb") as f:
        for u, v in edges:
            f.write(_EDGE_STRUCT.pack(u, v))
            count += 1
    return count


def read_edge_binary(path: PathLike) -> Iterator[Edge]:
    """Stream edges from a packed ``<II`` binary file.

    The unsigned 4-byte fields cannot hold an id outside ``[0, 2**32)``,
    so the only malformed input is a trailing partial record.

    Raises:
        EdgeListFormatError: the file ends inside a record.
    """
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_EDGE_STRUCT.size)
            if not chunk:
                return
            if len(chunk) != _EDGE_STRUCT.size:
                raise EdgeListFormatError(
                    f"{path}: truncated edge record at byte "
                    f"{f.tell() - len(chunk)} ({len(chunk)} of {_EDGE_STRUCT.size} bytes)"
                )
            yield _EDGE_STRUCT.unpack(chunk)  # type: ignore[misc]


def load_edge_file(
    device: BlockDevice, path: PathLike, name: str = "edges", binary: bool = False
) -> EdgeFile:
    """Load a real-filesystem edge list onto the simulated device."""
    edges = read_edge_binary(path) if binary else read_edge_text(path)
    return EdgeFile.from_edges(device, name, edges)


def dump_edge_file(edge_file: EdgeFile, path: PathLike, binary: bool = False) -> int:
    """Export a simulated edge file to the real filesystem."""
    if binary:
        return write_edge_binary(path, edge_file.scan())
    return write_edge_text(path, edge_file.scan())
