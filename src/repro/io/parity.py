"""RAID-5-style XOR parity for the striped device.

A :class:`~repro.io.parallel.StripedDevice` built with ``parity=True``
keeps one extra *parity channel* next to its K data channels.  Blocks are
grouped into stripes of K consecutive block indexes — exactly one block
per data channel, since channel assignment is ``(uid + index) % K`` — and
the parity channel stores, per stripe, the XOR of the member blocks'
canonical encodings.  Losing any *single* member (a CRC-failed block, a
channel outage) is then recoverable: XOR the parity with the surviving
members and decode.

The canonical encoding is :func:`repro.io.persistent.encode_records`, the
tagged int/tuple scheme the persistent backend stores in variable-record
slots (this module re-exports it), so parity works for fixed-width record
blocks and variable-record (nested tuple) blocks alike.  Encodings differ in length
across blocks; XOR operands are zero-padded to the longest, and decoding
reads a self-delimiting prefix, so the padding is inert.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.exceptions import StorageError
from repro.io.persistent import decode_records, encode_records

__all__ = ["ParityStore", "encode_records", "decode_records", "xor_bytes"]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two byte strings, zero-padding the shorter one."""
    if len(a) < len(b):
        a, b = b, a
    out = bytearray(a)
    for i, byte in enumerate(b):
        out[i] ^= byte
    return bytes(out)


class ParityStore:
    """Per-stripe XOR parity over a striped device's files.

    Keyed by ``(file.uid, block_index // group_width)``: with
    ``group_width == K`` (the data channel count) each group's members sit
    on K distinct channels, so a single channel outage touches at most one
    member per group — the single-fault model RAID-5 covers.

    The store is maintained incrementally: every block write XORs
    ``old_encoding ^ new_encoding`` into the group's parity (an append
    contributes just ``new``), which is exactly the read-modify-write a
    real parity disk performs — and what the parity channel's ledger is
    charged for.  One lock makes each update and walk atomic across threads.
    """

    def __init__(self, group_width: int) -> None:
        if group_width < 1:
            raise StorageError(f"parity group width must be >= 1, got {group_width}")
        self.group_width = group_width
        self._parity: Dict[Tuple[int, int], bytes] = {}
        self._lock = threading.Lock()

    def _key(self, uid: int, index: int) -> Tuple[int, int]:
        return (uid, index // self.group_width)

    def group_range(self, index: int) -> Tuple[int, int]:
        """The ``[start, stop)`` block-index range of ``index``'s stripe."""
        start = (index // self.group_width) * self.group_width
        return start, start + self.group_width

    def update(
        self,
        uid: int,
        index: int,
        old_records: Optional[Sequence],
        new_records: Sequence,
    ) -> None:
        """Fold one block write into its group's parity."""
        delta = encode_records(new_records)
        if old_records is not None:
            delta = xor_bytes(delta, encode_records(old_records))
        key = self._key(uid, index)
        with self._lock:
            self._parity[key] = xor_bytes(self._parity.get(key, b""), delta)

    def reconstruct(
        self, uid: int, index: int, siblings: Iterable[Sequence]
    ) -> Optional[Tuple]:
        """Rebuild block ``index`` from parity and its surviving stripe
        members; ``None`` when no parity was ever written for the group."""
        with self._lock:
            data = self._parity.get(self._key(uid, index))
        if data is None:
            return None
        for records in siblings:
            data = xor_bytes(data, encode_records(records))
        return decode_records(data)

    def drop_file(self, uid: int) -> None:
        """Forget all parity for a deleted file."""
        with self._lock:
            for key in [key for key in self._parity if key[0] == uid]:
                del self._parity[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._parity)
