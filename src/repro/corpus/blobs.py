"""Blob codecs and the append-only pack file.

Three blob kinds cover everything a run's TWPP holds:

* **body** (:data:`KIND_BODY`) -- one unique compacted path trace in
  TWPP form, encoded exactly like its segment of a ``.twpp`` section
  (:func:`repro.compact.format._serialize_section`'s per-body layout),
  so identical bodies across runs serialize to identical bytes.
* **dict** (:data:`KIND_DICT`) -- one DBB dictionary, again the
  section's per-dictionary layout.
* **dcg chunk** (:data:`KIND_DCG`) -- a fixed-size slice of the DCG's
  raw ``(func, trace)`` varint stream, LZW-compressed.  The stream of
  a shorter run of the same program is a byte prefix of a longer
  run's (activations only ever append in preorder), so fixed-offset
  chunking lets runs that differ only in how long they ran share every
  chunk but the tail -- without it, each run's DCG would be a single
  never-deduplicated blob dominating corpus growth.

Every blob is addressed by ``sha1(kind byte + payload)``.  The pack
file is self-describing -- each record is ``kind byte, uvarint payload
length, payload`` after a small header -- so the catalog's blob index
can always be rebuilt by replaying the pack
(:meth:`BlobPack.iter_records`).
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Iterator, Tuple, Union

from ..compact.dbb import DbbDictionary
from ..compact.lzw import lzw_compress, lzw_decompress
from ..compact.series import decode_entry_stream, encode_entry_stream
from ..compact.twpp import TwppPathTrace
from ..trace.encoding import (
    check_count,
    decode_uvarints,
    encode_uvarints,
    read_uvarint,
    write_uvarint,
)

PathLike = Union[str, "os.PathLike[str]"]

KIND_BODY = 1
KIND_DICT = 2
KIND_DCG = 3

KIND_NAMES = {KIND_BODY: "body", KIND_DICT: "dict", KIND_DCG: "dcg"}

#: Raw bytes of DCG pair stream per chunk blob.  Small enough that the
#: divergent tail of a run costs at most one chunk, large enough that
#: per-chunk LZW still compresses and per-chunk bookkeeping stays
#: negligible.
DCG_CHUNK_BYTES = 1024

#: sha1 digest size; every blob address is this long.
SHA_BYTES = 20

PACK_MAGIC = b"CWPK"
PACK_VERSION = 1

__all__ = [
    "BlobPack",
    "DCG_CHUNK_BYTES",
    "KIND_BODY",
    "KIND_DCG",
    "KIND_DICT",
    "KIND_NAMES",
    "PACK_MAGIC",
    "SHA_BYTES",
    "blob_sha",
    "decode_body",
    "decode_dcg_chunk",
    "decode_dictionary",
    "encode_body",
    "encode_dcg_chunk",
    "encode_dictionary",
]


def blob_sha(kind: int, payload: bytes) -> bytes:
    """Content address of one blob: sha1 over the kind byte + payload."""
    return hashlib.sha1(bytes([kind]) + payload).digest()


# ---------------------------------------------------------------------------
# codecs


def encode_body(twpp: TwppPathTrace) -> bytes:
    """One TWPP path trace, byte-identical to its ``.twpp`` section segment."""
    buf = bytearray()
    write_uvarint(buf, len(twpp.entries))
    for block, stream in twpp.entries:
        write_uvarint(buf, block)
        write_uvarint(buf, len(stream))
        buf += encode_entry_stream(stream)
    return bytes(buf)


def decode_body(data: bytes) -> TwppPathTrace:
    """Inverse of :func:`encode_body`; rejects trailing bytes."""
    n_blocks, offset = read_uvarint(data, 0)
    check_count(n_blocks, data, offset)
    entries = []
    for _ in range(n_blocks):
        block, offset = read_uvarint(data, offset)
        stream_len, offset = read_uvarint(data, offset)
        stream, offset = decode_entry_stream(data, offset, stream_len)
        entries.append((block, tuple(stream)))
    if offset != len(data):
        raise ValueError("body blob has trailing bytes")
    return TwppPathTrace(entries=tuple(entries))


def encode_dictionary(dictionary: DbbDictionary) -> bytes:
    """One DBB dictionary, byte-identical to its ``.twpp`` section segment."""
    buf = bytearray()
    write_uvarint(buf, len(dictionary.chains))
    for chain in dictionary.chains:
        write_uvarint(buf, len(chain))
        buf += encode_uvarints(chain)
    return bytes(buf)


def decode_dictionary(data: bytes) -> DbbDictionary:
    """Inverse of :func:`encode_dictionary`; rejects trailing bytes."""
    n_chains, offset = read_uvarint(data, 0)
    check_count(n_chains, data, offset)
    chains = []
    for _ in range(n_chains):
        chain_len, offset = read_uvarint(data, offset)
        chain, offset = decode_uvarints(data, offset, chain_len)
        chains.append(tuple(chain))
    if offset != len(data):
        raise ValueError("dictionary blob has trailing bytes")
    return DbbDictionary(chains=tuple(chains))


def encode_dcg_chunk(raw: bytes) -> bytes:
    """One raw DCG pair-stream slice: uvarint raw length, LZW bytes."""
    comp = lzw_compress(raw)
    buf = bytearray()
    write_uvarint(buf, len(raw))
    buf += comp
    return bytes(buf)


def decode_dcg_chunk(data: bytes) -> bytes:
    """Inverse of :func:`encode_dcg_chunk`: the raw pair-stream slice."""
    raw_len, offset = read_uvarint(data, 0)
    raw = lzw_decompress(bytes(data[offset:]))
    if len(raw) != raw_len:
        raise ValueError("DCG chunk length mismatch after LZW decompression")
    return raw


def split_dcg_stream(stream: bytes) -> list:
    """Fixed-offset chunking of a raw DCG pair stream."""
    return [
        stream[i : i + DCG_CHUNK_BYTES]
        for i in range(0, len(stream), DCG_CHUNK_BYTES)
    ] or [b""]


# ---------------------------------------------------------------------------
# pack file


class BlobPack:
    """Append-only record file holding every blob payload of a corpus.

    Records are framed ``kind byte, uvarint payload length, payload``
    after a 5-byte header (magic + version), so the file alone suffices
    to rebuild the catalog's blob index.  ``append`` returns the
    payload's (offset, length) -- what the catalog stores -- and
    ``read`` serves it back with one seek.  Thread-safe behind one
    lock; appends are flushed before returning so a catalog row never
    points past the end of the pack.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._fh = open(self.path, "a+b")
        if exists:
            self._fh.seek(0)
            header = self._fh.read(5)
            if header[:4] != PACK_MAGIC:
                raise ValueError(f"{self.path}: not a corpus pack file")
            if header[4] != PACK_VERSION:
                raise ValueError(
                    f"{self.path}: pack version {header[4]} not supported"
                )
        else:
            self._fh.write(PACK_MAGIC + bytes([PACK_VERSION]))
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def __enter__(self) -> "BlobPack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def append(self, kind: int, payload: bytes) -> Tuple[int, int]:
        """Write one record; returns the payload's (offset, length)."""
        frame = bytearray([kind])
        write_uvarint(frame, len(payload))
        with self._lock:
            self._fh.seek(0, os.SEEK_END)
            base = self._fh.tell()
            self._fh.write(frame)
            self._fh.write(payload)
            self._fh.flush()
        return base + len(frame), len(payload)

    def read(self, offset: int, length: int) -> bytes:
        """One payload back by (offset, length)."""
        with self._lock:
            self._fh.seek(offset)
            payload = self._fh.read(length)
        if len(payload) != length:
            raise ValueError(
                f"{self.path}: truncated blob at offset {offset}"
            )
        return payload

    def size(self) -> int:
        with self._lock:
            self._fh.seek(0, os.SEEK_END)
            return self._fh.tell()

    def truncate(self, size: int) -> None:
        """Drop every record appended past ``size`` (a prior :meth:`size`).

        Undoes the appends of an ingest whose catalog rows rolled back.
        """
        with self._lock:
            self._fh.truncate(size)
            self._fh.flush()

    def iter_records(self) -> Iterator[Tuple[bytes, int, int, int]]:
        """Replay the pack: yields (sha, kind, offset, length) per record.

        The rebuild path for a lost catalog, and the integrity walk for
        tests: shas are recomputed from the payloads as they stream by.
        """
        with self._lock:
            self._fh.seek(0, os.SEEK_END)
            end = self._fh.tell()
        cursor = 5  # past magic + version
        while cursor < end:
            with self._lock:
                self._fh.seek(cursor)
                head = self._fh.read(10)
            if not head:
                return
            kind = head[0]
            length, varint_end = read_uvarint(head, 1)
            offset = cursor + 1 + (varint_end - 1)
            payload = self.read(offset, length)
            yield blob_sha(kind, payload), kind, offset, length
            cursor = offset + length
