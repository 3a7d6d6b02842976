"""Run manifests and scan digests.

A **manifest** is what a run's TWPP becomes once its content lives in
the corpus: per function (in original DCG index order) the call count
and the blob ids of its unique bodies and dictionaries, the local
(body, dictionary) pairs exactly as the ``.twpp`` section stored them,
and the ordered DCG chunk blob ids plus node count.  Blob ids are the
corpus catalog's -- varint-small where a 20-byte sha per reference
would rival the sections it replaces -- and resolve through the
catalog or by replaying the self-describing pack.

A **digest** (:class:`RunDigest`) is the transportable intermediate
:func:`scan_run` produces from a warm query engine: the same structure
but carrying shas and full blob payloads, so a worker process can scan
a ``.twpp`` against its own mmap and ship one compact frame back for
the parent to ingest (:func:`encode_digest` / :func:`decode_digest`
-- shas are recomputed on decode, so the frame is self-validating).
Ingestion order is the digest's blob order, which makes catalog and
pack contents byte-identical whether runs were scanned serially or by
a pool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..compact.qserve import QueryEngine
from ..trace.dcg import DynamicCallGraph
from ..trace.encoding import (
    check_count,
    decode_uvarints,
    encode_uvarints,
    read_string,
    read_uvarint,
    write_string,
    write_uvarint,
)
from .blobs import (
    KIND_BODY,
    KIND_DCG,
    KIND_DICT,
    blob_sha,
    encode_body,
    encode_dcg_chunk,
    encode_dictionary,
    split_dcg_stream,
)

MANIFEST_MAGIC = b"CWPM"
MANIFEST_VERSION = 1

__all__ = [
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "DigestFunction",
    "ManifestFunction",
    "RunDigest",
    "RunManifest",
    "decode_digest",
    "decode_manifest",
    "encode_digest",
    "encode_manifest",
    "scan_run",
]


# ---------------------------------------------------------------------------
# on-disk manifest


@dataclass(frozen=True)
class ManifestFunction:
    """One function's membership: catalog blob ids plus local pairs."""

    name: str
    call_count: int
    bodies: Tuple[int, ...]  # blob ids, in body-table order
    dicts: Tuple[int, ...]  # blob ids, in dict-table order
    pairs: Tuple[Tuple[int, int], ...]  # (body idx, dict idx), local


@dataclass(frozen=True)
class RunManifest:
    """One ingested run, as stored in ``runs/<run>.manifest``."""

    run: str
    source: str
    dcg_nodes: int
    dcg_chunks: Tuple[int, ...]  # blob ids, in stream order
    functions: Tuple[ManifestFunction, ...]  # original-index order


def encode_manifest(manifest: RunManifest) -> bytes:
    buf = bytearray()
    buf += MANIFEST_MAGIC
    write_uvarint(buf, MANIFEST_VERSION)
    write_string(buf, manifest.run)
    write_string(buf, manifest.source)
    write_uvarint(buf, manifest.dcg_nodes)
    write_uvarint(buf, len(manifest.dcg_chunks))
    buf += encode_uvarints(manifest.dcg_chunks)
    write_uvarint(buf, len(manifest.functions))
    for fn in manifest.functions:
        write_string(buf, fn.name)
        write_uvarint(buf, fn.call_count)
        write_uvarint(buf, len(fn.bodies))
        buf += encode_uvarints(fn.bodies)
        write_uvarint(buf, len(fn.dicts))
        buf += encode_uvarints(fn.dicts)
        write_uvarint(buf, len(fn.pairs))
        flat: List[int] = []
        for body_idx, dict_idx in fn.pairs:
            flat.append(body_idx)
            flat.append(dict_idx)
        buf += encode_uvarints(flat)
    return bytes(buf)


def decode_manifest(data: bytes) -> RunManifest:
    if data[:4] != MANIFEST_MAGIC:
        raise ValueError("not a corpus run manifest")
    version, offset = read_uvarint(data, 4)
    if version != MANIFEST_VERSION:
        raise ValueError(f"manifest version {version} not supported")
    run, offset = read_string(data, offset)
    source, offset = read_string(data, offset)
    dcg_nodes, offset = read_uvarint(data, offset)
    n_chunks, offset = read_uvarint(data, offset)
    chunks, offset = decode_uvarints(data, offset, n_chunks)
    n_functions, offset = read_uvarint(data, offset)
    check_count(n_functions, data, offset, min_bytes=0)
    functions = []
    for _ in range(n_functions):
        name, offset = read_string(data, offset)
        call_count, offset = read_uvarint(data, offset)
        n_bodies, offset = read_uvarint(data, offset)
        bodies, offset = decode_uvarints(data, offset, n_bodies)
        n_dicts, offset = read_uvarint(data, offset)
        dicts, offset = decode_uvarints(data, offset, n_dicts)
        n_pairs, offset = read_uvarint(data, offset)
        flat, offset = decode_uvarints(data, offset, 2 * n_pairs)
        functions.append(
            ManifestFunction(
                name=name,
                call_count=call_count,
                bodies=tuple(bodies),
                dicts=tuple(dicts),
                pairs=tuple(zip(flat[0::2], flat[1::2])),
            )
        )
    if offset != len(data):
        raise ValueError("manifest has trailing bytes")
    return RunManifest(
        run=run,
        source=source,
        dcg_nodes=dcg_nodes,
        dcg_chunks=tuple(chunks),
        functions=tuple(functions),
    )


# ---------------------------------------------------------------------------
# scan digests


@dataclass(frozen=True)
class DigestFunction:
    """One scanned function: sha references plus per-pair DCG weights."""

    name: str
    call_count: int
    body_shas: Tuple[bytes, ...]
    dict_shas: Tuple[bytes, ...]
    pairs: Tuple[Tuple[int, int], ...]
    weights: Tuple[int, ...]  # activations per pair, from the DCG


@dataclass(frozen=True)
class RunDigest:
    """Everything ingestion needs from one ``.twpp``, engine-free."""

    functions: Tuple[DigestFunction, ...]  # original-index order
    dcg_nodes: int
    dcg_shas: Tuple[bytes, ...]  # chunk shas, stream order
    blobs: Tuple[Tuple[bytes, int, bytes], ...]  # (sha, kind, payload)
    twpp_bytes: int


def scan_run(engine) -> RunDigest:
    """Digest one ``.twpp`` through a warm query engine.

    Functions come out in original DCG index order; blobs in
    first-reference order (bodies and dictionaries function by
    function, then the DCG chunks) so every scanner emits the same
    digest for the same file.
    """
    dcg = engine.dcg()
    per_func: Dict[int, Dict[int, int]] = {}
    for func_idx, pair_id in zip(dcg.node_func, dcg.node_trace):
        weights = per_func.setdefault(func_idx, {})
        weights[pair_id] = weights.get(pair_id, 0) + 1

    blobs: Dict[bytes, Tuple[int, bytes]] = {}

    def intern(kind: int, payload: bytes) -> bytes:
        sha = blob_sha(kind, payload)
        blobs.setdefault(sha, (kind, payload))
        return sha

    functions = []
    entries = sorted(engine.header.entries, key=lambda e: e.original_index)
    for entry in entries:
        fc = engine.extract(entry.name)
        body_shas = tuple(
            intern(KIND_BODY, encode_body(twpp)) for twpp in fc.twpp_table
        )
        dict_shas = tuple(
            intern(KIND_DICT, encode_dictionary(d)) for d in fc.dict_table
        )
        weights = per_func.get(entry.original_index, {})
        functions.append(
            DigestFunction(
                name=entry.name,
                call_count=entry.call_count,
                body_shas=body_shas,
                dict_shas=dict_shas,
                pairs=tuple(fc.pairs),
                weights=tuple(
                    weights.get(i, 0) for i in range(len(fc.pairs))
                ),
            )
        )

    raw = dcg.serialize()
    _, stream_start = read_uvarint(raw, 0)  # node count leads the stream
    dcg_shas = tuple(
        intern(KIND_DCG, encode_dcg_chunk(chunk))
        for chunk in split_dcg_stream(raw[stream_start:])
    )
    return RunDigest(
        functions=tuple(functions),
        dcg_nodes=len(dcg),
        dcg_shas=dcg_shas,
        blobs=tuple((sha, k, p) for sha, (k, p) in blobs.items()),
        twpp_bytes=os.stat(engine.path).st_size,
    )


def scan_file(path: str, warm=None, metrics=None) -> RunDigest:
    """Digest one ``.twpp`` path without leaving an engine open for it.

    ``warm`` is the caller's already open engine for the path, if any,
    and serves the scan; otherwise a transient uncached engine does and
    is closed before returning, so a scan pins neither the file's mmap
    nor a decoded cache.
    """
    if warm is not None:
        return scan_run(warm)
    with QueryEngine(path, cache_bytes=0, metrics=metrics) as engine:
        return scan_run(engine)


def assemble_dcg(node_count: int, chunks: List[bytes]) -> DynamicCallGraph:
    """Rebuild a DCG from its node count plus raw chunk slices."""
    buf = bytearray()
    write_uvarint(buf, node_count)
    for chunk in chunks:
        buf += chunk
    return DynamicCallGraph.deserialize(bytes(buf))


# ---------------------------------------------------------------------------
# digest wire codec (worker -> parent)


def encode_digest(digest: RunDigest) -> bytes:
    buf = bytearray()
    write_uvarint(buf, digest.twpp_bytes)
    write_uvarint(buf, digest.dcg_nodes)
    write_uvarint(buf, len(digest.blobs))
    index: Dict[bytes, int] = {}
    for sha, kind, payload in digest.blobs:
        index[sha] = len(index)
        buf.append(kind)
        write_uvarint(buf, len(payload))
        buf += payload
    write_uvarint(buf, len(digest.dcg_shas))
    buf += encode_uvarints([index[sha] for sha in digest.dcg_shas])
    write_uvarint(buf, len(digest.functions))
    for fn in digest.functions:
        write_string(buf, fn.name)
        write_uvarint(buf, fn.call_count)
        write_uvarint(buf, len(fn.body_shas))
        buf += encode_uvarints([index[sha] for sha in fn.body_shas])
        write_uvarint(buf, len(fn.dict_shas))
        buf += encode_uvarints([index[sha] for sha in fn.dict_shas])
        write_uvarint(buf, len(fn.pairs))
        flat: List[int] = []
        for body_idx, dict_idx in fn.pairs:
            flat.append(body_idx)
            flat.append(dict_idx)
        buf += encode_uvarints(flat)
        buf += encode_uvarints(fn.weights)
    return bytes(buf)


def decode_digest(data: bytes) -> RunDigest:
    twpp_bytes, offset = read_uvarint(data, 0)
    dcg_nodes, offset = read_uvarint(data, offset)
    n_blobs, offset = read_uvarint(data, offset)
    check_count(n_blobs, data, offset, min_bytes=0)
    blobs: List[Tuple[bytes, int, bytes]] = []
    shas: List[bytes] = []
    for _ in range(n_blobs):
        kind = data[offset]
        offset += 1
        length, offset = read_uvarint(data, offset)
        payload = bytes(data[offset : offset + length])
        if len(payload) != length:
            raise ValueError("truncated blob payload in run digest")
        offset += length
        sha = blob_sha(kind, payload)
        blobs.append((sha, kind, payload))
        shas.append(sha)
    n_chunks, offset = read_uvarint(data, offset)
    chunk_refs, offset = decode_uvarints(data, offset, n_chunks)
    n_functions, offset = read_uvarint(data, offset)
    check_count(n_functions, data, offset, min_bytes=0)
    functions = []
    for _ in range(n_functions):
        name, offset = read_string(data, offset)
        call_count, offset = read_uvarint(data, offset)
        n_bodies, offset = read_uvarint(data, offset)
        body_refs, offset = decode_uvarints(data, offset, n_bodies)
        n_dicts, offset = read_uvarint(data, offset)
        dict_refs, offset = decode_uvarints(data, offset, n_dicts)
        n_pairs, offset = read_uvarint(data, offset)
        flat, offset = decode_uvarints(data, offset, 2 * n_pairs)
        weights, offset = decode_uvarints(data, offset, n_pairs)
        functions.append(
            DigestFunction(
                name=name,
                call_count=call_count,
                body_shas=tuple(shas[i] for i in body_refs),
                dict_shas=tuple(shas[i] for i in dict_refs),
                pairs=tuple(zip(flat[0::2], flat[1::2])),
                weights=tuple(weights),
            )
        )
    if offset != len(data):
        raise ValueError("run digest has trailing bytes")
    return RunDigest(
        functions=tuple(functions),
        dcg_nodes=dcg_nodes,
        dcg_shas=tuple(shas[i] for i in chunk_refs),
        blobs=tuple(blobs),
        twpp_bytes=twpp_bytes,
    )
