"""Embeddings and exact inner-product search for the retrieve stage.

This is the module that loads numpy, and only the retrieve stage imports it:
`pipeline.stage_retrieve` and `pipeline.make_embedding_provider` import from
it in their bodies. The queries, settings and pseudo pairs live in
`xlpack.web`, which loads no numpy.

Embedding providers are injected: a seeded deterministic mock for tests, a
precomputed binary cache, and a single-endpoint wire provider. Their defaults
are `RetrievalConfig`'s. `CachedEmbeddingProvider`, the cache's one class,
holds each text's (offset, dim) span, not the file's bytes: each vector is
read from the file by the provider call that uses it, so the index's float64
rows are the only copy of the corpus's embeddings that retrieve holds.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .web import EmbeddingError, RetrievalConfig, RetrievalError

_NORM_TOLERANCE = 1e-6


def _unit_rows(rows, texts: Sequence[str]) -> np.ndarray:
    """`rows`, one embedding per text, as a float64 matrix of unit rows.

    The rows are widened to float64 in one step (exact from float32). A row's
    norm is sqrt(row @ row), as np.linalg.norm computes it for one float64
    vector; a row within _NORM_TOLERANCE of 1 is kept as it is, any other is
    divided by its norm (in place), and a zero row raises, naming its text.
    """
    try:
        rows = np.asarray(rows).astype(np.float64, copy=False)
        if rows.ndim != 2 or len(rows) != len(texts):
            raise ValueError(f"rows of shape {rows.shape}")
    except (TypeError, ValueError) as e:  # rows of different lengths, or not numbers
        raise EmbeddingError(f"embedding batch of {len(texts)} texts: {e}") from None
    norms = np.sqrt([row @ row for row in rows])
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise EmbeddingError(f"zero-norm embedding for {texts[zero[0]][:40]!r}")
    off = np.abs(norms - 1.0) > _NORM_TOLERANCE
    rows[off] /= norms[off, None]
    return rows


class MockEmbeddingProvider:
    """Deterministic embeddings: a seeded hash of the text drives the RNG."""

    def __init__(self, dim: int = RetrievalConfig.dim, seed: int = RetrievalConfig.seed):
        self.dim = dim
        self.seed = seed

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        rows = np.empty((len(texts), self.dim))
        for row, text in zip(rows, texts):
            digest = hashlib.blake2b(
                f"{self.seed}:{text}".encode(), digest_size=8
            ).digest()
            np.random.default_rng(int.from_bytes(digest, "little")).standard_normal(out=row)
        return _unit_rows(rows, texts)


class CachedEmbeddingProvider:
    """Embeddings read from a precomputed cache file, a call's rows in one open.

    The constructor scans the record headers and keeps only each key's (byte
    offset, dim) span and the file's (size, st_mtime_ns) stamp, so the file's
    bytes are never held whole. `_unit_rows` widens the float32 rows to
    float64 in one step, which is exact.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._spans = spans = {}  # key -> (byte offset, dim) of its components
        with open(path, "rb", buffering=1 << 16) as f:
            self._stamp = _stamp(os.fstat(f.fileno()))
            size = self._stamp[0]
            pos = 0
            while pos < size:
                if pos + 4 > size:
                    raise RetrievalError(f"{path}: truncated record header at offset {pos}")
                (id_len,) = struct.unpack("<I", f.read(4))
                start = pos + 8 + id_len
                if start > size:
                    raise RetrievalError(f"{path}: truncated record at offset {pos}")
                head = f.read(id_len + 4)
                key = head[:id_len].decode("utf-8")
                (dim,) = struct.unpack_from("<I", head, id_len)
                pos = start + 4 * dim
                if pos > size:
                    raise RetrievalError(f"{path}: truncated vector for {key!r}")
                spans[key] = (start, dim)
                f.seek(pos)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Each text's vector is read from its offset straight into its row.
        The file is checked after the reads, so one rewritten before or during
        them is refused rather than read as different vectors."""
        missing = [t for t in texts if t not in self._spans]
        if missing:
            raise EmbeddingError(f"embedding cache is missing keys: {missing!r}")
        spans = [self._spans[t] for t in texts]
        dims = {dim for _, dim in spans}
        if len(dims) > 1:
            raise EmbeddingError(f"embedding batch of {len(texts)} texts: dims {sorted(dims)}")
        out = np.empty((len(texts), dims.pop() if dims else 0), dtype="<f4")
        with open(self.path, "rb", buffering=0) as f:
            fd = f.fileno()
            for text, row, (offset, dim) in zip(texts, out, spans):
                if os.preadv(fd, [row], offset) != 4 * dim:
                    raise RetrievalError(f"{self.path}: short read of the vector for {text!r}")
            if _stamp(os.fstat(fd)) != self._stamp:
                raise RetrievalError(f"{self.path}: changed since it was scanned")
        return _unit_rows(out, texts)


def _stamp(st: os.stat_result) -> tuple[int, int]:
    return st.st_size, st.st_mtime_ns


class WireEmbeddingProvider:
    """POSTs {"texts": [...]} to one endpoint, expects {"vectors": [[...]]}.

    Failures are retried with exponential backoff up to max_retries, then an
    error naming the batch is raised. A response that is not one vector per
    text, all of one length, raises at once.
    """

    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        timeout_s: float = RetrievalConfig.timeout_s,
        max_retries: int = RetrievalConfig.max_retries,
        backoff_s: float = 0.5,
    ):
        self.endpoint = endpoint
        self.auth_token = auth_token
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        import requests  # imported here so that runs without this provider never load it

        headers = {}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_s * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    self.endpoint,
                    json={"texts": list(texts)},
                    headers=headers,
                    timeout=self.timeout_s,
                )
                resp.raise_for_status()
                return _unit_rows(resp.json()["vectors"], texts)
            except (requests.RequestException, KeyError, ValueError) as e:
                last_error = e
        raise EmbeddingError(
            f"embedding batch of {len(texts)} texts failed after "
            f"{self.max_retries + 1} attempts: {last_error}"
        )


def write_embedding_cache(path: str | Path, table: Mapping[str, np.ndarray]) -> None:
    """Binary cache records: u32 id length, id bytes, u32 dim, f32-LE components."""
    with open(path, "wb") as f:
        for key, vec in table.items():
            raw = key.encode("utf-8")
            arr = np.asarray(vec, dtype="<f4")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.size))
            f.write(arr.tobytes())


class VectorIndex:
    """Exact top-k inner-product search over unit vectors.

    Rows are held sorted by doc id, which both makes results independent of
    insertion order and lets ascending row order break score ties by
    ascending doc id.
    """

    def __init__(self, doc_ids: list[str], matrix: np.ndarray):
        self.doc_ids = doc_ids
        self.matrix = matrix

    @classmethod
    def build(cls, batches: Iterable[tuple[Sequence[str], np.ndarray]]) -> "VectorIndex":
        """Index `batches` of (doc ids, rows), one row per id. The rows must
        be unit rows, as every provider's embed_batch returns them; they are
        not normalized again."""
        # Batches are appended to one buffer as they arrive, so no row is held
        # twice; rows are reordered only if the docs did not arrive by id.
        doc_ids: list[str] = []
        buffer = bytearray()
        dim: int | None = None
        for ids, rows in batches:
            rows = np.asarray(rows, dtype=np.float64)
            if dim is None and rows.ndim == 2:
                dim = rows.shape[1]
            if rows.shape != (len(ids), dim):
                raise RetrievalError(f"batch from doc {ids[0]!r} has shape {rows.shape}, "
                                     f"index has dimension {dim}")
            doc_ids += ids
            buffer += rows.tobytes()
        if not doc_ids:
            return cls([], np.zeros((0, 0), dtype=np.float64))
        matrix = np.frombuffer(buffer, dtype=np.float64).reshape(len(doc_ids), dim)
        order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        if order != list(range(len(doc_ids))):
            matrix = matrix[order]
            doc_ids = [doc_ids[i] for i in order]
        for a, b in zip(doc_ids, doc_ids[1:]):
            if a == b:
                raise RetrievalError(f"duplicate doc_id {a!r}")
        return cls(doc_ids, matrix)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """Score an (m, d) query block against every row; per query, its top k rows.

        Returns the (m, len(self)) score block and, for each query, the rows
        of its k highest scores by descending score, ties by ascending row
        (that is, by doc id). A partition finds the k-th score; only the rows
        scoring at least that much are sorted, so a tie that straddles rank k
        still goes to the lower doc id.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        queries = np.asarray(queries, dtype=np.float64)
        if not self.doc_ids:
            return np.zeros((len(queries), 0)), [np.zeros(0, dtype=np.intp)] * len(queries)
        if queries.ndim != 2 or queries.shape[1] != self.matrix.shape[1]:
            raise RetrievalError(
                f"query block has shape {queries.shape}, index has dimension "
                f"{self.matrix.shape[1]}"
            )
        scores = queries @ self.matrix.T
        kth = max(len(self.doc_ids) - k, 0)  # where the k-th highest score sorts ascending
        top = []
        for row in scores:
            floor = row[np.argpartition(row, kth)[kth]]
            rows = np.flatnonzero(row >= floor)
            top.append(rows[np.argsort(-row[rows], kind="stable")[:k]])
        return scores, top
