"""Embeddings and exact inner-product search for the retrieve stage.

This is the module that loads numpy, and only the retrieve stage imports it:
`pipeline.stage_retrieve` and `pipeline.make_embedding_provider` import from
it in their bodies. The queries, settings and pseudo pairs live in
`xlpack.web`, which loads no numpy.

Embedding providers are injected: a seeded deterministic mock for tests, a
precomputed binary cache, and a single-endpoint wire provider. Their defaults
are `RetrievalConfig`'s.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .web import EmbeddingError, RetrievalConfig, RetrievalError

_NORM_TOLERANCE = 1e-6


@dataclass
class CandidateDoc:
    doc_id: str
    vector: np.ndarray


def _normalize(vec: np.ndarray, label: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise EmbeddingError(f"zero-norm embedding for {label}")
    if abs(norm - 1.0) > _NORM_TOLERANCE:
        vec = vec / norm
    return vec


class MockEmbeddingProvider:
    """Deterministic embeddings: a seeded hash of the text drives the RNG."""

    def __init__(self, dim: int = RetrievalConfig.dim, seed: int = RetrievalConfig.seed):
        self.dim = dim
        self.seed = seed

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            digest = hashlib.blake2b(
                f"{self.seed}:{text}".encode(), digest_size=8
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            out.append(_normalize(rng.standard_normal(self.dim), repr(text[:40])))
        return out


class CachedEmbeddingProvider:
    """Embeddings looked up from a precomputed text -> vector table."""

    def __init__(self, table: Mapping[str, np.ndarray]):
        self._table = table

    @classmethod
    def from_file(cls, path: str | Path) -> "CachedEmbeddingProvider":
        return cls(read_embedding_cache(path))

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        missing = [t for t in texts if t not in self._table]
        if missing:
            raise EmbeddingError(f"embedding cache is missing keys: {missing!r}")
        return [_normalize(self._table[t], repr(t[:40])) for t in texts]


class WireEmbeddingProvider:
    """POSTs {"texts": [...]} to one endpoint, expects {"vectors": [[...]]}.

    Failures are retried with exponential backoff up to max_retries, then an
    error naming the batch is raised.
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

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
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
                vectors = resp.json()["vectors"]
                if len(vectors) != len(texts):
                    raise EmbeddingError(
                        f"endpoint returned {len(vectors)} vectors for {len(texts)} texts"
                    )
                return [
                    _normalize(np.asarray(v, dtype=np.float64), repr(t[:40]))
                    for v, t in zip(vectors, texts)
                ]
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


class EmbeddingCache(Mapping[str, np.ndarray]):
    """The text -> vector table of a cache file, held as the file's bytes.

    Each value is a float32 view into those bytes; `_normalize` widens it to
    float64, which is exact.
    """

    def __init__(self, data: bytes, spans: dict[str, tuple[int, int]]):
        self._data = data
        self._spans = spans  # key -> (byte offset, dim) of its components

    def __getitem__(self, key: str) -> np.ndarray:
        offset, dim = self._spans[key]
        return np.frombuffer(self._data, dtype="<f4", count=dim, offset=offset)

    def __contains__(self, key: object) -> bool:
        return key in self._spans

    def __iter__(self) -> Iterator[str]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


def read_embedding_cache(path: str | Path) -> EmbeddingCache:
    spans: dict[str, tuple[int, int]] = {}
    data = Path(path).read_bytes()
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise RetrievalError(f"{path}: truncated record header at offset {pos}")
        (id_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + id_len + 4 > len(data):
            raise RetrievalError(f"{path}: truncated record at offset {pos - 4}")
        key = data[pos : pos + id_len].decode("utf-8")
        pos += id_len
        (dim,) = struct.unpack_from("<I", data, pos)
        pos += 4
        end = pos + 4 * dim
        if end > len(data):
            raise RetrievalError(f"{path}: truncated vector for {key!r}")
        spans[key] = (pos, dim)
        pos = end
    return EmbeddingCache(data, spans)


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
    def build(cls, docs: Iterable[CandidateDoc]) -> "VectorIndex":
        """Index `docs`, whose vectors must be unit vectors, as every
        provider's embed_batch returns them; they are not normalized again."""
        # Rows are appended to one buffer as they arrive, so no vector is held
        # twice; they are reordered only if the docs did not arrive by id.
        doc_ids: list[str] = []
        seen: set[str] = set()
        rows = bytearray()
        dim: int | None = None
        for doc in docs:
            if doc.doc_id in seen:
                raise RetrievalError(f"duplicate doc_id {doc.doc_id!r}")
            vec = np.asarray(doc.vector, dtype=np.float64)
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise RetrievalError(
                    f"doc {doc.doc_id!r} has dimension {vec.shape[0]}, index has {dim}"
                )
            seen.add(doc.doc_id)
            doc_ids.append(doc.doc_id)
            rows += vec.tobytes()
        if not doc_ids:
            return cls([], np.zeros((0, 0), dtype=np.float64))
        matrix = np.frombuffer(rows, dtype=np.float64).reshape(len(doc_ids), dim)
        order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        if order != list(range(len(doc_ids))):
            matrix = matrix[order]
            doc_ids = [doc_ids[i] for i in order]
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
