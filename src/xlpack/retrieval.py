"""Embeddings and exact inner-product search for the retrieve stage.

This is the module that loads numpy, and only the retrieve stage imports it:
`pipeline.stage_retrieve` and `pipeline.make_embedding_provider` import from
it in their bodies. The queries, settings and pseudo pairs live in
`xlpack.web`, which loads no numpy.

Embedding providers are injected: a seeded deterministic mock for tests, a
precomputed binary cache, and a single-endpoint wire provider. Their defaults
are `RetrievalConfig`'s. `CachedEmbeddingProvider`, the cache's one class,
holds a sorted table of key digests with each record's offset and dim, not
the file's bytes and no text: each vector is read from the file by the
provider call that uses it. So the index's rows are the only copy of the
corpus's embeddings that retrieve holds, as float32 when they convert
exactly, and `VectorIndex.search` widens them to float64 one fixed-size tile
at a time. A search scores a whole group's query sets against each tile in
one product and keeps, per set, only the rows where a query scores at or
above the threshold; a dense set, where a query has more than k such rows,
is scored again by exact top k, kept tile by tile. So what it holds does not
grow with the index.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from array import array
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .web import EmbeddingError, RetrievalConfig, RetrievalError

_NORM_TOLERANCE = 1e-6
_DIGEST_DTYPE = np.dtype("S16")  # a cache key's blake2b digest, compared as 16 raw bytes
SEARCH_TILE_ROWS = 512  # index rows widened to float64 and scored per BLAS call


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

    The constructor scans the record headers and keeps, sorted, a 16-byte
    digest of each key's UTF-8 bytes with its record's byte offset and dim,
    and the file's (size, st_mtime_ns) stamp. So it holds neither the file's
    bytes nor any key: each record costs 28 bytes, however long its key. Of
    records that share a digest, the last one is kept, so the last record of
    a duplicated key wins. `_unit_rows` widens the float32 rows to float64 in
    one step, which is exact.
    """

    def __init__(self, path: str | Path):
        self.path = path
        digests = bytearray()
        offsets = array("q")
        dims = array("I")
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
                raw = head[:id_len]
                try:
                    key = raw.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise RetrievalError(f"{path}: the key of the record at offset {pos} "
                                         f"is not UTF-8: {e}") from None
                (dim,) = struct.unpack_from("<I", head, id_len)
                if start + 4 * dim > size:
                    raise RetrievalError(f"{path}: truncated vector for {key!r}")
                digests += _digest(raw)
                offsets.append(pos)
                dims.append(dim)
                pos = start + 4 * dim
                f.seek(pos)
        keys = np.frombuffer(digests, dtype=_DIGEST_DTYPE)
        order = np.argsort(keys, kind="stable")  # file order within a digest
        keys = keys[order]
        last = np.ones(len(keys), dtype=bool)  # the last record of each digest
        last[:-1] = keys[1:] != keys[:-1]
        self._keys = keys[last]
        self._offsets = np.frombuffer(offsets, dtype=np.int64)[order][last]
        self._dims = np.frombuffer(dims, dtype=np.uint32)[order][last]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Each text's record is read from its offset in one read: its stored
        key into a header buffer, its vector straight into its row. A record
        whose key is not the text counts as a missing key. The file is
        checked after the reads, so one rewritten before or during them is
        refused rather than read as different vectors."""
        raws = [t.encode("utf-8", "surrogatepass") for t in texts]
        want = np.frombuffer(b"".join(map(_digest, raws)), dtype=_DIGEST_DTYPE)
        at = np.searchsorted(self._keys, want)
        found = at < len(self._keys)
        found[found] = self._keys[at[found]] == want[found]
        missing = [t for t, ok in zip(texts, found) if not ok]
        if missing:
            raise EmbeddingError(f"embedding cache is missing keys: {missing!r}")
        dims = set(self._dims[at].tolist())
        if len(dims) > 1:
            raise EmbeddingError(f"embedding batch of {len(texts)} texts: dims {sorted(dims)}")
        dim = dims.pop() if dims else 0
        out = np.empty((len(texts), dim), dtype="<f4")
        with open(self.path, "rb", buffering=0) as f:
            fd = f.fileno()
            for text, raw, row, offset in zip(texts, raws, out, self._offsets[at].tolist()):
                head = struct.pack("<I", len(raw)) + raw + struct.pack("<I", dim)
                stored = bytearray(len(head))
                if os.preadv(fd, [stored, row], offset) != len(head) + 4 * dim:
                    raise RetrievalError(f"{self.path}: short read of the vector for {text!r}")
                if stored != head:
                    missing.append(text)
            if _stamp(os.fstat(fd)) != self._stamp:
                raise RetrievalError(f"{self.path}: changed since it was scanned")
        if missing:
            raise EmbeddingError(f"embedding cache is missing keys: {missing!r}")
        return _unit_rows(out, texts)


def _stamp(st: os.stat_result) -> tuple[int, int]:
    return st.st_size, st.st_mtime_ns


def _digest(raw: bytes) -> bytes:
    return hashlib.blake2b(raw, digest_size=_DIGEST_DTYPE.itemsize).digest()


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
        # Imported here so that runs without this provider never load them.
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        headers = {"Content-Type": "application/json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        body = json.dumps({"texts": list(texts)}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_s * 2 ** (attempt - 1))
            try:
                with urlopen(Request(self.endpoint, data=body, headers=headers),
                             timeout=self.timeout_s) as resp:  # a POST, since it has data
                    vectors = json.loads(resp.read())["vectors"]
            except (OSError, HTTPException, KeyError, TypeError, ValueError) as e:
                if isinstance(e, HTTPError):  # an HTTP status >= 400; it holds the socket
                    e.close()
                last_error = e
            else:
                return _unit_rows(vectors, texts)
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
    ascending doc id. They are held as float32 when every row converts to
    float32 and back unchanged, as the `file` provider's rows do, and as
    float64 otherwise; `search` widens them to float64 a tile at a time,
    which is exact, so both give the same scores.
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
        # twice; rows are reordered only if the docs did not arrive by id. The
        # buffer holds float32 until a batch does not convert exactly; then the
        # rows so far are widened to float64, and so is every later batch.
        doc_ids: list[str] = []
        buffer = bytearray()
        dtype = np.float32
        dim: int | None = None
        for ids, rows in batches:
            rows = np.asarray(rows, dtype=np.float64)
            if dim is None and rows.ndim == 2:
                dim = rows.shape[1]
            if rows.shape != (len(ids), dim):
                raise RetrievalError(f"batch from doc {ids[0]!r} has shape {rows.shape}, "
                                     f"index has dimension {dim}")
            doc_ids += ids
            if dtype is np.float32:
                with np.errstate(over="ignore"):  # a row too large for float32 is not exact
                    narrow = rows.astype(np.float32)
                if np.array_equal(narrow, rows):
                    buffer += narrow.tobytes()
                    continue
                dtype = np.float64
                buffer = bytearray(np.frombuffer(buffer, dtype=np.float32).astype(np.float64))
            buffer += rows.tobytes()
        if not doc_ids:
            return cls([], np.zeros((0, 0), dtype=np.float64))
        matrix = np.frombuffer(buffer, dtype=dtype).reshape(len(doc_ids), dim)
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

    def search(self, queries: np.ndarray, k: int, threshold: float
               ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Score n sets of q queries, an (n, q, d) block, against every row.

        Returns, for each set, the rows that can reach its result, ascending
        (so by doc id), each with its q scores as one row of a (rows, q)
        block; and a bool array marking the sets scored by exact top k.

        A set's rows are those where any of its queries scores at or above
        the threshold. A set where some query has more than k such rows is
        dense: its rows are dropped as soon as that shows, and it is scored
        again by exact top k, which costs one more scan of the index: its
        rows are then the union of each query's k highest scores, a tie at
        rank k going to the lower row. So when no query of a set has more
        than k rows at or above the threshold, its rows hold every row whose
        mean score clears the threshold, and each of those is also in that
        union. A threshold of -inf thus gives every set that union.

        Both passes take their scores from `_scored_tiles` and keep only
        these rows, at most q * k per set, so what a call holds does not grow
        with the index.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        queries = np.asarray(queries, dtype=np.float64)
        if not self.doc_ids:
            empty = (np.zeros(0, dtype=np.intp), np.zeros((0, queries.shape[1])))
            return [empty] * len(queries), np.zeros(len(queries), dtype=bool)
        if queries.ndim != 3 or queries.shape[2] != self.matrix.shape[1]:
            raise RetrievalError(
                f"query block has shape {queries.shape}, index has dimension "
                f"{self.matrix.shape[1]}"
            )
        pools, dense = self._at_or_above(queries, k, threshold)
        if dense.any():
            for i, pool in zip(np.flatnonzero(dense), self._top_k(queries[dense], k)):
                pools[i] = pool
        return pools, dense

    def _at_or_above(self, queries: np.ndarray, k: int, threshold: float
                     ) -> tuple[list, np.ndarray]:
        """Each set's rows where any query scores at or above `threshold`, and
        the mask of dense sets, whose pools are None."""
        n_sets, q, _ = queries.shape
        counts = np.zeros((n_sets, q), dtype=np.intp)  # rows at or above, per query
        dense = np.zeros(n_sets, dtype=bool)
        # Per tile, the (set, row, q scores) of each row kept, in (set, row) order.
        found = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros((0, q)))]
        for start, block in self._scored_tiles(queries):
            hits = block >= threshold
            counts += np.count_nonzero(hits, axis=2)
            over = (counts > k).any(axis=1) & ~dense
            if over.any():
                dense |= over
                if dense.all():
                    break
                found = [tuple(part[~dense[s]] for part in (s, r, v)) for s, r, v in found]
            sets, cols = np.nonzero(hits.any(axis=1) & ~dense[:, None])
            found.append((sets, cols + start, block[sets, :, cols]))
        sets, rows, scores = (np.concatenate(part) for part in zip(*found))
        order = np.argsort(sets, kind="stable")  # each set's rows stay ascending
        rows, scores = rows[order], scores[order]
        ends = np.cumsum(np.bincount(sets, minlength=n_sets)).tolist()
        pools = [(rows[a:b], scores[a:b]) for a, b in zip([0] + ends, ends)]
        return [None if d else pool for pool, d in zip(pools, dense)], dense

    def _top_k(self, queries: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each set's union of its queries' top k rows, kept tile by tile: a
        tile's rows join the rows kept so far, which precede them, and each
        query keeps its k highest of those."""
        n_sets, q, _ = queries.shape
        pools = [(np.zeros(0, dtype=np.intp), np.zeros((0, q)))] * n_sets
        for start, block in self._scored_tiles(queries):
            tile_rows = np.arange(start, start + block.shape[2])
            for i, (rows, scores) in enumerate(pools):
                rows = np.concatenate([rows, tile_rows])
                scores = np.concatenate([scores, block[i].T])
                keep = np.zeros(len(rows), dtype=bool)
                for column in scores.T:
                    keep |= _top_k_mask(column, k)
                pools[i] = rows[keep], scores[keep]
        return pools

    def _scored_tiles(self, queries: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(first row, (n, q, rows) score block) of each tile of the index.

        The rows are scored SEARCH_TILE_ROWS at a time: each tile is copied
        into a C-ordered float64 buffer, which is exact, and all the queries
        are multiplied against it in one product, so an index no wider than
        one tile is scored in a single product. The copy is explicit because
        a matmul that casts a float32 tile itself gives other score bits.
        Every tile's block is written into one buffer, which the next tile
        overwrites.
        """
        n_sets, q, dim = queries.shape
        queries = queries.reshape(n_sets * q, dim)
        n, tile_rows = len(self.doc_ids), SEARCH_TILE_ROWS
        buffer = np.empty((min(n, tile_rows), dim))
        scores = np.empty(len(queries) * len(buffer))
        for start in range(0, n, tile_rows):
            tile = buffer[:min(tile_rows, n - start)]
            np.copyto(tile, self.matrix[start:start + len(tile)])
            block = scores[:len(queries) * len(tile)].reshape(len(queries), len(tile))
            np.matmul(queries, tile.T, out=block)
            yield start, block.reshape(n_sets, q, len(tile))


def _top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Where the k highest of `scores` are. A partition finds the k-th
    score; of the scores equal to it, the first ones fill the k."""
    if len(scores) <= k:
        return np.ones(len(scores), dtype=bool)
    kth = len(scores) - k  # where the k-th highest score sorts ascending
    floor = np.partition(scores, kth)[kth]
    top = scores > floor
    top[np.flatnonzero(scores == floor)[:k - np.count_nonzero(top)]] = True
    return top
