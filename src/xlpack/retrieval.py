"""Semantic retrieval of English web documents for target-language articles.

Keywords are the article's internal wiki-link targets that have English
mappings in the interlanguage table (plus the mapped article title itself),
ranked by in-article frequency and capped. Candidates from a web corpus are
scored twice against an exact inner-product index: once with a title-only
query and once with a title-plus-content query; the final score is the mean of
the two. Results below the similarity threshold are dropped and at most
max_results survive per article; each survivor becomes a pseudo article pair
(`pseudo_pair`) that downstream packing treats like any aligned pair.

Articles are scored in groups: one provider call embeds both queries of every
article in the group, and one matrix product scores them all against the
corpus. Each query's candidate pool is its top k rows, selected by partition
rather than a full sort; pool scores are read from the same score block.

Embedding providers are injected: a seeded deterministic mock for tests, a
precomputed binary cache, and a single-endpoint wire provider.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .alignment import ArticlePair, PairId
from .dump_ingest import RawArticle

MAX_CONTENT_KEYWORDS = 10

_WIKILINK = re.compile(r"\[\[([^\[\]|]+)(?:\|[^\[\]]*)?\]\]")

_NORM_TOLERANCE = 1e-6


class RetrievalError(RuntimeError):
    pass


class EmbeddingError(RetrievalError):
    pass


@dataclass
class KeywordSet:
    title_keyword: str
    content_keywords: list[str] = field(default_factory=list)

    def full_query(self) -> str:
        return " ".join([self.title_keyword, *self.content_keywords]).strip()


@dataclass
class CandidateDoc:
    doc_id: str
    vector: np.ndarray


@dataclass
class RetrievalResult:
    doc_id: str
    s_title: float
    s_full: float
    s_final: float


@dataclass
class RetrievalConfig:
    """Retrieval constants plus the embedding provider wiring."""

    threshold: float = 0.75
    max_results: int = 3
    candidate_pool_k: int = 100
    provider: str = "mock"  # mock | file | wire
    dim: int = 16
    seed: int = 0
    cache_path: str | None = None
    endpoint: str | None = None
    auth_token: str | None = None
    timeout_s: float = 30.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        if self.max_results < 1:
            raise ValueError("max_results must be at least 1")
        if self.candidate_pool_k < 1:
            raise ValueError("candidate_pool_k must be at least 1")


@dataclass
class RetrievalTally:
    articles_queried: int = 0
    unmapped_titles: int = 0
    empty_keyword_sets: int = 0
    results_kept: int = 0
    missing_corpus_texts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "articles_queried": self.articles_queried,
            "unmapped_titles": self.unmapped_titles,
            "empty_keyword_sets": self.empty_keyword_sets,
            "results_kept": self.results_kept,
            "missing_corpus_texts": self.missing_corpus_texts,
        }


def extract_keywords(
    article_l: RawArticle,
    title_map: Mapping[str, str],
    tally: RetrievalTally | None = None,
    max_keywords: int = MAX_CONTENT_KEYWORDS,
) -> KeywordSet:
    """English-mapped keywords for one target-language article.

    title_map maps target-language page titles to English titles. The article
    title falls back to its raw form when unmapped (tallied); link targets
    without a mapping are excluded. Content keywords are ordered by descending
    in-article frequency, ties by first occurrence, and capped.
    """
    tally = tally if tally is not None else RetrievalTally()
    own_title = article_l.title.strip()
    title_keyword = title_map.get(own_title)
    if title_keyword is None:
        tally.unmapped_titles += 1
        title_keyword = own_title

    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    for pos, m in enumerate(_WIKILINK.finditer(article_l.text)):
        target = m.group(1).replace("_", " ").strip()
        mapped = title_map.get(target)
        if mapped is None:
            continue
        counts[mapped] += 1
        first_seen.setdefault(mapped, pos)
    ranked = sorted(counts, key=lambda kw: (-counts[kw], first_seen[kw]))
    return KeywordSet(title_keyword, ranked[:max_keywords])


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

    def __init__(self, dim: int = 16, seed: int = 0):
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
        timeout_s: float = 30.0,
        max_retries: int = 3,
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
        # Rows are appended to one buffer as they arrive, so no vector is held
        # twice; they are reordered only if the docs did not arrive by id.
        doc_ids: list[str] = []
        seen: set[str] = set()
        rows = bytearray()
        dim: int | None = None
        for doc in docs:
            if doc.doc_id in seen:
                raise RetrievalError(f"duplicate doc_id {doc.doc_id!r}")
            vec = _normalize(doc.vector, doc.doc_id)
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


def two_step_retrieve(
    keyword_sets: Sequence[KeywordSet],
    index: VectorIndex,
    provider,
    cfg: RetrievalConfig | None = None,
    tally: RetrievalTally | None = None,
) -> list[list[RetrievalResult]]:
    """Results per keyword set: the union of both query steps' candidate
    pools, averaged, filtered and capped.

    The whole group makes one provider call, with the title and the full
    query of each non-empty set, and one index search. An empty set gets no
    results.
    """
    cfg = cfg if cfg is not None else RetrievalConfig()
    tally = tally if tally is not None else RetrievalTally()
    tally.articles_queried += len(keyword_sets)
    queried: list[int] = []
    texts: list[str] = []
    for i, ks in enumerate(keyword_sets):
        title_query = ks.title_keyword.strip()
        if not title_query and not ks.content_keywords:
            tally.empty_keyword_sets += 1
            continue
        queried.append(i)
        texts += [title_query, ks.full_query()]
    out: list[list[RetrievalResult]] = [[] for _ in keyword_sets]
    if not queried:
        return out
    scores, top = index.search(np.stack(provider.embed_batch(texts)), cfg.candidate_pool_k)
    for j, i in enumerate(queried):
        s_title, s_full = scores[2 * j], scores[2 * j + 1]
        pool = np.union1d(top[2 * j], top[2 * j + 1])  # ascending rows, so ascending doc ids
        s_final = (s_title[pool] + s_full[pool]) / 2.0
        kept = s_final >= cfg.threshold
        pool, s_final = pool[kept], s_final[kept]
        best = np.argsort(-s_final, kind="stable")[: cfg.max_results]
        out[i] = [
            RetrievalResult(index.doc_ids[r], float(s_title[r]), float(s_full[r]), float(s))
            for r, s in zip(pool[best], s_final[best])
        ]
        tally.results_kept += len(out[i])
    return out


def _pseudo_en_id(doc_id: str) -> int:
    # Web documents have no numeric page id; derive a stable 63-bit one.
    digest = hashlib.blake2b(doc_id.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def pseudo_pair(article_l: RawArticle, doc_id: str, text: str) -> ArticlePair:
    """The pseudo pair of one retained result: the retrieved doc is the
    English side.

    The English title is the document's first line (or its id when blank);
    pseudo pairs carry origin "web" so statistics can separate them from
    dump-aligned pairs, and packing treats them identically.
    """
    lines = text.strip().splitlines()
    return ArticlePair(
        pair=PairId(id_l=article_l.page_id, id_en=_pseudo_en_id(doc_id)),
        title_en=lines[0].strip() if lines else doc_id,
        title_l=article_l.title,
        text_en=text,
        text_l=article_l.text,
        lang_l=article_l.lang,
        origin="web",
    )


def read_candidate_corpus(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (id, text) from a line-delimited JSON web corpus."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                yield str(rec["id"]), str(rec["text"])
            except (json.JSONDecodeError, KeyError) as e:
                raise RetrievalError(f"{path}:{lineno}: bad corpus record: {e}") from e
