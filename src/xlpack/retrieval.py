"""Semantic retrieval of English web documents for target-language articles.

Keywords are the article's internal wiki-link targets that have English
mappings in the interlanguage table (plus the mapped article title itself),
ranked by in-article frequency and capped. Candidates from a web corpus are
scored twice against an exact inner-product index: once with a title-only
query and once with a title-plus-content query; the final score is the mean of
the two. Results below the similarity threshold are dropped and at most
max_results survive per article; each survivor becomes a pseudo article pair
(`pseudo_pair`) that downstream packing treats like any aligned pair.

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
    threshold: float = 0.75
    max_results: int = 3
    candidate_pool_k: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        if self.max_results < 1:
            raise ValueError("max_results must be at least 1")


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
        self._table = dict(table)

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


def read_embedding_cache(path: str | Path) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
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
        table[key] = np.frombuffer(data[pos:end], dtype="<f4").astype(np.float64)
        pos = end
    return table


class VectorIndex:
    """Exact top-k inner-product search over unit vectors.

    Rows are held sorted by doc id, which both makes results independent of
    insertion order and lets a stable argsort break score ties by ascending
    doc id.
    """

    def __init__(self, doc_ids: list[str], matrix: np.ndarray):
        self.doc_ids = doc_ids
        self.matrix = matrix
        self._row: dict[str, int] = {d: i for i, d in enumerate(doc_ids)}

    @classmethod
    def build(cls, docs: Iterable[CandidateDoc]) -> "VectorIndex":
        by_id: dict[str, np.ndarray] = {}
        dim: int | None = None
        for doc in docs:
            if doc.doc_id in by_id:
                raise RetrievalError(f"duplicate doc_id {doc.doc_id!r}")
            vec = _normalize(doc.vector, doc.doc_id)
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise RetrievalError(
                    f"doc {doc.doc_id!r} has dimension {vec.shape[0]}, index has {dim}"
                )
            by_id[doc.doc_id] = vec
        doc_ids = sorted(by_id)
        if doc_ids:
            matrix = np.stack([by_id[d] for d in doc_ids])
        else:
            matrix = np.zeros((0, 0), dtype=np.float64)
        return cls(doc_ids, matrix)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def vector_of(self, doc_id: str) -> np.ndarray:
        return self.matrix[self._row[doc_id]]

    def search(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Top-k (doc_id, score) by descending inner product, ties by doc id."""
        if k <= 0 or not self.doc_ids:
            return []
        scores = self.matrix @ np.asarray(query, dtype=np.float64)
        order = np.argsort(-scores, kind="stable")[:k]
        return [(self.doc_ids[i], float(scores[i])) for i in order]


def two_step_retrieve(
    ks: KeywordSet,
    index: VectorIndex,
    provider,
    cfg: RetrievalConfig | None = None,
    tally: RetrievalTally | None = None,
) -> list[RetrievalResult]:
    """Score the union of both query steps' candidate pools, average, filter, cap."""
    cfg = cfg if cfg is not None else RetrievalConfig()
    tally = tally if tally is not None else RetrievalTally()
    tally.articles_queried += 1
    title_query = ks.title_keyword.strip()
    if not title_query and not ks.content_keywords:
        tally.empty_keyword_sets += 1
        return []
    q_title, q_full = provider.embed_batch([title_query, ks.full_query()])

    pool: set[str] = set()
    for doc_id, _ in index.search(q_title, cfg.candidate_pool_k):
        pool.add(doc_id)
    for doc_id, _ in index.search(q_full, cfg.candidate_pool_k):
        pool.add(doc_id)

    results = []
    for doc_id in pool:
        vec = index.vector_of(doc_id)
        s_title = float(vec @ q_title)
        s_full = float(vec @ q_full)
        s_final = (s_title + s_full) / 2.0
        if s_final >= cfg.threshold:
            results.append(RetrievalResult(doc_id, s_title, s_full, s_final))
    results.sort(key=lambda r: (-r.s_final, r.doc_id))
    results = results[: cfg.max_results]
    tally.results_kept += len(results)
    return results


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
