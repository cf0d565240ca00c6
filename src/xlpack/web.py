"""Semantic retrieval of English web documents for target-language articles:
the settings, the queries and the pseudo pairs.

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

This module loads no numpy, so the config and the pipeline import it without
loading numpy. `two_step_retrieve` imports numpy in its body; the embedding
providers and the index live in `xlpack.retrieval`, which loads numpy when
imported.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .alignment import ArticlePair, PairId
from .dump_ingest import RawArticle

if TYPE_CHECKING:
    from .retrieval import VectorIndex

MAX_CONTENT_KEYWORDS = 10

_WIKILINK = re.compile(r"\[\[([^\[\]|]+)(?:\|[^\[\]]*)?\]\]")


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
            raise ValueError(f"threshold: {self.threshold!r} outside [0.0, 1.0]")
        for key in ("max_results", "candidate_pool_k", "dim"):
            if not 1 <= getattr(self, key) <= 2**31:
                raise ValueError(f"{key}: {getattr(self, key)!r} outside [1, {2**31}]")
        if self.provider not in ("mock", "file", "wire"):
            raise ValueError(f"provider: unknown provider {self.provider!r}")
        if self.provider == "file" and not self.cache_path:
            raise ValueError("cache_path: required for the file provider")
        if self.provider == "wire" and not self.endpoint:
            raise ValueError("endpoint: required for the wire provider")


@dataclass
class RetrievalTally:
    articles_queried: int = 0
    unmapped_titles: int = 0
    empty_keyword_sets: int = 0
    results_kept: int = 0
    missing_corpus_texts: int = 0


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
    import numpy as np  # imported here so that runs without retrieve never load it

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
    scores, top = index.search(provider.embed_batch(texts), cfg.candidate_pool_k)
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
            except (json.JSONDecodeError, KeyError, TypeError) as e:  # TypeError: not an object
                raise RetrievalError(f"{path}:{lineno}: bad corpus record: {e}") from e
