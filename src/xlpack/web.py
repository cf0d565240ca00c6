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
article in the group, and one index search scores them all against the
corpus, tile by tile. Each query's candidate pool is its top k docs; the
search keeps only the docs where a query scores at or above the threshold,
which hold every doc of the union of the pools whose mean clears it, unless
a query has more than k of them (a dense article, scored again for its exact
top k pools).

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
from .dump_ingest import RawArticle, numbered_lines

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
        if self.max_retries < 0:
            raise ValueError(f"max_retries: {self.max_retries!r} is negative")
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s: {self.timeout_s!r} is not positive")
        if self.provider not in ("mock", "file", "wire"):
            raise ValueError(f"provider: unknown provider {self.provider!r}")
        if self.provider == "file" and not self.cache_path:
            raise ValueError("cache_path: required for the file provider")
        if self.provider == "wire" and not self.endpoint:
            raise ValueError("endpoint: required for the wire provider")


@dataclass
class RetrievalTally:
    articles_queried: int = 0
    blank_articles: int = 0
    unmapped_titles: int = 0
    empty_keyword_sets: int = 0
    results_kept: int = 0
    missing_corpus_texts: int = 0
    dense_articles: int = 0  # scored through the exact top k (`VectorIndex.search`)


def extract_keywords(
    article_l: RawArticle,
    title_map: Mapping[str, str],
    tally: RetrievalTally | None = None,
) -> KeywordSet:
    """English-mapped keywords for one target-language article.

    title_map maps target-language page titles to English titles. The article
    title falls back to its raw form when unmapped (tallied); link targets
    without a mapping, and links mapped to the title keyword itself, are
    excluded. Content keywords are ordered by descending in-article frequency,
    ties by first occurrence, and capped at MAX_CONTENT_KEYWORDS.
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
        if mapped is None or mapped == title_keyword:
            continue
        counts[mapped] += 1
        first_seen.setdefault(mapped, pos)
    ranked = sorted(counts, key=lambda kw: (-counts[kw], first_seen[kw]))
    return KeywordSet(title_keyword, ranked[:MAX_CONTENT_KEYWORDS])


def two_step_retrieve(
    keyword_sets: Sequence[KeywordSet],
    index: VectorIndex,
    provider,
    cfg: RetrievalConfig | None = None,
    tally: RetrievalTally | None = None,
) -> list[list[RetrievalResult]]:
    """Results per keyword set: the union of both query steps' candidate
    pools (each query's top cfg.candidate_pool_k docs), averaged, filtered at
    cfg.threshold, ranked by mean (ties by doc id) and capped.

    The whole group makes one provider call, with the title and the full
    query of each non-empty set, and one index search, which is given the
    threshold: it returns, per set, the docs where either query scores at or
    above it, which hold every pool doc whose mean clears it, or for a dense
    set (a query has more than k such docs) the exact union of the two pools,
    scored in a second scan and counted as `dense_articles`. Either way the
    docs are averaged, filtered and ranked alike. An empty set gets no results.
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
    queries = np.reshape(provider.embed_batch(texts), (len(queried), 2, -1))
    pools, dense = index.search(queries, cfg.candidate_pool_k, cfg.threshold)
    tally.dense_articles += int(np.count_nonzero(dense))
    for i, (rows, scores) in zip(queried, pools):
        s_final = (scores[:, 0] + scores[:, 1]) / 2.0
        kept = s_final >= cfg.threshold
        rows, scores, s_final = rows[kept], scores[kept], s_final[kept]
        best = np.argsort(-s_final, kind="stable")[: cfg.max_results]
        out[i] = [
            RetrievalResult(index.doc_ids[r], float(s_title), float(s_full), float(s))
            for r, (s_title, s_full), s in zip(rows[best], scores[best], s_final[best])
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

    The English title is the document's first non-blank line, which ends at
    `\n` only, as `numbered_lines` ends a line (or its id when the text is
    blank); pseudo pairs carry origin "web" so statistics can separate them
    from dump-aligned pairs, and packing treats them identically.
    """
    return ArticlePair(
        pair=PairId(id_l=article_l.page_id, id_en=_pseudo_en_id(doc_id)),
        title_en=text.strip().split("\n", 1)[0].strip() or doc_id,
        title_l=article_l.title,
        text_en=text,
        text_l=article_l.text,
        lang_l=article_l.lang,
        origin="web",
    )


def read_candidate_corpus(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (id, text) from a line-delimited JSON web corpus, refusing a line
    that is not UTF-8, not an object with those two keys, or whose id or text
    holds a lone surrogate, which has no UTF-8 form to embed or write."""
    for lineno, _, line in numbered_lines(path):
        try:
            rec = json.loads(line.decode("utf-8"))
            doc_id, text = rec["id"], rec["text"]  # TypeError: not an object
            # Any other value would be embedded and packed as its str().
            if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                raise TypeError(f"id {doc_id!r} is not a string or an integer")
            if not isinstance(text, str):
                raise TypeError(f"text {text!r:.40} is not a string")
            doc_id = str(doc_id)
            doc_id.encode(), text.encode()  # UnicodeEncodeError: a lone surrogate
        except (ValueError, KeyError, TypeError) as e:
            raise RetrievalError(f"{path}:{lineno}: bad corpus record: {e}") from e
        yield doc_id, text
