"""Title-based alignment of bilingual article pairs.

The pair map is built in two directions: interlanguage links of the target
wiki are resolved against the English `page` table (forward), links of the
English wiki against the target `page` table (reverse), and the two pair sets
are unioned. A link is dropped when its target title is blank, or does not
resolve to a kept page. Pages outside the article namespace and redirects are
excluded from resolution by default; each of those sub-filters can be relaxed.

Pair ids are joined against article texts through ArticleStores, on-disk
byte-offset indexes over the extracted-article files that keep memory
independent of corpus size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .dump_ingest import LangLink, PageRecord, RawArticle, article_files


@dataclass(frozen=True, order=True)
class PairId:
    id_l: int
    id_en: int


@dataclass
class ArticlePair:
    pair: PairId
    title_en: str
    title_l: str
    text_en: str
    text_l: str
    lang_l: str
    origin: str = "wiki"  # "wiki" for dump-aligned pairs, "web" for retrieval pairs


@dataclass
class AlignmentFilters:
    """Sub-filters behind the blank/invalid title rule; strict by default."""

    drop_blank_titles: bool = True
    article_namespace_only: bool = True
    drop_redirects: bool = True


@dataclass
class AlignTally:
    links_seen: int = 0
    links_dropped: int = 0
    title_collisions: int = 0
    pairs_missing_text: int = 0
    duplicate_articles: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "links_seen": self.links_seen,
            "links_dropped": self.links_dropped,
            "title_collisions": self.title_collisions,
            "pairs_missing_text": self.pairs_missing_text,
            "duplicate_articles": self.duplicate_articles,
        }


def build_title_index(
    pages: Iterable[PageRecord],
    filters: AlignmentFilters,
    tally: AlignTally,
) -> dict[str, int]:
    """Map title -> page id over the records that pass the page filters.

    A title resolving to several page ids keeps the lowest id (deterministic)
    and counts a collision.
    """
    index: dict[str, int] = {}
    for rec in pages:
        if filters.article_namespace_only and rec.namespace != 0:
            continue
        if filters.drop_redirects and rec.is_redirect:
            continue
        if not rec.title.strip():
            continue
        prev = index.get(rec.title)
        if prev is None:
            index[rec.title] = rec.page_id
        else:
            tally.title_collisions += 1
            if rec.page_id < prev:
                index[rec.title] = rec.page_id
    return index


def build_pair_map(
    langlinks_l_to_en: Iterable[LangLink],
    pages_en: Iterable[PageRecord],
    langlinks_en_to_l: Iterable[LangLink],
    pages_l: Iterable[PageRecord],
    filters: AlignmentFilters | None = None,
    tally: AlignTally | None = None,
) -> set[PairId]:
    """Union of forward and reverse title-resolved id pairs.

    Forward: (id_l -> english title) resolved against the English page index.
    Reverse: (id_en -> target title) resolved against the target page index.
    Both directions apply the same blank/invalid-title filtering.
    """
    filters = filters if filters is not None else AlignmentFilters()
    tally = tally if tally is not None else AlignTally()
    pairs: set[PairId] = set()

    index_en = build_title_index(pages_en, filters, tally)
    for link in langlinks_l_to_en:
        tally.links_seen += 1
        if filters.drop_blank_titles and not link.target_title.strip():
            tally.links_dropped += 1
            continue
        id_en = index_en.get(link.target_title)
        if id_en is None:
            tally.links_dropped += 1
            continue
        pairs.add(PairId(id_l=link.from_page_id, id_en=id_en))

    index_l = build_title_index(pages_l, filters, tally)
    for link in langlinks_en_to_l:
        tally.links_seen += 1
        if filters.drop_blank_titles and not link.target_title.strip():
            tally.links_dropped += 1
            continue
        id_l = index_l.get(link.target_title)
        if id_l is None:
            tally.links_dropped += 1
            continue
        pairs.add(PairId(id_l=id_l, id_en=link.from_page_id))

    return pairs


class ArticleStore:
    """Random access to extracted-article JSONL files by page id.

    Indexing scans every file once, recording byte offsets; texts are read
    back on demand, so memory stays proportional to the article count, not
    the corpus size. Later duplicates of a page id are ignored and tallied.
    """

    def __init__(self, path: str | Path, lang: str, tally: AlignTally | None = None):
        self.lang = lang
        self._tally = tally if tally is not None else AlignTally()
        self._index: dict[int, tuple[int, int]] = {}
        self._files = article_files(path)
        for fidx, file in enumerate(self._files):
            with open(file, "rb") as f:
                offset = 0
                for line in f:
                    stripped = line.strip()
                    if stripped:
                        try:
                            rec = json.loads(stripped)
                            page_id = int(rec["id"])
                        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                            page_id = None
                        if page_id is not None:
                            if page_id in self._index:
                                self._tally.duplicate_articles += 1
                            else:
                                self._index[page_id] = (fidx, offset)
                    offset += len(line)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._index

    def get(self, page_id: int) -> RawArticle | None:
        loc = self._index.get(page_id)
        if loc is None:
            return None
        fidx, offset = loc
        with open(self._files[fidx], "rb") as f:
            f.seek(offset)
            rec = json.loads(f.readline())
        return RawArticle(page_id, rec.get("title", ""), rec.get("text", ""), self.lang)


def join_articles(
    pair_ids: set[PairId],
    articles_en: ArticleStore,
    articles_l: ArticleStore,
    tally: AlignTally | None = None,
) -> Iterator[ArticlePair]:
    """Emit one ArticlePair per pair id whose two texts exist and are non-empty.

    Output is ascending by (id_l, id_en) regardless of article file order.
    Pairs missing either side, or with blank text or title, are tallied under
    pairs_missing_text and skipped.
    """
    tally = tally if tally is not None else AlignTally()
    for pid in sorted(pair_ids):
        art_en = articles_en.get(pid.id_en)
        art_l = articles_l.get(pid.id_l)
        if (
            art_en is None
            or art_l is None
            or not art_en.text.strip()
            or not art_l.text.strip()
            or not art_en.title.strip()
            or not art_l.title.strip()
        ):
            tally.pairs_missing_text += 1
            continue
        yield ArticlePair(
            pair=pid,
            title_en=art_en.title,
            title_l=art_l.title,
            text_en=art_en.text,
            text_l=art_l.text,
            lang_l=art_l.lang,
        )


def save_pair_map(pairs: set[PairId], path: str | Path) -> None:
    """Persist the pair map as ascending `id_l<TAB>id_en` lines."""
    with open(path, "w", encoding="utf-8") as f:
        for pid in sorted(pairs):
            f.write(f"{pid.id_l}\t{pid.id_en}\n")


def load_pair_map(path: str | Path) -> set[PairId]:
    pairs: set[PairId] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected id_l<TAB>id_en, got {line!r}")
            pairs.add(PairId(int(parts[0]), int(parts[1])))
    return pairs
