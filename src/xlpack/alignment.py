"""Title-based alignment of bilingual article pairs.

The pair map is built in two directions: interlanguage links of the target
wiki are resolved against the English `page` table (forward), links of the
English wiki against the target `page` table (reverse), and the two pair sets
are unioned, one direction and one title index at a time. A link is dropped
when its target title is blank, or does not resolve to a kept page. Pages
outside the article namespace and redirects are excluded from resolution.

scan_articles is the one reader of the extracted-article files. retrieve
streams its records; pack joins pair ids through ArticleStores, byte-offset
indexes filled by a scan that each store advances only as far as its lookups
need, so both see the same record of each page id. Pack looks pairs up in
ascending (target id, English id) order: a target-language file in page-id
order is decoded once per line, and an English file only when its ids also
rise with the target ids; otherwise the English scan runs ahead and a later
lookup decodes its line a second time, from its offset. A store keeps the
texts on disk, but its index holds one entry per article. Its tallies are
complete once it is closed, which runs the scan to its end.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .dump_ingest import LangLink, PageRecord, RawArticle, article_files, parse_article_line


class PairId(NamedTuple):
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
class AlignTally:
    links_seen: int = 0
    links_dropped: int = 0
    title_collisions: int = 0


@dataclass
class ArticleTally:
    pairs_missing_text: int = 0
    duplicate_articles: int = 0
    malformed_articles: int = 0


def build_title_index(pages: Iterable[PageRecord], tally: AlignTally) -> dict[str, int]:
    """Map title -> page id over the article-namespace pages that are not
    redirects and whose title is not blank.

    A title resolving to several page ids keeps the lowest id (deterministic)
    and counts a collision.
    """
    index: dict[str, int] = {}
    for rec in pages:
        if rec.namespace != 0 or rec.is_redirect or not rec.title.strip():
            continue
        prev = index.get(rec.title)
        if prev is None:
            index[rec.title] = rec.page_id
        else:
            tally.title_collisions += 1
            if rec.page_id < prev:
                index[rec.title] = rec.page_id
    return index


def _resolve_links(links: Iterable[LangLink], pages: Iterable[PageRecord],
                   tally: AlignTally) -> Iterator[tuple[int, int]]:
    """(source page id, resolved page id) of each link whose target title names
    one of `pages`; the title index lives only while the generator runs."""
    index = build_title_index(pages, tally)
    for link in links:
        tally.links_seen += 1
        page_id = index.get(link.target_title)
        if page_id is None:
            tally.links_dropped += 1
        else:
            yield link.from_page_id, page_id


def build_pair_map(
    langlinks_l_to_en: Iterable[LangLink],
    pages_en: Iterable[PageRecord],
    langlinks_en_to_l: Iterable[LangLink],
    pages_l: Iterable[PageRecord],
    tally: AlignTally | None = None,
) -> set[PairId]:
    """Union of forward and reverse title-resolved id pairs.

    Forward: (id_l -> english title) resolved against the English page index.
    Reverse: (id_en -> target title) resolved against the target page index.
    Both directions apply the same page filters; a blank target title never
    resolves, since build_title_index skips blank titles.
    """
    tally = tally if tally is not None else AlignTally()
    pairs = set(map(PairId._make, _resolve_links(langlinks_l_to_en, pages_en, tally)))
    pairs.update(PairId(id_l, id_en)
                 for id_en, id_l in _resolve_links(langlinks_en_to_l, pages_l, tally))
    return pairs


def scan_articles(path: str | Path, lang: str, tally: ArticleTally | None = None,
                  index: dict[int, tuple[Path, int]] | None = None) -> Iterator[RawArticle]:
    """The first well-formed record (`parse_article_line`) of each page id in
    the extracted-article files under `path`, in file order, decoding each line
    once. Later duplicates of a page id are tallied under duplicate_articles,
    every other non-blank line that is not a record under malformed_articles.
    `index`, when given, receives each yielded record's (file, byte offset).
    """
    tally = tally if tally is not None else ArticleTally()
    index = index if index is not None else {}
    for file in article_files(path):
        with open(file, "rb") as f:
            offset = 0
            for line in f:
                if line.strip():
                    article = parse_article_line(line, lang)
                    if article is None:
                        tally.malformed_articles += 1
                    elif article.page_id in index:
                        tally.duplicate_articles += 1
                    else:
                        index[article.page_id] = (file, offset)
                        yield article
                offset += len(line)


class ArticleStore:
    """Random access to extracted-article JSONL files by page id.

    The store runs scan_articles lazily, with its tallies, and keeps the
    (file, byte offset) of each record the scan yields. A `get` for an id the
    scan has not reached advances the scan and returns the record it yields,
    so on files in the order of the lookups each line is decoded once; an id
    the scan has passed is read back by offset, and an id with no record runs
    the scan to its end. Texts stay on disk, so memory
    grows with the article count, not the corpus size.

    `get` keeps the read handle of the last file it read from open, and
    reopens only when a record lies in another file. `close()` runs the scan
    to its end, so the tallies are complete once the store is closed; use the
    store as a context manager.
    """

    def __init__(self, path: str | Path, lang: str, tally: ArticleTally | None = None):
        self.lang = lang
        self._index: dict[int, tuple[Path, int]] = {}
        self._scan = scan_articles(path, lang, tally, self._index)
        self._handle: tuple[Path, BinaryIO] | None = None  # (file, open file)

    def get(self, page_id: int) -> RawArticle | None:
        loc = self._index.get(page_id)
        if loc is None:
            for article in self._scan:
                if article.page_id == page_id:
                    return article
            return None
        file, offset = loc
        if self._handle is None or self._handle[0] != file:
            self._close_handle()
            self._handle = (file, open(file, "rb"))
        f = self._handle[1]
        f.seek(offset)
        return parse_article_line(f.readline(), self.lang)

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle[1].close()
            self._handle = None

    def close(self) -> None:
        for _ in self._scan:
            pass
        self._close_handle()

    def __enter__(self) -> "ArticleStore":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self._scan.close()  # a failed join needs no tallies
        self.close()


def join_articles(
    pair_ids: set[PairId],
    articles_en: ArticleStore,
    articles_l: ArticleStore,
    tally: ArticleTally | None = None,
) -> Iterator[ArticlePair]:
    """Emit one ArticlePair per pair id whose two texts exist and are non-empty.

    Output is ascending by (id_l, id_en) regardless of article file order.
    Pairs missing either side, or with blank text or title, are tallied under
    pairs_missing_text and skipped.
    """
    tally = tally if tally is not None else ArticleTally()
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
            try:
                pairs.add(PairId(*map(int, line.split("\t"))))
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{lineno}: expected integer id_l<TAB>id_en, got "
                                 f"{line!r}; rerun align") from None
    return pairs
